//! The benchmark command.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload text-zipf --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Prints `# ` comment lines, then one JSON
//! result line as the last line of standard output. Exits non-zero,
//! without a result line, on a bad command line or an I/O failure.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use textmr_perfbench::run::{parse_args, run};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            for n in &out.notes {
                println!("{n}");
            }
            println!("{}", out.json);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
