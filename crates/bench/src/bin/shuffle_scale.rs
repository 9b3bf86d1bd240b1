//! Shuffle scaling — fetcher count × network preset (Table-IV-style
//! local-vs-EC2 comparison for the shuffle phase).
//!
//! Sweeps `ClusterConfig::shuffle_fetchers` over both network presets on
//! the shuffle-heaviest workload (InvertedIndex) and reports the NIC
//! model's virtual shuffle time against the sequential (1-fetcher) sum.
//! Paper shape this probes: shuffle cost is what separates the local and
//! EC2 columns of Table IV, and parallel fetch can only recover overlap —
//! it never beats the largest single flow into a reducer, and on the
//! weaker EC2 network the same byte volume leaves less to overlap
//! relative to the map/reduce work around it.
//!
//! The harness also re-checks the subsystem's contract at every point:
//! outputs and timing-free signatures are byte-identical at all fetcher
//! counts, and `max_flow ≤ virtual` for the aggregate schedule. Where no
//! two reducers share a node it also checks `virtual ≤ sequential`; on a
//! node hosting several reducers their concurrent transfers share its
//! ingress, so the sum of isolated flow costs is no longer an upper bound.
//!
//! ```sh
//! cargo run --release -p textmr-bench --bin shuffle_scale [-- --scale paper]
//! cargo run --release -p textmr-bench --bin shuffle_scale -- --smoke   # CI
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;
use textmr_bench::report::{ms, Table};
use textmr_bench::runner::{ec2_cluster, local_cluster, REDUCERS};
use textmr_bench::scale::Scale;
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::shuffle::{FetchHistogram, NUM_FETCH_BUCKETS};

/// Human label for the histogram's most-populated bucket.
fn typical_fetch(hist: &FetchHistogram) -> String {
    let (mut best, mut count) = (0usize, 0u64);
    for (i, &c) in hist.buckets().iter().enumerate() {
        if c > count {
            (best, count) = (i, c);
        }
    }
    match best {
        0 => "empty".to_string(),
        b if b + 1 >= NUM_FETCH_BUCKETS => format!(">=2^{}B", b - 1),
        b => format!("{}..{}B", 1u64 << (b - 1), 1u64 << b),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = Scale::from_args();
    let lines = if smoke { 1_500 } else { scale.corpus_lines };
    // Small blocks force many map tasks, so every reducer fetches many
    // flows — the regime where a fetcher pool has anything to overlap.
    let block = if smoke {
        8 << 10
    } else {
        scale.block_size.min(128 << 10)
    };
    let fetcher_sweep: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let presets: [(&str, ClusterConfig); 2] =
        [("local", local_cluster(scale)), ("ec2", ec2_cluster(scale))];

    let job: Arc<dyn textmr_engine::job::Job> = Arc::new(textmr_apps::InvertedIndex);
    let job_cfg = JobConfig::default().with_reducers(REDUCERS);

    let mut table = Table::new(&[
        "net",
        "fetchers",
        "fetched_MB",
        "remote_MB",
        "seq_shuffle_ms",
        "virt_shuffle_ms",
        "overlap_speedup",
        "straggler_wait_ms",
        "max_flow_ms",
        "typical_fetch",
    ]);
    println!("Shuffle scaling — fetcher count × network preset (InvertedIndex)\n");
    for (net_name, preset) in presets {
        let mut dfs = SimDfs::new(preset.nodes, block);
        dfs.put(
            "corpus",
            CorpusConfig {
                lines,
                vocab_size: scale.vocab,
                ..Default::default()
            }
            .generate_bytes(),
        );
        let mut reference = None;
        for &fetchers in fetcher_sweep {
            let mut cluster = preset.clone();
            cluster.shuffle_fetchers = fetchers;
            eprintln!("running {net_name} with {fetchers} fetcher(s) …");
            let run = run_job(&cluster, &job_cfg, job.clone(), &dfs, &[("corpus", 0)])
                .expect("shuffle_scale job failed");
            let agg = run.profile.shuffle_stats();
            // Contract checks: fetcher count changes only virtual shuffle
            // time, and the NIC schedule respects its bounds.
            assert!(
                REDUCERS > cluster.nodes || agg.virtual_ns <= agg.sequential_ns,
                "{net_name}/{fetchers}: virtual {} > sequential {}",
                agg.virtual_ns,
                agg.sequential_ns
            );
            assert!(
                agg.virtual_ns >= agg.max_flow_ns,
                "{net_name}/{fetchers}: virtual {} < max flow {}",
                agg.virtual_ns,
                agg.max_flow_ns
            );
            match &reference {
                None => reference = Some((run.outputs.clone(), run.profile.signature())),
                Some((outputs, signature)) => {
                    assert_eq!(
                        *outputs, run.outputs,
                        "{net_name}: outputs changed at {fetchers} fetchers"
                    );
                    assert_eq!(
                        *signature,
                        run.profile.signature(),
                        "{net_name}: signature changed at {fetchers} fetchers"
                    );
                }
            }
            let speedup = agg.sequential_ns as f64 / agg.virtual_ns.max(1) as f64;
            table.row(&[
                net_name.to_string(),
                fetchers.to_string(),
                format!("{:.1}", agg.fetched_bytes as f64 / (1 << 20) as f64),
                format!("{:.1}", agg.remote_bytes as f64 / (1 << 20) as f64),
                format!("{:.3}", agg.sequential_ns as f64 / 1e6),
                format!("{:.3}", agg.virtual_ns as f64 / 1e6),
                format!("{speedup:.3}x"),
                ms(agg.wait_ns),
                ms(agg.max_flow_ns),
                typical_fetch(&agg.size_hist),
            ]);
        }
    }
    table.print();
    match table.write_csv("shuffle_scale") {
        Ok(p) => eprintln!("\nwrote {}", p.display()),
        Err(e) => eprintln!("\ncsv write failed: {e}"),
    }
    if smoke {
        println!("\nsmoke OK: signatures identical across fetcher counts; NIC bounds hold");
    }
}
