//! One benchmark run: set-up, then either the timed untraced passes (the
//! end-to-end metrics) or one traced pass (the per-layer metrics).

use crate::host;
use crate::metrics::{Report, END_TO_END, PER_LAYER, SPAN_LAYERS};
use crate::spans::Spans;
use crate::stats::{median, ratio, tail};
use crate::workloads::{self, Env, Pass, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Input generations per set-up; set-up time reports their median.
pub const SETUP_GENERATIONS: usize = 3;

/// Fewest timed passes in an untraced run.
pub const MIN_PASSES: usize = 2;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Workload name (one of [`workloads::NAMES`]).
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time the run aims for, in seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Tiny inputs, for tests.
    pub smoke: bool,
}

/// Parse `--workload W --seed N --seconds S --trace 0|1 [--smoke]`.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// What a run prints: comment lines, then the result line.
pub struct Outcome {
    /// Human-readable lines (each starts with `# `).
    pub notes: Vec<String>,
    /// The result line.
    pub json: String,
}

/// Timed passes for a workload whose pass takes `nominal_s` on the
/// reference host: enough to fill `seconds` there, at least
/// [`MIN_PASSES`]. Fixed per workload and `seconds`, so every run times
/// the same job population whatever the host's speed.
pub fn pass_count(seconds: u64, nominal_s: f64) -> usize {
    ((seconds as f64 / nominal_s).ceil() as usize).max(MIN_PASSES)
}

/// Run the benchmark in the current directory (the checkout root).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let env = Env {
        seed: opts.seed,
        temp_root: root
            .join(".perfbench_tmp")
            .join(format!("p{}", std::process::id())),
    };
    let result = run_in(opts, &env, &root);
    let _ = std::fs::remove_dir_all(&env.temp_root);
    // Only succeeds once no other run is using the shared parent.
    if let Some(parent) = env.temp_root.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn run_in(opts: &Options, env: &Env, root: &Path) -> Result<Outcome, String> {
    let mut wl = workloads::build(&opts.workload, opts.smoke)
        .ok_or_else(|| format!("unknown workload {}", opts.workload))?;
    env.clean().map_err(io_err("temp root"))?;
    let mut report = Report::default();
    let mut notes = vec![format!(
        "# workload={} seed={} trace={} nproc={} rustc=\"{}\" overflow_checks={} temp_root={}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        host::nproc(),
        host::rustc_version(),
        host::overflow_checks(),
        env.temp_root.display()
    )];

    // ---- set-up -----------------------------------------------------------
    let mut gen_s = Vec::new();
    let mut generation_s = Vec::new();
    for _ in 0..SETUP_GENERATIONS {
        let t = Instant::now();
        gen_s.push(wl.generate(env).map_err(io_err("generate"))?);
        generation_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    wl.reference(env).map_err(io_err("reference"))?;
    let reference_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = wl.pass(env).map_err(io_err("warm-up pass"))?;
    let warm_s = t.elapsed().as_secs_f64();
    env.clean().map_err(io_err("temp root"))?;
    if warm.jobs.iter().any(|j| !j.ok) {
        report
            .check_failures
            .push("the warm-up pass produced a wrong output".into());
    }
    let setup_s = median(&generation_s) + reference_s + warm_s;
    notes.push(format!(
        "# set-up {setup_s:.3} s = generation (median of {SETUP_GENERATIONS}) {:.3} s + reference {reference_s:.3} s + warm-up pass {warm_s:.3} s",
        median(&generation_s)
    ));

    if opts.trace {
        traced(
            wl.as_mut(),
            env,
            root,
            opts,
            median(&gen_s),
            &mut report,
            &mut notes,
        )?;
    } else {
        untraced(wl.as_mut(), env, opts, setup_s, &mut report, &mut notes)?;
    }
    for e in &report.check_failures {
        notes.push(format!("# CHECK FAILED: {e}"));
    }
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    let json = report.json_line(names)?;
    Ok(Outcome { notes, json })
}

/// Count a pass's jobs into the report.
fn tally(report: &mut Report, pass: &Pass) {
    report.attempted += pass.jobs.len() as u64;
    report.failed += pass.jobs.iter().filter(|j| !j.ok).count() as u64;
}

fn untraced(
    wl: &mut dyn Workload,
    env: &Env,
    opts: &Options,
    setup_s: f64,
    report: &mut Report,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let passes = pass_count(opts.seconds, wl.nominal_pass_s());
    host::reset_peak_rss();
    let ticks = host::cpu_ticks();
    let mut pass_s = Vec::with_capacity(passes);
    let mut pass_cpu_s = Vec::with_capacity(passes);
    // Virtual seconds per job of the pass's job list, across passes.
    let mut per_job: Vec<Vec<f64>> = Vec::new();
    let mut bytes = 0u64;
    for _ in 0..passes {
        let pass = wl.pass(env).map_err(io_err("pass"))?;
        env.clean().map_err(io_err("temp root"))?;
        pass_s.push(pass.host_s);
        pass_cpu_s.push(pass.cpu_s);
        per_job.resize_with(per_job.len().max(pass.jobs.len()), Vec::new);
        for (samples, job) in per_job.iter_mut().zip(&pass.jobs) {
            samples.extend(job.virtual_s);
        }
        bytes += pass.jobs.iter().map(|j| j.input_bytes).sum::<u64>();
        tally(report, &pass);
    }
    let peak = host::peak_rss_mb();
    let steal = host::steal_pct(ticks, host::cpu_ticks());
    let throughput = ratio(bytes as f64 / 1e6, pass_s.iter().sum());
    // Each job's median over the passes; the percentiles are taken over
    // those, so a job list of a few kinds is summarised by typical runs of
    // each kind rather than by the extremes where two kinds meet.
    let virtual_s: Vec<f64> = per_job
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    let t = tail(&virtual_s);
    report.set("throughput_mb_s", throughput);
    report.set("pass_s_p50", median(&pass_s));
    report.set(
        "throughput_mb_cpu_s",
        ratio(bytes as f64 / 1e6, pass_cpu_s.iter().sum()),
    );
    report.set("pass_cpu_s_p50", median(&pass_cpu_s));
    report.set("job_virtual_s_p50", median(&virtual_s));
    report.set("job_virtual_s_tail", t.value);
    report.set("setup_s", setup_s);
    report.set("peak_rss_mb", peak);
    let failed_pct = 100.0 * ratio(report.failed as f64, report.attempted as f64);
    for (name, unit) in END_TO_END {
        notes.push(format!("# {name} = {:.4} {unit}", report.values[name]));
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.extend([
        format!(
            "# failed_pct = {failed_pct} % ({} of {} jobs)",
            report.failed, report.attempted
        ),
        format!("#   {passes} passes, wall s: {}", list(&pass_s)),
        format!("#   {passes} passes, CPU s: {}", list(&pass_cpu_s)),
        format!(
            "#   job virtual s over {} jobs (each the median of its passes); tail = p{:.1} with {} jobs beyond",
            t.n, t.percentile, t.beyond
        ),
        format!("#   steal: {steal:.1} % of the machine's CPU time during the timed passes"),
    ]);
    Ok(())
}

fn traced(
    wl: &mut dyn Workload,
    env: &Env,
    root: &Path,
    opts: &Options,
    gen_s: f64,
    report: &mut Report,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    wl.traced_setup(env).map_err(io_err("traced set-up"))?;
    // The untraced baseline the tracing overhead is taken against.
    let plain = wl.pass(env).map_err(io_err("untraced pass"))?;
    env.clean().map_err(io_err("temp root"))?;
    tally(report, &plain);

    let mut spans = Spans::default();
    let traced = spans.record("bench.pass", |spans| wl.traced_pass(env, spans, report));
    let traced = traced.map_err(io_err("traced pass"))?;
    env.clean().map_err(io_err("temp root"))?;
    tally(report, &traced.pass);

    let root_s = spans.spans()[0].secs();
    let by_layer = spans.self_by_layer();
    let share = |layer: &str| 100.0 * ratio(by_layer.get(layer).copied().unwrap_or(0.0), root_s);
    report.set("data.gen_s", gen_s);
    report.set("task.map_call_s", median(&spans.durations("task.map_call")));
    report.set(
        "task.reduce_call_s",
        median(&spans.durations("task.reduce_call")),
    );
    report.set("shuffle.call_s", median(&spans.durations("shuffle.call")));
    report.set("dag.stage_s", median(&spans.durations("dag.stage")));
    report.set("cluster.driver_s", median(&traced.driver_s));
    report.set(
        "pool.busy_pct",
        100.0
            * ratio(
                traced.work_ns as f64 / 1e9,
                wl.workers() as f64 * traced.pass.host_s,
            ),
    );
    for layer in SPAN_LAYERS {
        let name = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_suffix(".self_pct") == Some(layer))
            .map(|(n, _)| *n)
            .ok_or_else(|| format!("no self_pct metric for layer {layer}"))?;
        report.set(name, share(layer));
    }
    report.set("bench.unattributed_pct", share("bench"));
    report.set(
        "bench.trace_overhead_pct",
        100.0 * ratio(traced.pass.host_s - plain.host_s, plain.host_s),
    );

    notes.push(format!(
        "# traced pass {root_s:.3} s; self time by layer (% of the pass):"
    ));
    for (layer, secs) in &by_layer {
        notes.push(format!(
            "#   {layer:<8} {secs:>9.4} s {:>6.2} %",
            100.0 * ratio(*secs, root_s)
        ));
    }
    let out = spans_path(root, opts);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(io_err("spans dir"))?;
    }
    std::fs::write(&out, spans.to_json()).map_err(io_err("spans file"))?;
    notes.push(format!("# spans written to {}", out.display()));
    Ok(())
}

/// Where a traced run writes its spans: `.perfbench_out/` in the checkout.
pub fn spans_path(root: &Path, opts: &Options) -> PathBuf {
    root.join(".perfbench_out")
        .join(format!("spans-{}-seed{}.json", opts.workload, opts.seed))
}
