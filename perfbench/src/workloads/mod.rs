//! The workloads and what they share.

pub mod logs_oocore;
pub mod serve_probe;
pub mod text_zipf;

use crate::drive::{direct_drive, Direct};
use crate::layers::OpAgg;
use crate::metrics::Report;
use crate::spans::Spans;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig, JobRun};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::Job;
use textmr_engine::reference::flatten_sorted;

/// Sorted `(key, value)` pairs: a job's whole output, as compared.
pub type Pairs = Vec<(Vec<u8>, Vec<u8>)>;

/// Names the benchmark accepts for `--workload`.
pub const NAMES: &[&str] = &["text-zipf", "logs-oocore"];

/// What every workload gets from the harness.
pub struct Env {
    /// The workload seed; flows into every generator's `seed` field.
    pub seed: u64,
    /// Engine temp root for this process (inside the checkout).
    pub temp_root: PathBuf,
}

impl Env {
    /// Empty the temp root (engine and direct-drive scratch alike).
    pub fn clean(&self) -> io::Result<()> {
        if self.temp_root.exists() {
            std::fs::remove_dir_all(&self.temp_root)?;
        }
        std::fs::create_dir_all(&self.temp_root)
    }

    /// A fresh scratch directory under the temp root.
    pub fn scratch(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.temp_root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// `cluster` with its engine temp dirs under the temp root.
    pub fn place(&self, mut cluster: ClusterConfig) -> ClusterConfig {
        cluster.temp_dir = Some(self.temp_root.join("engine"));
        cluster
    }
}

/// One job's outcome in a pass.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Virtual seconds from arrival to last output; `None` if the job
    /// never ran (error or rejection).
    pub virtual_s: Option<f64>,
    /// DFS input bytes the job read.
    pub input_bytes: u64,
    /// Ran, and its output equals the reference byte for byte.
    pub ok: bool,
}

/// One pass: a run of the workload's job list.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host (wall) seconds inside the workload's own job calls.
    pub host_s: f64,
    /// CPU seconds of the process inside those calls.
    pub cpu_s: f64,
    /// Every job attempted.
    pub jobs: Vec<JobResult>,
}

/// What the traced pass adds to its [`Pass`].
#[derive(Debug, Default)]
pub struct Traced {
    /// The pass, timed from the spans around the workload's job calls.
    pub pass: Pass,
    /// Host nanoseconds of op work over the pass's jobs.
    pub work_ns: u64,
    /// `run_job` host seconds minus the direct drive's task calls, per
    /// directly driven job.
    pub driver_s: Vec<f64>,
}

/// A benchmark workload.
pub trait Workload {
    /// Pool worker threads of the workload's cluster.
    fn workers(&self) -> usize;
    /// Host seconds one pass takes on the reference host (2 CPUs): with
    /// `--seconds` this fixes the pass count, so every run of a workload
    /// times the same job population.
    fn nominal_pass_s(&self) -> f64;
    /// Generate the inputs from the seed and register them with the DFS.
    /// Returns the host seconds spent inside the generator calls.
    fn generate(&mut self, env: &Env) -> io::Result<f64>;
    /// Compute every job's reference output.
    fn reference(&mut self, env: &Env) -> io::Result<()>;
    /// Set-up that only the traced run needs, done before its passes and
    /// not counted in `setup_s`.
    fn traced_setup(&mut self, _env: &Env) -> io::Result<()> {
        Ok(())
    }
    /// One untraced pass; outputs are checked after the timing.
    fn pass(&mut self, env: &Env) -> io::Result<Pass>;
    /// The traced pass: the same job list with spans around each call,
    /// direct drives and layer probes; sets the per-layer metrics it
    /// measures.
    fn traced_pass(
        &mut self,
        env: &Env,
        spans: &mut Spans,
        report: &mut Report,
    ) -> io::Result<Traced>;
}

/// Build the named workload.
pub fn build(name: &str, smoke: bool) -> Option<Box<dyn Workload>> {
    match name {
        "text-zipf" => Some(Box::new(text_zipf::TextZipf::new(smoke))),
        "logs-oocore" => Some(Box::new(logs_oocore::LogsOocore::new(smoke))),
        _ => None,
    }
}

/// Total DFS bytes of `inputs`.
pub fn input_bytes(dfs: &SimDfs, inputs: &[(&str, u8)]) -> u64 {
    inputs
        .iter()
        .map(|(n, _)| dfs.len(n).unwrap_or(0) as u64)
        .sum()
}

/// Run one `run_job` job untraced, adding the wall and CPU seconds of the
/// call alone to `pass`.
pub fn timed_job(
    pass: &mut Pass,
    cluster: &ClusterConfig,
    cfg: &JobConfig,
    job: Arc<dyn Job>,
    dfs: &SimDfs,
    inputs: &[(&str, u8)],
) -> io::Result<JobRun> {
    let (run, wall, cpu) = crate::host::timed(|| run_job(cluster, cfg, job, dfs, inputs));
    pass.host_s += wall;
    pass.cpu_s += cpu;
    run
}

/// A `run_job` result checked against `reference`.
pub fn job_result(
    run: &io::Result<JobRun>,
    reference: &[(Vec<u8>, Vec<u8>)],
    input_bytes: u64,
) -> JobResult {
    match run {
        Ok(run) => JobResult {
            virtual_s: Some(run.profile.wall as f64 / 1e9),
            input_bytes,
            ok: run.sorted_pairs() == reference,
        },
        Err(e) => {
            eprintln!("job failed: {e}");
            JobResult {
                virtual_s: None,
                input_bytes,
                ok: false,
            }
        }
    }
}

/// One job of a traced pass: `run_job` in a `cluster.run_job` span, then
/// the same job driven task by task. Adds the run's profile to `agg`,
/// records a failed check in `report` if the direct drive's output
/// differs from `run_job`'s, and returns the job's result, the driver's
/// own seconds and the direct drive.
#[allow(clippy::too_many_arguments)]
pub fn traced_job(
    env: &Env,
    cluster: &ClusterConfig,
    make_cfg: &dyn Fn() -> JobConfig,
    job: &Arc<dyn Job>,
    dfs: &SimDfs,
    inputs: &[(&str, u8)],
    reference: &[(Vec<u8>, Vec<u8>)],
    spans: &mut Spans,
    agg: &mut OpAgg,
    report: &mut Report,
) -> io::Result<(JobResult, f64, Direct)> {
    let cfg = make_cfg();
    let (run, run_s) = spans.timed("cluster.run_job", |_| {
        run_job(cluster, &cfg, Arc::clone(job), dfs, inputs)
    });
    let result = job_result(&run, reference, input_bytes(dfs, inputs));
    let run = run?;
    let pairs = run.sorted_pairs();
    agg.add_round(&run.profile, pairs.len() as u64);
    drop(run);

    let temp = env.scratch("direct")?;
    let direct = direct_drive(cluster, &make_cfg(), job, dfs, inputs, &temp, spans)?;
    std::fs::remove_dir_all(&temp)?;
    if flatten_sorted(&direct.outputs) != pairs {
        report.check_failures.push(format!(
            "direct drive of {} did not reproduce run_job's output",
            job.name()
        ));
    }
    Ok((result, run_s - direct.task_s, direct))
}

/// What the layer probes run on.
pub struct ProbeInput<'a> {
    /// Text for the tokenizer: the head of the workload's main input.
    pub text: &'a str,
    /// The job whose emitted pairs fill the spill-buffer segment.
    pub job: &'a dyn Job,
    /// The split it maps.
    pub split: &'a textmr_engine::io::input::InputSplit,
    /// Reduce partitions.
    pub partitions: usize,
    /// Spill-buffer bytes of one segment.
    pub segment_bytes: usize,
    /// Space-saving sketch capacity (the frequency buffer's `k`).
    pub sketch_k: usize,
    /// A decoded map-output partition.
    pub partition: &'a [u8],
}

/// Run every layer probe, setting `nlp.tokenize_mb_s`,
/// `task.sort_indices_ns_per_rec`, `core.offer_ns`, `io.compress_mb_s` and
/// `io.decompress_mb_s`; a probe whose check fails is recorded in
/// `report`.
pub fn probe_layers(p: &ProbeInput<'_>, spans: &mut Spans, report: &mut Report) {
    use crate::probes;
    report.set("nlp.tokenize_mb_s", probes::tokenize_mb_s(p.text, spans));
    let seg = probes::emitted_segment(p.job, p.split, p.partitions, p.segment_bytes);
    let mut check = |r: Result<f64, String>| {
        r.unwrap_or_else(|e| {
            report.check_failures.push(e);
            0.0
        })
    };
    let sort = check(probes::sort_indices_ns(&seg, p.job, spans));
    let offer = check(probes::offer_ns(&seg, p.sketch_k, spans));
    let (c, d) = match probes::compress_mb_s(p.partition, spans) {
        Ok(v) => v,
        Err(e) => {
            report.check_failures.push(e);
            (0.0, 0.0)
        }
    };
    report.set("task.sort_indices_ns_per_rec", sort);
    report.set("core.offer_ns", offer);
    report.set("io.compress_mb_s", c);
    report.set("io.decompress_mb_s", d);
}

/// The first `max_bytes` of `bytes`, cut at a line end, as text.
pub fn text_head(bytes: &[u8], max_bytes: usize) -> String {
    let mut end = bytes.len().min(max_bytes);
    if end < bytes.len() {
        end = bytes[..end]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(end, |i| i + 1);
    }
    String::from_utf8_lossy(&bytes[..end]).into_owned()
}
