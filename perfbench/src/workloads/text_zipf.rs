//! `text-zipf`: WordCount and InvertedIndex over the paper-scale Zipf
//! corpus, each under the Baseline and Combined configurations, on the
//! local cluster with one worker, one fetcher and unframed intermediates.
//!
//! The paper's text-centric case: tokenize/map, emit, sort and merge carry
//! most of the op work, the frequency buffer works in the Combined half,
//! and shuffle is a sliver. Data-plane changes show here; shuffle and
//! serve changes should not move it.

use super::serve_probe::ServeProbe;
use super::{
    input_bytes, job_result, probe_layers, text_head, timed_job, traced_job, Env, Pairs, Pass,
    ProbeInput, Traced, Workload,
};
use crate::layers::OpAgg;
use crate::metrics::Report;
use crate::spans::Spans;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use textmr_apps::{InvertedIndex, WordCount};
use textmr_core::{optimized, FreqBufferConfig, OptimizationConfig, SpillMatcherConfig};
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{ClusterConfig, JobConfig};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::Job;
use textmr_engine::reference::{flatten_sorted, reference_run};

const INPUTS: &[(&str, u8)] = &[("corpus", 0)];

/// The paper's frequency-buffering parameters for text (k=3000, s=0.01).
const TEXT_K: usize = 3000;

#[derive(Clone, Copy)]
enum App {
    WordCount,
    InvertedIndex,
}

impl App {
    fn job(self) -> Arc<dyn Job> {
        match self {
            App::WordCount => Arc::new(WordCount),
            App::InvertedIndex => Arc::new(InvertedIndex),
        }
    }
}

/// The job list of one pass: each app under Baseline (`false`) and
/// Combined (`true`).
const JOBS: [(App, bool); 4] = [
    (App::WordCount, false),
    (App::WordCount, true),
    (App::InvertedIndex, false),
    (App::InvertedIndex, true),
];

/// The workload.
pub struct TextZipf {
    cluster: ClusterConfig,
    smoke: bool,
    dfs: Option<SimDfs>,
    head: String,
    reducers: usize,
    /// Reference output per app (the configurations must agree).
    reference: [Pairs; 2],
    /// The serve probe of the traced pass.
    serve: ServeProbe,
}

/// Submissions of the traced pass's serve probe.
const SERVE_PROBE_JOBS: usize = 40;

impl TextZipf {
    /// The workload at paper scale, or tiny with `smoke`.
    pub fn new(smoke: bool) -> Self {
        let mut cluster = ClusterConfig::local();
        cluster.spill_buffer_bytes = 256 << 10;
        cluster.worker_threads = 1;
        cluster.shuffle_fetchers = 1;
        TextZipf {
            cluster,
            smoke,
            dfs: None,
            head: String::new(),
            reducers: if smoke { 4 } else { 12 },
            reference: [Vec::new(), Vec::new()],
            serve: ServeProbe::new(if smoke { 12 } else { SERVE_PROBE_JOBS }, smoke),
        }
    }

    fn config(&self, combined: bool) -> JobConfig {
        let base = JobConfig::default().with_reducers(self.reducers);
        if combined {
            optimized(
                base,
                OptimizationConfig {
                    frequency_buffering: Some(FreqBufferConfig {
                        k: TEXT_K,
                        sampling_fraction: Some(0.01),
                        ..Default::default()
                    }),
                    spill_matcher: Some(SpillMatcherConfig::default()),
                    share_frequent_keys: true,
                },
            )
        } else {
            optimized(base, OptimizationConfig::baseline())
        }
    }

    fn dfs(&self) -> &SimDfs {
        self.dfs.as_ref().expect("inputs are generated in set-up")
    }
}

impl Workload for TextZipf {
    fn workers(&self) -> usize {
        self.cluster.worker_threads
    }

    fn nominal_pass_s(&self) -> f64 {
        4.5
    }

    fn generate(&mut self, env: &Env) -> io::Result<f64> {
        let corpus = CorpusConfig {
            lines: if self.smoke { 3_000 } else { 120_000 },
            vocab_size: if self.smoke { 5_000 } else { 100_000 },
            seed: env.seed,
            ..Default::default()
        };
        let t = Instant::now();
        let bytes = corpus.generate_bytes();
        let gen_s = t.elapsed().as_secs_f64();
        self.head = text_head(&bytes, 2 << 20);
        let mut dfs = SimDfs::new(
            self.cluster.nodes,
            if self.smoke { 64 << 10 } else { 2 << 20 },
        );
        dfs.put("corpus", bytes);
        self.dfs = Some(dfs);
        Ok(gen_s)
    }

    fn reference(&mut self, _env: &Env) -> io::Result<()> {
        for (i, app) in [App::WordCount, App::InvertedIndex].into_iter().enumerate() {
            let out = reference_run(app.job().as_ref(), self.dfs(), INPUTS, self.reducers)?;
            self.reference[i] = flatten_sorted(&out);
        }
        Ok(())
    }

    fn traced_setup(&mut self, env: &Env) -> io::Result<()> {
        self.serve.reference(env)
    }

    fn pass(&mut self, env: &Env) -> io::Result<Pass> {
        let cluster = env.place(self.cluster.clone());
        let bytes = input_bytes(self.dfs(), INPUTS);
        let mut pass = Pass::default();
        for (app, combined) in JOBS {
            let cfg = self.config(combined);
            let run = timed_job(&mut pass, &cluster, &cfg, app.job(), self.dfs(), INPUTS);
            pass.jobs
                .push(job_result(&run, &self.reference[app as usize], bytes));
        }
        Ok(pass)
    }

    fn traced_pass(
        &mut self,
        env: &Env,
        spans: &mut Spans,
        report: &mut Report,
    ) -> io::Result<Traced> {
        let cluster = env.place(self.cluster.clone());
        let mut agg = OpAgg::default();
        let mut traced = Traced::default();
        let mut probe_source = None;
        for (app, combined) in JOBS {
            let (result, driver_s, direct) = traced_job(
                env,
                &cluster,
                &|| self.config(combined),
                &app.job(),
                self.dfs(),
                INPUTS,
                &self.reference[app as usize],
                spans,
                &mut agg,
                report,
            )?;
            traced.pass.jobs.push(result);
            traced.driver_s.push(driver_s);
            probe_source.get_or_insert(direct);
        }
        traced.pass.host_s = spans.total("cluster.run_job");
        traced.work_ns = agg.work_ns();
        agg.fill(report);

        let direct = probe_source.expect("the job list is not empty");
        let job = App::WordCount.job();
        probe_layers(
            &ProbeInput {
                text: &self.head,
                job: job.as_ref(),
                split: &direct.splits[0],
                partitions: self.reducers,
                segment_bytes: cluster.effective_spill_buffer_bytes(),
                sketch_k: TEXT_K,
                partition: &direct.partition,
            },
            spans,
            report,
        );

        // The serve, cache and trace layers, measured on a small serve
        // workload (see the crate README for why serve is not a timed
        // workload).
        let served = self.serve.serve_layers(env, spans, report)?;
        traced.pass.jobs.extend(served);
        report.zero_layers(&["dag"]);
        Ok(traced)
    }
}
