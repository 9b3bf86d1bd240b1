//! `logs-oocore`: AccessLogJoin over Pavlo visits+rankings, then PageRank
//! for a fixed three rounds over the Zipf web graph, both under a 256 KiB
//! per-map-task budget (framed, compressed intermediates), with one worker
//! and two shuffle fetchers.
//!
//! The same spill/merge layer used differently from `text-zipf`: framed,
//! windowed and budget-bounded, with a combiner-free join shuffle and a
//! multi-round DAG hand-off. The multi-fetcher NIC model is active and the
//! tokenizer is never called.

use super::{
    input_bytes, job_result, probe_layers, text_head, timed_job, traced_job, Env, JobResult, Pairs,
    Pass, ProbeInput, Traced, Workload,
};
use crate::layers::OpAgg;
use crate::metrics::Report;
use crate::spans::Spans;
use std::io;
use std::sync::Arc;
use std::time::Instant;
use textmr_apps::pagerank::SOURCE_CHAINED;
use textmr_apps::{
    pagerank_to_convergence, AccessLogJoin, PageRank, SOURCE_RANKINGS, SOURCE_VISITS,
};
use textmr_data::graph::GraphConfig;
use textmr_data::weblog::WeblogConfig;
use textmr_engine::cluster::{ClusterConfig, JobConfig};
use textmr_engine::dag::DagExecutor;
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::{Job, StageInput};
use textmr_engine::reference::{flatten_sorted, reference_run};

const JOIN_INPUTS: &[(&str, u8)] = &[("visits", SOURCE_VISITS), ("rankings", SOURCE_RANKINGS)];
const GRAPH_INPUTS: &[(&str, u8)] = &[("graph", 0)];

/// PageRank rounds per pass (tolerance 0: the round cap always binds).
const ROUNDS: usize = 3;

/// Per-map-task byte budget.
const BUDGET: usize = 256 << 10;

/// The paper's frequency-buffering `k` for log keys.
const LOG_K: usize = 10_000;

/// The workload.
pub struct LogsOocore {
    cluster: ClusterConfig,
    smoke: bool,
    dfs: Option<SimDfs>,
    head: String,
    pages: usize,
    reducers: usize,
    join_reference: Pairs,
    pagerank_reference: Pairs,
}

impl LogsOocore {
    /// The workload at paper scale, or tiny with `smoke`.
    pub fn new(smoke: bool) -> Self {
        let mut cluster = ClusterConfig::local();
        cluster.spill_buffer_bytes = 256 << 10;
        LogsOocore {
            cluster: cluster
                .with_worker_threads(1)
                .with_shuffle_fetchers(2)
                .with_map_budget(BUDGET),
            smoke,
            dfs: None,
            head: String::new(),
            pages: if smoke { 2_000 } else { 100_000 },
            reducers: if smoke { 4 } else { 12 },
            join_reference: Vec::new(),
            pagerank_reference: Vec::new(),
        }
    }

    fn config(&self) -> JobConfig {
        JobConfig::default().with_reducers(self.reducers)
    }

    fn dfs(&self) -> &SimDfs {
        self.dfs.as_ref().expect("inputs are generated in set-up")
    }

    fn pagerank_result(&self, run: io::Result<textmr_apps::PageRankRun>) -> JobResult {
        let bytes = input_bytes(self.dfs(), GRAPH_INPUTS);
        match run {
            Ok(pr) => JobResult {
                virtual_s: Some(pr.run.profile.wall as f64 / 1e9),
                input_bytes: bytes,
                ok: pr.rounds == ROUNDS && pr.run.sorted_pairs() == self.pagerank_reference,
            },
            Err(e) => {
                eprintln!("pagerank failed: {e}");
                JobResult {
                    virtual_s: None,
                    input_bytes: bytes,
                    ok: false,
                }
            }
        }
    }
}

impl Workload for LogsOocore {
    fn workers(&self) -> usize {
        self.cluster.worker_threads
    }

    fn nominal_pass_s(&self) -> f64 {
        7.0
    }

    fn generate(&mut self, env: &Env) -> io::Result<f64> {
        let weblog = WeblogConfig {
            num_urls: if self.smoke { 500 } else { 60_000 },
            num_visits: if self.smoke { 4_000 } else { 400_000 },
            seed: env.seed.wrapping_add(1),
            ..Default::default()
        };
        let graph = GraphConfig {
            pages: self.pages,
            seed: env.seed.wrapping_add(2),
            ..Default::default()
        };
        let t = Instant::now();
        let visits = weblog.visits_bytes();
        let rankings = weblog.rankings_bytes();
        let graph = graph.generate_bytes();
        let gen_s = t.elapsed().as_secs_f64();
        self.head = text_head(&visits, 2 << 20);
        let mut dfs = SimDfs::new(
            self.cluster.nodes,
            if self.smoke { 64 << 10 } else { 2 << 20 },
        );
        dfs.put("visits", visits);
        dfs.put("rankings", rankings);
        dfs.put("graph", graph);
        self.dfs = Some(dfs);
        Ok(gen_s)
    }

    fn reference(&mut self, env: &Env) -> io::Result<()> {
        let join = reference_run(&AccessLogJoin, self.dfs(), JOIN_INPUTS, self.reducers)?;
        self.join_reference = flatten_sorted(&join);
        // PageRank's reference is the plain engine: one worker, one
        // fetcher, unframed intermediates.
        let mut plain = ClusterConfig::local();
        plain.spill_buffer_bytes = self.cluster.spill_buffer_bytes;
        let plain = env.place(plain);
        let pr = pagerank_to_convergence(
            &plain,
            &self.config(),
            self.dfs(),
            "graph",
            self.pages as u64,
            0,
            ROUNDS,
        )?;
        self.pagerank_reference = pr.run.sorted_pairs();
        Ok(())
    }

    fn pass(&mut self, env: &Env) -> io::Result<Pass> {
        let cluster = env.place(self.cluster.clone());
        let mut pass = Pass::default();
        let run = timed_job(
            &mut pass,
            &cluster,
            &self.config(),
            Arc::new(AccessLogJoin),
            self.dfs(),
            JOIN_INPUTS,
        );
        pass.jobs.push(job_result(
            &run,
            &self.join_reference,
            input_bytes(self.dfs(), JOIN_INPUTS),
        ));
        drop(run);

        let (pr, wall, cpu) = crate::host::timed(|| {
            pagerank_to_convergence(
                &cluster,
                &self.config(),
                self.dfs(),
                "graph",
                self.pages as u64,
                0,
                ROUNDS,
            )
        });
        pass.host_s += wall;
        pass.cpu_s += cpu;
        pass.jobs.push(self.pagerank_result(pr));
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
        let join: Arc<dyn Job> = Arc::new(AccessLogJoin);
        let (result, driver_s, direct) = traced_job(
            env,
            &cluster,
            &|| self.config(),
            &join,
            self.dfs(),
            JOIN_INPUTS,
            &self.join_reference,
            spans,
            &mut agg,
            report,
        )?;
        traced.pass.jobs.push(result);
        traced.driver_s.push(driver_s);

        // PageRank round by round, as `pagerank_to_convergence` drives it
        // with tolerance 0, each `run_stage` in its own span.
        let pagerank: Arc<dyn Job> = Arc::new(PageRank::new(self.pages as u64));
        let cfg = self.config();
        let run = spans.record("dag.run", |spans| -> io::Result<_> {
            let mut ex = DagExecutor::new(&cluster)?;
            let mut out_records = Vec::new();
            for round in 0..ROUNDS {
                let input = if round == 0 {
                    StageInput::dfs("graph")
                } else {
                    StageInput::Prior {
                        stage: round - 1,
                        source: SOURCE_CHAINED,
                    }
                };
                spans.record("dag.stage", |_| {
                    ex.run_stage(Arc::clone(&pagerank), &cfg, &input, self.dfs())
                })?;
                out_records.push(ex.last_outputs().iter().map(Vec::len).sum::<usize>() as u64);
            }
            Ok((ex.finish()?, out_records))
        });
        traced.pass.host_s = spans.total("cluster.run_job") + spans.total("dag.run");
        let bytes = input_bytes(self.dfs(), GRAPH_INPUTS);
        traced.pass.jobs.push(match run {
            Ok((dag, out_records)) => {
                agg.add_dag(&dag.profile, out_records.last().copied().unwrap_or(0));
                JobResult {
                    virtual_s: Some(dag.profile.wall as f64 / 1e9),
                    input_bytes: bytes,
                    ok: dag.sorted_pairs() == self.pagerank_reference,
                }
            }
            Err(e) => {
                eprintln!("pagerank failed: {e}");
                JobResult {
                    virtual_s: None,
                    input_bytes: bytes,
                    ok: false,
                }
            }
        });
        traced.work_ns = agg.work_ns();
        agg.fill(report);

        probe_layers(
            &ProbeInput {
                text: &self.head,
                job: join.as_ref(),
                split: &direct.splits[0],
                partitions: self.reducers,
                segment_bytes: cluster.effective_spill_buffer_bytes(),
                sketch_k: LOG_K,
                partition: &direct.partition,
            },
            spans,
            report,
        );
        report.zero_layers(&["serve", "cache", "trace"]);
        Ok(traced)
    }
}
