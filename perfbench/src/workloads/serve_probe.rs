//! The serve probe of `text-zipf`'s traced run: `textmr_serve::serve` over
//! a small generated multi-tenant workload (3 tenants, 600 lines, Zipf
//! α = 1.2) with a 64 KiB S3-FIFO map-output cache, on the small-scale
//! local cluster with two pool workers and one fetcher. It measures the
//! serve, cache and trace layers; it is not a timed workload (see the
//! crate README).

use super::{Env, JobResult, Pairs};
use crate::metrics::Report;
use crate::spans::Spans;
use crate::stats::ratio;
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use textmr_engine::cluster::ClusterConfig;
use textmr_engine::dag::run_dag;
use textmr_engine::job::{JobDag, StageInput};
use textmr_engine::reference::flatten_sorted;
use textmr_serve::sched::{merge_traces, multiplex, JobPlan};
use textmr_serve::workload::{self, WorkloadConfig};
use textmr_serve::{serve, JobRequest, S3FifoCache, ServeCacheConfig, ServeConfig, ServeRun};

/// Cache budget in bytes.
const CACHE_BYTES: u64 = 64 << 10;

/// Flat virtual cost of a cache hit (as the serve harness prices it).
const LOOKUP_COST_NS: u64 = 50_000;

/// What the harness knows of request `i` before `serve` consumes it.
struct RequestInfo {
    /// The plan's cache prefix: one per job class, so it keys the
    /// reference.
    class: String,
    /// DFS bytes its first stage reads.
    input_bytes: u64,
}

/// The probe.
pub struct ServeProbe {
    cluster: ClusterConfig,
    cfg: WorkloadConfig,
    /// Reference output per job class.
    reference: BTreeMap<String, Pairs>,
}

impl ServeProbe {
    /// The probe with `jobs` submissions, over tiny inputs with `smoke`.
    pub fn new(jobs: usize, smoke: bool) -> Self {
        let mut cluster = ClusterConfig::local();
        cluster.spill_buffer_bytes = 256 << 10;
        ServeProbe {
            cluster: cluster.with_worker_threads(2).with_shuffle_fetchers(1),
            cfg: WorkloadConfig {
                jobs,
                tenants: 3,
                lines: if smoke { 100 } else { 600 },
                alpha: 1.2,
                ..Default::default()
            },
            reference: BTreeMap::new(),
        }
    }

    fn generate_workload(&self, env: &Env) -> workload::Workload {
        let cfg = WorkloadConfig {
            seed: env.seed,
            ..self.cfg.clone()
        };
        workload::generate(self.cluster.nodes, &cfg)
    }

    fn serve_config() -> ServeConfig {
        ServeConfig {
            cache: Some(ServeCacheConfig {
                cache: Arc::new(S3FifoCache::new(CACHE_BYTES)),
                lookup_cost_ns: LOOKUP_COST_NS,
            }),
        }
    }

    /// Compute each job class's reference output: `run_dag` of its plan
    /// without the cache (all jobs of a class share one plan).
    pub fn reference(&mut self, env: &Env) -> io::Result<()> {
        let cluster = env.place(self.cluster.clone());
        let wl = self.generate_workload(env);
        for r in &wl.requests {
            let class = class_of(r);
            if let std::collections::btree_map::Entry::Vacant(slot) = self.reference.entry(class) {
                slot.insert(run_dag(&cluster, &r.plan, &wl.dfs)?.sorted_pairs());
            }
        }
        Ok(())
    }

    /// One traced `serve` call and the serve, cache and trace layers
    /// around it: the multiplexer's stages re-called on the run's solo
    /// traces, the merged trace's export, and the cache's statistics. Sets
    /// every `serve.*`, `cache.*` and `trace.*` metric; returns every
    /// request's result.
    pub fn serve_layers(
        &self,
        env: &Env,
        spans: &mut Spans,
        report: &mut Report,
    ) -> io::Result<Vec<JobResult>> {
        let cluster = env.place(self.cluster.clone());
        let wl = self.generate_workload(env);
        let info = request_info(&wl);
        let cfg = Self::serve_config();
        let (run, call_s) = spans.timed("serve.call", |_| {
            serve(&cluster, &wl.tenants, wl.requests, &wl.dfs, &cfg)
        });
        let jobs = self.results(&run, &info);
        let run = run?;

        let (plans, from_trace_s) = spans.timed("serve.from_trace", |_| {
            run.jobs
                .iter()
                .map(|j| JobPlan::from_trace(j.job, j.tenant, j.arrival, &j.solo_trace))
                .collect::<Result<Vec<_>, String>>()
        });
        let plans = plans.map_err(io::Error::other)?;
        let (schedule, multiplex_s) = spans.timed("serve.multiplex", |_| {
            multiplex(
                cluster.nodes,
                cluster.map_slots_per_node,
                cluster.reduce_slots_per_node,
                &wl.tenants,
                &plans,
            )
        });
        let solos: Vec<_> = run.jobs.iter().map(|j| j.solo_trace.clone()).collect();
        let (merged, merge_s) = spans.timed("serve.merge_traces", |_| {
            merge_traces(&plans, &solos, &schedule)
        });
        if schedule.wall != run.schedule.wall || merged.entries.len() != run.trace.entries.len() {
            report.check_failures.push(
                "re-multiplexing the solo traces did not reproduce the served schedule".into(),
            );
        }
        let (json, export_s) = spans.timed("trace.export", |_| run.trace.to_chrome_json());
        report.set("serve.call_s", call_s);
        report.set("serve.from_trace_s", from_trace_s);
        report.set("serve.multiplex_s", multiplex_s);
        report.set("serve.merge_traces_s", merge_s);
        report.set(
            "serve.solo_s",
            call_s - from_trace_s - multiplex_s - merge_s,
        );
        report.set("trace.entries", run.trace.entries.len() as f64);
        report.set(
            "trace.export_mb_s",
            ratio(json.len() as f64 / 1e6, export_s),
        );

        let stats = run.profile.cache.unwrap_or_default();
        report.set(
            "cache.hit_pct",
            100.0 * ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
        );
        report.set("cache.evictions", stats.evictions as f64);
        report.set("cache.resident_kb", stats.resident_bytes as f64 / 1024.0);
        Ok(jobs)
    }

    /// Every request's result, in submission order: a served job checked
    /// against its class reference; a rejected or unplaced one failed.
    fn results(&self, run: &io::Result<ServeRun>, info: &[RequestInfo]) -> Vec<JobResult> {
        let mut out: Vec<JobResult> = info
            .iter()
            .map(|i| JobResult {
                virtual_s: None,
                input_bytes: i.input_bytes,
                ok: false,
            })
            .collect();
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("serve failed: {e}");
                return out;
            }
        };
        for j in &run.jobs {
            let Some(i) = request_index(&j.name).filter(|&i| i < info.len()) else {
                continue;
            };
            out[i].virtual_s = Some(j.finish.saturating_sub(j.arrival) as f64 / 1e9);
            out[i].ok = self.reference.get(&info[i].class) == Some(&flatten_sorted(&j.outputs));
        }
        out
    }
}

/// The submission index a generated job's name ends with (`class-i`).
fn request_index(name: &str) -> Option<usize> {
    name.rsplit('-').next()?.parse().ok()
}

fn dfs_inputs(plan: &JobDag) -> Vec<(String, u8)> {
    match plan.stages.first().map(|s| &s.input) {
        Some(StageInput::Dfs(inputs)) => inputs.clone(),
        _ => Vec::new(),
    }
}

/// A request's job class: its cache prefix, which names the class's plan.
fn class_of(r: &JobRequest) -> String {
    r.cache_prefix.clone().unwrap_or_else(|| r.name.clone())
}

fn request_info(wl: &workload::Workload) -> Vec<RequestInfo> {
    wl.requests
        .iter()
        .map(|r| RequestInfo {
            class: class_of(r),
            input_bytes: dfs_inputs(&r.plan)
                .iter()
                .map(|(n, _)| wl.dfs.len(n).unwrap_or(0) as u64)
                .sum(),
        })
        .collect()
}
