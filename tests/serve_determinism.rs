//! Multi-tenant determinism: interleaving jobs on the shared serve
//! cluster must be *invisible* in every job's data — outputs and
//! timing-free signatures identical to running the same plan alone — and
//! a single-tenant serve must replay the solo engine schedule slot for
//! slot. Virtual *durations* are measured (they legitimately differ
//! between any two runs), so every comparison here is either against a
//! solo run of the same process-independent data, or within one process
//! against the serve call's own solo traces.

use std::sync::Arc;
use textmr_apps::{PrefixApply, PrefixLocal, PrefixScan, WordCount};
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{ClusterConfig, JobConfig};
use textmr_engine::dag::run_dag;
use textmr_engine::fault::FaultPlan;
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::job::{JobDag, StageInput};
use textmr_engine::trace::race::check_races;
use textmr_engine::trace::JobTrace;
use textmr_serve::workload::{self, WorkloadConfig};
use textmr_serve::{serve, JobRequest, ServeCacheConfig, ServeConfig, TenantSpec};

fn small_workload_cfg() -> WorkloadConfig {
    WorkloadConfig {
        jobs: 8,
        tenants: 3,
        lines: 120,
        ..Default::default()
    }
}

/// Inject the same deterministic retry into a regenerated workload, so
/// the serve run and the solo reference both exercise a failed attempt.
fn inject_fault(wl: &mut workload::Workload) {
    wl.requests[0].plan.stages[0].cfg.fault_plan = FaultPlan::new().map_fail_at(0, 0, 5);
}

/// N tenants' jobs interleaved on the shared cluster produce exactly the
/// outputs and timing-free signatures of solo runs (cache off), and the
/// merged multi-job trace validates and race-checks clean.
#[test]
fn interleaved_tenants_match_their_solo_runs() {
    let cfg = small_workload_cfg();
    let cluster = ClusterConfig::local();
    let mut wl = workload::generate(cluster.nodes, &cfg);
    inject_fault(&mut wl);
    let run = serve(
        &cluster,
        &wl.tenants,
        wl.requests,
        &wl.dfs,
        &ServeConfig::default(),
    )
    .expect("serve failed");
    assert!(run.rejected.is_empty(), "unexpected rejections");
    assert_eq!(run.jobs.len(), cfg.jobs);

    run.trace.check().expect("merged trace invariants violated");
    let report = check_races(&run.trace);
    assert!(report.is_clean(), "{}", report.render());
    assert!(
        run.trace.entries.iter().all(|e| e.job > 0),
        "every merged entry must carry its job id"
    );

    // Fresh solo runs of byte-identical plans (regenerated workload).
    let mut reference = workload::generate(cluster.nodes, &cfg);
    inject_fault(&mut reference);
    for (job, req) in run.jobs.iter().zip(reference.requests) {
        let solo = run_dag(&cluster, &req.plan, &reference.dfs).expect("solo run failed");
        assert_eq!(
            job.outputs, solo.outputs,
            "job {} outputs drifted",
            job.name
        );
        assert_eq!(
            job.profile.signature(),
            solo.profile.signature(),
            "job {} signature drifted",
            job.name
        );
        assert!(job.start >= job.arrival, "job {} started early", job.name);
        assert!(job.finish >= job.start);
    }
    // The injected fault really produced a retry in the merged trace.
    assert!(
        run.trace
            .entries
            .iter()
            .any(|e| e.job == 1 && e.attempt > 0),
        "fault plan produced no retry attempt"
    );
}

fn wordcount_request(tenant: usize, arrival: u64, name: &str) -> JobRequest {
    JobRequest {
        tenant,
        arrival,
        name: name.to_string(),
        plan: JobDag::new().stage(
            Arc::new(WordCount),
            JobConfig::default().with_reducers(3),
            StageInput::dfs("corpus"),
        ),
        cache_prefix: None,
    }
}

fn corpus_dfs(nodes: usize) -> SimDfs {
    let mut dfs = SimDfs::new(nodes, 4 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines: 200,
            vocab_size: 150,
            ..Default::default()
        }
        .generate_bytes(),
    );
    dfs
}

fn one_tenant() -> Vec<TenantSpec> {
    vec![TenantSpec {
        name: "solo".into(),
        weight: 1,
        max_jobs: 8,
    }]
}

/// The merged trace of a lone job must equal its solo trace entry for
/// entry (modulo the job id) and edge for edge: the multiplexer's
/// per-job floors degenerate to the engine's own free-time raises.
/// Pinned on fault-free jobs at `shuffle_fetchers = 1`: without retries
/// the engine's event-loop reduce phase lands every attempt where the
/// multiplexer's greedy recurrence does.
fn assert_single_tenant_replay(trace: &JobTrace, solo: &JobTrace) {
    assert_eq!(trace.entries.len(), solo.entries.len());
    for (m, s) in trace.entries.iter().zip(&solo.entries) {
        assert_eq!(m.job, 1, "merged entry must be tagged job 1");
        let mut expect = s.clone();
        expect.job = 1;
        assert_eq!(*m, expect, "entry diverged from the legacy schedule");
    }
    let canon = |t: &JobTrace| {
        let mut es: Vec<String> = t.edges.iter().map(|e| format!("{e:?}")).collect();
        es.sort();
        es
    };
    assert_eq!(canon(trace), canon(solo), "edge sets diverged");
    assert_eq!(trace.wall, solo.wall);
}

#[test]
fn single_tenant_serve_replays_the_legacy_schedule() {
    let cluster = ClusterConfig::local().with_shuffle_fetchers(1);
    let dfs = corpus_dfs(cluster.nodes);
    let run = serve(
        &cluster,
        &one_tenant(),
        vec![wordcount_request(0, 0, "wc")],
        &dfs,
        &ServeConfig::default(),
    )
    .expect("serve failed");
    assert!(run.rejected.is_empty());
    assert_single_tenant_replay(&run.trace, &run.jobs[0].solo_trace);
}

/// Same replay property across a three-round DAG: the multiplexer's
/// round floors must coincide with the engine's round origins.
#[test]
fn single_tenant_multiround_serve_replays_the_legacy_schedule() {
    let cluster = ClusterConfig::local().with_shuffle_fetchers(1);
    let mut dfs = SimDfs::new(cluster.nodes, 256);
    let mut lines = String::new();
    for i in 0..48u64 {
        lines.push_str(&format!("{i} {}\n", (i * 13 + 5) % 97));
    }
    dfs.put("elems", lines.into_bytes());
    let cfg = JobConfig::default().with_reducers(3);
    let plan = JobDag::new()
        .stage(
            Arc::new(PrefixLocal { block_size: 8 }),
            cfg.clone(),
            StageInput::dfs("elems"),
        )
        .then(Arc::new(PrefixScan { num_blocks: 6 }), cfg.clone())
        .then(Arc::new(PrefixApply), cfg);
    let run = serve(
        &cluster,
        &one_tenant(),
        vec![JobRequest {
            tenant: 0,
            arrival: 0,
            name: "prefix".into(),
            plan,
            cache_prefix: None,
        }],
        &dfs,
        &ServeConfig::default(),
    )
    .expect("serve failed");
    assert!(run.rejected.is_empty());
    assert_single_tenant_replay(&run.trace, &run.jobs[0].solo_trace);
}

/// Serving the same Zipfian queue twice (fresh caches, regenerated
/// workloads) makes identical data-level decisions: per-job outputs,
/// signatures, and the per-job cache hit/miss tallies all agree, even
/// though measured virtual durations differ between the two calls.
#[test]
fn repeated_serves_agree_on_outputs_and_cache_decisions() {
    let cfg = WorkloadConfig {
        jobs: 10,
        tenants: 3,
        lines: 120,
        alpha: 1.4,
        ..Default::default()
    };
    let cluster = ClusterConfig::local();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let wl = workload::generate(cluster.nodes, &cfg);
        let serve_cfg = ServeConfig {
            cache: Some(ServeCacheConfig {
                cache: Arc::new(textmr_serve::S3FifoCache::new(1 << 20)),
                lookup_cost_ns: 50_000,
            }),
        };
        let run =
            serve(&cluster, &wl.tenants, wl.requests, &wl.dfs, &serve_cfg).expect("serve failed");
        run.trace.check().expect("merged trace invariants violated");
        runs.push(run);
    }
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.jobs.len(), b.jobs.len());
    let mut total_hits = 0;
    for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(ja.outputs, jb.outputs, "job {} outputs drifted", ja.name);
        assert_eq!(ja.profile.signature(), jb.profile.signature());
        assert_eq!(
            (ja.cache_hits, ja.cache_misses),
            (jb.cache_hits, jb.cache_misses),
            "job {} cache decisions drifted",
            ja.name
        );
        total_hits += ja.cache_hits;
    }
    assert_eq!(
        a.profile.cache, b.profile.cache,
        "final cache stats drifted"
    );
    assert!(
        total_hits > 0,
        "Zipf-repeated classes should score map-cache hits"
    );
}
