//! Equivalence suite for the unified event-loop scheduler
//! ([`textmr_engine::event`]).
//!
//! 1. Map placement (`place_map`) is the greedy slot recurrence, checked
//!    against an independent inline oracle for any durations × factors ×
//!    cluster shape.
//! 2. The reduce phase with no network contention lands every attempt at
//!    exactly the oracle recurrence's `(start, end)`.
//! 3. A single-fetcher shuffle is the serial sum of its flows' isolated
//!    costs, with no straggler tail.
//! 4. Co-located reducers fair-share their node's ingress NIC at every
//!    fetcher count; non-co-located layouts keep their isolated transfer
//!    times.
//! 5. Every shipped fault-free 1-fetcher figure in `results/` replays to
//!    the identical `(slot, start, end)` schedule: maps through the
//!    scheduler, reduces through the oracle recurrence over their recorded
//!    (contention-priced) durations.
//! 6. Full jobs: for any survivable generated fault plan, runs at one
//!    and at several fetchers produce byte-identical output pairs and
//!    timing-free signatures across worker pools.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use textmr_apps::WordCount;
use textmr_data::text::CorpusConfig;
use textmr_engine::cluster::{run_job, ClusterConfig, JobConfig, JobRun};
use textmr_engine::event::{
    simulate_attempt_flows, ClusterShape, Flow, Placement, ReduceAttempt, Scheduler,
};
use textmr_engine::fault::{ChaosShape, FaultPlan};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::trace::{JobTrace, TaskKind, TraceEntry};

// ---------------------------------------------------------------------------
// 1. Map placement vs the greedy recurrence, written independently
// ---------------------------------------------------------------------------

/// The legacy tie-break: lowest-indexed slot among the earliest-free.
fn oracle_argmin(free: &[u64]) -> usize {
    let mut best = 0;
    for (i, &f) in free.iter().enumerate() {
        if f < free[best] {
            best = i;
        }
    }
    best
}

/// One placement step of the greedy recurrence, advancing `free`.
fn oracle_place(free: &mut [u64], prev_end: u64, scaled_dur: u64) -> Placement {
    let slot = oracle_argmin(free);
    let start = free[slot].max(prev_end);
    let end = start + scaled_dur;
    free[slot] = end;
    Placement { slot, start, end }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `place_map` equals the inline oracle for every attempt of every
    /// task: same slot, same start, same end.
    #[test]
    fn reservation_mode_matches_the_legacy_recurrence(
        factors in proptest::collection::vec(1u64..5, 1..5),
        map_slots in 1usize..4,
        reduce_slots in 1usize..4,
        tasks in proptest::collection::vec(proptest::collection::vec(1u64..50_000, 1..4), 1..12),
    ) {
        let nodes = factors.len();
        let shape = ClusterShape { nodes, map_slots, reduce_slots, fetchers: 1 };
        let mut sched = Scheduler::new(shape, factors.clone());

        let mut free = vec![vec![0u64; map_slots]; nodes];
        for (task, durs) in tasks.iter().enumerate() {
            let node = task % nodes;
            let got = sched.place_map(task, node, durs);
            let mut prev_end = 0u64;
            for (attempt, &dur) in durs.iter().enumerate() {
                let want = oracle_place(&mut free[node], prev_end, dur * factors[node]);
                prop_assert_eq!(got[attempt], want, "map task {} attempt {}", task, attempt);
                prev_end = want.end;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Reduce phase vs the oracle recurrence (no network contention)
// ---------------------------------------------------------------------------

/// Attempts whose cost never touches a NIC: dead blocks and local-only
/// shuffles. With nothing shared, the event loop must land every attempt
/// where the greedy recurrence would.
fn uncontended_attempt() -> impl Strategy<Value = ReduceAttempt> {
    prop_oneof![
        (1u64..20_000).prop_map(|dur| ReduceAttempt::Block { dur }),
        (
            proptest::collection::vec((1u64..5_000, 0u64..2_000), 0..4),
            1u64..5_000,
        )
            .prop_map(|(fl, post)| ReduceAttempt::Work {
                flows: fl
                    .into_iter()
                    .map(|(io, dec)| Flow {
                        io_ns: io,
                        backoff_ns: 0,
                        remote: false,
                        latency_ns: 0,
                        rate_ns: 0,
                        post_ns: dec,
                    })
                    .collect(),
                post_ns: post,
            }),
    ]
}

/// An attempt's duration when it shares nothing: the serial sum of its
/// isolated flows plus its post-shuffle work.
fn isolated_dur(attempt: &ReduceAttempt) -> u64 {
    match attempt {
        ReduceAttempt::Block { dur } => *dur,
        ReduceAttempt::Work { flows, post_ns } => flows
            .iter()
            .map(Flow::isolated_ns)
            .sum::<u64>()
            .saturating_add(*post_ns),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// With one attempt per task and no shared ingress, every outcome's
    /// `(start, end)` equals the oracle recurrence's. (Slot labels may
    /// swap when two slots free at the same instant; the timing is what
    /// the figures pin.)
    #[test]
    fn dynamic_phase_matches_static_reservation_without_contention(
        factors in proptest::collection::vec(1u64..4, 1..4),
        reduce_slots in 1usize..3,
        attempts in proptest::collection::vec(uncontended_attempt(), 1..10),
        phase_start in 0u64..100_000,
    ) {
        let nodes = factors.len();
        let shape = ClusterShape { nodes, map_slots: 1, reduce_slots, fetchers: 1 };

        let mut sched = Scheduler::new(shape, factors.clone());
        sched.begin_reduce_phase(phase_start);
        let layout: Vec<(usize, Vec<ReduceAttempt>)> = attempts
            .iter()
            .enumerate()
            .map(|(t, a)| (t % nodes, vec![a.clone()]))
            .collect();
        let outcomes = sched.run_reduce_phase(0, layout);

        let mut free = vec![vec![phase_start; reduce_slots]; nodes];
        for (task, attempt) in attempts.iter().enumerate() {
            let node = task % nodes;
            let want = oracle_place(&mut free[node], 0, isolated_dur(attempt) * factors[node]);
            prop_assert_eq!(
                (outcomes[task][0].start, outcomes[task][0].end),
                (want.start, want.end),
                "task {} diverged from the oracle schedule", task
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Single-fetcher shuffles serialize exactly
// ---------------------------------------------------------------------------

fn any_flow() -> impl Strategy<Value = Flow> {
    (
        (0u64..5_000, 0u64..2_000),
        (any::<bool>(), 0u64..1_000),
        (0u64..10_000, 0u64..3_000),
    )
        .prop_map(
            |((io_ns, backoff_ns), (remote, latency_ns), (rate_ns, post_ns))| Flow {
                io_ns,
                backoff_ns,
                remote,
                latency_ns,
                rate_ns,
                post_ns,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One fetcher, one reducer: no sharing, no tail — the shuffle is the
    /// serial sum of isolated flow costs, completed in submission order.
    #[test]
    fn single_fetcher_shuffle_is_the_serial_sum_of_isolated_flows(
        flows in proptest::collection::vec(any_flow(), 0..12),
    ) {
        let shuffle = simulate_attempt_flows(&flows, 1);
        let serial: u64 = flows.iter().map(Flow::isolated_ns).sum();
        prop_assert_eq!(shuffle.virtual_ns, serial);
        prop_assert_eq!(shuffle.wait_ns, 0);
        let order: Vec<usize> = shuffle.flows.iter().map(|f| f.flow).collect();
        prop_assert_eq!(order, (0..flows.len()).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------------
// 4. The co-located-reducer ingress fix
// ---------------------------------------------------------------------------

/// Two reducers pulling one remote flow each: on separate nodes each
/// transfer runs at full rate; co-located on one node they fair-share its
/// ingress, so both transfers take exactly twice as long — at one fetcher
/// (the paper's configuration) as at two. A per-attempt NIC model would
/// price co-location as free.
#[test]
fn co_located_reducers_fair_share_node_ingress() {
    let flow = Flow {
        io_ns: 0,
        backoff_ns: 0,
        remote: true,
        latency_ns: 1_000,
        rate_ns: 1_000_000,
        post_ns: 0,
    };
    let run = |homes: [usize; 2], fetchers: usize| {
        let shape = ClusterShape {
            nodes: 2,
            map_slots: 1,
            reduce_slots: 2,
            fetchers,
        };
        let mut sched = Scheduler::new(shape, vec![1, 1]);
        sched.begin_reduce_phase(0);
        sched.run_reduce_phase(
            0,
            homes
                .iter()
                .map(|&n| {
                    (
                        n,
                        vec![ReduceAttempt::Work {
                            flows: vec![flow],
                            post_ns: 0,
                        }],
                    )
                })
                .collect(),
        )
    };

    for fetchers in [1, 2] {
        // Separate nodes: latency then a full-rate transfer.
        let separate = run([0, 1], fetchers);
        for outcome in &separate {
            assert_eq!(
                (outcome[0].start, outcome[0].end),
                (0, 1_001_000),
                "separate, fetchers={fetchers}"
            );
        }
        // Co-located: the two concurrent transfers halve the shared rate.
        let together = run([0, 0], fetchers);
        for outcome in &together {
            assert_eq!(
                (outcome[0].start, outcome[0].end),
                (0, 2_001_000),
                "co-located, fetchers={fetchers}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 5. Shipped figures replay bit-for-bit
// ---------------------------------------------------------------------------

/// Replay one shipped trace's schedule: feed the unscaled map durations
/// back through a fresh [`Scheduler`] and the recorded reduce durations
/// through the oracle recurrence, and demand the identical `(slot, start,
/// end)` for every entry. Reduce durations already carry the shared-ingress
/// pricing; with fault-free chains the event loop dispatches them exactly
/// as the greedy recurrence would. Trace durations are measured wall time
/// — machine-dependent — so this, not byte equality of regenerated files,
/// is what "bit-for-bit" means for the published figures.
fn replay_trace(name: &str, trace: &JobTrace) {
    let mut factors: Vec<Option<u64>> = vec![None; trace.nodes];
    for e in &trace.entries {
        let f = e.factor.max(1);
        match factors[e.node] {
            None => factors[e.node] = Some(f),
            Some(seen) => assert_eq!(seen, f, "{name}: node {} straggler factor flaps", e.node),
        }
    }
    let factors: Vec<u64> = factors.into_iter().map(|f| f.unwrap_or(1)).collect();

    let mut maps: BTreeMap<usize, Vec<&TraceEntry>> = BTreeMap::new();
    let mut reduces: BTreeMap<usize, Vec<&TraceEntry>> = BTreeMap::new();
    for e in &trace.entries {
        match e.kind {
            TaskKind::Map => maps.entry(e.task).or_default().push(e),
            TaskKind::Reduce => reduces.entry(e.task).or_default().push(e),
        }
    }
    for chain in maps.values_mut().chain(reduces.values_mut()) {
        chain.sort_by_key(|e| e.attempt);
    }

    let unscaled = |e: &TraceEntry, node: usize| -> u64 {
        let scaled = e.end - e.start;
        assert_eq!(
            scaled % factors[node],
            0,
            "{name}: entry duration not a multiple of the node factor"
        );
        scaled / factors[node]
    };

    let shape = ClusterShape {
        nodes: trace.nodes,
        map_slots: trace.map_slots,
        reduce_slots: trace.reduce_slots,
        fetchers: 1,
    };
    let mut sched = Scheduler::new(shape, factors.clone());

    let mut map_end = 0u64;
    for (task, chain) in &maps {
        let node = chain[0].node;
        for e in chain {
            assert_eq!(e.node, node, "{name}: map task {task} hops nodes");
        }
        let durs: Vec<u64> = chain.iter().map(|e| unscaled(e, node)).collect();
        let got = sched.place_map(*task, node, &durs);
        for (p, e) in got.iter().zip(chain) {
            assert_eq!(
                (p.slot, p.start, p.end),
                (e.slot, e.start, e.end),
                "{name}: map task {task} attempt {} replayed differently",
                e.attempt
            );
        }
        map_end = map_end.max(chain.last().expect("non-empty chain").end);
    }

    let mut rfree = vec![vec![map_end; trace.reduce_slots]; trace.nodes];
    for (task, chain) in &reduces {
        let node = chain[0].node;
        let mut prev_end = 0u64;
        for e in chain {
            assert_eq!(e.node, node, "{name}: reduce task {task} hops nodes");
            let want = oracle_place(&mut rfree[node], prev_end, e.end - e.start);
            assert_eq!(
                (want.slot, want.start, want.end),
                (e.slot, e.start, e.end),
                "{name}: reduce task {task} attempt {} replayed differently",
                e.attempt
            );
            prev_end = want.end;
        }
    }
}

/// Every shipped fault-free 1-fetcher figure replays exactly. Backup
/// attempts are excluded because their detection times are a driver input
/// the trace does not record; multi-fetcher `_f4` traces have their own
/// invariants (tests 2–4); multi-round DAG
/// figures reuse task ids across rounds and are replayed by the
/// round-aware discipline in `tests/dag_determinism.rs` instead.
#[test]
fn shipped_single_fetcher_traces_replay_exactly() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut replayed = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("results/ directory") {
        let path = entry.expect("read results entry").path();
        let name = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .into_owned();
        if !name.starts_with("trace_") || !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read trace json");
        let trace = JobTrace::from_chrome_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        if trace.fetchers != 1 || trace.entries.iter().any(|e| e.backup || e.round > 0) {
            continue;
        }
        replay_trace(&name, &trace);
        replayed.push(name);
    }
    assert!(
        replayed.len() >= 4,
        "expected the four shipped fault-free figures, replayed only {replayed:?}"
    );
}

// ---------------------------------------------------------------------------
// 6. Full jobs: fetcher counts agree under generated fault plans
// ---------------------------------------------------------------------------

fn corpus_dfs() -> SimDfs {
    let mut dfs = SimDfs::new(6, 8 << 10);
    dfs.put(
        "corpus",
        CorpusConfig {
            lines: 600,
            vocab_size: 300,
            ..Default::default()
        }
        .generate_bytes(),
    );
    dfs
}

fn cluster(root: &Path, workers: usize, fetchers: usize) -> ClusterConfig {
    let mut c = ClusterConfig::local()
        .with_worker_threads(workers)
        .with_shuffle_fetchers(fetchers);
    c.spill_buffer_bytes = 64 << 10;
    c.temp_dir = Some(root.to_path_buf());
    c
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("textmr-eventeq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_with_plan(tag: &str, plan: &FaultPlan, workers: usize, fetchers: usize) -> JobRun {
    let root = temp_root(tag);
    let dfs = corpus_dfs();
    let run = run_job(
        &cluster(&root, workers, fetchers),
        &JobConfig::default().with_fault_plan(plan.clone()),
        Arc::new(WordCount),
        &dfs,
        &[("corpus", 0)],
    )
    .unwrap();
    let _ = std::fs::remove_dir_all(&root);
    run
}

/// The chaos shape matching this file's corpus/cluster geometry, derived
/// once from a fault-free run.
fn chaos_shape() -> &'static ChaosShape {
    static SHAPE: OnceLock<ChaosShape> = OnceLock::new();
    SHAPE.get_or_init(|| {
        let run = run_with_plan("shape", &FaultPlan::new(), 1, 1);
        ChaosShape {
            map_tasks: run.profile.map_tasks.len(),
            reducers: 4,
            nodes: 6,
            max_attempts: 4,
            ..ChaosShape::default()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For any survivable seeded fault plan, runs at one fetcher and at
    /// several produce byte-identical sorted output pairs and identical
    /// timing-free signatures, at every worker count.
    #[test]
    fn unified_loop_matches_the_legacy_schedule_for_any_survivable_plan(seed in any::<u64>()) {
        let plan = FaultPlan::generate(seed, chaos_shape());
        let legacy = run_with_plan(&format!("legacy-{seed:016x}"), &plan, 1, 1);
        let pairs = legacy.sorted_pairs();
        let signature = legacy.profile.signature();
        for (workers, fetchers) in [(2usize, 2usize), (1, 4), (4, 1)] {
            let run = run_with_plan(
                &format!("ev-{seed:016x}-w{workers}f{fetchers}"),
                &plan,
                workers,
                fetchers,
            );
            prop_assert_eq!(&run.sorted_pairs(), &pairs,
                "outputs diverged: seed={} workers={} fetchers={}", seed, workers, fetchers);
            prop_assert_eq!(&run.profile.signature(), &signature,
                "signature diverged: seed={} workers={} fetchers={}", seed, workers, fetchers);
        }
    }
}
