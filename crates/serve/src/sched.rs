//! The multi-job multiplexer: re-places every admitted job's solo
//! schedule onto one shared virtual cluster under weighted fair share.
//!
//! ## Model
//!
//! Each admitted job first runs *solo* through the engine (tracing on),
//! which fixes its complete attempt structure: every map/reduce attempt's
//! node, straggler-scaled duration, retry chain, and per-round barriers.
//! The multiplexer then replays those attempts onto shared slot tables
//! with the engine's own reservation recurrence (earliest-free slot,
//! `start = max(slot_free, job_floor, prev_attempt_end)` — see
//! [`textmr_engine::event::Scheduler::place_map`]), generalized with one
//! per-job *floor* standing in for the engine's global free-time raises:
//!
//! * round 0 maps floor at the job's arrival;
//! * a round's reduces floor at that job's map-phase end (the max end of
//!   its map attempts, failed ones included — the engine's
//!   `begin_reduce_phase`);
//! * round `k+1` floors at round `k`'s wall (the engine's `begin_round`).
//!
//! With a single job at arrival 0 every floor coincides with the engine's
//! raise, so the multiplexed schedule IS the solo schedule, slot for
//! slot (pinned by `tests/serve_determinism.rs`) — as long as no reduce
//! attempt is retried: the engine dispatches the reduce phase on its event
//! loop, which agrees with this recurrence for fault-free chains. Durations are never
//! recomputed: cross-job contention delays work but does not re-price it,
//! so shuffle NIC sharing stays as the solo run measured it — a modeling
//! simplification documented in DESIGN.md §3h.
//!
//! ## Fairness and determinism
//!
//! Tasks become dispatchable in batches driven by a
//! [`JobEventQueue`], whose
//! `(virtual_ns, job, seq)` ordering makes the pop sequence a pure
//! function of the admitted job set. Within a batch, whole task chains
//! (an attempt ladder) are placed one at a time; each pick goes to the
//! tenant with the smallest weighted virtual service (`busy / weight`,
//! compared exactly in integers), ties to the lower tenant id, then the
//! lower job id, then the job's own engine dispatch order. Placement is
//! therefore deterministic given the solo traces — replaying the
//! multiplexer over the same inputs is byte-identical — while run-to-run
//! variation in *measured* solo durations moves both the solo and the
//! served schedule together.

use std::collections::VecDeque;

use textmr_engine::event::JobEventQueue;
use textmr_engine::metrics::VNanos;
use textmr_engine::trace::{
    EdgeEnd, EdgeKind, EntryDetail, JobTrace, TaskKind, TraceEdge, TraceEntry,
};

use crate::TenantSpec;

// ---------------------------------------------------------------------------
// Job plans
// ---------------------------------------------------------------------------

/// One attempt of a task chain: where the solo run placed it and how long
/// it occupied its slot (straggler scaling already applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptInfo {
    /// Index of the attempt's entry in the job's solo trace.
    pub entry: usize,
    /// Node the attempt ran on (map locality / reduce assignment — kept,
    /// because the measured duration embeds the node's straggler factor
    /// and shuffle locality).
    pub node: usize,
    /// Slot occupancy in virtual nanoseconds.
    pub dur: VNanos,
}

/// A task's full attempt ladder (attempt `k + 1` starts only after
/// attempt `k` ends), the multiplexer's atomic placement unit — exactly
/// the unit the engine's reservation recurrence places.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskChain {
    /// DAG round the task belongs to.
    pub round: usize,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Task id within its round and phase.
    pub task: usize,
    /// Attempts in order; never empty.
    pub attempts: Vec<AttemptInfo>,
}

/// One admitted job's complete replay plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPlan {
    /// Serve job id (1-based; `JobPlan`s are passed in id order).
    pub job: usize,
    /// Owning tenant (index into the tenant roster).
    pub tenant: usize,
    /// Virtual arrival time — the floor under all of the job's work.
    pub arrival: VNanos,
    /// Task chains in the engine's dispatch order: per round, maps by
    /// task id, then reduces by task id.
    pub chains: Vec<TaskChain>,
    /// Per round: indices into `chains` for the round's maps and reduces.
    pub rounds: Vec<(Vec<usize>, Vec<usize>)>,
}

impl JobPlan {
    /// Extract the replay plan from a solo trace. Fails on speculative
    /// backups (serve rejects speculation at admission) and on malformed
    /// attempt numbering.
    pub fn from_trace(
        job: usize,
        tenant: usize,
        arrival: VNanos,
        trace: &JobTrace,
    ) -> Result<JobPlan, String> {
        use std::collections::BTreeMap;
        let mut by_task: BTreeMap<(usize, u8, usize), Vec<(usize, usize)>> = BTreeMap::new();
        for (ei, e) in trace.entries.iter().enumerate() {
            if e.backup {
                return Err(format!(
                    "solo trace of job {job} contains a speculative backup (round {} {} {})",
                    e.round,
                    e.kind.label(),
                    e.task
                ));
            }
            let kind_ord = match e.kind {
                TaskKind::Map => 0u8,
                TaskKind::Reduce => 1,
            };
            by_task
                .entry((e.round, kind_ord, e.task))
                .or_default()
                .push((e.attempt, ei));
        }
        let mut chains = Vec::with_capacity(by_task.len());
        let mut rounds: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for ((round, kind_ord, task), mut attempts) in by_task {
            attempts.sort_unstable();
            for (want, &(got, _)) in attempts.iter().enumerate() {
                if got != want {
                    return Err(format!(
                        "job {job} round {round} task {task}: attempt numbering has a gap at {want}"
                    ));
                }
            }
            let kind = if kind_ord == 0 {
                TaskKind::Map
            } else {
                TaskKind::Reduce
            };
            let infos = attempts
                .iter()
                .map(|&(_, ei)| {
                    let e = &trace.entries[ei];
                    AttemptInfo {
                        entry: ei,
                        node: e.node,
                        dur: e.end.saturating_sub(e.start),
                    }
                })
                .collect();
            while rounds.len() <= round {
                rounds.push((Vec::new(), Vec::new()));
            }
            let ci = chains.len();
            match kind {
                TaskKind::Map => rounds[round].0.push(ci),
                TaskKind::Reduce => rounds[round].1.push(ci),
            }
            chains.push(TaskChain {
                round,
                kind,
                task,
                attempts: infos,
            });
        }
        Ok(JobPlan {
            job,
            tenant,
            arrival,
            chains,
            rounds,
        })
    }
}

// ---------------------------------------------------------------------------
// Multiplexing
// ---------------------------------------------------------------------------

/// One attempt as the multiplexer placed it on the shared cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placed {
    /// Serve job id.
    pub job: usize,
    /// Entry index in the job's solo trace.
    pub entry: usize,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Node (unchanged from solo).
    pub node: usize,
    /// Slot picked on the shared cluster.
    pub slot: usize,
    /// Shared-cluster virtual start.
    pub start: VNanos,
    /// Shared-cluster virtual end (`start + solo duration`).
    pub end: VNanos,
}

/// Per-job serve window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobWindow {
    /// Serve job id.
    pub job: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// Virtual arrival.
    pub arrival: VNanos,
    /// Earliest attempt start (arrival for an empty job).
    pub start: VNanos,
    /// Virtual completion of the job's last round.
    pub finish: VNanos,
}

/// Per-tenant slot occupancy accumulated by the multiplexer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantShare {
    /// Tenant index.
    pub tenant: usize,
    /// Fair-share weight (clamped to ≥ 1).
    pub weight: u64,
    /// Total map-slot occupancy granted, in virtual nanoseconds.
    pub map_busy: VNanos,
    /// Total reduce-slot occupancy granted.
    pub reduce_busy: VNanos,
}

/// The complete interleaved schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Multiplexed {
    /// Every attempt in placement order (the fair-share grant sequence).
    pub placed: Vec<Placed>,
    /// `by_job_entry[job - 1][solo_entry] → index into placed`.
    pub by_job_entry: Vec<Vec<Option<usize>>>,
    /// Per-job windows, in job-id order.
    pub windows: Vec<JobWindow>,
    /// Per-tenant occupancy, indexed by tenant.
    pub shares: Vec<TenantShare>,
    /// Max attempt end across all jobs.
    pub wall: VNanos,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrive,
    Reduces,
    NextRound,
}

struct JobState {
    tenant: usize,
    /// Ready chains (indices into the plan), in engine dispatch order.
    queue: VecDeque<usize>,
    /// Current floor under this job's placements.
    floor: VNanos,
    round: usize,
    maps_left: usize,
    reduces_left: usize,
    /// Max map-attempt end of the current round (the reduce floor).
    mpe: VNanos,
    /// Round wall: `max(mpe, reduce ends)` — the next round's floor.
    round_end: VNanos,
    started: Option<VNanos>,
    finish: VNanos,
}

/// Multiplex `plans` (in job-id order: `plans[i].job == i + 1`) onto a
/// shared cluster of `nodes` × (`map_slots`, `reduce_slots`) under the
/// tenants' weighted fair share.
pub fn multiplex(
    nodes: usize,
    map_slots: usize,
    reduce_slots: usize,
    tenants: &[TenantSpec],
    plans: &[JobPlan],
) -> Multiplexed {
    let nodes = nodes.max(1);
    for (i, p) in plans.iter().enumerate() {
        assert_eq!(p.job, i + 1, "plans must be passed in job-id order");
        assert!(p.tenant < tenants.len(), "plan references unknown tenant");
    }
    let weights: Vec<u64> = tenants.iter().map(|t| t.weight.max(1)).collect();
    let mut busy: Vec<u128> = vec![0; tenants.len()];
    let mut shares: Vec<TenantShare> = tenants
        .iter()
        .enumerate()
        .map(|(i, _)| TenantShare {
            tenant: i,
            weight: weights[i],
            map_busy: 0,
            reduce_busy: 0,
        })
        .collect();

    let mut map_free = vec![vec![0 as VNanos; map_slots.max(1)]; nodes];
    let mut reduce_free = vec![vec![0 as VNanos; reduce_slots.max(1)]; nodes];

    let mut states: Vec<JobState> = plans
        .iter()
        .map(|p| JobState {
            tenant: p.tenant,
            queue: VecDeque::new(),
            floor: p.arrival,
            round: 0,
            maps_left: 0,
            reduces_left: 0,
            mpe: p.arrival,
            round_end: p.arrival,
            started: None,
            finish: p.arrival,
        })
        .collect();

    let mut placed: Vec<Placed> = Vec::new();
    let mut by_job_entry: Vec<Vec<Option<usize>>> = plans
        .iter()
        .map(|p| {
            let max_entry = p
                .chains
                .iter()
                .flat_map(|c| c.attempts.iter().map(|a| a.entry))
                .max()
                .map_or(0, |m| m + 1);
            vec![None; max_entry]
        })
        .collect();

    let mut q: JobEventQueue<Ev> = JobEventQueue::new();
    for p in plans {
        q.push(p.arrival, p.job, Ev::Arrive);
    }

    // Open the current round's map phase (or fall through empty phases).
    fn open_round(
        ji: usize,
        states: &mut [JobState],
        plans: &[JobPlan],
        q: &mut JobEventQueue<Ev>,
    ) {
        let st = &mut states[ji];
        let round = st.round;
        if round >= plans[ji].rounds.len() {
            // No work at all: the job completes at its floor.
            st.finish = st.floor;
            return;
        }
        let maps = &plans[ji].rounds[round].0;
        st.maps_left = maps.len();
        st.mpe = st.floor;
        st.round_end = st.floor;
        if maps.is_empty() {
            q.push(st.floor, plans[ji].job, Ev::Reduces);
        } else {
            st.queue.extend(maps.iter().copied());
        }
    }

    // A phase of job `ji` finished placing; push the follow-up event.
    fn phase_check(
        ji: usize,
        states: &mut [JobState],
        plans: &[JobPlan],
        q: &mut JobEventQueue<Ev>,
    ) {
        let st = &mut states[ji];
        if st.maps_left == 0 && st.reduces_left == 0 && st.queue.is_empty() {
            // Round complete.
            if st.round + 1 < plans[ji].rounds.len() {
                q.push(st.round_end, plans[ji].job, Ev::NextRound);
            } else {
                st.finish = st.round_end;
            }
        }
    }

    while let Some(t) = q.peek_time() {
        // Drain the whole same-instant batch before dispatching, so jobs
        // whose phases open at the same virtual instant compete under
        // fair share instead of first-pop-wins.
        while q.peek_time() == Some(t) {
            let (_, job, _, ev) = q.pop().expect("peeked");
            let ji = job - 1;
            match ev {
                Ev::Arrive => open_round(ji, &mut states, plans, &mut q),
                Ev::Reduces => {
                    let st = &mut states[ji];
                    st.floor = st.mpe;
                    st.round_end = st.mpe;
                    let reduces = &plans[ji].rounds[st.round].1;
                    st.reduces_left = reduces.len();
                    if reduces.is_empty() {
                        phase_check(ji, &mut states, plans, &mut q);
                    } else {
                        let reduces = reduces.clone();
                        states[ji].queue.extend(reduces);
                    }
                }
                Ev::NextRound => {
                    let st = &mut states[ji];
                    st.round += 1;
                    st.floor = st.round_end;
                    open_round(ji, &mut states, plans, &mut q);
                }
            }
        }

        // Fair-share dispatch: drain the ready pool one task chain at a
        // time, each grant going to the most underserved tenant.
        loop {
            let mut best: Option<usize> = None;
            for st in states.iter() {
                if st.queue.is_empty() {
                    continue;
                }
                let ten = st.tenant;
                best = Some(match best {
                    None => ten,
                    Some(b) if b == ten => b,
                    Some(b) => {
                        // busy[ten]/w[ten] < busy[b]/w[b], in integers.
                        let lhs = busy[ten] * u128::from(weights[b]);
                        let rhs = busy[b] * u128::from(weights[ten]);
                        if lhs < rhs || (lhs == rhs && ten < b) {
                            ten
                        } else {
                            b
                        }
                    }
                });
            }
            let Some(ten) = best else { break };
            let ji = states
                .iter()
                .position(|st| st.tenant == ten && !st.queue.is_empty())
                .expect("tenant was eligible");
            let ci = states[ji].queue.pop_front().expect("queue non-empty");
            let chain = &plans[ji].chains[ci];

            // Engine reservation recurrence, floored by the job's phase.
            let floor = states[ji].floor;
            let mut prev_end: VNanos = 0;
            let mut chain_busy: VNanos = 0;
            for a in &chain.attempts {
                let free = match chain.kind {
                    TaskKind::Map => &mut map_free[a.node],
                    TaskKind::Reduce => &mut reduce_free[a.node],
                };
                let mut slot = 0;
                let mut best_eff = free[0].max(floor);
                for (s, &f) in free.iter().enumerate().skip(1) {
                    let eff = f.max(floor);
                    if eff < best_eff {
                        best_eff = eff;
                        slot = s;
                    }
                }
                let start = best_eff.max(prev_end);
                let end = start.saturating_add(a.dur);
                free[slot] = end;
                by_job_entry[ji][a.entry] = Some(placed.len());
                placed.push(Placed {
                    job: plans[ji].job,
                    entry: a.entry,
                    kind: chain.kind,
                    node: a.node,
                    slot,
                    start,
                    end,
                });
                let st = &mut states[ji];
                st.started = Some(st.started.map_or(start, |s| s.min(start)));
                prev_end = end;
                chain_busy = chain_busy.saturating_add(a.dur);
            }
            busy[ten] += u128::from(chain_busy);
            match chain.kind {
                TaskKind::Map => shares[ten].map_busy += chain_busy,
                TaskKind::Reduce => shares[ten].reduce_busy += chain_busy,
            }
            let st = &mut states[ji];
            match chain.kind {
                TaskKind::Map => {
                    st.maps_left -= 1;
                    st.mpe = st.mpe.max(prev_end);
                    st.round_end = st.round_end.max(prev_end);
                    if st.maps_left == 0 {
                        q.push(st.mpe, plans[ji].job, Ev::Reduces);
                    }
                }
                TaskKind::Reduce => {
                    st.reduces_left -= 1;
                    st.round_end = st.round_end.max(prev_end);
                    if st.reduces_left == 0 {
                        phase_check(ji, &mut states, plans, &mut q);
                    }
                }
            }
        }
    }

    let windows = plans
        .iter()
        .enumerate()
        .map(|(ji, p)| JobWindow {
            job: p.job,
            tenant: p.tenant,
            arrival: p.arrival,
            start: states[ji].started.unwrap_or(p.arrival),
            finish: states[ji].finish,
        })
        .collect();
    let wall = placed.iter().map(|p| p.end).max().unwrap_or(0);
    Multiplexed {
        placed,
        by_job_entry,
        windows,
        shares,
        wall,
    }
}

// ---------------------------------------------------------------------------
// Merged trace
// ---------------------------------------------------------------------------

fn shift(t: VNanos, delta: i128) -> VNanos {
    u64::try_from(i128::from(t) + delta).expect("shifted virtual time out of range")
}

/// Assemble the served multi-job trace: every job's solo entries shifted
/// to their multiplexed placements (durations and lane structure
/// untouched, so the per-attempt tiling invariants carry over), per-job
/// structural edges reindexed, solo slot chains dropped, and cross-job
/// slot chains rebuilt from the shared-cluster occupancy order.
pub fn merge_traces(plans: &[JobPlan], solos: &[JobTrace], mux: &Multiplexed) -> JobTrace {
    assert_eq!(plans.len(), solos.len());
    let mut entries: Vec<TraceEntry> = Vec::new();
    let mut offsets = Vec::with_capacity(solos.len());
    for (ji, solo) in solos.iter().enumerate() {
        offsets.push(entries.len());
        for (ei, e) in solo.entries.iter().enumerate() {
            let pi = mux.by_job_entry[ji][ei].expect("every solo entry is placed");
            let p = &mux.placed[pi];
            let delta = i128::from(p.start) - i128::from(e.start);
            debug_assert_eq!(i128::from(p.end), i128::from(e.end) + delta);
            let mut detail = e.detail.clone();
            if let EntryDetail::Lanes(lanes) = &mut detail {
                for lane in lanes {
                    for span in &mut lane.spans {
                        span.start = shift(span.start, delta);
                        span.end = shift(span.end, delta);
                    }
                }
            }
            entries.push(TraceEntry {
                job: plans[ji].job,
                slot: p.slot,
                start: p.start,
                end: p.end,
                detail,
                ..*e
            });
        }
    }

    // Per-job structural edges survive re-timing verbatim (they relate
    // events inside one job, whose relative order the floors preserve);
    // solo slot chains describe slots the jobs no longer own.
    let mut edges: Vec<TraceEdge> = Vec::new();
    for (ji, solo) in solos.iter().enumerate() {
        let off = offsets[ji];
        edges.extend(
            solo.edges
                .iter()
                .filter(|e| e.kind != EdgeKind::Slot)
                .map(|e| TraceEdge {
                    kind: e.kind,
                    src: EdgeEnd {
                        entry: e.src.entry + off,
                        at: e.src.at,
                    },
                    dst: EdgeEnd {
                        entry: e.dst.entry + off,
                        at: e.dst.at,
                    },
                }),
        );
    }

    // Cross-job slot chains: consecutive occupants of each shared slot.
    let header = solos.first();
    let nodes = header.map_or(1, |s| s.nodes);
    let map_slots = header.map_or(1, |s| s.map_slots);
    let reduce_slots = header.map_or(1, |s| s.reduce_slots);
    for kind in [TaskKind::Map, TaskKind::Reduce] {
        let slots = match kind {
            TaskKind::Map => map_slots,
            TaskKind::Reduce => reduce_slots,
        };
        for node in 0..nodes {
            for slot in 0..slots {
                let mut occ: Vec<(VNanos, VNanos, usize)> = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.kind == kind && e.node == node && e.slot == slot)
                    .map(|(i, e)| (e.start, e.end, i))
                    .collect();
                occ.sort_unstable();
                for pair in occ.windows(2) {
                    edges.push(TraceEdge {
                        kind: EdgeKind::Slot,
                        src: EdgeEnd::entry(pair[0].2),
                        dst: EdgeEnd::entry(pair[1].2),
                    });
                }
            }
        }
    }

    JobTrace {
        nodes,
        map_slots,
        reduce_slots,
        fetchers: header.map_or(1, |s| s.fetchers),
        wall: entries.iter().map(|e| e.end).max().unwrap_or(0),
        entries,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str, weight: u64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            weight,
            max_jobs: usize::MAX,
        }
    }

    fn chain(round: usize, kind: TaskKind, task: usize, node: usize, durs: &[VNanos]) -> TaskChain {
        TaskChain {
            round,
            kind,
            task,
            attempts: durs
                .iter()
                .map(|&dur| AttemptInfo {
                    entry: 0,
                    node,
                    dur,
                })
                .collect(),
        }
    }

    fn plan(job: usize, tenant: usize, arrival: VNanos, chains: Vec<TaskChain>) -> JobPlan {
        let mut rounds: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for (ci, c) in chains.iter().enumerate() {
            while rounds.len() <= c.round {
                rounds.push((Vec::new(), Vec::new()));
            }
            match c.kind {
                TaskKind::Map => rounds[c.round].0.push(ci),
                TaskKind::Reduce => rounds[c.round].1.push(ci),
            }
        }
        JobPlan {
            job,
            tenant,
            arrival,
            chains,
            rounds,
        }
    }

    /// One job, one node with two map slots: the multiplexer must
    /// reproduce the engine recurrence exactly, including the retry
    /// ladder reserving ahead of later tasks in task order.
    #[test]
    fn single_job_reproduces_the_engine_recurrence() {
        let plans = vec![plan(
            1,
            0,
            0,
            vec![
                chain(0, TaskKind::Map, 0, 0, &[10, 5]), // fails once, retries
                chain(0, TaskKind::Map, 1, 0, &[3]),
                chain(0, TaskKind::Map, 2, 0, &[100]),
                chain(0, TaskKind::Reduce, 0, 0, &[7]),
            ],
        )];
        let mux = multiplex(1, 2, 1, &[tenant("a", 1)], &plans);
        let got: Vec<(usize, VNanos, VNanos)> = mux
            .placed
            .iter()
            .map(|p| (p.slot, p.start, p.end))
            .collect();
        // Engine order: task 0 ladder first (slot 0 [0,10]; retry argmin →
        // slot 1 free at 0, start max(0, 10) = 10 → [10,15]), then task 1
        // (argmin slot 0 free 10 vs slot 1 free 15 → slot 0 [10,13]), then
        // task 2 (slot 0 [13,113]). Reduce floors at mpe = 113.
        assert_eq!(
            got,
            vec![
                (0, 0, 10),
                (1, 10, 15),
                (0, 10, 13),
                (0, 13, 113),
                (0, 113, 120)
            ]
        );
        assert_eq!(mux.windows[0].finish, 120);
        assert_eq!(mux.wall, 120);
    }

    /// Two tenants with weights 1:3 contending for one map slot: grants
    /// interleave so the heavy tenant holds ~3× the slot time at every
    /// prefix of the schedule.
    #[test]
    fn weighted_fair_share_splits_one_slot_three_to_one() {
        let d: VNanos = 10;
        let mk = |job, ten| {
            plan(
                job,
                ten,
                0,
                (0..8)
                    .map(|t| chain(0, TaskKind::Map, t, 0, &[d]))
                    .collect(),
            )
        };
        let plans = vec![mk(1, 0), mk(2, 1)];
        let tenants = [tenant("light", 1), tenant("heavy", 3)];
        let mux = multiplex(1, 1, 1, &tenants, &plans);
        // Walk the single slot in placement order; while both tenants
        // still have pending work the heavy tenant's cumulative busy time
        // stays within one task of 3× the light tenant's.
        let (mut busy_light, mut busy_heavy) = (0u64, 0u64);
        let (mut left_light, mut left_heavy) = (8, 8);
        for p in &mux.placed {
            if p.job == 1 {
                busy_light += d;
                left_light -= 1;
            } else {
                busy_heavy += d;
                left_heavy -= 1;
            }
            if left_light > 0 && left_heavy > 0 {
                let diff = i128::from(busy_heavy) - 3 * i128::from(busy_light);
                assert!(
                    diff.abs() <= 3 * i128::from(d),
                    "fair-share drift: heavy {busy_heavy} vs light {busy_light}"
                );
            }
        }
        assert_eq!(mux.shares[0].map_busy, 8 * d);
        assert_eq!(mux.shares[1].map_busy, 8 * d);
    }

    /// A later arrival floors its work at its arrival time even when the
    /// cluster is idle, and the event queue orders the batches.
    #[test]
    fn arrival_floors_delay_late_jobs() {
        let plans = vec![
            plan(1, 0, 0, vec![chain(0, TaskKind::Map, 0, 0, &[5])]),
            plan(2, 0, 100, vec![chain(0, TaskKind::Map, 0, 0, &[5])]),
        ];
        let mux = multiplex(1, 2, 1, &[tenant("a", 1)], &plans);
        assert_eq!(mux.placed[0].start, 0);
        // Slot 0 is free again at 5, but job 2 cannot start before 100.
        assert_eq!(mux.placed[1].start, 100);
        assert_eq!(mux.placed[1].slot, 0, "argmin over floored free times");
    }

    /// Same-instant arrivals from different jobs are one batch: dispatch
    /// order comes from fair share, not from push order.
    #[test]
    fn same_instant_arrivals_share_the_batch() {
        let plans = vec![
            plan(1, 0, 0, vec![chain(0, TaskKind::Map, 0, 0, &[10])]),
            plan(2, 1, 0, vec![chain(0, TaskKind::Map, 0, 0, &[10])]),
        ];
        // Tenant 1 is heavier, but at zero service the tie breaks to the
        // lower tenant id.
        let tenants = [tenant("a", 1), tenant("b", 3)];
        let mux = multiplex(1, 1, 1, &tenants, &plans);
        assert_eq!(mux.placed[0].job, 1);
        assert_eq!(mux.placed[1].job, 2);
        assert_eq!(mux.placed[1].start, 10);
    }
}
