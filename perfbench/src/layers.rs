//! Per-layer numbers from the counters and `OpTimes` the engine returns in
//! `JobProfile` / `DagProfile`, aggregated over the jobs of a traced pass.

use crate::metrics::Report;
use crate::stats::ratio;
use textmr_engine::metrics::{DagProfile, JobProfile, Op, OpTimes};

/// Counters summed over every round of every job in a traced pass.
#[derive(Debug, Default)]
pub struct OpAgg {
    ops: OpTimes,
    map_in_records: u64,
    emitted: u64,
    absorbed: u64,
    spill_records: u64,
    spill_bytes: u64,
    spills: u64,
    fraction_sum: f64,
    map_out_bytes: u64,
    reduce_in_records: u64,
    out_records: u64,
    shuffled_bytes: u64,
    fetched_bytes: u64,
    remote_bytes: u64,
    reduce_virtual_ns: u64,
    peak_buffer_bytes: u64,
    map_idle_pct: Vec<f64>,
    support_idle_pct: Vec<f64>,
    rounds: u64,
}

impl OpAgg {
    /// Add one round's profile; `out_records` is the number of pairs its
    /// reducers wrote.
    pub fn add_round(&mut self, p: &JobProfile, out_records: u64) {
        self.ops.merge(&p.total_ops());
        for t in &p.map_tasks {
            self.map_in_records += t.input_records;
            self.emitted += t.emitted_records;
            self.absorbed += t.freq_absorbed_records;
            self.map_out_bytes += t.output_bytes;
            self.spills += t.spills.len() as u64;
            for s in &t.spills {
                self.spill_records += s.records as u64;
                self.spill_bytes += s.bytes as u64;
                self.fraction_sum += s.fraction;
            }
            self.peak_buffer_bytes = self.peak_buffer_bytes.max(t.peak_buffer_bytes);
        }
        for t in &p.reduce_tasks {
            self.reduce_in_records += t.input_records;
            self.reduce_virtual_ns += t.virtual_duration;
            self.peak_buffer_bytes = self.peak_buffer_bytes.max(t.peak_buffer_bytes);
        }
        let sh = p.shuffle_stats();
        self.shuffled_bytes += p.shuffled_bytes;
        self.fetched_bytes += sh.fetched_bytes;
        self.remote_bytes += sh.remote_bytes;
        self.out_records += out_records;
        if !p.map_tasks.is_empty() {
            self.map_idle_pct.push(p.map_idle_pct());
            self.support_idle_pct.push(p.support_idle_pct());
        }
        self.rounds += 1;
    }

    /// Add every round of a DAG job whose last round wrote `out_records`
    /// pairs. An earlier round wrote what the next round's map tasks read.
    pub fn add_dag(&mut self, p: &DagProfile, out_records: u64) {
        for (r, round) in p.rounds.iter().enumerate() {
            let written = match p.rounds.get(r + 1) {
                Some(next) => next.map_tasks.iter().map(|t| t.input_records).sum(),
                None => out_records,
            };
            self.add_round(round, written);
        }
    }

    /// Host nanoseconds of op work (idle excluded).
    pub fn work_ns(&self) -> u64 {
        self.ops.total_work()
    }

    /// Set every metric this aggregate measures.
    pub fn fill(&self, r: &mut Report) {
        let ns = |op: Op| self.ops.get(op) as f64;
        let work = self.ops.total_work() as f64;
        let share = |op: Op| 100.0 * ratio(ns(op), work);

        r.set(
            "apps.map_ns_per_rec",
            ratio(ns(Op::Map), self.map_in_records as f64),
        );
        r.set(
            "apps.combine_ns_per_rec",
            ratio(ns(Op::Combine), self.spill_records as f64),
        );
        r.set(
            "apps.reduce_ns_per_rec",
            ratio(ns(Op::Reduce), self.reduce_in_records as f64),
        );
        r.set("apps.map_work_pct", share(Op::Map));
        r.set("apps.combine_work_pct", share(Op::Combine));
        r.set("apps.reduce_work_pct", share(Op::Reduce));

        r.set(
            "io.read_ns_per_rec",
            ratio(ns(Op::Read), self.map_in_records as f64),
        );
        r.set("io.read_work_pct", share(Op::Read));

        r.set(
            "task.emit_ns_per_rec",
            ratio(ns(Op::Emit), self.emitted as f64),
        );
        r.set(
            "task.sort_ns_per_rec",
            ratio(ns(Op::Sort), self.spill_records as f64),
        );
        r.set(
            "task.spill_ns_per_byte",
            ratio(ns(Op::SpillWrite), self.spill_bytes as f64),
        );
        r.set(
            "task.merge_ns_per_byte",
            ratio(ns(Op::Merge), self.map_out_bytes as f64),
        );
        r.set("task.spills", self.spills as f64);
        r.set(
            "task.map_idle_pct",
            crate::stats::median(&self.map_idle_pct),
        );
        r.set(
            "task.support_idle_pct",
            crate::stats::median(&self.support_idle_pct),
        );
        r.set(
            "task.reduce_merge_ns_per_byte",
            ratio(ns(Op::ReduceMerge), self.fetched_bytes as f64),
        );
        r.set(
            "task.write_ns_per_rec",
            ratio(ns(Op::OutputWrite), self.out_records as f64),
        );
        r.set(
            "task.peak_buffer_kb",
            self.peak_buffer_bytes as f64 / 1024.0,
        );
        r.set(
            "task.abstraction_cost_pct",
            100.0 * ratio(self.ops.abstraction_cost() as f64, work),
        );
        r.set("task.emit_work_pct", share(Op::Emit));
        r.set("task.sort_work_pct", share(Op::Sort));
        r.set("task.spill_work_pct", share(Op::SpillWrite));
        r.set("task.merge_work_pct", share(Op::Merge));
        r.set("task.reduce_merge_work_pct", share(Op::ReduceMerge));
        r.set("task.write_work_pct", share(Op::OutputWrite));

        r.set(
            "core.freq_absorbed_pct",
            100.0 * ratio(self.absorbed as f64, self.emitted as f64),
        );
        r.set(
            "core.spill_fraction_mean",
            ratio(self.fraction_sum, self.spills as f64),
        );

        r.set("shuffle.bytes", self.shuffled_bytes as f64);
        r.set(
            "shuffle.remote_pct",
            100.0 * ratio(self.remote_bytes as f64, self.fetched_bytes as f64),
        );
        r.set(
            "shuffle.fetch_ns_per_byte",
            ratio(ns(Op::ShuffleFetch), self.fetched_bytes as f64),
        );
        r.set(
            "shuffle.wait_pct",
            100.0 * ratio(ns(Op::ShuffleWait), self.reduce_virtual_ns as f64),
        );
        r.set("shuffle.fetch_work_pct", share(Op::ShuffleFetch));
        r.set("dag.rounds", self.rounds as f64);
    }

    /// The op-work breakdown as `(op, share %)`, largest first.
    pub fn breakdown(&self) -> Vec<(&'static str, f64)> {
        let work = self.ops.total_work() as f64;
        let mut v: Vec<(&'static str, f64)> = Op::ALL
            .iter()
            .filter(|o| !o.is_idle())
            .map(|&o| (o.name(), 100.0 * ratio(self.ops.get(o) as f64, work)))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}
