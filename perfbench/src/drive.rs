//! Direct drive: one job executed task by task through the engine's public
//! task functions, with a span around every call.
//!
//! The path is `InputSplit::from_file` → `run_map_task` per split →
//! `run_shuffle` and `run_reduce_task` per partition, set up the way the
//! cluster driver sets up a fault-free, uncached round (same controllers,
//! filters, buffer split, node placement and streaming knobs), one task at
//! a time. Its output must equal `run_job`'s; the traced run discards its
//! per-layer numbers otherwise. `run_shuffle` is called once more beside
//! each reduce task (which fetches for itself) so the shuffle layer gets
//! a span of its own.

use crate::spans::Spans;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use textmr_engine::cluster::{ClusterConfig, JobConfig};
use textmr_engine::controller::{FilterCtx, TaskCtx};
use textmr_engine::io::dfs::SimDfs;
use textmr_engine::io::frame::decode_run;
use textmr_engine::io::input::InputSplit;
use textmr_engine::job::Job;
use textmr_engine::shuffle::run_shuffle;
use textmr_engine::task::map_task::{run_map_task, MapOutput, MapTaskConfig, MapTaskError};
use textmr_engine::task::reduce_task::{run_reduce_task, ReduceTaskConfig};

/// What a direct drive produced.
pub struct Direct {
    /// Per-partition output pairs.
    pub outputs: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
    /// Host seconds inside `run_map_task` and `run_reduce_task` calls — the
    /// work `run_job` would do outside its own driver code.
    pub task_s: f64,
    /// Decoded record bytes of the largest partition of map task 0's
    /// output: a real map-output partition for the compression probe.
    pub partition: Vec<u8>,
    /// The job's input splits.
    pub splits: Vec<InputSplit>,
}

/// Drive `job` over `inputs` task by task, in `temp` (created, and left
/// for the caller to remove).
pub fn direct_drive(
    cluster: &ClusterConfig,
    cfg: &JobConfig,
    job: &Arc<dyn Job>,
    dfs: &SimDfs,
    inputs: &[(&str, u8)],
    temp: &Path,
    spans: &mut Spans,
) -> io::Result<Direct> {
    let splits = spans.record("io.split", |_| -> io::Result<Vec<InputSplit>> {
        let mut splits = Vec::new();
        for (name, source) in inputs {
            let file = dfs
                .get(name)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no {name}")))?;
            splits.extend(InputSplit::from_file(file, *source));
        }
        Ok(splits)
    })?;

    let streaming = cluster.effective_streaming();
    let spill_buffer = cluster.effective_spill_buffer_bytes();
    let filter_budget = if cfg.emit_filter.is_some() {
        (spill_buffer as f64 * cfg.filter_budget_fraction) as usize
    } else {
        0
    };
    let pipeline_capacity = (spill_buffer - filter_budget).max(1024);
    let mut node_first_task: BTreeMap<usize, usize> = BTreeMap::new();
    for (t, split) in splits.iter().enumerate() {
        node_first_task
            .entry(split.home_node % cluster.nodes)
            .or_insert(t);
    }
    let cancel = Arc::new(AtomicBool::new(false));
    let mut task_s = 0.0;

    let mut map_outputs: Vec<MapOutput> = Vec::with_capacity(splits.len());
    for (t, split) in splits.iter().enumerate() {
        let node = split.home_node % cluster.nodes;
        let ctx = TaskCtx { node, task: t };
        let filter = cfg
            .emit_filter
            .as_ref()
            .map(|f| {
                f(FilterCtx {
                    task: ctx,
                    job: Arc::clone(job),
                    budget_bytes: filter_budget,
                    estimated_records: split.count_records(),
                    node_first_task: node_first_task.get(&node).copied().unwrap_or(t),
                    cancel: Some(Arc::clone(&cancel)),
                })
            })
            .filter(|f| f.is_active());
        let spill_dir = temp.join(format!("m{t}"));
        std::fs::create_dir_all(&spill_dir)?;
        let task_cfg = MapTaskConfig {
            task_id: t,
            node,
            num_partitions: cfg.num_reducers,
            buffer_capacity: if filter.is_some() {
                pipeline_capacity
            } else {
                spill_buffer
            },
            controller: (cfg.spill_controller)(ctx),
            filter,
            merge_fan_in: cluster.merge_fan_in,
            compress_output: cluster.compress_map_output,
            spill_dir,
            fail_after_records: None,
            fail_spill: None,
            cancel: Some(Arc::clone(&cancel)),
            trace: false,
            streaming,
        };
        let (res, secs) = spans.timed("task.map_call", |_| run_map_task(job, split, task_cfg));
        let (out, _profile) = res.map_err(|e| match e {
            MapTaskError::Io(e) => e,
            other => io::Error::other(format!("map task {t}: {other:?}")),
        })?;
        task_s += secs;
        map_outputs.push(out);
    }

    let mut outputs = Vec::with_capacity(cfg.num_reducers);
    for r in 0..cfg.num_reducers {
        let node = r % cluster.nodes;
        spans.record("shuffle.call", |_| {
            run_shuffle(
                &map_outputs,
                r,
                node,
                &cluster.network,
                cluster.shuffle_fetchers.max(1),
                None,
                cfg.max_attempts.max(1),
                false,
            )
        })?;
        let scratch_dir = temp.join(format!("r{r}"));
        std::fs::create_dir_all(&scratch_dir)?;
        let reduce_cfg = ReduceTaskConfig {
            partition: r,
            node,
            merge_fan_in: cluster.merge_fan_in,
            scratch_dir,
            grouping: cfg.grouping,
            fetchers: cluster.shuffle_fetchers.max(1),
            fail_after_groups: None,
            faults: None,
            max_fetch_attempts: cfg.max_attempts.max(1),
            cancel: None,
            trace: false,
            streaming,
        };
        let (res, secs) = spans.timed("task.reduce_call", |_| {
            run_reduce_task(job, &map_outputs, &cluster.network, &reduce_cfg)
        });
        let res = res.map_err(|e| io::Error::other(format!("reduce task {r}: {e:?}")))?;
        task_s += secs;
        outputs.push(res.pairs);
    }

    let partition = largest_partition(&map_outputs, cfg.num_reducers)?;
    Ok(Direct {
        outputs,
        task_s,
        partition,
        splits,
    })
}

/// Decoded record bytes of map task 0's largest partition.
fn largest_partition(map_outputs: &[MapOutput], partitions: usize) -> io::Result<Vec<u8>> {
    let Some(out) = map_outputs.first() else {
        return Ok(Vec::new());
    };
    let mut best = Vec::new();
    for p in 0..partitions {
        let stored = out.file.read_partition(p)?;
        // No workload compresses whole map outputs, so a partition is
        // either framed or plain records.
        let raw = if out.framed {
            decode_run(&stored).map_err(|e| io::Error::other(format!("{e:?}")))?
        } else {
            stored
        };
        if raw.len() > best.len() {
            best = raw;
        }
    }
    Ok(best)
}
