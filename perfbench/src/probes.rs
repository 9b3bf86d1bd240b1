//! Layer probes: public functions of one layer timed on the workload's own
//! data, each call inside a span. Every probe repeats its call and keeps
//! the median, and checks what it computed.

use crate::spans::Spans;
use crate::stats::{median, ratio};
use std::hint::black_box;
use textmr_core::SpaceSaving;
use textmr_engine::io::compress::{compress, decompress};
use textmr_engine::io::input::{InputSplit, SplitReader};
use textmr_engine::job::{Job, VecEmit};
use textmr_engine::task::segment::Segment;
use textmr_engine::task::spill::sort_indices;

/// Repetitions of each probe call.
const REPS: usize = 5;

fn timed_median(spans: &mut Spans, name: &'static str, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..REPS).map(|_| spans.timed(name, |_| f()).1).collect();
    median(&secs)
}

/// `nlp.tokenize_mb_s`: `tokenizer::words` over `text`, MB per second.
pub fn tokenize_mb_s(text: &str, spans: &mut Spans) -> f64 {
    let secs = timed_median(spans, "nlp.tokenize", || {
        let mut n = 0usize;
        for line in text.lines() {
            for w in textmr_nlp::tokenizer::words(line) {
                n += black_box(w).len();
            }
        }
        black_box(n);
    });
    ratio(text.len() as f64 / 1e6, secs)
}

/// The pairs `job.map` emits for the first records of `split`, pushed into
/// a [`Segment`] until it holds `cap_bytes` accounted bytes — the contents
/// of one spill buffer.
pub fn emitted_segment(
    job: &dyn Job,
    split: &InputSplit,
    partitions: usize,
    cap_bytes: usize,
) -> Segment {
    let mut seg = Segment::new();
    let mut reader = SplitReader::new(split);
    while seg.accounted_bytes() < cap_bytes {
        let Some(rec) = reader.next() else { break };
        let mut sink = VecEmit::default();
        job.map(&rec, &mut sink);
        for (k, v) in sink.pairs {
            seg.push(job.partition(&k, partitions), &k, &v);
        }
    }
    seg
}

/// `task.sort_indices_ns_per_rec`: `task::spill::sort_indices` on `seg`.
/// Checks that the order it returns is sorted by `(partition, key)`.
pub fn sort_indices_ns(seg: &Segment, job: &dyn Job, spans: &mut Spans) -> Result<f64, String> {
    let mut last = Vec::new();
    let secs = timed_median(spans, "task.sort_indices", || {
        last = sort_indices(black_box(seg), job);
    });
    let sorted = last.windows(2).all(|w| {
        let (a, b) = (w[0] as usize, w[1] as usize);
        seg.part(a)
            .cmp(&seg.part(b))
            .then_with(|| job.compare_keys(seg.key(a), seg.key(b)))
            .is_le()
    });
    if !sorted || last.len() != seg.len() {
        return Err("sort_indices returned an unsorted order".into());
    }
    Ok(ratio(secs * 1e9, seg.len() as f64))
}

/// `core.offer_ns`: `SpaceSaving::offer` per key of `seg`'s key stream,
/// into a sketch of capacity `k`. Checks the sketch counted every offer.
pub fn offer_ns(seg: &Segment, k: usize, spans: &mut Spans) -> Result<f64, String> {
    let mut items = 0;
    let secs = timed_median(spans, "core.offer", || {
        let mut sketch = SpaceSaving::new(k);
        for i in 0..seg.len() {
            sketch.offer(black_box(seg.key(i)));
        }
        items = sketch.items();
    });
    if items != seg.len() as u64 {
        return Err(format!(
            "space-saving counted {items} of {} offers",
            seg.len()
        ));
    }
    Ok(ratio(secs * 1e9, seg.len() as f64))
}

/// `io.compress_mb_s` and `io.decompress_mb_s` on `raw` (a map-output
/// partition), MB of raw bytes per second. Checks the round trip.
pub fn compress_mb_s(raw: &[u8], spans: &mut Spans) -> Result<(f64, f64), String> {
    let mut packed = Vec::new();
    let c = timed_median(spans, "io.compress", || packed = compress(black_box(raw)));
    let mut unpacked = None;
    let d = timed_median(spans, "io.decompress", || {
        unpacked = decompress(black_box(&packed))
    });
    if unpacked.as_deref() != Some(raw) {
        return Err("io::compress round trip changed the partition".into());
    }
    let mb = raw.len() as f64 / 1e6;
    Ok((ratio(mb, c), ratio(mb, d)))
}
