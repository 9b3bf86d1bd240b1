//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is named `layer.what` (`task.map_call`, `shuffle.call`, …) and
//! records its host start and end and the span that was open when it
//! began. Spans stay in memory and are written out once the traced pass
//! ends. A layer's self time is its spans' durations minus the part their
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.what`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Host seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// The span recorder.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Run `f` inside a span called `name`, nested under the open span.
    pub fn record<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// [`Spans::record`], also returning the span's host seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        let out = self.record(name, f);
        (out, self.spans[id].secs())
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self seconds per span, indexed like [`Spans::spans`].
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Self seconds summed per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut by: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_secs()) {
            *by.entry(s.layer()).or_default() += own;
        }
        by
    }

    /// The spans as a JSON array (`name`, `parent`, `start_ns`, `end_ns`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_layers_sum_to_the_root() {
        let mut sp = Spans::default();
        sp.record("bench.pass", |sp| {
            sp.record("task.map_call", |sp| {
                sp.record("io.split", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            sp.record("shuffle.call", |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        });
        let root = sp.spans()[0].secs();
        let total: f64 = sp.self_by_layer().values().sum();
        assert!((total - root).abs() < 1e-9, "{total} vs {root}");
        assert_eq!(sp.spans()[2].parent, Some(1));
        assert!(sp.to_json().contains("\"name\": \"io.split\""));
    }
}
