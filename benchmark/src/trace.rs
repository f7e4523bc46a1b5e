//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its calls into each layer (never inside the program), kept in
//! memory and written out when the run ends. A span's self time is its
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// What a workload's traced breakdown reports besides its metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fidelity {
    /// Traced items replayed.
    pub attempted: u64,
    /// Items whose traced decomposition disagreed with the one-call path.
    pub failed: u64,
    /// Traced time over untraced time of the same items, minus one.
    pub overhead_frac: f64,
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span and count store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Records a root span that another thread timed.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, op: u64) {
        let since = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent: None,
            op,
        });
    }

    /// Adds `value` to the named count.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// Total duration of every span called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    }

    /// Total self time of every span called `name`: each span's duration
    /// minus the durations of its direct children, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| s.duration_ns().saturating_sub(child_ns[id]) as f64)
            .sum()
    }

    /// Writes every span and count as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{value}}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tracer = Tracer::default();
        let root = tracer.open("op", None, 0);
        let child = tracer.open("child", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.close(child);
        tracer.close(root);
        let total = tracer.total_ns("op");
        let own = tracer.self_ns("op");
        assert!(own < total);
        assert_eq!(own + tracer.total_ns("child"), total);
    }
}
