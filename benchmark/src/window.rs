//! The ops of one measured window and the end-to-end statistics over them.

use crate::{stats, BoxResult, Deadline};
use std::time::Instant;

/// Equal time slices of a window; `ops_per_s` is the median of the
/// per-slice throughputs, so host contention that hits one slice does not
/// move it.
const SLICES: usize = 5;

/// One op, kept in 12 bytes so the window's own memory hardly grows with
/// throughput (`peak_rss_mb` is read from this process).
#[derive(Debug, Clone, Copy)]
struct Op {
    /// Start, in seconds since the window opened.
    start_s: f32,
    latency_ms: f32,
    ok: bool,
}

/// One measured window.
#[derive(Debug)]
pub struct Window {
    origin: Instant,
    /// Several concurrent clients: throughput is counted over wall time.
    /// One closed-loop client: throughput is counted over the time the
    /// system spent on the ops (input generation and output checks between
    /// ops are the benchmark's own time).
    concurrent: bool,
    ops: Vec<Op>,
}

impl Window {
    /// A window that opened at `origin`.
    pub fn opened_at(origin: Instant, concurrent: bool) -> Self {
        Window {
            origin,
            concurrent,
            ops: Vec::new(),
        }
    }

    /// Records one op that started at `start`.
    pub fn push(&mut self, start: Instant, latency_ms: f64, ok: bool) {
        let start_s = start.saturating_duration_since(self.origin).as_secs_f32();
        self.ops.push(Op {
            start_s,
            latency_ms: latency_ms as f32,
            ok,
        });
    }

    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|op| !op.ok).count() as u64
    }

    /// Per-op latencies; a failed op counts as `f64::INFINITY`, so it misses
    /// every latency limit.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|op| {
                if op.ok {
                    f64::from(op.latency_ms)
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    /// Successful ops per second: the median over [`SLICES`] equal slices of
    /// the window.
    pub fn ops_per_s(&self) -> f64 {
        let start = |op: &Op| f64::from(op.start_s);
        let latency_s = |op: &Op| f64::from(op.latency_ms) * 1e-3;
        let end = |op: &Op| start(op) + latency_s(op);
        let span = self.ops.iter().map(end).fold(0.0, f64::max);
        let slice = span / SLICES as f64;
        let per_slice: Vec<f64> = (0..SLICES)
            .map(|k| {
                let (lo, hi) = (k as f64 * slice, (k + 1) as f64 * slice);
                if self.concurrent {
                    let done = self
                        .ops
                        .iter()
                        .filter(|op| op.ok && (lo..hi).contains(&end(op)))
                        .count();
                    done as f64 / slice
                } else {
                    let in_slice = self.ops.iter().filter(|op| (lo..hi).contains(&start(op)));
                    let (done, busy_s) = in_slice.fold((0usize, 0.0), |(done, busy), op| {
                        (done + usize::from(op.ok), busy + latency_s(op))
                    });
                    if busy_s > 0.0 {
                        done as f64 / busy_s
                    } else {
                        0.0
                    }
                }
            })
            .collect();
        stats::median(&per_slice)
    }
}

/// How many times each input of a single-client workload runs.
pub const PASSES: usize = 3;

/// Measures a single-client workload whose every input runs [`PASSES`]
/// times, spread over the window: inputs 0, 1, 2, … for the first
/// 1/[`PASSES`] of `seconds`, then the same inputs again in the same order
/// for each further pass. An op's latency is the median of its runs. On a
/// shared host single runs of one input jitter: the slowest of four runs
/// took a median 1.47× the fastest, with no change to the program. The
/// median drops one disturbed run of three, and a slower program slows
/// every run.
///
/// If the host slows down so much that the later passes would run past
/// twice `seconds`, the window ends there: each input keeps the median of
/// the runs it had.
///
/// `op(index, first)` generates input `index`, runs it and returns its
/// latency in ms with a digest of its output, `None` when the output failed
/// its check (`first` is `false` on later runs, whose output only has to
/// equal the first). An op is ok when every run gives the same digest.
pub fn median_of_passes(
    seconds: f64,
    mut op: impl FnMut(u64, bool) -> BoxResult<(f64, Option<u64>)>,
) -> BoxResult<Window> {
    let mut inputs = Vec::new();
    let origin = Instant::now();
    let first_pass = Deadline::after(seconds / PASSES as f64);
    while first_pass.running() {
        let start = Instant::now();
        let (latency_ms, output) = op(inputs.len() as u64, true)?;
        let mut runs_ms = Vec::with_capacity(PASSES);
        runs_ms.push(latency_ms);
        inputs.push((start, runs_ms, output.is_some(), output));
    }
    let cutoff = Deadline::after(2.0 * seconds - origin.elapsed().as_secs_f64());
    'passes: for _ in 1..PASSES {
        for (index, (_, runs_ms, ok, output)) in inputs.iter_mut().enumerate() {
            if !cutoff.running() {
                break 'passes;
            }
            let (latency_ms, again) = op(index as u64, false)?;
            runs_ms.push(latency_ms);
            *ok &= again == *output;
        }
    }
    let mut window = Window::opened_at(origin, false);
    for (start, runs_ms, ok, _) in inputs {
        window.push(start, stats::median(&runs_ms), ok);
    }
    Ok(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn an_op_is_the_median_of_its_runs_and_fails_on_a_changed_output() {
        let mut runs = Vec::new();
        let window = median_of_passes(0.3, |index, first| {
            std::thread::sleep(Duration::from_millis(1));
            if first {
                runs.push(0);
            }
            let run = &mut runs[index as usize];
            *run += 1;
            // Runs of every input take 3, 1 and 2 ms; input 0 gives another
            // output on its later runs.
            let latency_ms = [3.0, 1.0, 2.0][*run - 1];
            let output = if index == 0 && !first { 7 } else { 5 };
            Ok((latency_ms, Some(output)))
        })
        .expect("the op never errs");
        assert!(window.attempted() >= 2);
        assert!(runs.iter().all(|&run| run == PASSES));
        assert_eq!(window.failed(), 1);
        let latencies = window.latencies_ms();
        assert!(latencies[0].is_infinite());
        assert!(latencies[1..].iter().all(|&latency| latency == 2.0));
    }
}
