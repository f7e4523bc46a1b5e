//! End-to-end benchmark of the design pipeline.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <campaign|design|allocate|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up (several times, reporting the median),
//! measures it for `--seconds`, checks every output and prints the
//! end-to-end metrics. `--trace 1` runs the traced breakdown of every layer
//! instead (half the time on the named workload) and prints the per-layer
//! metrics. The last line of standard output is one JSON object; progress
//! and digests go to standard error.

mod allocate;
mod campaign;
mod design;
mod gen;
mod service;
mod stats;
mod trace;
mod window;

pub use window::Window;

use std::fmt::Write as _;
use std::time::Instant;

pub type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Worker, designer, portfolio and server thread count of every workload:
/// fixed, never taken from the machine's available parallelism.
pub const THREADS: usize = 2;

/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

/// Where traced runs write their spans and the service its socket.
pub const WORK_DIR: &str = ".bench_work";

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (index, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 1e300 };
            let sep = if index == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// A closed-loop deadline: `true` until `seconds` have passed.
pub struct Deadline(Instant, f64);

impl Deadline {
    pub fn after(seconds: f64) -> Self {
        Deadline(Instant::now(), seconds)
    }

    pub fn running(&self) -> bool {
        self.0.elapsed().as_secs_f64() < self.1
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> BoxResult<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}").into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}").into()),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["campaign", "design", "allocate", "service"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}").into());
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the median time with
/// the last set-up's state (earlier states are dropped before the next).
fn timed_setup<S>(mut setup: impl FnMut() -> BoxResult<S>) -> BoxResult<(f64, S)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((stats::median(&times), state.expect("at least one set-up")))
}

/// The untraced run: set up, measure, check, report end-to-end metrics.
fn untraced(args: &Args) -> BoxResult<(Window, Metrics)> {
    let (setup_s, window) = match args.workload.as_str() {
        "campaign" => {
            let (setup_s, state) = timed_setup(|| campaign::setup(args.seed))?;
            (setup_s, campaign::run(&state, args.seconds)?)
        }
        "design" => {
            let (setup_s, mut state) = timed_setup(|| design::setup(args.seed))?;
            (setup_s, design::run(&mut state, args.seconds)?)
        }
        "allocate" => {
            let (setup_s, mut state) = timed_setup(|| allocate::setup(args.seed))?;
            (setup_s, allocate::run(&mut state, args.seconds)?)
        }
        _ => {
            let (setup_s, mut state) = timed_setup(|| service::setup(args.seed))?;
            (setup_s, service::run(&mut state, args.seconds)?)
        }
    };
    let latencies = window.latencies_ms();
    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s, "s");
    metrics.put("ops_per_s", window.ops_per_s(), "1/s");
    metrics.put("op_p50_ms", stats::quantile(&latencies, 0.5), "ms");
    metrics.put("op_p90_ms", stats::quantile(&latencies, 0.9), "ms");
    metrics.put("op_p99_ms", stats::quantile(&latencies, 0.99), "ms");
    metrics.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    Ok((window, metrics))
}

/// The traced run: every layer's breakdown, half the time on the named
/// workload, with `trace.overhead_frac` for the named workload.
fn traced(args: &Args) -> BoxResult<(u64, u64, Metrics)> {
    type TraceFn = fn(u64, f64, &mut trace::Tracer, &mut Metrics) -> BoxResult<trace::Fidelity>;
    let breakdowns: [(&str, TraceFn); 4] = [
        ("campaign", campaign::trace),
        ("design", design::trace),
        ("allocate", allocate::trace),
        ("service", service::trace),
    ];
    let mut tracer = trace::Tracer::default();
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed, mut overhead) = (0, 0, 0.0);
    for (name, breakdown) in breakdowns {
        let named = name == args.workload;
        let seconds = args.seconds * if named { 0.5 } else { 1.0 / 6.0 };
        let fidelity = breakdown(args.seed, seconds, &mut tracer, &mut metrics)?;
        attempted += fidelity.attempted;
        failed += fidelity.failed;
        if named {
            overhead = fidelity.overhead_frac;
        }
    }
    metrics.put("trace.overhead_frac", overhead, "frac");
    let path = std::path::Path::new(WORK_DIR)
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    tracer.write(&path)?;
    eprintln!("spans written to {}", path.display());
    Ok((attempted, failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("usage error: {error}");
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args).map(|(window, metrics)| (window.attempted(), window.failed(), metrics))
    };
    match result {
        Ok((attempted, failed, metrics)) => {
            let correct = failed == 0 && attempted > 0;
            // A traced run that failed a fidelity gate prints no layer numbers.
            let shown = if correct || !args.trace {
                metrics.json()
            } else {
                "{}".to_string()
            };
            println!(
                "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {shown}}}"
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(error) => {
            eprintln!("benchmark error: {error}");
            std::process::exit(1);
        }
    }
}
