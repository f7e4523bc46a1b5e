//! `service`: an in-process `DesignServer` (2 workers, 1 allocator thread,
//! default cache) driven by two closed-loop clients, one over the Unix
//! socket and one over TCP, each with a pooled connection and a 2 s
//! deadline. Requests are design jobs over a Zipf-popular working set of
//! distinct fleets larger than the cache, plus sweep and small campaign
//! jobs: cache hits make the serve layer dominate the median, misses and
//! campaigns put the design and engine layers into the tail.

use crate::stats::{self, Digest};
use crate::trace::{Fidelity, Tracer};
use crate::{gen, ms_since, BoxResult, Deadline, Metrics, Window, THREADS, WORK_DIR};
use cps_core::{case_study, ApplicationSpec, FleetDesigner};
use cps_flexray::FlexRayConfig;
use cps_sched::{AllocatorConfig, AppTimingParams};
use cps_serve::{
    design_job, CampaignJob, DesignClient, DesignJob, DesignServer, Job, Outcome, Request,
    RequestOptions, Response, ServerConfig, ServerHandle, StatsSnapshot, SweepJob,
};
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Distinct fleets in the working set: twice the server's default cache
/// capacity (32), so the LRU keeps missing on the Zipf tail.
const WORKING_SET: usize = 64;

/// Share of requests that are small campaign jobs, and of sweep jobs; the
/// rest are design jobs. With the working set above, about a quarter of all
/// requests compute (misses and campaigns), so the median sits well inside
/// the cache-hit mode and p90/p99 inside the compute mode.
const CAMPAIGN_SHARE: f64 = 0.05;
const SWEEP_SHARE: f64 = 0.05;

/// Per-request deadline of both clients.
const DEADLINE_MS: u32 = 2000;

/// Every `CODEC_SAMPLE`-th request keeps its job and answer for the traced
/// codec timing.
const CODEC_SAMPLE: usize = 4;

static SOCKETS: AtomicU64 = AtomicU64::new(0);

pub struct State {
    server: ServerHandle,
    specs: Vec<Vec<ApplicationSpec>>,
    jobs: Vec<DesignJob>,
    popularity: Vec<f64>,
    seed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Design,
    Sweep,
    Campaign,
}

/// One request as a client saw it.
struct Record {
    start: Instant,
    end: Instant,
    transport: usize,
    kind: Kind,
    rank: usize,
    /// `from_cache` of a served answer; `None` when the request failed.
    from_cache: Option<bool>,
    ok: bool,
    /// Digest of a design answer, checked against the in-process design.
    answer: Option<u64>,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// One client's requests, and the sampled request/answer pairs for the
/// codec timing.
type ClientLog = (Vec<Record>, Vec<(Request, Response)>);

/// What one measured window produced.
struct Drive {
    records: Vec<Record>,
    samples: Vec<(Request, Response)>,
    stats: StatsSnapshot,
    /// When the window opened.
    origin: Instant,
}

fn answer_digest(slots: impl Iterator<Item = Vec<usize>>, table: &[AppTimingParams]) -> u64 {
    let mut digest = Digest::default();
    digest.slots(&slots.collect::<Vec<_>>());
    digest.bytes(format!("{table:?}").as_bytes());
    digest.value()
}

fn bus() -> FlexRayConfig {
    FlexRayConfig::paper_case_study()
}

/// Set-up: the working set, a started server and one warm-up request of the
/// fixed case-study fleet over each transport.
pub fn setup(seed: u64) -> BoxResult<State> {
    let mut rng = gen::rng(seed, 4);
    let specs: Vec<_> = (0..WORKING_SET)
        .map(|_| gen::fleet_specs(&mut rng, gen::SERVICE_FLEET))
        .collect();
    let jobs = specs
        .iter()
        .map(|fleet| design_job(fleet, &AllocatorConfig::default(), &bus()))
        .collect();
    std::fs::create_dir_all(WORK_DIR)?;
    let socket = std::path::Path::new(WORK_DIR).join(format!(
        "svc-{}-{}.sock",
        std::process::id(),
        SOCKETS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut config = ServerConfig::new(socket);
    config.tcp_addr = Some("127.0.0.1:0".parse()?);
    config.workers = THREADS;
    config.allocator_threads = 1;
    let server = DesignServer::start(config)?;
    let warm = design_job(
        &case_study::derived_fleet_specs(),
        &AllocatorConfig::default(),
        &bus(),
    );
    for mut client in clients(&server)? {
        match client.request(Job::Design(warm.clone()), options())? {
            Outcome::Design(result) if result.certified_optimal => {}
            other => return Err(format!("warm-up request failed: {other:?}").into()),
        }
    }
    Ok(State {
        server,
        specs,
        jobs,
        popularity: gen::zipf_cumulative(WORKING_SET),
        seed,
    })
}

fn clients(server: &ServerHandle) -> BoxResult<[DesignClient; 2]> {
    let tcp = server.tcp_addr().ok_or("the server has no TCP listener")?;
    Ok([
        DesignClient::unix(server.socket_path()),
        DesignClient::tcp(tcp),
    ])
}

fn options() -> RequestOptions {
    RequestOptions {
        deadline_ms: DEADLINE_MS,
        ..RequestOptions::default()
    }
}

/// Checks a served outcome and returns `(from_cache, ok, design digest)`.
fn judge(kind: Kind, outcome: &Outcome) -> (Option<bool>, bool, Option<u64>) {
    match outcome {
        Outcome::Design(result) => {
            let slots = result
                .slots
                .iter()
                .map(|slot| slot.iter().map(|&a| a as usize).collect());
            let digest = answer_digest(slots, &result.table);
            (
                Some(result.from_cache),
                kind == Kind::Design && result.certified_optimal,
                Some(digest),
            )
        }
        Outcome::Sweep(result) => {
            let ok = kind == Kind::Sweep
                && result.complete
                && result.rows.len() == 3
                && result.rows.iter().all(|row| row.certified_optimal);
            (Some(result.from_cache), ok, None)
        }
        Outcome::Campaign(result) => (
            Some(result.from_cache),
            kind == Kind::Campaign && result.total == 8,
            None,
        ),
        _ => (None, false, None),
    }
}

/// Runs both closed-loop clients for `seconds` and collects every request;
/// with `sample_codec` every `CODEC_SAMPLE`-th request also keeps its
/// payloads (traced runs only, so plain runs hold no per-request payloads).
fn drive(state: &State, seconds: f64, sample_codec: bool) -> BoxResult<Drive> {
    let before = state.server.stats();
    let origin = Instant::now();
    let deadline = Deadline::after(seconds);
    let per_client: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients(&state.server)?
            .into_iter()
            .enumerate()
            .map(|(transport, mut client)| {
                let deadline = &deadline;
                scope.spawn(move || {
                    client_loop(state, transport, &mut client, deadline, sample_codec)
                })
            })
            .collect();
        Ok::<_, Box<dyn std::error::Error>>(
            handles
                .into_iter()
                .map(|handle| handle.join().expect("client thread must not panic"))
                .collect(),
        )
    })?;
    let after = state.server.stats();
    let mut records = Vec::new();
    let mut samples = Vec::new();
    for (client_records, client_samples) in per_client {
        records.extend(client_records);
        samples.extend(client_samples);
    }
    records.sort_by_key(|record| record.start);
    let stats = StatsSnapshot {
        requests: after.requests - before.requests,
        cache_hits: after.cache_hits - before.cache_hits,
        designs_computed: after.designs_computed - before.designs_computed,
        deduped: after.deduped - before.deduped,
        shed: after.shed - before.shed,
        ..StatsSnapshot::default()
    };
    Ok(Drive {
        records,
        samples,
        stats,
        origin,
    })
}

fn client_loop(
    state: &State,
    transport: usize,
    client: &mut DesignClient,
    deadline: &Deadline,
    sample_codec: bool,
) -> ClientLog {
    let mut rng = gen::rng(state.seed, 10 + transport as u64);
    let mut records = Vec::new();
    let mut samples = Vec::new();
    while deadline.running() {
        let rank = gen::zipf(&mut rng, &state.popularity);
        let design = state.jobs[rank].clone();
        let draw = rng.next_unit();
        let (kind, job) = if draw < CAMPAIGN_SHARE {
            let job = CampaignJob {
                design,
                seed: rng.next_u64(),
                drop_probabilities: vec![0.0, 0.2],
                scenarios_per_intensity: 4,
                duration: 12.0,
                alpha: 0.05,
                progress_every: 0,
            };
            (Kind::Campaign, Job::Campaign(job))
        } else if draw < CAMPAIGN_SHARE + SWEEP_SHARE {
            let job = SweepJob {
                design,
                cycle_lengths: vec![],
                static_slot_counts: vec![4, 6, 10],
                slot_lengths: vec![],
            };
            (Kind::Sweep, Job::Sweep(job))
        } else {
            (Kind::Design, Job::Design(design))
        };
        let sample = (sample_codec && records.len() % CODEC_SAMPLE == 0).then(|| job.clone());
        let start = Instant::now();
        let outcome = client.request(job, options());
        let end = Instant::now();
        let (from_cache, ok, answer) = match &outcome {
            Ok(outcome) => judge(kind, outcome),
            Err(_) => (None, false, None),
        };
        if let (Some(job), Ok(outcome)) = (sample, outcome) {
            let id = records.len() as u64;
            let options = options();
            let request = Request {
                id,
                deadline_ms: options.deadline_ms,
                node_budget: options.node_budget,
                require_certified: options.require_certified,
                job,
            };
            samples.push((request, Response { id, outcome }));
        }
        records.push(Record {
            start,
            end,
            transport,
            kind,
            rank,
            from_cache,
            ok,
            answer,
        });
    }
    (records, samples)
}

/// The nominal-path check: every design answer must be bit-identical to the
/// in-process `design_fleet_optimal` of the same job. Fails the records
/// that disagree and returns the in-process design time per fleet rank.
fn check(state: &State, drive: &mut Drive) -> BoxResult<BTreeMap<usize, f64>> {
    let designer = FleetDesigner::new().with_threads(1);
    // Per fleet rank: the in-process answer's digest and its design time.
    let mut expected: BTreeMap<usize, (u64, f64)> = BTreeMap::new();
    for record in drive.records.iter_mut().filter(|r| r.answer.is_some()) {
        let digest = match expected.entry(record.rank) {
            Entry::Occupied(entry) => entry.get().0,
            Entry::Vacant(entry) => {
                let start = Instant::now();
                let fleet = designer.design_fleet_optimal(
                    state.specs[record.rank].clone(),
                    &AllocatorConfig::default(),
                    bus(),
                )?;
                let compute_ms = ms_since(start);
                let slots = fleet.allocation().slots.iter().cloned();
                entry
                    .insert((answer_digest(slots, &fleet.timing_table()?), compute_ms))
                    .0
            }
        };
        if record.answer != Some(digest) {
            record.ok = false;
        }
    }
    Ok(expected
        .into_iter()
        .map(|(rank, (_, compute_ms))| (rank, compute_ms))
        .collect())
}

fn window(drive: &Drive) -> Window {
    let mut window = Window::opened_at(drive.origin, true);
    for record in &drive.records {
        window.push(record.start, record.latency_ms(), record.ok);
    }
    window
}

pub fn run(state: &mut State, seconds: f64) -> BoxResult<Window> {
    let mut drive = drive(state, seconds, false)?;
    check(state, &mut drive)?;
    let window = window(&drive);
    let computing = drive
        .records
        .iter()
        .filter(|r| r.kind == Kind::Campaign || r.from_cache == Some(false))
        .count();
    eprintln!(
        "service: {} requests, {:.1}% computing, {} failed, server stats {:?}",
        drive.records.len(),
        100.0 * computing as f64 / drive.records.len().max(1) as f64,
        window.failed(),
        drive.stats
    );
    Ok(window)
}

/// The serve breakdown: latency split by cache outcome and transport, the
/// codec timed on the run's real payloads, server counters, and the miss
/// overhead over in-process computation of the same jobs. An untraced half
/// and a traced half run on fresh servers for the tracing overhead.
pub fn trace(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> BoxResult<Fidelity> {
    let mut fidelity = Fidelity::default();
    let mean_latency = |drive: &Drive| {
        stats::mean(
            &drive
                .records
                .iter()
                .map(Record::latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let untraced = mean_latency(&drive(&setup(seed)?, seconds / 2.0, false)?);
    let state = setup(seed)?;
    let mut drive = drive(&state, seconds / 2.0, true)?;
    let compute_ms = check(&state, &mut drive)?;
    fidelity.attempted = drive.records.len() as u64;
    fidelity.failed = drive.records.iter().filter(|r| !r.ok).count() as u64;
    fidelity.overhead_frac = mean_latency(&drive) / untraced - 1.0;

    for (op, record) in drive.records.iter().enumerate() {
        let name = match (record.kind, record.from_cache) {
            (Kind::Design, Some(true)) => "serve.request.design_hit",
            (Kind::Design, _) => "serve.request.design_miss",
            (Kind::Sweep, _) => "serve.request.sweep",
            (Kind::Campaign, _) => "serve.request.campaign",
        };
        tracer.record(name, record.start, record.end, op as u64);
    }

    let p50 = |keep: &dyn Fn(&Record) -> bool| {
        let values: Vec<f64> = drive
            .records
            .iter()
            .filter(|r| keep(r))
            .map(Record::latency_ms)
            .collect();
        if values.is_empty() {
            f64::NAN
        } else {
            stats::median(&values)
        }
    };
    let is_design = |r: &Record| r.kind == Kind::Design && r.ok;
    metrics.put(
        "serve.hit_p50_ms",
        p50(&|r| is_design(r) && r.from_cache == Some(true)),
        "ms",
    );
    metrics.put(
        "serve.miss_p50_ms",
        p50(&|r| is_design(r) && r.from_cache == Some(false)),
        "ms",
    );
    metrics.put("serve.unix_p50_ms", p50(&|r| r.transport == 0), "ms");
    metrics.put("serve.tcp_p50_ms", p50(&|r| r.transport == 1), "ms");

    // The codec on the run's real payloads: request and response encode and
    // decode, each repeated so the timer resolution does not matter.
    const REPEATS: usize = 8;
    let (mut codec_ns, mut bytes) = (0.0, 0usize);
    for (op, (request, response)) in drive.samples.iter().enumerate() {
        let span = tracer.open("serve.codec", None, op as u64);
        let mut decoded = None;
        for _ in 0..REPEATS {
            let request_bytes = request.encode();
            let response_bytes = response.encode();
            bytes += request_bytes.len() + response_bytes.len();
            decoded = std::hint::black_box(Some((
                Request::decode(&request_bytes),
                Response::decode(&response_bytes),
            )));
        }
        codec_ns += tracer.close(span) as f64;
        let (request_back, response_back) = decoded.expect("at least one repeat");
        if request_back.as_ref() != Ok(request) || response_back.as_ref() != Ok(response) {
            return Err("a payload did not survive its encode/decode round trip".into());
        }
    }
    let samples = (drive.samples.len() * REPEATS).max(1) as f64;
    metrics.put("serve.codec_us", codec_ns / samples * 1e-3, "us");
    metrics.put("serve.bytes_per_request", bytes as f64 / samples, "bytes");

    let misses: Vec<&Record> = drive
        .records
        .iter()
        .filter(|r| is_design(r) && r.from_cache == Some(false))
        .collect();
    let overheads: Vec<f64> = misses
        .iter()
        .map(|r| r.latency_ms() - compute_ms[&r.rank])
        .collect();
    metrics.put(
        "serve.compute_ms",
        stats::mean(&compute_ms.values().copied().collect::<Vec<_>>()),
        "ms",
    );
    metrics.put("serve.overhead_ms", stats::mean(&overheads), "ms");
    let requests = drive.stats.requests.max(1) as f64;
    metrics.put(
        "serve.cache_hit_frac",
        drive.stats.cache_hits as f64 / requests,
        "frac",
    );
    metrics.put(
        "serve.designs_computed",
        drive.stats.designs_computed as f64,
        "count",
    );
    metrics.put("serve.deduped", drive.stats.deduped as f64, "count");
    metrics.put("serve.shed", drive.stats.shed as f64, "count");
    eprintln!(
        "service trace: {} requests, {} failed",
        fidelity.attempted, fidelity.failed
    );
    Ok(fidelity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_working_set_designs_and_exceeds_the_cache() {
        assert!(WORKING_SET > ServerConfig::new("unused").cache_capacity);
        let mut rng = gen::rng(3, 4);
        let designer = FleetDesigner::new().with_threads(THREADS);
        for _ in 0..WORKING_SET {
            let specs = gen::fleet_specs(&mut rng, gen::SERVICE_FLEET);
            designer
                .design_fleet_optimal(specs, &AllocatorConfig::default(), bus())
                .expect("every working-set fleet designs");
        }
    }
}
