//! `campaign`: each op is one `RobustnessCampaign::run` of the fault sweep
//! over the derived six-application fleet. The FlexRay bus dominates here;
//! characterisation and allocation do nothing during the window.

use crate::stats::Digest;
use crate::trace::{Fidelity, Tracer};
use crate::{gen, ms_since, window, BoxResult, Deadline, Metrics, Window, THREADS};
use cps_control::CommunicationMode;
use cps_core::{
    case_study, AllocationRuntime, CampaignScenario, CampaignStats, DesignedFleet,
    RobustnessCampaign, RobustnessSweep, RunMetrics, RuntimeApp, ScenarioSource,
};
use cps_flexray::{BusStatistics, FlexRayBus, FlexRayConfig, Frame, Segment, SimRng};
use cps_sched::AllocatorConfig;
use std::sync::Arc;
use std::time::Instant;

/// Campaign seeds per run. Ops cycle through them, so every op's aggregates
/// can be checked against the 1-worker path without doubling the run.
const SEED_POOL: usize = 8;

/// Payload words of each application's control frame (as the engine
/// registers them).
const CONTROL_FRAME_PAYLOAD: usize = 2;

pub struct State {
    fleet: Arc<DesignedFleet>,
    sweep: RobustnessSweep,
    seeds: Vec<u64>,
}

pub fn setup(seed: u64) -> BoxResult<State> {
    let fleet = Arc::new(DesignedFleet::design(
        case_study::derived_fleet_specs(),
        &AllocatorConfig::default(),
        FlexRayConfig::paper_case_study(),
    )?);
    let mut rng = gen::rng(seed, 1);
    let seeds = (0..SEED_POOL).map(|_| rng.next_u64()).collect();
    Ok(State {
        fleet,
        sweep: gen::campaign_sweep(),
        seeds,
    })
}

fn campaign(state: &State, seed: u64, workers: usize) -> cps_core::Result<CampaignStats> {
    RobustnessCampaign::new(Arc::clone(&state.fleet), seed)
        .with_workers(workers)
        .run(&state.sweep)
}

fn settled(stats: &CampaignStats) -> u64 {
    stats.families.iter().map(|family| family.settled).sum()
}

pub fn run(state: &State, seconds: f64) -> BoxResult<Window> {
    // Output check: the aggregates are bit-identical to the 1-worker path
    // for the same seed, run (untimed) the first time a seed comes up, and
    // some scenarios settle.
    let mut references: [Option<u64>; SEED_POOL] = [None; SEED_POOL];
    let window = window::median_of_passes(seconds, |index, first| {
        let pool_index = index as usize % SEED_POOL;
        let seed = state.seeds[pool_index];
        let start = Instant::now();
        let outcome = campaign(state, seed, THREADS);
        let latency_ms = ms_since(start);
        let Some(digest) = outcome
            .ok()
            .filter(|stats| settled(stats) > 0)
            .map(|stats| stats_digest(&stats))
        else {
            return Ok((latency_ms, None));
        };
        if first && references[pool_index].is_none() {
            references[pool_index] = Some(stats_digest(&campaign(state, seed, 1)?));
        }
        let ok = !first || references[pool_index] == Some(digest);
        Ok((latency_ms, ok.then_some(digest)))
    })?;
    eprintln!(
        "campaign: {} ops, each run {} times, {} failed",
        window.attempted(),
        window::PASSES,
        window.failed()
    );
    Ok(window)
}

/// Digest of a campaign's aggregates through their exact `Debug` rendering,
/// which tells every f64 bit pattern apart.
fn stats_digest(stats: &CampaignStats) -> u64 {
    let mut digest = Digest::default();
    digest.bytes(format!("{stats:?}").as_bytes());
    digest.value()
}

/// Per-run metrics of a shadow replay, mirroring the public fields of
/// [`RunMetrics`].
#[derive(Debug, Default)]
struct ShadowMetrics {
    steps: usize,
    response_times: Vec<Option<f64>>,
    deadlines_met: Vec<bool>,
    peak_norms: Vec<f64>,
    tt_periods: Vec<u64>,
    held_periods: Vec<u64>,
    max_consecutive_losses: Vec<u64>,
    bus: BusStatistics,
}

impl ShadowMetrics {
    /// Bit-for-bit agreement with the engine's own metrics.
    fn matches(&self, engine: &RunMetrics) -> bool {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let response_bits = |values: &[Option<f64>]| {
            values
                .iter()
                .map(|v| v.map(f64::to_bits))
                .collect::<Vec<_>>()
        };
        self.steps == engine.steps
            && response_bits(&self.response_times) == response_bits(&engine.response_times)
            && self.deadlines_met == engine.deadlines_met
            && bits(&self.peak_norms) == bits(&engine.peak_norms)
            && self.tt_periods == engine.tt_periods
            && self.held_periods == engine.held_periods
            && self.max_consecutive_losses == engine.max_consecutive_losses
            && self.bus == engine.bus
    }
}

/// Nanoseconds and call counts of one shadow replay, per layer.
#[derive(Debug, Default)]
struct PhaseTimes {
    bus_ns: u64,
    bus_calls: u64,
    kernel_ns: u64,
    runtime_ns: u64,
}

/// Replays one campaign scenario period by period through public calls
/// only, in the order `CoSimulation::advance_period` makes them, with a
/// timer at each layer boundary.
fn shadow_replay(
    fleet: &DesignedFleet,
    scenario: &CampaignScenario,
    phases: &mut PhaseTimes,
) -> BoxResult<ShadowMetrics> {
    let apps = fleet.apps();
    let count = apps.len();
    let period = fleet.period();
    let mut bus = FlexRayBus::new(fleet.bus_config())?;
    for (index, app) in apps.iter().enumerate() {
        bus.register_frame(Frame::dynamic(
            index as u32 + 1,
            app.name(),
            CONTROL_FRAME_PAYLOAD,
        )?)?;
    }
    bus.set_fault_model(scenario.fault)?;
    bus.set_logging(false);
    let runtime_apps = apps
        .iter()
        .enumerate()
        .map(|(index, app)| RuntimeApp {
            name: app.name().to_string(),
            threshold: app.spec().threshold * scenario.threshold_scale,
            slot: fleet.allocation().slot_of(index),
            priority: app.spec().deadline,
        })
        .collect();
    let mut runtime = AllocationRuntime::new(runtime_apps, fleet.slot_count())?;
    let mut kernels = apps
        .iter()
        .map(|app| app.kernel())
        .collect::<cps_core::Result<Vec<_>>>()?;
    for (app, kernel) in apps.iter().zip(&mut kernels) {
        kernel.inject_disturbance_scaled(&app.spec().disturbance, scenario.disturbance_scale)?;
    }
    let mut noise = SimRng::seeded(scenario.degradation.map_or(0, |d| d.seed));

    let steps = (scenario.duration / period).ceil() as usize;
    let mut norms = vec![0.0; count];
    let mut noisy = Vec::with_capacity(count);
    let mut modes = Vec::with_capacity(count);
    let mut losses = vec![0u64; count];
    let mut prev_losses = vec![0u64; count];
    let mut streak = vec![0u64; count];
    let mut candidates = vec![0usize; count];
    let mut out = ShadowMetrics {
        steps,
        peak_norms: vec![0.0; count],
        tt_periods: vec![0; count],
        held_periods: vec![0; count],
        max_consecutive_losses: vec![0; count],
        ..ShadowMetrics::default()
    };
    for step in 0..steps {
        let time = step as f64 * period;
        let t0 = Instant::now();
        if let Some(storm) = scenario.degradation.and_then(|d| d.storm) {
            let interval = ((storm.interval / period).round() as usize).max(1);
            if step > 0 && step % interval == 0 {
                for (app, kernel) in apps.iter().zip(&mut kernels) {
                    kernel.inject_disturbance_scaled(&app.spec().disturbance, storm.scale)?;
                }
            }
        }
        for (norm, kernel) in norms.iter_mut().zip(&kernels) {
            *norm = kernel.state_norm();
        }
        let t1 = Instant::now();
        if let Some(config) = scenario.degradation {
            noisy.clear();
            for norm in &norms {
                noisy.push((norm + config.sensor_noise * noise.next_signed_unit()).max(0.0));
            }
            runtime.step_into(&noisy, &mut modes)?;
        } else {
            runtime.step_into(&norms, &mut modes)?;
        }
        let t2 = Instant::now();
        for (index, mode) in modes.iter().enumerate() {
            let frame_id = index as u32 + 1;
            let segment = match mode {
                CommunicationMode::TimeTriggered => Segment::Static {
                    slot: runtime
                        .slot_holders()
                        .iter()
                        .position(|holder| *holder == Some(index))
                        .unwrap_or(0),
                },
                CommunicationMode::EventTriggered => Segment::Dynamic,
            };
            if bus.reassign_frame(frame_id, segment).is_err() {
                bus.reassign_frame(frame_id, Segment::Dynamic)?;
                phases.bus_calls += 1;
            }
            bus.queue_message(frame_id, time)?;
        }
        bus.advance_until(time + period);
        for (index, loss) in losses.iter_mut().enumerate() {
            *loss = bus.losses_of(index as u32 + 1);
        }
        phases.bus_calls += 3 * count as u64 + 1;
        let t3 = Instant::now();
        for (index, mode) in modes.iter().enumerate() {
            if losses[index] > prev_losses[index] {
                prev_losses[index] = losses[index];
                out.held_periods[index] += 1;
                streak[index] += 1;
                out.max_consecutive_losses[index] =
                    out.max_consecutive_losses[index].max(streak[index]);
                kernels[index].step_hold();
            } else {
                streak[index] = 0;
                kernels[index].step(*mode);
            }
        }
        let t4 = Instant::now();
        for index in 0..count {
            if norms[index] > apps[index].spec().threshold * scenario.threshold_scale {
                candidates[index] = step + 1;
            }
            if norms[index] > out.peak_norms[index] {
                out.peak_norms[index] = norms[index];
            }
            if modes[index] == CommunicationMode::TimeTriggered {
                out.tt_periods[index] += 1;
            }
        }
        phases.kernel_ns += ((t1 - t0) + (t4 - t3)).as_nanos() as u64;
        phases.runtime_ns += (t2 - t1).as_nanos() as u64;
        phases.bus_ns += (t3 - t2).as_nanos() as u64;
    }
    for (index, app) in apps.iter().enumerate() {
        let response = (candidates[index] < steps).then(|| candidates[index] as f64 * period);
        out.response_times.push(response);
        out.deadlines_met
            .push(response.is_some_and(|t| t <= app.spec().deadline));
    }
    out.bus = bus.statistics();
    Ok(out)
}

/// The campaign layer breakdown: whole campaigns at 1 and 2 workers
/// (parallel efficiency, settled share), then shadow replays of the
/// campaign's own scenarios beside untraced `run_metrics_into` runs.
pub fn trace(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> BoxResult<Fidelity> {
    let state = setup(seed)?;
    let mut fidelity = Fidelity::default();

    // Whole campaigns: 1 worker vs 2 workers, alternating, a third of the
    // time budget.
    let (mut one_ns, mut two_ns, mut scenarios, mut settled_count) = (0.0, 0.0, 0u64, 0u64);
    let deadline = Deadline::after(seconds / 3.0);
    let mut op = 0u64;
    while deadline.running() || op == 0 {
        let seed = state.seeds[op as usize % SEED_POOL];
        let span = tracer.open("core.campaign.run_2_workers", None, op);
        let two = campaign(&state, seed, THREADS)?;
        two_ns += tracer.close(span) as f64;
        let span = tracer.open("core.campaign.run_1_worker", None, op);
        let one = campaign(&state, seed, 1)?;
        one_ns += tracer.close(span) as f64;
        if stats_digest(&two) != stats_digest(&one) {
            fidelity.failed += 1;
        }
        scenarios += two.total;
        settled_count += settled(&two);
        fidelity.attempted += 1;
        op += 1;
    }

    // Shadow replays of the campaign's own scenarios, round-robin over the
    // fault families so every intensity is sampled.
    let mut engine = state.fleet.engine()?;
    let mut engine_metrics = RunMetrics::default();
    let mut phases = PhaseTimes::default();
    let (mut engine_ns, mut shadow_ns, mut periods, mut lost, mut held) =
        (0.0, 0.0, 0u64, 0u64, 0u64);
    let per_family = state.sweep.scenarios_per_intensity;
    let families = state.sweep.families() as u64;
    let campaign_seed = state.seeds[0];
    let deadline = Deadline::after(seconds * 2.0 / 3.0);
    let mut replay = 0u64;
    while deadline.running() || replay == 0 {
        let index = (replay % families) * per_family + (replay / families) % per_family;
        let mut scenario = CampaignScenario::default();
        state
            .sweep
            .generate(index, SimRng::derive(campaign_seed, index), &mut scenario);

        let span = tracer.open("core.engine.run_metrics_into", None, replay);
        engine.reset()?;
        engine.set_threshold_scale(scenario.threshold_scale)?;
        engine.set_fault_model(scenario.fault)?;
        engine.set_degradation(scenario.degradation)?;
        engine.inject_disturbances_scaled(scenario.disturbance_scale)?;
        engine.run_metrics_into(scenario.duration, &mut engine_metrics)?;
        engine_ns += tracer.close(span) as f64;

        let span = tracer.open("core.engine.shadow_scenario", None, replay);
        let shadow = shadow_replay(&state.fleet, &scenario, &mut phases)?;
        shadow_ns += tracer.close(span) as f64;

        fidelity.attempted += 1;
        if !shadow.matches(&engine_metrics) {
            fidelity.failed += 1;
        }
        periods += shadow.steps as u64;
        lost += shadow.bus.lost_frames();
        held += shadow.held_periods.iter().sum::<u64>();
        replay += 1;
    }
    tracer.count("core.engine.periods", periods as f64);
    tracer.count("flexray.bus.ns", phases.bus_ns as f64);
    tracer.count("flexray.bus.calls", phases.bus_calls as f64);
    tracer.count("control.kernel.ns", phases.kernel_ns as f64);
    tracer.count("core.runtime.ns", phases.runtime_ns as f64);

    let periods_f = periods as f64;
    let other_ns = shadow_ns - (phases.bus_ns + phases.kernel_ns + phases.runtime_ns) as f64;
    let app_periods = periods_f * state.fleet.app_count() as f64;
    metrics.put(
        "flexray.bus.ns_per_period",
        phases.bus_ns as f64 / periods_f,
        "ns",
    );
    metrics.put(
        "flexray.bus.share",
        phases.bus_ns as f64 / shadow_ns,
        "frac",
    );
    metrics.put(
        "flexray.bus.calls_per_period",
        phases.bus_calls as f64 / periods_f,
        "count",
    );
    metrics.put(
        "control.kernel.ns_per_period",
        phases.kernel_ns as f64 / periods_f,
        "ns",
    );
    metrics.put(
        "core.runtime.ns_per_period",
        phases.runtime_ns as f64 / periods_f,
        "ns",
    );
    metrics.put(
        "core.engine.other_ns_per_period",
        other_ns / periods_f,
        "ns",
    );
    metrics.put("core.engine.ns_per_period", engine_ns / periods_f, "ns");
    metrics.put(
        "flexray.frames_lost_frac",
        lost as f64 / app_periods,
        "frac",
    );
    metrics.put(
        "control.kernel.hold_frac",
        held as f64 / app_periods,
        "frac",
    );
    metrics.put(
        "core.campaign.settled_frac",
        settled_count as f64 / scenarios as f64,
        "frac",
    );
    metrics.put(
        "core.campaign.parallel_efficiency",
        one_ns / (THREADS as f64 * two_ns),
        "frac",
    );
    metrics.put(
        "core.campaign.scenarios_per_s",
        scenarios as f64 / (two_ns * 1e-9),
        "1/s",
    );
    fidelity.overhead_frac = shadow_ns / engine_ns - 1.0;
    eprintln!(
        "campaign trace: {op} campaign pairs, {replay} shadow replays, {} mismatches",
        fidelity.failed
    );
    Ok(fidelity)
}
