//! `design`: each op is one `FleetDesigner::design_fleet_optimal` (specs →
//! certified slot map → frozen fleet) of a fresh seeded fleet of 8–16
//! applications on the paper bus. Control characterisation dominates; the
//! exact allocator takes a real but minor share; no bus is simulated.

use crate::stats::Digest;
use crate::trace::{Fidelity, Tracer};
use crate::{gen, ms_since, window, BoxResult, Deadline, Metrics, Window, THREADS};
use cps_core::{case_study, DesignedFleet, FleetDesigner};
use cps_flexray::{FlexRayConfig, SimRng};
use cps_sched::{
    AllocatorConfig, AppTimingParams, PortfolioAllocator, PortfolioConfig, SlotAllocation,
};
use std::time::Instant;

/// Ops whose slot maps make up the run's digest (a run must complete them).
const DIGEST_OPS: u64 = 64;

pub struct State {
    designer: FleetDesigner,
    seed: u64,
}

impl State {
    /// The generator of fleet `index` of this run.
    fn input(&self, index: u64) -> SimRng {
        gen::op_rng(self.seed, 2, index)
    }
}

/// The allocator configuration of every design: defaults, capped by the
/// paper bus's static segment (what the design flow itself applies).
fn allocator_config() -> AllocatorConfig {
    let bus = FlexRayConfig::paper_case_study();
    AllocatorConfig {
        max_slots: bus.static_slot_count,
        ..AllocatorConfig::default()
    }
}

fn design(
    designer: &FleetDesigner,
    specs: Vec<cps_core::ApplicationSpec>,
) -> cps_core::Result<DesignedFleet> {
    designer.design_fleet_optimal(
        specs,
        &AllocatorConfig::default(),
        FlexRayConfig::paper_case_study(),
    )
}

/// Set-up: the designer and a warm-up design of the fixed six-application
/// case-study fleet, so lazy process state is paid before timing.
pub fn setup(seed: u64) -> BoxResult<State> {
    let designer = FleetDesigner::new().with_threads(THREADS);
    design(&designer, case_study::derived_fleet_specs())?;
    Ok(State {
        designer,
        seed,
    })
}

/// The per-answer output check: the slot map is the certified optimum (a
/// 1-thread exact solve of the same table certifies and returns the same
/// map), it is at least the clique lower bound and it passes the
/// schedulability verifier.
fn check(table: &[AppTimingParams], allocation: &SlotAllocation) -> BoxResult<bool> {
    let config = allocator_config();
    let mut solver = PortfolioAllocator::new(table, &config, &PortfolioConfig::with_threads(1))?;
    solver.solve_in_place();
    Ok(solver.certified_optimal()
        && solver.best_allocation().as_ref() == Some(allocation)
        && allocation.slot_count() >= solver.clique_lower_bound()
        && allocation.verify_with(table, config.slot_timing)?)
}

pub fn run(state: &mut State, seconds: f64) -> BoxResult<Window> {
    let mut digest = Digest::default();
    let window = window::median_of_passes(seconds, |index, first| {
        let specs = gen::fleet_specs(&mut state.input(index), gen::DESIGN_FLEET);
        let start = Instant::now();
        let fleet = design(&state.designer, specs);
        let latency_ms = ms_since(start);
        let fleet = match fleet {
            Ok(fleet) => fleet,
            Err(error) => {
                eprintln!("design op failed: {error}");
                return Ok((latency_ms, None));
            }
        };
        let slots = &fleet.allocation().slots;
        if first && index < DIGEST_OPS {
            digest.slots(slots);
        }
        let ok = !first || check(&fleet.timing_table()?, fleet.allocation())?;
        let mut output = Digest::default();
        output.slots(slots);
        Ok((latency_ms, ok.then(|| output.value())))
    })?;
    if window.attempted() < DIGEST_OPS {
        return Err(format!(
            "only {} design ops ran; the digest needs {DIGEST_OPS}",
            window.attempted()
        )
        .into());
    }
    eprintln!(
        "design: {} ops, each run {} times, {} failed, digest of the first {DIGEST_OPS} slot maps {:016x}",
        window.attempted(),
        window::PASSES,
        window.failed(),
        digest.value()
    );
    Ok(window)
}

/// The design layer breakdown: the public steps of `design_fleet_optimal`
/// one after another (synthesis, characterisation, exact allocation,
/// freeze), each a child span of the op, beside the one-call path on the
/// same specs. The step-by-step slot map must equal the one-call map.
pub fn trace(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> BoxResult<Fidelity> {
    let state = setup(seed)?;
    let config = allocator_config();
    let portfolio = PortfolioConfig::with_threads(THREADS);
    let bus = FlexRayConfig::paper_case_study();
    let mut fidelity = Fidelity::default();
    let (mut one_call_ns, mut traced_ns, mut nodes) = (0.0, 0.0, 0u64);
    let deadline = Deadline::after(seconds);
    while deadline.running() || fidelity.attempted == 0 {
        let op = fidelity.attempted;
        let specs = gen::fleet_specs(&mut state.input(op), gen::DESIGN_FLEET);
        // The two paths take turns to meet each input first, so neither
        // pays the first-touch costs on every op.
        let one_call = |tracer: &mut Tracer| -> BoxResult<(SlotAllocation, f64)> {
            let span = tracer.open("core.design.one_call", None, op);
            let allocation = design(&state.designer, specs.clone())?.allocation().clone();
            Ok((allocation, tracer.close(span) as f64))
        };
        let first = if op % 2 == 0 {
            Some(one_call(tracer)?)
        } else {
            None
        };

        let root = tracer.open("core.design.op", None, op);
        let span = tracer.open("control.synthesize", Some(root), op);
        let apps = state.designer.design(specs.clone())?;
        tracer.close(span);
        let span = tracer.open("control.characterize", Some(root), op);
        let table = state.designer.characterize(&apps)?;
        tracer.close(span);
        let span = tracer.open("sched.allocate", Some(root), op);
        let mut solver = PortfolioAllocator::new(&table, &config, &portfolio)?;
        let allocation = solver.solve()?;
        tracer.close(span);
        nodes += solver.nodes_explored();
        drop(solver);
        let span = tracer.open("core.freeze", Some(root), op);
        let fleet = DesignedFleet::new(apps, allocation, bus)?;
        tracer.close(span);
        traced_ns += tracer.close(root) as f64;
        let (reference, ns) = match first {
            Some(first) => first,
            None => one_call(tracer)?,
        };
        one_call_ns += ns;

        fidelity.attempted += 1;
        if *fleet.allocation() != reference {
            fidelity.failed += 1;
        }
    }
    let ops = fidelity.attempted as f64;
    let per_op_ms = |name: &str| tracer.total_ns(name) / ops * 1e-6;
    let op_ms = per_op_ms("core.design.op");
    metrics.put(
        "control.synthesize_ms",
        per_op_ms("control.synthesize"),
        "ms",
    );
    metrics.put(
        "control.characterize_ms",
        per_op_ms("control.characterize"),
        "ms",
    );
    metrics.put(
        "control.characterize.share",
        per_op_ms("control.characterize") / op_ms,
        "frac",
    );
    metrics.put("sched.allocate_ms", per_op_ms("sched.allocate"), "ms");
    metrics.put(
        "sched.allocate.share",
        per_op_ms("sched.allocate") / op_ms,
        "frac",
    );
    metrics.put("sched.nodes_per_design", nodes as f64 / ops, "count");
    metrics.put("core.freeze_ms", per_op_ms("core.freeze"), "ms");
    metrics.put(
        "core.design.self_ms",
        tracer.self_ns("core.design.op") / ops * 1e-6,
        "ms",
    );
    fidelity.overhead_frac = traced_ns / one_call_ns - 1.0;
    eprintln!(
        "design trace: {} ops, {} mismatches",
        fidelity.attempted, fidelity.failed
    );
    Ok(fidelity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_fleets_design_and_certify() {
        let designer = FleetDesigner::new().with_threads(THREADS);
        for index in 0..6 {
            let mut rng = gen::op_rng(1, 2, index);
            let fleet = design(&designer, gen::fleet_specs(&mut rng, gen::DESIGN_FLEET))
                .expect("fleet designs");
            let table = fleet.timing_table().expect("table is cached");
            assert!(check(&table, fleet.allocation()).expect("check runs"));
        }
    }
}
