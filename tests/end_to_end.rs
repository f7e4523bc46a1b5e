//! Cross-crate integration tests: the complete co-design flow from plant
//! models to TT-slot dimensioning and co-simulation — including the golden
//! fixture that pins the paper's case-study pipeline bit for bit.

use automotive_cps::core::{case_study, experiments, CoSimulation};
use automotive_cps::flexray::{FlexRayBus, FlexRayConfig, Frame};
use automotive_cps::sched::{
    allocate_slots, allocate_slots_optimal, analyze_slot, AllocatorConfig, DwellTimeModel,
    ModelKind, NonMonotonicModel, SlotAllocation, SlotTiming, WaitTimeMethod,
};
use std::fmt::Write as _;

#[test]
fn headline_result_3_vs_5_slots() {
    let apps = case_study::paper_table1();
    let outcome = case_study::run_slot_allocation(&apps).expect("allocation succeeds");
    assert_eq!(outcome.non_monotonic_slots, 3);
    assert_eq!(outcome.monotonic_slots, 5);
    assert!((outcome.overhead_fraction - 2.0 / 3.0).abs() < 0.01);
    // The paper's slot contents: S1 = {C3, C6}, S2 = {C2, C4}, S3 = {C5, C1}.
    assert_eq!(outcome.non_monotonic.slots[0], vec![2, 5]);
    assert_eq!(outcome.non_monotonic.slots[1], vec![1, 3]);
    assert_eq!(outcome.non_monotonic.slots[2], vec![4, 0]);
}

#[test]
fn paper_intermediate_numbers_are_reproduced() {
    let apps = case_study::paper_table1();
    // Section V quotes k_wait,6 = 0.669 s -> xi_hat_6 = 1.589 s and
    // k_wait,3 = 0.92 s -> xi_hat_3 = 1.515 s on slot S1 = {C3, C6}.
    let analysis = analyze_slot(
        &apps,
        &[2, 5],
        ModelKind::NonMonotonic,
        WaitTimeMethod::ClosedFormBound,
        SlotTiming::ZERO,
    )
    .expect("analysis succeeds");
    let c3 = &analysis.analyses[0];
    let c6 = &analysis.analyses[1];
    assert!((c3.max_wait_time - 0.92).abs() < 1e-6);
    assert!((c3.worst_case_response_time - 1.515).abs() < 0.005);
    assert!((c6.max_wait_time - 0.669).abs() < 0.001);
    assert!((c6.worst_case_response_time - 1.589).abs() < 0.005);
    assert!(analysis.is_schedulable());
}

#[test]
fn figure3_shape_holds_end_to_end() {
    let curve = experiments::figure3_dwell_wait_curve().expect("characterisation succeeds");
    assert!(curve.is_non_monotonic());
    assert!(curve.max_dwell() > 1.1 * curve.xi_tt);
    assert!(curve.peak_wait() > 0.0);
    assert!(curve.xi_et > 2.0 * curve.xi_tt);
}

#[test]
fn figure4_model_orderings_hold_end_to_end() {
    let data = experiments::figure4_models().expect("model fit succeeds");
    assert!(experiments::figure4_orderings_hold(&data));
}

#[test]
fn derived_pipeline_saves_resources_or_matches() {
    let fleet = case_study::derived_fleet().expect("fleet design succeeds");
    let table = case_study::derive_table(&fleet).expect("table derivation succeeds");
    let outcome = case_study::run_slot_allocation(&table).expect("allocation succeeds");
    assert!(outcome.non_monotonic_slots <= outcome.monotonic_slots);
    assert!(outcome
        .non_monotonic
        .verify_with(&table, SlotTiming::ZERO)
        .expect("verification runs"));
    assert!(outcome.monotonic.verify_with(&table, SlotTiming::ZERO).expect("verification runs"));
}

#[test]
fn cosimulation_meets_deadlines_and_uses_the_bus() {
    let trace = experiments::figure5_cosimulation(12.0).expect("co-simulation succeeds");
    assert!(trace.all_deadlines_met());
    assert!(trace.bus_statistics.static_transmissions > 0);
    assert!(trace.bus_statistics.dynamic_transmissions > 0);
    // Slot occupancy is recorded for every simulated period.
    assert_eq!(trace.slot_occupancy.len(), trace.apps[0].points.len());
}

#[test]
fn published_response_times_are_consistent_with_the_dwell_model() {
    // The Table I columns are mutually consistent: evaluating the
    // non-monotonic model of every application at wait zero gives xi_tt and
    // the peak gives xi_m.
    for app in case_study::paper_table1() {
        let model = NonMonotonicModel::for_app(&app);
        assert!((model.dwell(0.0) - app.xi_tt).abs() < 1e-9);
        assert!((model.dwell(app.k_p) - app.xi_m).abs() < 1e-9);
        assert!(model.dwell(app.xi_et) < 1e-9);
    }
}

/// Renders one `f64` as its exact bit pattern — the fixture must replay bit
/// for bit, not to a tolerance.
fn hex(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

fn render_slot_map(label: &str, allocation: &SlotAllocation, out: &mut String) {
    let slots: Vec<String> = allocation
        .slots
        .iter()
        .map(|slot| {
            slot.iter().map(usize::to_string).collect::<Vec<_>>().join(",")
        })
        .collect();
    writeln!(out, "slot_map {label} {}", slots.join("|")).expect("string write");
}

/// Computes the golden end-to-end outputs of the paper's case-study fleet:
/// slot maps (greedy and branch-and-bound optimal under both safe models),
/// per-application maximum wait times and worst-case responses on the
/// optimal map, and the settled co-simulation trajectories of the derived
/// fleet (subsampled plant-state norms, measured response times, TT usage,
/// bus counters) — every float as its exact bit pattern.
fn render_golden_fixture() -> String {
    let mut out = String::new();
    out.push_str(
        "# Golden case-study fixture. Regenerate with:\n\
         #   CPS_GOLDEN_REGEN=1 cargo test --test end_to_end golden_fixture\n",
    );

    // --- published Table I: slot maps -------------------------------------
    let apps = case_study::paper_table1();
    for (label, model) in [
        ("non_monotonic", ModelKind::NonMonotonic),
        ("conservative", ModelKind::ConservativeMonotonic),
    ] {
        let config = AllocatorConfig { model, ..AllocatorConfig::default() };
        let greedy = allocate_slots(&apps, &config).expect("greedy allocation");
        let optimal = allocate_slots_optimal(&apps, &config).expect("optimal allocation");
        render_slot_map(&format!("greedy_{label}"), &greedy, &mut out);
        render_slot_map(&format!("optimal_{label}"), &optimal, &mut out);

        // Wait times and worst-case responses of every application on its
        // slot of the optimal map.
        for slot in &optimal.slots {
            let analysis =
                analyze_slot(&apps, slot, model, WaitTimeMethod::ClosedFormBound, SlotTiming::ZERO)
                    .expect("analysis runs");
            for result in &analysis.analyses {
                writeln!(
                    out,
                    "analysis {label} {} wait {} response {}",
                    result.application,
                    hex(result.max_wait_time),
                    hex(result.worst_case_response_time)
                )
                .expect("string write");
            }
        }
    }

    // --- derived fleet: characterised table and settled trajectories ------
    let fleet = case_study::derived_fleet().expect("fleet design");
    let table = case_study::derive_table(&fleet).expect("characterisation");
    for row in &table {
        writeln!(
            out,
            "table {} xi_tt {} xi_et {} xi_m {} k_p {}",
            row.name,
            hex(row.xi_tt),
            hex(row.xi_et),
            hex(row.xi_m),
            hex(row.k_p)
        )
        .expect("string write");
    }
    let allocation = allocate_slots(&table, &AllocatorConfig::default()).expect("allocation");
    render_slot_map("derived_non_monotonic", &allocation, &mut out);

    let mut cosim = CoSimulation::new(fleet, &allocation, FlexRayConfig::paper_case_study())
        .expect("engine builds");
    cosim.inject_disturbances().expect("disturbances");
    let trace = cosim.run(4.0).expect("co-simulation runs");
    for app in &trace.apps {
        let response = app
            .response_time
            .map(hex)
            .unwrap_or_else(|| "none".to_string());
        let tt_periods = app
            .points
            .iter()
            .filter(|p| p.mode == automotive_cps::control::CommunicationMode::TimeTriggered)
            .count();
        writeln!(out, "trace {} response {response} tt_periods {tt_periods}", app.name)
            .expect("string write");
        let norms: Vec<String> =
            app.points.iter().step_by(10).map(|p| hex(p.norm)).collect();
        writeln!(out, "trace_norms {} {}", app.name, norms.join(",")).expect("string write");
    }
    writeln!(
        out,
        "bus static {} dynamic {} cycles {}",
        trace.bus_statistics.static_transmissions,
        trace.bus_statistics.dynamic_transmissions,
        trace.bus_statistics.cycles
    )
    .expect("string write");
    out
}

#[test]
fn golden_fixture_replays_bit_identically() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/case_study_golden.txt");
    let rendered = render_golden_fixture();
    if std::env::var("CPS_GOLDEN_REGEN").is_ok() {
        std::fs::write(path, &rendered).expect("fixture written");
        return;
    }
    let committed = std::fs::read_to_string(path)
        .expect("committed fixture exists (regenerate with CPS_GOLDEN_REGEN=1)");
    // Compare line by line for a readable diff on mismatch.
    for (index, (got, want)) in rendered.lines().zip(committed.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "golden fixture diverges at line {} — the end-to-end pipeline no longer \
             replays bit-identically",
            index + 1
        );
    }
    assert_eq!(rendered.lines().count(), committed.lines().count());
}

#[test]
fn flexray_bus_supports_the_case_study_configuration() {
    // Ten static slots as in the paper; the three slots of the non-monotonic
    // allocation fit comfortably and TT transmissions stay deterministic.
    let mut bus = FlexRayBus::new(FlexRayConfig::paper_case_study()).expect("valid bus");
    for slot in 0..3 {
        bus.register_frame(
            Frame::static_slot(slot as u32 + 1, format!("slot{slot}"), slot, 2).expect("frame"),
        )
        .expect("registration");
    }
    for cycle in 0..8 {
        for id in 1..=3u32 {
            bus.queue_message(id, cycle as f64 * 0.005).expect("queue");
        }
        bus.run_cycle();
    }
    let stats = bus.statistics();
    assert_eq!(stats.static_transmissions, 24);
    assert_eq!(stats.wasted_static_slots, 0);
    // Deterministic latency: every transmission of frame 1 has the same latency.
    let latencies = bus.latencies_of(1);
    assert!(latencies.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
}
