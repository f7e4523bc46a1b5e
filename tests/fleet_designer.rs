//! Parity suite for the fleet-level design pipeline: [`FleetDesigner`] must
//! produce **bit-identical** artifacts to the retained sequential
//! per-application path for *any* worker count — on the case-study fleet, on
//! a scaled 24-application fleet, and (property-based) on fleets of random
//! stable plants designed with LQR. Also pins the routing contract: every
//! design entry point (`ControlApplication::design`,
//! `DesignedFleet::design`/`design_optimal`, `BusConfigSweep::scenarios_for`)
//! goes through the same pipeline and therefore agrees with the primitive
//! paths exactly.

use automotive_cps::control::{CharacterizationWorkspace, DesignWorkspace, LqrWeights};
use automotive_cps::core::{
    case_study, derive_timing_params, ApplicationSpec, BusConfigSweep, ControlApplication,
    ControllerSpec, DesignedFleet, FleetDesigner,
};
use automotive_cps::flexray::FlexRayConfig;
use automotive_cps::linalg::Matrix;
use automotive_cps::sched::AllocatorConfig;
use proptest::prelude::*;

/// Asserts two designed applications are bit-identical artifact for
/// artifact (controllers, closed loops, delayed models, fused kernel
/// matrices).
fn assert_identical(actual: &ControlApplication, expected: &ControlApplication) {
    assert_eq!(actual.name(), expected.name());
    assert_eq!(actual.et_controller(), expected.et_controller());
    assert_eq!(actual.tt_controller(), expected.tt_controller());
    assert_eq!(actual.et_system(), expected.et_system());
    assert_eq!(actual.tt_system(), expected.tt_system());
    assert_eq!(
        actual.kernel_matrices().as_ref(),
        expected.kernel_matrices().as_ref(),
        "{}: fused kernel matrices must match bit for bit",
        actual.name()
    );
}

#[test]
fn designer_is_bit_identical_to_per_app_design_for_any_worker_count() {
    let specs = case_study::derived_fleet_specs();
    // The retained sequential per-application path.
    let reference: Vec<ControlApplication> =
        specs.iter().cloned().map(|spec| ControlApplication::design(spec).unwrap()).collect();

    for threads in [1, 2, 3, 8, 64] {
        let designed =
            FleetDesigner::new().with_threads(threads).design(specs.clone()).unwrap();
        assert_eq!(designed.len(), reference.len());
        for (actual, expected) in designed.iter().zip(&reference) {
            assert_identical(actual, expected);
        }
    }
}

#[test]
fn designer_parity_holds_on_a_scaled_24_app_fleet() {
    let specs = case_study::scaled_fleet_specs(24);
    assert_eq!(specs.len(), 24);
    // Names are unique (the allocation layer keys diagnostics by name).
    let names: std::collections::HashSet<_> = specs.iter().map(|s| s.name.clone()).collect();
    assert_eq!(names.len(), 24);

    let reference: Vec<ControlApplication> =
        specs.iter().cloned().map(|spec| ControlApplication::design(spec).unwrap()).collect();
    let designed = FleetDesigner::new().with_threads(5).design(specs).unwrap();
    for (actual, expected) in designed.iter().zip(&reference) {
        assert_identical(actual, expected);
    }
}

#[test]
fn parallel_characterization_matches_the_sequential_pass_bit_for_bit() {
    let apps = case_study::derived_fleet().unwrap();
    // Each reference row on a fresh workspace; the designer's workers reuse
    // theirs across applications.
    let reference: Vec<_> = apps
        .iter()
        .map(|app| derive_timing_params(app, &mut CharacterizationWorkspace::new()).unwrap())
        .collect();
    for threads in [1, 2, 4, 16] {
        let table = FleetDesigner::new().with_threads(threads).characterize(&apps).unwrap();
        assert_eq!(table, reference, "characterisation must not depend on {threads} workers");
    }
}

#[test]
fn fleet_entry_points_agree_with_the_primitive_paths() {
    let config = AllocatorConfig::default();
    let bus = FlexRayConfig::paper_case_study();

    // DesignedFleet::design == design apps + characterize + greedy allocate.
    let fleet =
        DesignedFleet::design(case_study::derived_fleet_specs(), &config, bus).unwrap();
    let apps = case_study::derived_fleet().unwrap();
    let table = case_study::derive_table(&apps).unwrap();
    let greedy = automotive_cps::sched::allocate_slots(&table, &config).unwrap();
    assert_eq!(fleet.allocation().slots, greedy.slots);
    assert_eq!(fleet.app_count(), apps.len());

    // DesignedFleet::design_optimal == one characterisation + exact search.
    let optimal_fleet = DesignedFleet::design_optimal(apps, &config, bus).unwrap();
    let optimal = automotive_cps::sched::allocate_slots_optimal(&table, &config).unwrap();
    assert_eq!(optimal_fleet.allocation().slots, optimal.slots);

    // BusConfigSweep::scenarios_for == scenarios over the shared table.
    let apps = case_study::derived_fleet().unwrap();
    let sweep = BusConfigSweep::new(bus)
        .with_cycle_lengths(vec![0.005, 0.010])
        .with_static_slot_counts(vec![6, 10]);
    let via_designer =
        sweep.scenarios_for(&FleetDesigner::new(), &apps, &config, 1.0).unwrap();
    let via_table = sweep.scenarios(&table, &config, 1.0);
    assert_eq!(via_designer, via_table);
    assert!(!via_designer.is_empty());
}

#[test]
fn shared_workspace_designs_do_not_contaminate_each_other() {
    // Designing through one warm workspace in a dimension-mixed order must
    // equal designing each app with a cold workspace: the pool is fully
    // overwritten per solve, never carried across.
    let mut specs = case_study::derived_fleet_specs();
    specs.reverse(); // order 2,2,2,2,2(+3rd-order aug),1 states: mixes dims
    let mut shared = DesignWorkspace::new();
    for spec in specs {
        let warm = ControlApplication::design_with(spec.clone(), &mut shared).unwrap();
        let cold =
            ControlApplication::design_with(spec, &mut DesignWorkspace::new()).unwrap();
        assert_identical(&warm, &cold);
    }
    // The pool holds one workspace per distinct dimension, not per design.
    assert!(shared.riccati_pool_size() <= 3);
    assert!(shared.expm_pool_size() <= 4);
}

/// A random stable continuous-time 2-state plant: diagonal decay plus
/// bounded skew coupling keeps every eigenvalue in the open left half-plane
/// (the symmetric part is negative definite), so the LQR design is
/// well-posed.
fn stable_plant(
    decay: (f64, f64),
    coupling: f64,
    gain: f64,
) -> automotive_cps::control::ContinuousStateSpace {
    let a = Matrix::from_rows(&[&[-decay.0, coupling], &[-coupling, -decay.1]]).unwrap();
    let b = Matrix::column(&[0.0, gain]).unwrap();
    let c = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
    automotive_cps::control::ContinuousStateSpace::new(a, b, c).unwrap()
}

fn lqr_spec(index: usize, decay: (f64, f64), coupling: f64, gain: f64, rho: f64) -> ApplicationSpec {
    ApplicationSpec {
        name: format!("P{index}"),
        plant: stable_plant(decay, coupling, gain),
        period: 0.02,
        et_delay: 0.02,
        tt_delay: 0.0007,
        threshold: 0.1,
        disturbance: vec![1.0, 0.0],
        deadline: 5.0,
        inter_arrival: 10.0,
        controllers: ControllerSpec::Lqr {
            et_weights: LqrWeights::identity_with_input_weight(2, rho * 10.0),
            tt_weights: LqrWeights::identity_with_input_weight(2, rho),
        },
        input_limit: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn designer_parity_on_random_stable_plants(
        params in proptest::collection::vec(
            (0.2f64..4.0, 0.2f64..4.0, -2.0f64..2.0, 0.5f64..3.0, 0.01f64..1.0),
            1..5,
        ),
        threads in 1usize..6,
    ) {
        let specs: Vec<ApplicationSpec> = params
            .iter()
            .enumerate()
            .map(|(index, &(d0, d1, coupling, gain, rho))| {
                lqr_spec(index, (d0, d1), coupling, gain, rho)
            })
            .collect();
        let reference: Vec<ControlApplication> = specs
            .iter()
            .cloned()
            .map(|spec| ControlApplication::design(spec).expect("stable plant designs"))
            .collect();
        let designed = FleetDesigner::new()
            .with_threads(threads)
            .design(specs)
            .expect("designer agrees the plants design");
        for (actual, expected) in designed.iter().zip(&reference) {
            prop_assert_eq!(actual.et_controller(), expected.et_controller());
            prop_assert_eq!(actual.tt_controller(), expected.tt_controller());
            prop_assert_eq!(actual.et_system(), expected.et_system());
            prop_assert_eq!(actual.tt_system(), expected.tt_system());
            prop_assert_eq!(
                actual.kernel_matrices().as_ref(),
                expected.kernel_matrices().as_ref()
            );
        }
    }
}
