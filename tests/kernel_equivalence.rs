//! Property tests for the fused simulation kernels: for every case-study
//! plant, the allocation-free `StepKernel` trajectory must match the
//! validated matrix paths it replaces — bit-for-bit against the augmented
//! closed-loop map it compiles, and to rounding precision against the
//! seed's three-term `DelayedLtiSystem::step` + controller path.

use automotive_cps::control::{
    CommunicationMode, DelayedLtiSystem, DesignWorkspace, DiscreteStateSpace,
};
use automotive_cps::core::{case_study, experiments, ControlApplication};
use automotive_cps::linalg::Matrix;

const STEPS: usize = 1000;

/// Deterministic pseudo-random mode schedule exercising both closed loops
/// and the switches between them.
fn mode_schedule(seed: u64) -> Vec<CommunicationMode> {
    let mut state = seed.max(1);
    (0..STEPS)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (state >> 33) & 1 == 0 {
                CommunicationMode::EventTriggered
            } else {
                CommunicationMode::TimeTriggered
            }
        })
        .collect()
}

/// Every application the paper's case study simulates: the six derived
/// fleet members plus the servo rig behind Figure 3.
fn case_study_applications() -> Vec<ControlApplication> {
    let mut apps = case_study::derived_fleet().expect("fleet design");
    apps.push(experiments::servo_rig_application().expect("servo rig design"));
    apps
}

#[test]
fn kernel_matches_the_augmented_closed_loop_map_bit_for_bit() {
    for (index, app) in case_study_applications().iter().enumerate() {
        let mut kernel = app.kernel().expect("kernel compiles");
        kernel.inject_disturbance(&app.spec().disturbance).expect("disturbance");

        // Reference: the validated (allocating) closed-loop matrices built
        // from the same systems and gains, stepped with `Matrix::matvec`.
        let a_et = app
            .et_system()
            .closed_loop(app.et_controller().gain())
            .expect("ET closed loop");
        let a_tt = app
            .tt_system()
            .closed_loop(app.tt_controller().gain())
            .expect("TT closed loop");
        let mut reference = kernel.augmented_state().to_vec();

        for (step, mode) in mode_schedule(index as u64 + 1).into_iter().enumerate() {
            let a_cl = match mode {
                CommunicationMode::EventTriggered => &a_et,
                CommunicationMode::TimeTriggered => &a_tt,
            };
            reference = a_cl.matvec(&reference).expect("shapes validated");
            kernel.step(mode);
            assert_eq!(
                kernel.augmented_state(),
                reference.as_slice(),
                "{}: kernel diverged from the closed-loop map at step {step}",
                app.name(),
            );
        }
    }
}

#[test]
fn kernel_matches_the_seed_step_path_to_rounding_precision() {
    // The fused kernel reassociates `Γ₀·(−K·z)` into the precompiled
    // closed-loop matrix, so against the seed's compute-u-then-step path the
    // agreement is at rounding level (≈1 ulp per step), not bitwise. 1e-9
    // over 1000 steps of these O(1)-norm trajectories leaves five orders of
    // magnitude of headroom over observed differences.
    const TOL: f64 = 1e-9;
    for (index, app) in case_study_applications().iter().enumerate() {
        let mut kernel = app.kernel().expect("kernel compiles");
        kernel.inject_disturbance(&app.spec().disturbance).expect("disturbance");

        let n = app.spec().plant.order();
        let mut state = app.spec().disturbance.clone();
        let mut previous_input = vec![0.0; app.et_system().inputs()];

        for (step, mode) in mode_schedule(index as u64 + 1).into_iter().enumerate() {
            let (system, controller) = match mode {
                CommunicationMode::EventTriggered => (app.et_system(), app.et_controller()),
                CommunicationMode::TimeTriggered => (app.tt_system(), app.tt_controller()),
            };
            let mut augmented = state.clone();
            augmented.extend_from_slice(&previous_input);
            let input = controller.control(&augmented).expect("validated");
            state = system.step(&state, &input, &previous_input).expect("validated");
            previous_input = input;
            kernel.step(mode);

            for (a, b) in kernel.state().iter().zip(&state) {
                assert!(
                    (a - b).abs() <= TOL,
                    "{}: state diverged at step {step}: kernel {a} vs naive {b}",
                    app.name(),
                );
            }
            for (a, b) in kernel.previous_input().iter().zip(&previous_input) {
                assert!(
                    (a - b).abs() <= TOL,
                    "{}: input diverged at step {step}: kernel {a} vs naive {b}",
                    app.name(),
                );
            }
            assert_eq!(kernel.state().len(), n);
        }
    }
}

#[test]
fn zero_delay_delayed_system_matches_discrete_state_space() {
    // `DelayedLtiSystem` with d = 0 must agree with the plain ZOH
    // `DiscreteStateSpace` step that the kernels subsume.
    for app in case_study_applications() {
        let plant = &app.spec().plant;
        let h = app.spec().period;
        let delayed = DelayedLtiSystem::from_continuous(plant, h, 0.0, &mut DesignWorkspace::new())
            .expect("delayed model");
        let discrete = DiscreteStateSpace::from_continuous(plant, h).expect("discrete model");
        assert!(delayed.phi().approx_eq(discrete.phi(), 1e-12));
        assert!(delayed.gamma0().approx_eq(discrete.gamma(), 1e-12));

        let mut x_delayed = app.spec().disturbance.clone();
        let mut x_discrete = x_delayed.clone();
        let input = vec![0.3; delayed.inputs()];
        let zero = vec![0.0; delayed.inputs()];
        for _ in 0..100 {
            x_delayed = delayed.step(&x_delayed, &input, &zero).expect("validated");
            x_discrete = discrete.step(&x_discrete, &input).expect("validated");
            for (a, b) in x_delayed.iter().zip(&x_discrete) {
                // Relative tolerance: open-loop unstable plants (the rig)
                // amplify the state exponentially under constant input.
                assert!(
                    (a - b).abs() <= 1e-10 * a.abs().max(1.0),
                    "{}: ZOH paths diverged ({a} vs {b})",
                    app.name()
                );
            }
        }
    }
}

#[test]
fn kernel_closed_loop_matrices_match_controller_design() {
    // The matrices the kernel fuses are exactly the A₁/A₂ the controllers
    // were certified stable with at design time.
    for app in case_study_applications() {
        let kernel = app.kernel().expect("kernel compiles");
        let et: &Matrix = kernel.closed_loop(CommunicationMode::EventTriggered);
        let tt: &Matrix = kernel.closed_loop(CommunicationMode::TimeTriggered);
        assert_eq!(et, app.et_controller().closed_loop(), "{}: A1", app.name());
        assert_eq!(tt, app.tt_controller().closed_loop(), "{}: A2", app.name());
    }
}

#[test]
fn plant_simulator_and_kernel_tell_the_same_story() {
    // The record-producing wrapper must report exactly the kernel's states.
    for app in case_study_applications() {
        let mut sim = app.simulator().expect("simulator");
        let mut kernel = app.kernel().expect("kernel");
        sim.inject_disturbance(&app.spec().disturbance).expect("disturbance");
        kernel.inject_disturbance(&app.spec().disturbance).expect("disturbance");
        for mode in mode_schedule(7) {
            let sample = sim.step(mode).expect("step");
            kernel.step(mode);
            assert_eq!(sim.state(), kernel.state());
            assert_eq!(sample.input.as_slice(), kernel.previous_input());
        }
    }
}
