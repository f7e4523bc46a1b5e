//! Closed-loop simulation utilities with explicit control inputs,
//! disturbances and time-varying communication modes.
//!
//! The autonomous-trajectory helpers in [`crate::response`] cover the
//! analytical characterisation; this module provides the step-by-step
//! simulator that the co-simulation engine (in `cps-core`) drives alongside
//! the FlexRay bus model, where the communication mode — and therefore the
//! effective delay and controller — changes at runtime.

use crate::delayed::DelayedLtiSystem;
use crate::error::Result;
use crate::kernel::StepKernel;
use crate::lqr::StateFeedbackController;

/// Which communication mode the control signal currently uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommunicationMode {
    /// Event-triggered communication in the dynamic segment (default mode).
    #[default]
    EventTriggered,
    /// Time-triggered communication in an owned static slot.
    TimeTriggered,
}

impl std::fmt::Display for CommunicationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommunicationMode::EventTriggered => write!(f, "ET"),
            CommunicationMode::TimeTriggered => write!(f, "TT"),
        }
    }
}

/// A running closed-loop plant instance whose controller and effective delay
/// depend on the current communication mode.
///
/// Since the kernel refactor this is a thin, record-producing wrapper around
/// [`StepKernel`]: the per-step dynamics are one in-place matrix–vector
/// product on the fused closed-loop matrix of the active mode. Use the
/// kernel directly (via [`PlantSimulator::kernel`] or [`StepKernel::new`])
/// when the [`SimSample`] records are not needed — that path never touches
/// the heap.
#[derive(Debug, Clone)]
pub struct PlantSimulator {
    kernel: StepKernel,
}

/// One record of the simulated trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSample {
    /// Simulation time in seconds at the *start* of the step.
    pub time: f64,
    /// Norm of the physical plant state.
    pub norm: f64,
    /// Communication mode active during the step.
    pub mode: CommunicationMode,
    /// Control input applied during the step.
    pub input: Vec<f64>,
}

impl PlantSimulator {
    /// Creates a simulator from the ET/TT models and controllers of one
    /// application, starting at the origin.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`](crate::ControlError::InvalidModel) if the two models differ in
    /// dimensions or sampling period.
    pub fn new(
        et_system: DelayedLtiSystem,
        tt_system: DelayedLtiSystem,
        et_controller: StateFeedbackController,
        tt_controller: StateFeedbackController,
    ) -> Result<Self> {
        let kernel = StepKernel::new(&et_system, &tt_system, &et_controller, &tt_controller)?;
        Ok(PlantSimulator { kernel })
    }

    /// The underlying allocation-free kernel.
    pub fn kernel(&self) -> &StepKernel {
        &self.kernel
    }

    /// Consumes the simulator and returns its kernel — the preferred handle
    /// for hot loops that do not need [`SimSample`] records.
    pub fn into_kernel(self) -> StepKernel {
        self.kernel
    }

    /// Sampling period of the simulated loop.
    pub fn period(&self) -> f64 {
        self.kernel.period()
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.kernel.time()
    }

    /// Current physical plant state.
    pub fn state(&self) -> &[f64] {
        self.kernel.state()
    }

    /// Norm of the current physical plant state (the quantity compared with
    /// `E_th`).
    pub fn state_norm(&self) -> f64 {
        self.kernel.state_norm()
    }

    /// Adds a disturbance to the plant state (instantaneous state jump, the
    /// disturbance model used throughout the paper's case study).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`](crate::ControlError::InvalidModel) if the disturbance has the
    /// wrong dimension.
    pub fn inject_disturbance(&mut self, disturbance: &[f64]) -> Result<()> {
        self.kernel.inject_disturbance(disturbance)
    }

    /// Resets state, previous input and time to zero.
    pub fn reset(&mut self) {
        self.kernel.reset();
    }

    /// Advances the closed loop by one sampling period using the controller
    /// and delay model of `mode`, and returns the record of the step.
    ///
    /// The dynamics are one fused in-place matrix–vector product; the only
    /// allocation is the `input` vector of the returned record (the applied
    /// input is the tail of the kernel's new augmented state).
    ///
    /// # Errors
    ///
    /// Kept fallible for API stability; the kernel path cannot fail after
    /// construction.
    pub fn step(&mut self, mode: CommunicationMode) -> Result<SimSample> {
        let time = self.kernel.time();
        let norm = self.kernel.state_norm();
        self.kernel.step(mode);
        Ok(SimSample { time, norm, mode, input: self.kernel.previous_input().to_vec() })
    }

    /// Runs `steps` consecutive steps in a fixed mode and returns the records.
    ///
    /// # Errors
    ///
    /// Propagates failures from [`PlantSimulator::step`].
    pub fn run(&mut self, mode: CommunicationMode, steps: usize) -> Result<Vec<SimSample>> {
        let mut samples = Vec::with_capacity(steps);
        for _ in 0..steps {
            samples.push(self.step(mode)?);
        }
        Ok(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lqr::{design_switched_pair, LqrWeights};
    use crate::plants;
    use crate::DesignWorkspace;

    fn servo_simulator() -> PlantSimulator {
        let ws = &mut DesignWorkspace::new();
        // Servo rig with the detuned ET controller and the fast TT controller
        // used throughout the Figure 3 reproduction.
        let plant = plants::servo_rig_upright();
        let et_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.02, ws).unwrap();
        let tt_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0007, ws).unwrap();
        let et = crate::lqr::design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0]).unwrap();
        let tt = crate::lqr::design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0]).unwrap();
        PlantSimulator::new(et_sys, tt_sys, et, tt).unwrap()
    }

    #[test]
    fn mode_display() {
        assert_eq!(CommunicationMode::EventTriggered.to_string(), "ET");
        assert_eq!(CommunicationMode::TimeTriggered.to_string(), "TT");
        assert_eq!(CommunicationMode::default(), CommunicationMode::EventTriggered);
    }

    #[test]
    fn disturbance_rejection_in_tt_mode() {
        let mut sim = servo_simulator();
        sim.inject_disturbance(&[45.0_f64.to_radians(), 0.0]).unwrap();
        assert!(sim.state_norm() > 0.1);
        let samples = sim.run(CommunicationMode::TimeTriggered, 200).unwrap();
        assert_eq!(samples.len(), 200);
        assert!(sim.state_norm() < 0.1, "TT loop must reject the disturbance");
        // Time advances by one period per step.
        assert!((sim.time() - 200.0 * 0.02).abs() < 1e-9);
        assert!((samples[1].time - 0.02).abs() < 1e-12);
    }

    #[test]
    fn disturbance_rejection_in_et_mode_is_slower() {
        let mut sim_tt = servo_simulator();
        let mut sim_et = servo_simulator();
        let disturbance = [45.0_f64.to_radians(), 0.0];
        sim_tt.inject_disturbance(&disturbance).unwrap();
        sim_et.inject_disturbance(&disturbance).unwrap();

        let settle = |sim: &mut PlantSimulator, mode| {
            let mut steps = 0;
            while sim.state_norm() > 0.1 && steps < 5000 {
                sim.step(mode).unwrap();
                steps += 1;
            }
            steps
        };
        let tt_steps = settle(&mut sim_tt, CommunicationMode::TimeTriggered);
        let et_steps = settle(&mut sim_et, CommunicationMode::EventTriggered);
        assert!(tt_steps < et_steps, "TT ({tt_steps}) must settle faster than ET ({et_steps})");
    }

    #[test]
    fn switching_mid_transient_still_settles() {
        let mut sim = servo_simulator();
        sim.inject_disturbance(&[45.0_f64.to_radians(), 0.0]).unwrap();
        sim.run(CommunicationMode::EventTriggered, 15).unwrap();
        sim.run(CommunicationMode::TimeTriggered, 400).unwrap();
        assert!(sim.state_norm() < 0.1);
    }

    #[test]
    fn reset_clears_state_and_time() {
        let mut sim = servo_simulator();
        sim.inject_disturbance(&[0.5, 0.5]).unwrap();
        sim.run(CommunicationMode::EventTriggered, 3).unwrap();
        sim.reset();
        assert_eq!(sim.state_norm(), 0.0);
        assert_eq!(sim.time(), 0.0);
        assert_eq!(sim.state(), &[0.0, 0.0]);
    }

    #[test]
    fn disturbance_dimension_is_validated() {
        let mut sim = servo_simulator();
        assert!(sim.inject_disturbance(&[1.0]).is_err());
    }

    #[test]
    fn mismatched_models_are_rejected() {
        let ws = &mut DesignWorkspace::new();
        let servo = plants::servo_position();
        let suspension = plants::quarter_car_suspension();
        let w2 = LqrWeights::identity_with_input_weight(2, 0.1);
        let w4 = LqrWeights::identity_with_input_weight(4, 0.1);
        let servo_pair = design_switched_pair(&servo, 0.02, 0.02, 0.0, &w2, &w2, ws).unwrap();
        let susp_pair = design_switched_pair(&suspension, 0.02, 0.02, 0.0, &w4, &w4, ws).unwrap();
        assert!(PlantSimulator::new(
            servo_pair.et_system.clone(),
            susp_pair.tt_system,
            servo_pair.et.clone(),
            susp_pair.tt,
        )
        .is_err());

        // Same plant but different sampling periods must also be rejected.
        let fast = design_switched_pair(&servo, 0.01, 0.01, 0.0, &w2, &w2, ws).unwrap();
        assert!(PlantSimulator::new(
            servo_pair.et_system,
            fast.tt_system,
            servo_pair.et,
            fast.tt,
        )
        .is_err());
    }

    #[test]
    fn sample_records_mode_and_input() {
        let mut sim = servo_simulator();
        sim.inject_disturbance(&[0.3, 0.0]).unwrap();
        let s = sim.step(CommunicationMode::TimeTriggered).unwrap();
        assert_eq!(s.mode, CommunicationMode::TimeTriggered);
        assert_eq!(s.input.len(), 1);
        assert!(s.norm > 0.0);
        assert_eq!(s.time, 0.0);
    }
}
