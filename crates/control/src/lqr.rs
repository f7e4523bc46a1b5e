//! State-feedback controller synthesis for the delay-augmented plant model.
//!
//! The paper designs one controller for the event-triggered loop (large,
//! worst-case delay) and one for the time-triggered loop (small deterministic
//! delay) "using optimal control principles"; here that is an
//! infinite-horizon discrete LQR on the delay-augmented system.

use crate::delayed::DelayedLtiSystem;
use crate::design::DesignWorkspace;
use crate::error::{ControlError, Result};
use cps_linalg::{dlqr, is_schur_stable, DareOptions, Matrix};

/// Weights for the LQR synthesis on the delay-augmented system.
#[derive(Debug, Clone, PartialEq)]
pub struct LqrWeights {
    /// State weight on the physical plant states (square, `n × n`).
    pub state: Matrix,
    /// Input weight (square, `m × m`).
    pub input: Matrix,
    /// Weight on the memorised previous input in the augmented state.
    /// A small positive value keeps the augmented weight matrix positive
    /// semi-definite without distorting the design.
    pub previous_input: f64,
}

impl LqrWeights {
    /// Identity state weight and scalar input weight `rho` — the workhorse
    /// parametrisation used throughout the case study.
    pub fn identity_with_input_weight(plant_order: usize, rho: f64) -> Self {
        LqrWeights {
            state: Matrix::identity(plant_order),
            input: Matrix::identity(1).scale(rho),
            previous_input: 1e-6,
        }
    }
}

/// A synthesised state-feedback controller for one communication mode.
#[derive(Debug, Clone, PartialEq)]
pub struct StateFeedbackController {
    gain: Matrix,
    closed_loop: Matrix,
    plant_order: usize,
}

impl StateFeedbackController {
    /// Feedback gain `K` on the augmented state (`u = −K·z`).
    pub fn gain(&self) -> &Matrix {
        &self.gain
    }

    /// Closed-loop augmented state matrix `A_aug − B_aug·K`.
    pub fn closed_loop(&self) -> &Matrix {
        &self.closed_loop
    }

    /// Number of physical plant states (the part of the augmented state on
    /// which the switching threshold is evaluated).
    pub fn plant_order(&self) -> usize {
        self.plant_order
    }

    /// Computes the control input for the given augmented state.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `augmented_state` has the wrong length.
    pub fn control(&self, augmented_state: &[f64]) -> Result<Vec<f64>> {
        Ok(self.gain.matvec(augmented_state)?.iter().map(|v| -v).collect())
    }
}

/// Designs an LQR state-feedback controller for the delayed plant.
///
/// The returned controller acts on the augmented state `z = [x; u_prev]` and
/// is guaranteed Schur-stabilising (the function fails otherwise). Every DARE
/// iteration and the gain computation run on the Riccati workspace of the
/// caller-provided [`DesignWorkspace`], so repeated syntheses (fleet design,
/// threshold sweeps) share one set of temporaries; a one-off design passes
/// `&mut DesignWorkspace::new()`. The controller is bit-identical for any
/// (warm or fresh) workspace.
///
/// # Errors
///
/// * [`ControlError::InvalidModel`] if the weights have inconsistent shapes.
/// * [`ControlError::DesignFailed`] if the Riccati recursion does not
///   converge or the resulting closed loop is not Schur stable.
///
/// # Example
///
/// ```
/// use cps_control::{design_lqr, plants, DelayedLtiSystem, DesignWorkspace, LqrWeights};
///
/// let plant = plants::servo_position();
/// let mut workspace = DesignWorkspace::new();
/// let sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0007, &mut workspace)?;
/// let weights = LqrWeights::identity_with_input_weight(2, 0.1);
/// let ctrl = design_lqr(&sys, &weights, &mut workspace)?;
/// assert_eq!(ctrl.gain().shape(), (1, 3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn design_lqr(
    system: &DelayedLtiSystem,
    weights: &LqrWeights,
    workspace: &mut DesignWorkspace,
) -> Result<StateFeedbackController> {
    let n = system.plant_order();
    let m = system.inputs();
    if weights.state.shape() != (n, n) {
        return Err(ControlError::InvalidModel {
            reason: format!("state weight must be {n}x{n}, got {:?}", weights.state.shape()),
        });
    }
    if weights.input.shape() != (m, m) {
        return Err(ControlError::InvalidModel {
            reason: format!("input weight must be {m}x{m}, got {:?}", weights.input.shape()),
        });
    }
    if weights.previous_input < 0.0 {
        return Err(ControlError::InvalidModel {
            reason: "previous-input weight must be non-negative".to_string(),
        });
    }

    let a = system.augmented_a()?;
    let b = system.augmented_b()?;
    // Augmented state weight: blkdiag(Q, previous_input·I).
    let mut q = Matrix::zeros(n + m, n + m);
    q.set_block(0, 0, &weights.state)?;
    q.set_block(n, n, &Matrix::identity(m).scale(weights.previous_input.max(1e-9)))?;

    let riccati = workspace.riccati(system.augmented_order(), m);
    let solution =
        dlqr(&a, &b, &q, &weights.input, DareOptions::default(), riccati).map_err(|e| {
            ControlError::DesignFailed { reason: format!("riccati recursion failed: {e}") }
        })?;
    let closed_loop = a.sub_matrix(&b.matmul(&solution.gain)?)?;
    if !is_schur_stable(&closed_loop)? {
        return Err(ControlError::DesignFailed {
            reason: "closed loop is not Schur stable".to_string(),
        });
    }
    Ok(StateFeedbackController { gain: solution.gain, closed_loop, plant_order: n })
}

/// The pair of controllers the paper associates with one application: one for
/// the event-triggered (ET) loop and one for the time-triggered (TT) loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchedControllerPair {
    /// Controller and closed loop used while the signal travels in the
    /// dynamic (event-triggered) segment; designed against the worst-case
    /// ET delay.
    pub et: StateFeedbackController,
    /// Controller and closed loop used while the signal owns a static
    /// (time-triggered) slot; designed against the small deterministic TT
    /// delay.
    pub tt: StateFeedbackController,
    /// The ET-mode plant model (kept for simulation).
    pub et_system: DelayedLtiSystem,
    /// The TT-mode plant model (kept for simulation).
    pub tt_system: DelayedLtiSystem,
}

impl SwitchedControllerPair {
    /// Closed-loop matrix `A₁` of the paper (ET communication).
    pub fn a1(&self) -> &Matrix {
        self.et.closed_loop()
    }

    /// Closed-loop matrix `A₂` of the paper (TT communication).
    pub fn a2(&self) -> &Matrix {
        self.tt.closed_loop()
    }

    /// Number of physical plant states.
    pub fn plant_order(&self) -> usize {
        self.et.plant_order()
    }
}

/// Designs the ET/TT controller pair for a continuous-time plant with LQR.
///
/// `period` is the sampling period `h`; `et_delay` and `tt_delay` are the
/// sensor-to-actuator delays in the two communication modes (the paper uses
/// the worst-case delay for ET and a near-zero deterministic delay for TT).
/// The two modes may use different weights: the ET controller is typically
/// detuned (larger input weight) to remain robust against the
/// non-deterministic ET delay, while the TT controller exploits the
/// deterministic slot timing aggressively. Both discretisations and both
/// LQR syntheses run on the caller-provided [`DesignWorkspace`], the shape a
/// fleet-level design loop fans out per worker.
///
/// # Errors
///
/// Propagates modelling and design failures from
/// [`DelayedLtiSystem::from_continuous`] and [`design_lqr`].
pub fn design_switched_pair(
    plant: &crate::continuous::ContinuousStateSpace,
    period: f64,
    et_delay: f64,
    tt_delay: f64,
    et_weights: &LqrWeights,
    tt_weights: &LqrWeights,
    workspace: &mut DesignWorkspace,
) -> Result<SwitchedControllerPair> {
    let et_system = DelayedLtiSystem::from_continuous(plant, period, et_delay, workspace)?;
    let tt_system = DelayedLtiSystem::from_continuous(plant, period, tt_delay, workspace)?;
    let et = design_lqr(&et_system, et_weights, workspace)?;
    let tt = design_lqr(&tt_system, tt_weights, workspace)?;
    Ok(SwitchedControllerPair { et, tt, et_system, tt_system })
}

/// Designs a state-feedback controller by pole placement on the
/// delay-augmented system.
///
/// `continuous_poles` are desired closed-loop poles in the continuous-time
/// s-plane (real values; one per augmented state, i.e. plant order + 1 for a
/// single-input plant). They are mapped to the discrete plane via
/// `z = e^{s·h}` and placed with Ackermann's formula. This is the synthesis
/// path used for the servo-rig reproduction of Figure 3, where the ET
/// controller is deliberately bandwidth-limited and the TT controller is
/// deliberately fast.
///
/// # Errors
///
/// * [`ControlError::InvalidModel`] if the number of poles does not match the
///   augmented order or the system is not single-input.
/// * [`ControlError::DesignFailed`] if the augmented pair is uncontrollable
///   or the placed closed loop is not Schur stable.
pub fn design_by_pole_placement(
    system: &DelayedLtiSystem,
    continuous_poles: &[f64],
) -> Result<StateFeedbackController> {
    if continuous_poles.len() != system.augmented_order() {
        return Err(ControlError::InvalidModel {
            reason: format!(
                "expected {} poles (augmented order), got {}",
                system.augmented_order(),
                continuous_poles.len()
            ),
        });
    }
    if continuous_poles.iter().any(|p| *p >= 0.0 || !p.is_finite()) {
        return Err(ControlError::InvalidModel {
            reason: "continuous-time poles must be finite and strictly negative".to_string(),
        });
    }
    let h = system.period();
    let discrete_poles: Vec<f64> = continuous_poles.iter().map(|p| (p * h).exp()).collect();
    let a = system.augmented_a()?;
    let b = system.augmented_b()?;
    let gain = crate::pole_placement::place_poles(&a, &b, &discrete_poles)?;
    let closed_loop = a.sub_matrix(&b.matmul(&gain)?)?;
    if !is_schur_stable(&closed_loop)? {
        return Err(ControlError::DesignFailed {
            reason: "pole placement produced an unstable closed loop".to_string(),
        });
    }
    Ok(StateFeedbackController { gain, closed_loop, plant_order: system.plant_order() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plants;
    use cps_linalg::spectral_radius;

    #[test]
    fn lqr_stabilises_servo_with_delay() {
        let ws = &mut DesignWorkspace::new();
        let plant = plants::servo_position();
        let sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.02, ws).unwrap();
        let ctrl = design_lqr(&sys, &LqrWeights::identity_with_input_weight(2, 0.5), ws).unwrap();
        assert!(spectral_radius(ctrl.closed_loop()).unwrap() < 1.0);
        assert_eq!(ctrl.plant_order(), 2);
    }

    #[test]
    fn lqr_stabilises_unstable_pendulum() {
        let ws = &mut DesignWorkspace::new();
        let plant = plants::inverted_pendulum();
        let sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.005, ws).unwrap();
        let ctrl = design_lqr(&sys, &LqrWeights::identity_with_input_weight(2, 1.0), ws).unwrap();
        assert!(spectral_radius(ctrl.closed_loop()).unwrap() < 1.0);
    }

    #[test]
    fn control_law_is_negative_feedback() {
        let ws = &mut DesignWorkspace::new();
        let plant = plants::servo_position();
        let sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0, ws).unwrap();
        let ctrl = design_lqr(&sys, &LqrWeights::identity_with_input_weight(2, 0.1), ws).unwrap();
        let u = ctrl.control(&[1.0, 0.0, 0.0]).unwrap();
        // Positive position error must produce a restoring (negative) torque
        // because the gain's position entry is positive for this plant.
        assert!(u[0] < 0.0);
        assert!(ctrl.control(&[1.0, 0.0]).is_err());
    }

    #[test]
    fn weight_validation() {
        let ws = &mut DesignWorkspace::new();
        let plant = plants::servo_position();
        let sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0, ws).unwrap();
        let bad_state = LqrWeights {
            state: Matrix::identity(3),
            input: Matrix::identity(1),
            previous_input: 0.0,
        };
        assert!(design_lqr(&sys, &bad_state, ws).is_err());
        let bad_input = LqrWeights {
            state: Matrix::identity(2),
            input: Matrix::identity(2),
            previous_input: 0.0,
        };
        assert!(design_lqr(&sys, &bad_input, ws).is_err());
        let bad_prev = LqrWeights {
            state: Matrix::identity(2),
            input: Matrix::identity(1),
            previous_input: -1.0,
        };
        assert!(design_lqr(&sys, &bad_prev, ws).is_err());
    }

    #[test]
    fn switched_pair_gives_two_stable_loops() {
        let plant = plants::servo_position();
        let et_weights = LqrWeights::identity_with_input_weight(2, 10.0);
        let tt_weights = LqrWeights::identity_with_input_weight(2, 0.01);
        let pair = design_switched_pair(
            &plant,
            0.02,
            0.02,
            0.0007,
            &et_weights,
            &tt_weights,
            &mut DesignWorkspace::new(),
        )
        .unwrap();
        assert!(spectral_radius(pair.a1()).unwrap() < 1.0);
        assert!(spectral_radius(pair.a2()).unwrap() < 1.0);
        assert_eq!(pair.a1().shape(), pair.a2().shape());
        assert_eq!(pair.plant_order(), 2);
    }

    #[test]
    fn tt_loop_decays_faster_than_et_loop() {
        let ws = &mut DesignWorkspace::new();
        // On the servo rig, the TT controller is designed an order of
        // magnitude faster than the deliberately detuned ET controller, so
        // its closed loop must reject a disturbance in fewer samples.
        let plant = plants::servo_rig_upright();
        let et_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.02, ws).unwrap();
        let tt_sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0007, ws).unwrap();
        let et = design_by_pole_placement(&et_sys, &[-0.7, -0.8, -40.0]).unwrap();
        let tt = design_by_pole_placement(&tt_sys, &[-6.0, -8.0, -40.0]).unwrap();
        let x0 = [0.5, 0.0, 0.0];
        let tt_settle =
            crate::response::response_time(tt.closed_loop(), &x0, 2, 0.1, 0.02, 10_000).unwrap();
        let et_settle =
            crate::response::response_time(et.closed_loop(), &x0, 2, 0.1, 0.02, 10_000).unwrap();
        assert!(tt_settle < et_settle, "tt = {tt_settle}, et = {et_settle}");
    }

    #[test]
    fn pole_placement_design_on_servo_rig() {
        let plant = plants::servo_rig_upright();
        let sys =
            DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0007, &mut DesignWorkspace::new())
                .unwrap();
        let ctrl = design_by_pole_placement(&sys, &[-6.0, -8.0, -40.0]).unwrap();
        assert!(spectral_radius(ctrl.closed_loop()).unwrap() < 1.0);
        assert_eq!(ctrl.gain().shape(), (1, 3));

        // Validation paths.
        assert!(design_by_pole_placement(&sys, &[-6.0, -8.0]).is_err());
        assert!(design_by_pole_placement(&sys, &[-6.0, 0.5, -40.0]).is_err());
        assert!(design_by_pole_placement(&sys, &[-6.0, f64::NAN, -40.0]).is_err());
    }

    #[test]
    fn identity_weights_constructor() {
        let w = LqrWeights::identity_with_input_weight(3, 2.0);
        assert_eq!(w.state, Matrix::identity(3));
        assert_eq!(w.input[(0, 0)], 2.0);
        assert!(w.previous_input > 0.0);
    }
}
