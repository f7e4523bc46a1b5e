//! The paper's delayed-input sampled plant model (Eq. (1)) and its
//! delay-augmented state-space form.
//!
//! For a continuous-time plant `ẋ = A·x + B·u` sampled with period `h` and a
//! constant sensor-to-actuator delay `d ≤ h`, the exact sampled model is
//!
//! ```text
//! x[k+1] = Φ·x[k] + Γ₀·u[k] + Γ₁·u[k−1]
//!   Φ  = e^{A·h}
//!   Γ₀ = ∫₀^{h−d} e^{A·s} ds · B      (portion driven by the fresh input)
//!   Γ₁ = ∫_{h−d}^{h} e^{A·s} ds · B   (portion still driven by the old input)
//! ```
//!
//! Augmenting the state with the previous input, `z[k] = [x[k]; u[k−1]]`,
//! yields an ordinary LTI system on which standard state-feedback design
//! applies:
//!
//! ```text
//! z[k+1] = [[Φ, Γ₁], [0, 0]]·z[k] + [[Γ₀], [I]]·u[k]
//! ```
//!
//! Both the event-triggered loop (worst-case delay, here `d = h`) and the
//! time-triggered loop (small deterministic delay) are represented this way so
//! that the two closed-loop matrices `A₁`/`A₂` of Section III act on the same
//! augmented state and can be switched freely.

use crate::continuous::ContinuousStateSpace;
use crate::design::DesignWorkspace;
use crate::error::{ControlError, Result};
use cps_linalg::{expm, input_integral, vec_norm, Matrix};

/// Sampled plant with a constant sensor-to-actuator delay (paper Eq. (1)).
#[derive(Debug, Clone, PartialEq)]
pub struct DelayedLtiSystem {
    phi: Matrix,
    gamma0: Matrix,
    gamma1: Matrix,
    c: Matrix,
    period: f64,
    delay: f64,
    n_states: usize,
    n_inputs: usize,
}

impl DelayedLtiSystem {
    /// Discretises `plant` with sampling period `period` and sensor-to-actuator
    /// delay `delay`.
    ///
    /// The matrix exponentials run on the caller-provided [`DesignWorkspace`],
    /// so a fleet-design loop shares their temporaries across all of its
    /// discretisations; a one-off call passes `&mut DesignWorkspace::new()`.
    /// The model is bit-identical for any (warm or fresh) workspace.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] if `period <= 0`, `delay < 0`,
    /// `delay > period`, or any of the quantities is non-finite; linear
    /// algebra failures are propagated.
    pub fn from_continuous(
        plant: &ContinuousStateSpace,
        period: f64,
        delay: f64,
        workspace: &mut DesignWorkspace,
    ) -> Result<Self> {
        if !(period > 0.0) || !period.is_finite() {
            return Err(ControlError::InvalidModel {
                reason: format!("sampling period must be positive and finite, got {period}"),
            });
        }
        if !(0.0..=period).contains(&delay) || !delay.is_finite() {
            return Err(ControlError::InvalidModel {
                reason: format!(
                    "delay must satisfy 0 <= d <= h (h = {period}), got {delay}"
                ),
            });
        }
        let a = plant.a();
        let b = plant.b();
        let mut phi = Matrix::zeros(plant.order(), plant.order());
        expm(&a.scale(period), workspace.expm(plant.order()), &mut phi)?;
        let aug = workspace.expm(plant.order() + plant.inputs());
        let gamma0 = input_integral(a, b, 0.0, period - delay, aug)?;
        let gamma1 = input_integral(a, b, period - delay, period, aug)?;
        Ok(DelayedLtiSystem {
            phi,
            gamma0,
            gamma1,
            c: plant.c().clone(),
            period,
            delay,
            n_states: plant.order(),
            n_inputs: plant.inputs(),
        })
    }

    /// State-transition matrix `Φ`.
    pub fn phi(&self) -> &Matrix {
        &self.phi
    }

    /// Fresh-input matrix `Γ₀`.
    pub fn gamma0(&self) -> &Matrix {
        &self.gamma0
    }

    /// Delayed-input matrix `Γ₁`.
    pub fn gamma1(&self) -> &Matrix {
        &self.gamma1
    }

    /// Output matrix `C`.
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// Sampling period `h` in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Sensor-to-actuator delay `d` in seconds.
    pub fn delay(&self) -> f64 {
        self.delay
    }

    /// Number of plant states (without the input augmentation).
    pub fn plant_order(&self) -> usize {
        self.n_states
    }

    /// Number of control inputs.
    pub fn inputs(&self) -> usize {
        self.n_inputs
    }

    /// Dimension of the delay-augmented state `z = [x; u_prev]`.
    pub fn augmented_order(&self) -> usize {
        self.n_states + self.n_inputs
    }

    /// Delay-augmented state-transition matrix `[[Φ, Γ₁], [0, 0]]`.
    ///
    /// # Errors
    ///
    /// Propagates matrix-assembly failures.
    pub fn augmented_a(&self) -> Result<Matrix> {
        let n = self.n_states;
        let m = self.n_inputs;
        let mut a = Matrix::zeros(n + m, n + m);
        a.set_block(0, 0, &self.phi)?;
        a.set_block(0, n, &self.gamma1)?;
        Ok(a)
    }

    /// Delay-augmented input matrix `[[Γ₀], [I]]`.
    ///
    /// # Errors
    ///
    /// Propagates matrix-assembly failures.
    pub fn augmented_b(&self) -> Result<Matrix> {
        let n = self.n_states;
        let m = self.n_inputs;
        let mut b = Matrix::zeros(n + m, m);
        b.set_block(0, 0, &self.gamma0)?;
        b.set_block(n, 0, &Matrix::identity(m))?;
        Ok(b)
    }

    /// Builds the closed-loop matrix `A_cl = A_aug − B_aug·K` for a
    /// state-feedback gain `K` acting on the augmented state.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] if `K` has the wrong shape.
    pub fn closed_loop(&self, gain: &Matrix) -> Result<Matrix> {
        if gain.shape() != (self.n_inputs, self.augmented_order()) {
            return Err(ControlError::InvalidModel {
                reason: format!(
                    "gain must be {}x{}, got {:?}",
                    self.n_inputs,
                    self.augmented_order(),
                    gain.shape()
                ),
            });
        }
        let a = self.augmented_a()?;
        let b = self.augmented_b()?;
        Ok(a.sub_matrix(&b.matmul(gain)?)?)
    }

    /// Advances the plant one sampling period:
    /// `x⁺ = Φ·x + Γ₀·u + Γ₁·u_prev`.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the slices have the wrong lengths.
    pub fn step(&self, state: &[f64], input: &[f64], previous_input: &[f64]) -> Result<Vec<f64>> {
        let free = self.phi.matvec(state)?;
        let fresh = self.gamma0.matvec(input)?;
        let old = self.gamma1.matvec(previous_input)?;
        Ok(free
            .iter()
            .zip(&fresh)
            .zip(&old)
            .map(|((a, b), c)| a + b + c)
            .collect())
    }
}

/// Euclidean norm of the *plant* portion of an augmented state vector.
///
/// The paper's switching condition `‖x‖ > E_th` is evaluated on the physical
/// plant states only, not on the memorised previous input, so simulations on
/// the augmented state must project before taking the norm.
pub fn plant_state_norm(augmented_state: &[f64], plant_order: usize) -> f64 {
    vec_norm(&augmented_state[..plant_order.min(augmented_state.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plants;
    use cps_linalg::{discretize_zoh, ExpmWorkspace};

    /// Plain zero-delay ZOH discretisation on a fresh workspace.
    fn zoh(plant: &ContinuousStateSpace, h: f64) -> (Matrix, Matrix) {
        let mut ws = ExpmWorkspace::new(plant.order() + plant.inputs());
        discretize_zoh(plant.a(), plant.b(), h, &mut ws).unwrap()
    }

    #[test]
    fn zero_delay_matches_plain_zoh() {
        let plant = plants::dc_motor_speed();
        let sys = DelayedLtiSystem::from_continuous(&plant, 0.02, 0.0, &mut DesignWorkspace::new())
            .unwrap();
        let (phi, gamma) = zoh(&plant, 0.02);
        assert!(sys.phi().approx_eq(&phi, 1e-12));
        assert!(sys.gamma0().approx_eq(&gamma, 1e-12));
        assert!(sys.gamma1().max_abs() < 1e-15);
    }

    #[test]
    fn full_delay_moves_all_input_to_gamma1() {
        let plant = plants::dc_motor_speed();
        let h = 0.02;
        let sys =
            DelayedLtiSystem::from_continuous(&plant, h, h, &mut DesignWorkspace::new()).unwrap();
        let (_, gamma) = zoh(&plant, h);
        assert!(sys.gamma0().max_abs() < 1e-15);
        assert!(sys.gamma1().approx_eq(&gamma, 1e-12));
    }

    #[test]
    fn gamma_split_sums_to_full_input_matrix() {
        let plant = plants::servo_position();
        let h = 0.02;
        let d = 0.0007;
        let sys =
            DelayedLtiSystem::from_continuous(&plant, h, d, &mut DesignWorkspace::new()).unwrap();
        let (_, gamma) = zoh(&plant, h);
        let sum = sys.gamma0().add_matrix(sys.gamma1()).unwrap();
        assert!(sum.approx_eq(&gamma, 1e-10));
        assert!((sys.period() - h).abs() < 1e-15);
        assert!((sys.delay() - d).abs() < 1e-15);
    }

    #[test]
    fn augmented_matrices_have_expected_structure() {
        let plant = plants::servo_position();
        let sys =
            DelayedLtiSystem::from_continuous(&plant, 0.02, 0.01, &mut DesignWorkspace::new())
                .unwrap();
        let a = sys.augmented_a().unwrap();
        let b = sys.augmented_b().unwrap();
        assert_eq!(a.shape(), (3, 3));
        assert_eq!(b.shape(), (3, 1));
        // Bottom block row of A is zero, bottom of B is identity.
        assert_eq!(a[(2, 0)], 0.0);
        assert_eq!(a[(2, 2)], 0.0);
        assert_eq!(b[(2, 0)], 1.0);
        assert_eq!(sys.augmented_order(), 3);
        assert_eq!(sys.plant_order(), 2);
        assert_eq!(sys.inputs(), 1);
    }

    #[test]
    fn parameter_validation() {
        let plant = plants::servo_position();
        let ws = &mut DesignWorkspace::new();
        assert!(DelayedLtiSystem::from_continuous(&plant, 0.0, 0.0, ws).is_err());
        assert!(DelayedLtiSystem::from_continuous(&plant, 0.02, -0.001, ws).is_err());
        assert!(DelayedLtiSystem::from_continuous(&plant, 0.02, 0.03, ws).is_err());
        assert!(DelayedLtiSystem::from_continuous(&plant, f64::NAN, 0.0, ws).is_err());
    }

    #[test]
    fn closed_loop_shape_check() {
        let plant = plants::servo_position();
        let sys =
            DelayedLtiSystem::from_continuous(&plant, 0.02, 0.01, &mut DesignWorkspace::new())
                .unwrap();
        let bad_gain = Matrix::zeros(1, 2);
        assert!(sys.closed_loop(&bad_gain).is_err());
        let gain = Matrix::zeros(1, 3);
        let a_cl = sys.closed_loop(&gain).unwrap();
        assert!(a_cl.approx_eq(&sys.augmented_a().unwrap(), 1e-15));
    }

    #[test]
    fn step_matches_augmented_dynamics() {
        let plant = plants::servo_position();
        let sys =
            DelayedLtiSystem::from_continuous(&plant, 0.02, 0.01, &mut DesignWorkspace::new())
                .unwrap();
        let x = [0.3, -0.1];
        let u = [0.5];
        let u_prev = [-0.2];
        let direct = sys.step(&x, &u, &u_prev).unwrap();

        let a = sys.augmented_a().unwrap();
        let b = sys.augmented_b().unwrap();
        let z = [x[0], x[1], u_prev[0]];
        let az = a.matvec(&z).unwrap();
        let bu = b.matvec(&u).unwrap();
        for i in 0..2 {
            assert!((direct[i] - (az[i] + bu[i])).abs() < 1e-12);
        }
        assert!(sys.step(&x, &[0.5, 0.1], &u_prev).is_err());
    }

    #[test]
    fn plant_state_norm_projects_augmentation_away() {
        let z = [3.0, 4.0, 100.0];
        assert!((plant_state_norm(&z, 2) - 5.0).abs() < 1e-12);
        assert!((plant_state_norm(&z, 3) - (9.0f64 + 16.0 + 10_000.0).sqrt()).abs() < 1e-12);
        // Degenerate: plant order larger than the vector falls back gracefully.
        assert!((plant_state_norm(&[3.0, 4.0], 5) - 5.0).abs() < 1e-12);
    }
}
