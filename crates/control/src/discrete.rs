//! Discrete-time LTI systems obtained by zero-order-hold sampling.

use crate::continuous::ContinuousStateSpace;
use crate::error::{ControlError, Result};
use cps_linalg::{discretize_zoh, eigenvalues, is_schur_stable, Complex, ExpmWorkspace, Matrix};

/// A discrete-time LTI system `x[k+1] = Φ·x[k] + Γ·u[k]`, `y[k] = C·x[k]`,
/// with an associated sampling period `h`.
///
/// This is the *delay-free* sampled model; the paper's delayed-input model of
/// Eq. (1) lives in [`crate::DelayedLtiSystem`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteStateSpace {
    phi: Matrix,
    gamma: Matrix,
    c: Matrix,
    period: f64,
}

impl DiscreteStateSpace {
    /// Creates a discrete-time model from its matrices.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidModel`] on dimension mismatches or a
    /// non-positive sampling period.
    pub fn new(phi: Matrix, gamma: Matrix, c: Matrix, period: f64) -> Result<Self> {
        if !phi.is_square() {
            return Err(ControlError::InvalidModel {
                reason: format!("state matrix must be square, got {:?}", phi.shape()),
            });
        }
        if gamma.rows() != phi.rows() {
            return Err(ControlError::InvalidModel {
                reason: "input matrix row count must match the state dimension".to_string(),
            });
        }
        if c.cols() != phi.cols() {
            return Err(ControlError::InvalidModel {
                reason: "output matrix column count must match the state dimension".to_string(),
            });
        }
        if !(period > 0.0) || !period.is_finite() {
            return Err(ControlError::InvalidModel {
                reason: format!("sampling period must be positive and finite, got {period}"),
            });
        }
        Ok(DiscreteStateSpace { phi, gamma, c, period })
    }

    /// Discretises a continuous-time plant with a zero-order hold and no
    /// input delay.
    ///
    /// # Errors
    ///
    /// Propagates discretisation failures and parameter validation errors.
    pub fn from_continuous(plant: &ContinuousStateSpace, period: f64) -> Result<Self> {
        let mut workspace = ExpmWorkspace::new(plant.order() + plant.inputs());
        let (phi, gamma) = discretize_zoh(plant.a(), plant.b(), period, &mut workspace)?;
        Self::new(phi, gamma, plant.c().clone(), period)
    }

    /// State-transition matrix `Φ`.
    pub fn phi(&self) -> &Matrix {
        &self.phi
    }

    /// Input matrix `Γ`.
    pub fn gamma(&self) -> &Matrix {
        &self.gamma
    }

    /// Output matrix `C`.
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// Sampling period in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Number of states.
    pub fn order(&self) -> usize {
        self.phi.rows()
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.gamma.cols()
    }

    /// Discrete-time poles (eigenvalues of `Φ`).
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue-solver failures.
    pub fn poles(&self) -> Result<Vec<Complex>> {
        Ok(eigenvalues(&self.phi)?)
    }

    /// Returns `true` if the open-loop sampled system is Schur stable.
    ///
    /// # Errors
    ///
    /// Propagates eigenvalue-solver failures.
    pub fn is_stable(&self) -> Result<bool> {
        Ok(is_schur_stable(&self.phi)?)
    }

    /// Advances the state one step: `x⁺ = Φ·x + Γ·u`.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `state` or `input` have the wrong lengths.
    pub fn step(&self, state: &[f64], input: &[f64]) -> Result<Vec<f64>> {
        let free = self.phi.matvec(state)?;
        let forced = self.gamma.matvec(input)?;
        Ok(free.iter().zip(&forced).map(|(a, b)| a + b).collect())
    }

    /// Output equation `y = C·x`.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `state` has the wrong length.
    pub fn output(&self, state: &[f64]) -> Result<Vec<f64>> {
        Ok(self.c.matvec(state)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plants;

    #[test]
    fn from_continuous_preserves_stability_character() {
        // The damped spring servo is stable; the upright rig is unstable.
        let stable = DiscreteStateSpace::from_continuous(&plants::servo_position(), 0.02).unwrap();
        assert_eq!(stable.order(), 2);
        assert_eq!(stable.inputs(), 1);
        assert!((stable.period() - 0.02).abs() < 1e-15);
        assert!(stable.is_stable().unwrap());
        assert_eq!(stable.poles().unwrap().len(), 2);

        let unstable =
            DiscreteStateSpace::from_continuous(&plants::servo_rig_upright(), 0.02).unwrap();
        assert!(!unstable.is_stable().unwrap());
    }

    #[test]
    fn validation() {
        let phi = Matrix::identity(2);
        let gamma = Matrix::column(&[1.0, 0.0]).unwrap();
        let c = Matrix::identity(2);
        assert!(DiscreteStateSpace::new(Matrix::zeros(2, 3), gamma.clone(), c.clone(), 0.01).is_err());
        assert!(DiscreteStateSpace::new(phi.clone(), Matrix::column(&[1.0]).unwrap(), c.clone(), 0.01)
            .is_err());
        assert!(DiscreteStateSpace::new(phi.clone(), gamma.clone(), Matrix::identity(3), 0.01).is_err());
        assert!(DiscreteStateSpace::new(phi.clone(), gamma.clone(), c.clone(), 0.0).is_err());
        assert!(DiscreteStateSpace::new(phi, gamma, c, f64::NAN).is_err());
    }

    #[test]
    fn step_and_output() {
        let sys = DiscreteStateSpace::new(
            Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]]).unwrap(),
            Matrix::column(&[0.005, 0.1]).unwrap(),
            Matrix::from_rows(&[&[1.0, 0.0]]).unwrap(),
            0.1,
        )
        .unwrap();
        let next = sys.step(&[1.0, 0.0], &[2.0]).unwrap();
        assert!((next[0] - 1.01).abs() < 1e-12);
        assert!((next[1] - 0.2).abs() < 1e-12);
        assert_eq!(sys.output(&[3.0, 4.0]).unwrap(), vec![3.0]);
        assert!(sys.step(&[1.0], &[2.0]).is_err());
        assert!(sys.step(&[1.0, 0.0], &[2.0, 1.0]).is_err());
    }

    #[test]
    fn stable_first_order_system() {
        let sys = DiscreteStateSpace::new(
            Matrix::from_rows(&[&[0.9]]).unwrap(),
            Matrix::from_rows(&[&[0.1]]).unwrap(),
            Matrix::identity(1),
            0.01,
        )
        .unwrap();
        assert!(sys.is_stable().unwrap());
    }
}
