//! Matrix exponential and the zero-order-hold discretisation integrals
//! required to derive the paper's plant model (Eq. (1)) from continuous-time
//! dynamics.

use crate::error::{LinalgError, Result};
use crate::lu::Lu;
use crate::matrix::Matrix;

/// Pre-allocated temporaries for [`expm`], sized once for `n × n` matrices:
/// the scaled input, the Padé term ping-pong pair, the numerator/denominator
/// accumulators, the squaring scratch and the reusable LU factorisation of
/// the Padé denominator. Design loops that discretise many plants of the
/// same order reuse one workspace instead of allocating ~30 temporaries per
/// exponential.
#[derive(Debug, Clone)]
pub struct ExpmWorkspace {
    scaled: Matrix,
    term: Matrix,
    term_next: Matrix,
    numerator: Matrix,
    denominator: Matrix,
    square: Matrix,
    lu: Lu,
    column: Vec<f64>,
    solution: Vec<f64>,
}

impl ExpmWorkspace {
    /// Matrix order `n` the workspace was sized for.
    pub fn dim(&self) -> usize {
        self.term.rows()
    }

    /// Allocates a workspace for `n × n` exponentials.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        ExpmWorkspace {
            scaled: Matrix::zeros(n, n),
            term: Matrix::zeros(n, n),
            term_next: Matrix::zeros(n, n),
            numerator: Matrix::zeros(n, n),
            denominator: Matrix::zeros(n, n),
            square: Matrix::zeros(n, n),
            lu: Lu::workspace(n),
            column: vec![0.0; n],
            solution: vec![0.0; n],
        }
    }
}

/// Computes the matrix exponential `e^A` into `out`, using
/// scaling-and-squaring with a Padé(6,6) approximant.
///
/// Accuracy is more than sufficient for the small (≤ 10 state) control
/// matrices in this repository. Every temporary lives in the caller-provided
/// [`ExpmWorkspace`], so with a warm workspace the call performs no heap
/// allocation at all (the designer's steady-state loop, proved by
/// `tests/zero_alloc.rs`).
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `a` is rectangular.
/// * [`LinalgError::InvalidArgument`] if `a` contains non-finite entries.
/// * [`LinalgError::ShapeMismatch`] if the workspace was sized for a
///   different order or `out` has the wrong shape.
/// * [`LinalgError::Singular`] if the Padé denominator cannot be inverted
///   (does not happen for finite input after scaling).
///
/// # Example
///
/// ```
/// use cps_linalg::{expm, ExpmWorkspace, Matrix};
///
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]])?;
/// let mut e = Matrix::zeros(2, 2);
/// expm(&a, &mut ExpmWorkspace::new(2), &mut e)?;
/// // exp([[0,1],[0,0]]) = [[1,1],[0,1]]
/// assert!(e.approx_eq(&Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]])?, 1e-12));
/// # Ok::<(), cps_linalg::LinalgError>(())
/// ```
pub fn expm(a: &Matrix, workspace: &mut ExpmWorkspace, out: &mut Matrix) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape(), op: "expm" });
    }
    if !a.is_finite() {
        return Err(LinalgError::InvalidArgument {
            reason: "matrix contains non-finite entries".to_string(),
        });
    }
    let n = a.rows();
    if workspace.term.shape() != (n, n) {
        return Err(LinalgError::ShapeMismatch {
            left: (n, n),
            right: workspace.term.shape(),
            op: "expm workspace",
        });
    }
    if out.shape() != (n, n) {
        return Err(LinalgError::ShapeMismatch {
            left: (n, n),
            right: out.shape(),
            op: "expm output",
        });
    }
    let norm = a.inf_norm();
    let ws = workspace;

    // Scale so that the norm is below 0.5, compute the Padé approximant,
    // then square back.
    let mut squarings = 0u32;
    ws.scaled.copy_from(a)?;
    if norm > 0.5 {
        squarings = (norm / 0.5).log2().ceil() as u32;
        ws.scaled.scale_assign(1.0 / f64::powi(2.0, squarings as i32));
    }

    // Padé(6,6): p(A) / q(A) with q(A) = p(-A).
    const PADE_COEFFS: [f64; 7] =
        [1.0, 0.5, 0.1136363636363636, 0.015151515151515152, 0.0012626262626262627, 6.313131313131313e-5, 1.5031265031265032e-6];
    for r in 0..n {
        for c in 0..n {
            ws.term[(r, c)] = if r == c { 1.0 } else { 0.0 };
        }
    }
    ws.numerator.copy_from(&ws.term)?;
    ws.denominator.copy_from(&ws.term)?;
    let mut sign = 1.0;
    for &coeff in PADE_COEFFS.iter().skip(1) {
        let ExpmWorkspace { scaled, term, term_next, .. } = ws;
        term.matmul_into(scaled, term_next)?;
        std::mem::swap(&mut ws.term, &mut ws.term_next);
        sign = -sign;
        ws.numerator.add_assign_scaled(&ws.term, coeff)?;
        ws.denominator.add_assign_scaled(&ws.term, coeff * sign)?;
    }
    ws.lu.refactor(&ws.denominator)?;
    ws.lu.solve_matrix_into(&ws.numerator, out, &mut ws.column, &mut ws.solution)?;
    for _ in 0..squarings {
        out.matmul_into(out, &mut ws.square)?;
        std::mem::swap(out, &mut ws.square);
    }
    Ok(())
}

/// Zero-order-hold discretisation of the continuous-time pair `(A, B)` over a
/// step of `dt` seconds:
///
/// * `phi = e^{A·dt}`
/// * `gamma = ∫₀^{dt} e^{A·s} ds · B`
///
/// Both are computed simultaneously from the exponential of the augmented
/// matrix `[[A, B], [0, 0]]`, which is numerically robust even when `A` is
/// singular (pure integrators such as the servo-position plant). The
/// exponential runs on the caller-provided [`ExpmWorkspace`], sized for the
/// augmented order `n + m`, so design loops that discretise many plants of
/// the same order share one set of temporaries.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `a` is rectangular.
/// * [`LinalgError::ShapeMismatch`] if `b` has a different number of rows
///   than `a`, or the workspace was not sized for the augmented order
///   `n + m`.
/// * [`LinalgError::InvalidArgument`] if `dt` is not positive and finite.
pub fn discretize_zoh(
    a: &Matrix,
    b: &Matrix,
    dt: f64,
    workspace: &mut ExpmWorkspace,
) -> Result<(Matrix, Matrix)> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape(), op: "discretize_zoh" });
    }
    if b.rows() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "discretize_zoh",
        });
    }
    if !(dt > 0.0) || !dt.is_finite() {
        return Err(LinalgError::InvalidArgument {
            reason: format!("discretisation step must be positive and finite, got {dt}"),
        });
    }
    let n = a.rows();
    let m = b.cols();
    // Augmented matrix [[A, B], [0, 0]] * dt.
    let mut aug = Matrix::zeros(n + m, n + m);
    aug.set_block(0, 0, &a.scale(dt))?;
    aug.set_block(0, n, &b.scale(dt))?;
    let mut exp_aug = Matrix::zeros(n + m, n + m);
    expm(&aug, workspace, &mut exp_aug)?;
    let phi = exp_aug.block(0, 0, n, n)?;
    let gamma = exp_aug.block(0, n, n, m)?;
    Ok((phi, gamma))
}

/// Computes the partial zero-order-hold input integral
/// `∫_{t0}^{t1} e^{A·s} ds · B` for `0 ≤ t0 ≤ t1`.
///
/// This is exactly what is needed for the delayed-input model of the paper's
/// Eq. (1): with sensor-to-actuator delay `d ≤ h`,
/// `Γ₀ = ∫₀^{h−d} e^{A·s} ds · B` and `Γ₁ = ∫_{h−d}^{h} e^{A·s} ds · B`.
///
/// # Errors
///
/// Same conditions as [`discretize_zoh`] (the workspace is shared by its
/// two inner discretisations), plus [`LinalgError::InvalidArgument`] if
/// `t0 > t1` or `t0 < 0`.
pub fn input_integral(
    a: &Matrix,
    b: &Matrix,
    t0: f64,
    t1: f64,
    workspace: &mut ExpmWorkspace,
) -> Result<Matrix> {
    if t0 < 0.0 || t0 > t1 || !t0.is_finite() || !t1.is_finite() {
        return Err(LinalgError::InvalidArgument {
            reason: format!("integral bounds must satisfy 0 <= t0 <= t1, got [{t0}, {t1}]"),
        });
    }
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape(), op: "input_integral" });
    }
    if b.rows() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
            op: "input_integral",
        });
    }
    if t1 == 0.0 || (t1 - t0) == 0.0 {
        return Ok(Matrix::zeros(a.rows(), b.cols()));
    }
    // ∫_{t0}^{t1} e^{A s} ds B = ∫_0^{t1} ... − ∫_0^{t0} ...
    let (_, g1) = discretize_zoh(a, b, t1, workspace)?;
    if t0 == 0.0 {
        return Ok(g1);
    }
    let (_, g0) = discretize_zoh(a, b, t0, workspace)?;
    g1.sub_matrix(&g0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `e^A` on a fresh workspace.
    fn expm_fresh(a: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(a.rows(), a.cols());
        expm(a, &mut ExpmWorkspace::new(a.rows()), &mut out)?;
        Ok(out)
    }

    /// A fresh workspace for the augmented order of the pair `(a, b)`.
    fn fresh(a: &Matrix, b: &Matrix) -> ExpmWorkspace {
        ExpmWorkspace::new(a.rows() + b.cols())
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let z = Matrix::zeros(3, 3);
        assert!(expm_fresh(&z).unwrap().approx_eq(&Matrix::identity(3), 1e-14));
    }

    #[test]
    fn expm_of_diagonal() {
        let a = Matrix::diagonal(&[1.0, -2.0]).unwrap();
        let e = expm_fresh(&a).unwrap();
        assert!((e[(0, 0)] - 1f64.exp()).abs() < 1e-10);
        assert!((e[(1, 1)] - (-2f64).exp()).abs() < 1e-10);
        assert!(e[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn expm_of_rotation_matches_closed_form() {
        // exp([[0, -w], [w, 0]] t) = [[cos wt, -sin wt], [sin wt, cos wt]]
        let w = 2.0;
        let a = Matrix::from_rows(&[&[0.0, -w], &[w, 0.0]]).unwrap();
        let e = expm_fresh(&a).unwrap();
        assert!((e[(0, 0)] - w.cos()).abs() < 1e-9);
        assert!((e[(1, 0)] - w.sin()).abs() < 1e-9);
    }

    #[test]
    fn expm_large_norm_uses_squaring() {
        let a = Matrix::diagonal(&[5.0, -5.0]).unwrap();
        let e = expm_fresh(&a).unwrap();
        assert!((e[(0, 0)] - 5f64.exp()).abs() / 5f64.exp() < 1e-9);
        assert!((e[(1, 1)] - (-5f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn expm_with_workspace_is_bit_identical_and_reusable() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-4.0, -0.8]]).unwrap();
        let big = Matrix::diagonal(&[5.0, -5.0]).unwrap();
        let fresh_a = expm_fresh(&a).unwrap();
        let fresh_big = expm_fresh(&big).unwrap();
        // One reused workspace (and output), warmed on the squaring path of
        // `big` first, reproduces the fresh-workspace results bit for bit.
        let mut ws = ExpmWorkspace::new(2);
        let mut out = Matrix::zeros(2, 2);
        expm(&big, &mut ws, &mut out).unwrap();
        assert_eq!(out, fresh_big);
        expm(&a, &mut ws, &mut out).unwrap();
        assert_eq!(out, fresh_a);
        expm(&big, &mut ws, &mut out).unwrap();
        assert_eq!(out, fresh_big);
        // A workspace warmed on another order rejects the matrix, as does a
        // wrongly shaped output.
        let mut wrong = ExpmWorkspace::new(3);
        let mut out3 = Matrix::zeros(3, 3);
        expm(&Matrix::identity(3), &mut wrong, &mut out3).unwrap();
        assert!(expm(&a, &mut wrong, &mut out).is_err());
        assert!(expm(&a, &mut ws, &mut out3).is_err());
    }

    #[test]
    fn expm_rejects_bad_input() {
        assert!(expm_fresh(&Matrix::zeros(2, 3)).is_err());
        let mut nan = Matrix::identity(2);
        nan[(1, 1)] = f64::INFINITY;
        assert!(expm_fresh(&nan).is_err());
    }

    #[test]
    fn zoh_double_integrator_matches_closed_form() {
        // Double integrator: A = [[0,1],[0,0]], B = [[0],[1]].
        // phi = [[1, h], [0, 1]], gamma = [[h^2/2], [h]].
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 0.0]]).unwrap();
        let b = Matrix::column(&[0.0, 1.0]).unwrap();
        let h = 0.02;
        let (phi, gamma) = discretize_zoh(&a, &b, h, &mut fresh(&a, &b)).unwrap();
        assert!((phi[(0, 1)] - h).abs() < 1e-12);
        assert!((gamma[(0, 0)] - h * h / 2.0).abs() < 1e-12);
        assert!((gamma[(1, 0)] - h).abs() < 1e-12);
    }

    #[test]
    fn zoh_first_order_lag_matches_closed_form() {
        // dx = -a x + b u: phi = e^{-a h}, gamma = b (1 - e^{-a h}) / a.
        let a_coeff = 3.0;
        let b_coeff = 2.0;
        let a = Matrix::from_rows(&[&[-a_coeff]]).unwrap();
        let b = Matrix::from_rows(&[&[b_coeff]]).unwrap();
        let h = 0.1;
        let (phi, gamma) = discretize_zoh(&a, &b, h, &mut fresh(&a, &b)).unwrap();
        assert!((phi[(0, 0)] - (-a_coeff * h).exp()).abs() < 1e-10);
        assert!((gamma[(0, 0)] - b_coeff * (1.0 - (-a_coeff * h).exp()) / a_coeff).abs() < 1e-10);
    }

    #[test]
    fn zoh_rejects_bad_arguments() {
        let a = Matrix::identity(2);
        let b = Matrix::column(&[1.0, 0.0]).unwrap();
        let mut ws = fresh(&a, &b);
        assert!(discretize_zoh(&a, &b, 0.0, &mut ws).is_err());
        assert!(discretize_zoh(&a, &b, f64::NAN, &mut ws).is_err());
        assert!(discretize_zoh(&a, &Matrix::column(&[1.0]).unwrap(), 0.1, &mut ws).is_err());
        assert!(discretize_zoh(&Matrix::zeros(2, 3), &b, 0.1, &mut ws).is_err());
        // A workspace sized for another augmented order is rejected.
        assert!(discretize_zoh(&a, &b, 0.1, &mut ExpmWorkspace::new(2)).is_err());
    }

    #[test]
    fn input_integral_splits_the_full_interval() {
        // Γ₀ + Γ₁ must equal the full ZOH gamma for any split point.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[-4.0, -0.8]]).unwrap();
        let b = Matrix::column(&[0.0, 1.5]).unwrap();
        let h = 0.02;
        let d = 0.007;
        let mut ws = fresh(&a, &b);
        let (_, gamma_full) = discretize_zoh(&a, &b, h, &mut ws).unwrap();
        let gamma0 = input_integral(&a, &b, 0.0, h - d, &mut ws).unwrap();
        let gamma1 = input_integral(&a, &b, h - d, h, &mut ws).unwrap();
        let sum = gamma0.add_matrix(&gamma1).unwrap();
        assert!(sum.approx_eq(&gamma_full, 1e-10));
    }

    #[test]
    fn input_integral_degenerate_bounds() {
        let a = Matrix::identity(2);
        let b = Matrix::column(&[1.0, 1.0]).unwrap();
        let mut ws = fresh(&a, &b);
        let zero = input_integral(&a, &b, 0.01, 0.01, &mut ws).unwrap();
        assert!(zero.approx_eq(&Matrix::zeros(2, 1), 1e-15));
        assert!(input_integral(&a, &b, 0.02, 0.01, &mut ws).is_err());
        assert!(input_integral(&a, &b, -0.1, 0.01, &mut ws).is_err());
        // A rectangular `a` is rejected whatever the bounds, including the
        // zero-width interval that returns early.
        let rect = Matrix::zeros(2, 3);
        let col = Matrix::zeros(2, 1);
        for (t0, t1) in [(0.01, 0.01), (0.0, 0.01), (0.0, 0.0)] {
            assert!(matches!(
                input_integral(&rect, &col, t0, t1, &mut ws),
                Err(LinalgError::NotSquare { shape: (2, 3), op: "input_integral" })
            ));
        }
    }
}
