//! Discrete-time algebraic Riccati equation (DARE) solver and the LQR gain
//! computation built on it.
//!
//! The paper designs the event-triggered and time-triggered state-feedback
//! controllers "using optimal control principles" (Section II-B, refs [9],
//! [10]); in this reproduction that is an infinite-horizon discrete LQR.

use crate::error::{LinalgError, Result};
use crate::lu::Lu;
use crate::matrix::Matrix;

/// Options controlling the fixed-point DARE iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DareOptions {
    /// Maximum number of Riccati recursion steps.
    pub max_iterations: usize,
    /// Convergence threshold on the max-abs difference between successive
    /// iterates.
    pub tolerance: f64,
}

impl Default for DareOptions {
    fn default() -> Self {
        DareOptions { max_iterations: 20_000, tolerance: 1e-11 }
    }
}

/// Solves the discrete-time algebraic Riccati equation
///
/// `P = AᵀPA − AᵀPB (R + BᵀPB)⁻¹ BᵀPA + Q`
///
/// by iterating the finite-horizon Riccati recursion to convergence (value
/// iteration). For stabilisable `(A, B)` and detectable `(A, Q^{1/2})` the
/// recursion converges to the unique stabilising solution.
///
/// The solution is left in the caller-provided [`RiccatiWorkspace`]
/// ([`RiccatiWorkspace::solution`]), which also holds every temporary of the
/// recursion: with a warm workspace a solve performs no heap allocation at
/// all (proved by `tests/zero_alloc.rs`). Produces exactly the values of
/// [`solve_dare_reference`] (every inner operation is the in-place variant
/// of the corresponding allocating one).
///
/// # Errors
///
/// * Shape errors if the operands are malformed.
/// * [`LinalgError::ShapeMismatch`] if the workspace was sized for different
///   dimensions.
/// * [`LinalgError::InvalidArgument`] if `Q` or `R` is not symmetric.
/// * [`LinalgError::Singular`] if `R + BᵀPB` becomes singular.
/// * [`LinalgError::NotConverged`] if the recursion does not converge (for
///   example because the pair is not stabilisable).
pub fn solve_dare(
    a: &Matrix,
    b: &Matrix,
    q: &Matrix,
    r: &Matrix,
    options: DareOptions,
    workspace: &mut RiccatiWorkspace,
) -> Result<()> {
    validate_lqr_shapes(a, b, q, r)?;
    workspace.check(a.rows(), b.cols())?;
    workspace.p.copy_from(q)?;
    for iteration in 0..options.max_iterations {
        riccati_step_into(a, b, q, r, workspace)?;
        let ws = &mut *workspace;
        let delta = max_abs_difference(&ws.next, &ws.p);
        ws.p.copy_from(&ws.next)?;
        if delta < options.tolerance {
            // Symmetrise to clean up round-off before returning; the in-place
            // ops reproduce `(P + Pᵀ) · 0.5` of the reference path bit for
            // bit (`x + 1.0·y` is exactly `x + y`).
            let RiccatiWorkspace { p, pt, .. } = ws;
            p.transpose_into(pt)?;
            p.add_assign_scaled(pt, 1.0)?;
            p.scale_assign(0.5);
            return Ok(());
        }
        // Guard against runaway divergence early.
        if !ws.p.is_finite() {
            return Err(LinalgError::NotConverged {
                algorithm: "dare value iteration",
                iterations: iteration + 1,
            });
        }
    }
    Err(LinalgError::NotConverged {
        algorithm: "dare value iteration",
        iterations: options.max_iterations,
    })
}

/// The original, allocating DARE recursion, kept as the numerical reference
/// for the workspace path: `solve_dare` must reproduce its output bit for
/// bit (asserted by the test suite and measurable by the design benches).
///
/// # Errors
///
/// As [`solve_dare`].
pub fn solve_dare_reference(
    a: &Matrix,
    b: &Matrix,
    q: &Matrix,
    r: &Matrix,
    options: DareOptions,
) -> Result<Matrix> {
    validate_lqr_shapes(a, b, q, r)?;
    let mut p = q.clone();
    for iteration in 0..options.max_iterations {
        let next = riccati_step_reference(a, b, q, r, &p)?;
        let delta = next.sub_matrix(&p)?.max_abs();
        p = next;
        if delta < options.tolerance {
            return p.add_matrix(&p.transpose()).map(|s| s.scale(0.5));
        }
        if !p.is_finite() {
            return Err(LinalgError::NotConverged {
                algorithm: "dare value iteration",
                iterations: iteration + 1,
            });
        }
    }
    Err(LinalgError::NotConverged {
        algorithm: "dare value iteration",
        iterations: options.max_iterations,
    })
}

/// `max |left - right|` without materialising the difference matrix; the
/// shapes are validated by the callers.
fn max_abs_difference(left: &Matrix, right: &Matrix) -> f64 {
    left.as_slice()
        .iter()
        .zip(right.as_slice())
        .fold(0.0, |acc, (l, r)| acc.max((l - r).abs()))
}

/// Pre-allocated temporaries for the Riccati iteration step /
/// [`solve_dare`] / [`dlqr`], sized once for an `n`-state, `m`-input
/// problem.
///
/// One workspace serves any number of designs with the same dimensions —
/// the sweep workloads (threshold re-design, fleet variants) construct it
/// once per thread.
#[derive(Debug, Clone)]
pub struct RiccatiWorkspace {
    /// `Aᵀ` (n × n).
    at: Matrix,
    /// `Bᵀ` (m × n).
    bt: Matrix,
    /// `P·A` (n × n).
    pa: Matrix,
    /// `P·B` (n × m).
    pb: Matrix,
    /// `Bᵀ·P·B` (m × m).
    btpb: Matrix,
    /// `R + Bᵀ·P·B` (m × m).
    gram: Matrix,
    /// `Bᵀ·P·A` (m × n).
    btpa: Matrix,
    /// `(R + BᵀPB)⁻¹·BᵀPA` (m × n).
    gain: Matrix,
    /// `Aᵀ·P·A` (n × n).
    atpa: Matrix,
    /// `Aᵀ·P·B` (n × m).
    atpb: Matrix,
    /// `AᵀPB·gain` (n × n).
    correction: Matrix,
    /// The next Riccati iterate (n × n).
    next: Matrix,
    /// `Bᵀ·P` (m × n), used by the final gain computation of [`dlqr`].
    btp: Matrix,
    /// The current Riccati iterate; after a successful [`solve_dare`] it
    /// holds the stabilising DARE solution
    /// ([`RiccatiWorkspace::solution`]).
    p: Matrix,
    /// `Pᵀ` scratch for the final in-place symmetrisation (n × n).
    pt: Matrix,
    /// Reusable LU factorisation of the Gram matrix.
    lu: Lu,
    /// Column scratch for the matrix solve.
    column: Vec<f64>,
    /// Solution scratch for the matrix solve.
    solution: Vec<f64>,
}

impl RiccatiWorkspace {
    /// Allocates a workspace for an `n`-state, `m`-input problem.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `m == 0`.
    pub fn new(n: usize, m: usize) -> Self {
        RiccatiWorkspace {
            at: Matrix::zeros(n, n),
            bt: Matrix::zeros(m, n),
            pa: Matrix::zeros(n, n),
            pb: Matrix::zeros(n, m),
            btpb: Matrix::zeros(m, m),
            gram: Matrix::zeros(m, m),
            btpa: Matrix::zeros(m, n),
            gain: Matrix::zeros(m, n),
            atpa: Matrix::zeros(n, n),
            atpb: Matrix::zeros(n, m),
            correction: Matrix::zeros(n, n),
            next: Matrix::zeros(n, n),
            btp: Matrix::zeros(m, n),
            p: Matrix::zeros(n, n),
            pt: Matrix::zeros(n, n),
            lu: Lu::workspace(m),
            column: vec![0.0; m],
            solution: vec![0.0; m],
        }
    }

    /// Dimensions `(n, m)` the workspace was sized for.
    pub fn dims(&self) -> (usize, usize) {
        (self.at.rows(), self.bt.rows())
    }

    /// The DARE solution left behind by the last successful [`solve_dare`]
    /// (all-zero before the first solve).
    pub fn solution(&self) -> &Matrix {
        &self.p
    }

    /// Verifies the workspace was sized for an `n`-state, `m`-input problem.
    fn check(&self, n: usize, m: usize) -> Result<()> {
        if self.at.shape() != (n, n) || self.bt.shape() != (m, n) {
            return Err(LinalgError::ShapeMismatch {
                left: (n, m),
                right: (self.at.rows(), self.bt.rows()),
                op: "riccati workspace",
            });
        }
        Ok(())
    }
}

/// One step of the Riccati recursion, reading the current iterate from
/// `ws.p` and writing the next one into `ws.next`:
/// `P⁺ = AᵀPA − AᵀPB (R + BᵀPB)⁻¹ BᵀPA + Q`, allocation-free.
///
/// Every operation is the `_into` twin of the allocating op in
/// [`riccati_step_reference`], so the result is bit-identical.
fn riccati_step_into(
    a: &Matrix,
    b: &Matrix,
    q: &Matrix,
    r: &Matrix,
    workspace: &mut RiccatiWorkspace,
) -> Result<()> {
    let RiccatiWorkspace {
        at,
        bt,
        pa,
        pb,
        btpb,
        gram,
        btpa,
        gain,
        atpa,
        atpb,
        correction,
        next,
        p,
        lu,
        column,
        solution,
        ..
    } = workspace;
    a.transpose_into(at)?;
    b.transpose_into(bt)?;
    p.matmul_into(a, pa)?;
    p.matmul_into(b, pb)?;
    bt.matmul_into(pb, btpb)?;
    gram.copy_from(r)?;
    gram.add_assign_scaled(btpb, 1.0)?;
    bt.matmul_into(pa, btpa)?;
    lu.refactor(gram)?;
    lu.solve_matrix_into(btpa, gain, column, solution)?;
    at.matmul_into(pa, atpa)?;
    at.matmul_into(pb, atpb)?;
    atpb.matmul_into(gain, correction)?;
    next.copy_from(atpa)?;
    next.add_assign_scaled(correction, -1.0)?;
    next.add_assign_scaled(q, 1.0)?;
    Ok(())
}

/// One step of the Riccati recursion, allocating (~9 temporaries): the
/// reference semantics for [`riccati_step_into`].
fn riccati_step_reference(
    a: &Matrix,
    b: &Matrix,
    q: &Matrix,
    r: &Matrix,
    p: &Matrix,
) -> Result<Matrix> {
    let at = a.transpose();
    let bt = b.transpose();
    let pa = p.matmul(a)?;
    let pb = p.matmul(b)?;
    let btpb = bt.matmul(&pb)?;
    let gram = r.add_matrix(&btpb)?;
    let btpa = bt.matmul(&pa)?;
    let gain_term = Lu::decompose(&gram)?.solve_matrix(&btpa)?;
    let atpa = at.matmul(&pa)?;
    let atpb = at.matmul(&pb)?;
    atpa.sub_matrix(&atpb.matmul(&gain_term)?)?.add_matrix(q)
}

/// Result of an LQR synthesis: the state-feedback gain and the Riccati
/// solution it was derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct LqrSolution {
    /// State-feedback gain `K` such that the optimal input is `u = −K·x`.
    pub gain: Matrix,
    /// Stabilising solution `P` of the DARE (the optimal cost matrix).
    pub cost: Matrix,
}

/// Designs an infinite-horizon discrete-time LQR controller.
///
/// Returns the gain `K` (with the convention `u[k] = −K·x[k]`) and the
/// Riccati cost matrix `P` minimising `Σ (xᵀQx + uᵀRu)`. Every Riccati
/// iteration and the final gain computation run on the caller-provided
/// [`RiccatiWorkspace`], so repeated syntheses (threshold sweeps,
/// fleet-variant design loops) share one set of temporaries.
///
/// # Errors
///
/// Propagates the [`solve_dare`] errors; additionally fails with
/// [`LinalgError::Singular`] if `R + BᵀPB` is singular at the final gain
/// computation.
///
/// # Example
///
/// ```
/// use cps_linalg::{dlqr, DareOptions, Matrix, RiccatiWorkspace};
///
/// // Double integrator sampled at 0.1 s.
/// let a = Matrix::from_rows(&[&[1.0, 0.1], &[0.0, 1.0]])?;
/// let b = Matrix::column(&[0.005, 0.1])?;
/// let q = Matrix::identity(2);
/// let r = Matrix::from_rows(&[&[0.1]])?;
/// let mut workspace = RiccatiWorkspace::new(2, 1);
/// let sol = dlqr(&a, &b, &q, &r, DareOptions::default(), &mut workspace)?;
/// assert_eq!(sol.gain.shape(), (1, 2));
/// # Ok::<(), cps_linalg::LinalgError>(())
/// ```
pub fn dlqr(
    a: &Matrix,
    b: &Matrix,
    q: &Matrix,
    r: &Matrix,
    options: DareOptions,
    workspace: &mut RiccatiWorkspace,
) -> Result<LqrSolution> {
    solve_dare(a, b, q, r, options, workspace)?;
    // gram = R + (BᵀP)·B, rhs = (BᵀP)·A — the same associativity as the
    // original allocating path, so gains are unchanged bit for bit.
    let RiccatiWorkspace { bt, btp, btpb, gram, btpa, gain, p, lu, column, solution, .. } =
        workspace;
    b.transpose_into(bt)?;
    bt.matmul_into(p, btp)?;
    btp.matmul_into(b, btpb)?;
    gram.copy_from(r)?;
    gram.add_assign_scaled(btpb, 1.0)?;
    btp.matmul_into(a, btpa)?;
    lu.refactor(gram)?;
    lu.solve_matrix_into(btpa, gain, column, solution)?;
    Ok(LqrSolution { gain: gain.clone(), cost: p.clone() })
}

fn validate_lqr_shapes(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<()> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape(), op: "dare" });
    }
    if b.rows() != a.rows() {
        return Err(LinalgError::ShapeMismatch { left: a.shape(), right: b.shape(), op: "dare" });
    }
    if q.shape() != a.shape() {
        return Err(LinalgError::ShapeMismatch { left: a.shape(), right: q.shape(), op: "dare" });
    }
    if r.shape() != (b.cols(), b.cols()) {
        return Err(LinalgError::ShapeMismatch {
            left: (b.cols(), b.cols()),
            right: r.shape(),
            op: "dare",
        });
    }
    if !q.is_symmetric(1e-9) {
        return Err(LinalgError::InvalidArgument { reason: "Q must be symmetric".to_string() });
    }
    if !r.is_symmetric(1e-9) {
        return Err(LinalgError::InvalidArgument { reason: "R must be symmetric".to_string() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::spectral_radius;

    fn double_integrator(h: f64) -> (Matrix, Matrix) {
        let a = Matrix::from_rows(&[&[1.0, h], &[0.0, 1.0]]).unwrap();
        let b = Matrix::column(&[h * h / 2.0, h]).unwrap();
        (a, b)
    }

    /// A fresh workspace sized for the pair `(a, b)`.
    fn fresh(a: &Matrix, b: &Matrix) -> RiccatiWorkspace {
        RiccatiWorkspace::new(a.rows().max(1), b.cols().max(1))
    }

    #[test]
    fn dare_solution_satisfies_equation() {
        let (a, b) = double_integrator(0.05);
        let q = Matrix::identity(2);
        let r = Matrix::from_rows(&[&[0.5]]).unwrap();
        let mut fresh_ws = fresh(&a, &b);
        solve_dare(&a, &b, &q, &r, DareOptions::default(), &mut fresh_ws).unwrap();
        let p = fresh_ws.solution().clone();

        // Residual of the DARE must be tiny.
        let next = riccati_step_reference(&a, &b, &q, &r, &p).unwrap();
        assert!(next.sub_matrix(&p).unwrap().max_abs() < 1e-8);
        assert!(p.is_symmetric(1e-9));

        // The workspace path must be bit-identical to the allocating
        // reference path — every `_into` op mirrors its allocating twin.
        let reference = solve_dare_reference(&a, &b, &q, &r, DareOptions::default()).unwrap();
        assert_eq!(p, reference, "workspace DARE must match the allocating path bit for bit");

        // A single workspace step matches a single reference step exactly.
        let mut ws = RiccatiWorkspace::new(2, 1);
        ws.p.copy_from(&p).unwrap();
        riccati_step_into(&a, &b, &q, &r, &mut ws).unwrap();
        assert_eq!(ws.next, next);

        // And the workspace is reusable across designs without drift: the
        // stepped workspace, and one warmed on a different plant of the same
        // dimensions, leave exactly the fresh solution behind.
        solve_dare(&a, &b, &q, &r, DareOptions::default(), &mut ws).unwrap();
        assert_eq!(ws.solution(), &p);
        let (other_a, other_b) = double_integrator(0.2);
        solve_dare(&other_a, &other_b, &q, &r, DareOptions::default(), &mut ws).unwrap();
        assert_ne!(ws.solution(), &p);
        solve_dare(&a, &b, &q, &r, DareOptions::default(), &mut ws).unwrap();
        assert_eq!(ws.solution(), &p);
        assert_eq!(ws.dims(), (2, 1));
    }

    #[test]
    fn workspace_dimension_mismatch_is_rejected() {
        let (a, b) = double_integrator(0.05);
        let q = Matrix::identity(2);
        let r = Matrix::from_rows(&[&[0.5]]).unwrap();
        // A workspace warmed on a 3-state problem rejects the 2-state one...
        let a3 = Matrix::diagonal(&[0.9, 0.8, 1.1]).unwrap();
        let b3 = Matrix::column(&[1.0, 0.5, 0.2]).unwrap();
        let q3 = Matrix::identity(3);
        let mut warm = RiccatiWorkspace::new(3, 1);
        let fresh3 = dlqr(&a3, &b3, &q3, &r, DareOptions::default(), &mut warm).unwrap();
        assert!(solve_dare(&a, &b, &q, &r, DareOptions::default(), &mut warm).is_err());
        assert!(dlqr(&a, &b, &q, &r, DareOptions::default(), &mut warm).is_err());
        // ...and the rejection leaves it fit for its own dimension: it still
        // reproduces a fresh workspace's design bit for bit.
        assert_eq!(dlqr(&a3, &b3, &q3, &r, DareOptions::default(), &mut warm).unwrap(), fresh3);
        assert_eq!(
            dlqr(&a3, &b3, &q3, &r, DareOptions::default(), &mut RiccatiWorkspace::new(3, 1))
                .unwrap(),
            fresh3
        );
    }

    #[test]
    fn workspace_dlqr_matches_one_shot_dlqr() {
        let (a, b) = double_integrator(0.02);
        let q = Matrix::identity(2);
        let r = Matrix::from_rows(&[&[0.1]]).unwrap();
        let fresh =
            dlqr(&a, &b, &q, &r, DareOptions::default(), &mut RiccatiWorkspace::new(2, 1)).unwrap();
        // A reused workspace, first warmed on a different plant of the same
        // dimensions, designs exactly the fresh controller, every time.
        let mut ws = RiccatiWorkspace::new(2, 1);
        let (other_a, other_b) = double_integrator(0.1);
        let other = dlqr(&other_a, &other_b, &q, &r, DareOptions::default(), &mut ws).unwrap();
        assert_ne!(other, fresh);
        let first = dlqr(&a, &b, &q, &r, DareOptions::default(), &mut ws).unwrap();
        let second = dlqr(&a, &b, &q, &r, DareOptions::default(), &mut ws).unwrap();
        assert_eq!(fresh, first);
        assert_eq!(first, second);
        assert_eq!(ws.solution(), &fresh.cost);
    }

    #[test]
    fn lqr_stabilises_double_integrator() {
        let (a, b) = double_integrator(0.02);
        let q = Matrix::identity(2);
        let r = Matrix::from_rows(&[&[0.1]]).unwrap();
        let sol = dlqr(&a, &b, &q, &r, DareOptions::default(), &mut fresh(&a, &b)).unwrap();

        // Closed loop A − B K must be Schur stable.
        let closed = a.sub_matrix(&b.matmul(&sol.gain).unwrap()).unwrap();
        assert!(spectral_radius(&closed).unwrap() < 1.0);
    }

    #[test]
    fn lqr_stabilises_unstable_plant() {
        // Scalar unstable plant x+ = 1.2 x + 0.5 u.
        let a = Matrix::from_rows(&[&[1.2]]).unwrap();
        let b = Matrix::from_rows(&[&[0.5]]).unwrap();
        let q = Matrix::identity(1);
        let r = Matrix::identity(1);
        let sol = dlqr(&a, &b, &q, &r, DareOptions::default(), &mut fresh(&a, &b)).unwrap();
        let closed = a.sub_matrix(&b.matmul(&sol.gain).unwrap()).unwrap();
        assert!(closed[(0, 0)].abs() < 1.0);
    }

    #[test]
    fn heavier_input_weight_gives_smaller_gain() {
        let (a, b) = double_integrator(0.02);
        let q = Matrix::identity(2);
        let mut ws = fresh(&a, &b);
        let cheap = Matrix::from_rows(&[&[0.01]]).unwrap();
        let cheap = dlqr(&a, &b, &q, &cheap, DareOptions::default(), &mut ws).unwrap();
        let expensive = Matrix::from_rows(&[&[10.0]]).unwrap();
        let expensive = dlqr(&a, &b, &q, &expensive, DareOptions::default(), &mut ws).unwrap();
        assert!(cheap.gain.frobenius_norm() > expensive.gain.frobenius_norm());
    }

    #[test]
    fn shape_and_symmetry_validation() {
        let (a, b) = double_integrator(0.02);
        let q = Matrix::identity(2);
        let r = Matrix::identity(1);
        let opts = DareOptions::default();
        let mut ws = fresh(&a, &b);
        assert!(solve_dare(&Matrix::zeros(2, 3), &b, &q, &r, opts, &mut ws).is_err());
        assert!(solve_dare(&a, &Matrix::column(&[1.0]).unwrap(), &q, &r, opts, &mut ws).is_err());
        assert!(solve_dare(&a, &b, &Matrix::identity(3), &r, opts, &mut ws).is_err());
        assert!(solve_dare(&a, &b, &q, &Matrix::identity(2), opts, &mut ws).is_err());
        let asym = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        assert!(solve_dare(&a, &b, &asym, &r, opts, &mut ws).is_err());
    }

    #[test]
    fn uncontrollable_unstable_pair_does_not_converge() {
        // Unstable mode with zero input authority: value iteration diverges.
        let a = Matrix::diagonal(&[1.5, 0.5]).unwrap();
        let b = Matrix::column(&[0.0, 1.0]).unwrap();
        let q = Matrix::identity(2);
        let r = Matrix::identity(1);
        let options = DareOptions { max_iterations: 500, tolerance: 1e-12 };
        assert!(matches!(
            solve_dare(&a, &b, &q, &r, options, &mut fresh(&a, &b)),
            Err(LinalgError::NotConverged { .. })
        ));
    }

    #[test]
    fn default_options_are_sane() {
        let opts = DareOptions::default();
        assert!(opts.max_iterations > 100);
        assert!(opts.tolerance > 0.0 && opts.tolerance < 1e-6);
    }
}
