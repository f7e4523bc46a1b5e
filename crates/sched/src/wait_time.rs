//! Maximum-wait-time analysis (the paper's Section IV).
//!
//! When application `Cᵢ` requests the shared TT slot, the worst case is that
//! the lower-priority application with the largest dwell time has just
//! grabbed the slot (non-preemption) and every higher-priority application
//! keeps requesting it as often as its disturbance inter-arrival time allows.
//! The resulting maximum wait time is the fixed point of
//!
//! ```text
//! f(w) = max_{k lower priority} ξᴹₖ  +  Σ_{j higher priority} ⌈w / rⱼ⌉ · ξᴹⱼ   (Eq. (5))
//! ```
//!
//! The paper proves the fixed point exists whenever the higher-priority
//! utilisation `m = Σ ξᴹⱼ/rⱼ` is below one and bounds it by
//! `a/(1−m) ≤ ŵ < a′/(1−m)` with `a′ = a + Σ ξᴹⱼ` (Eqs. (20)–(21)). Both the
//! closed-form bound (used in the paper's case study) and the exact
//! fixed-point iteration are implemented here.

use crate::app::AppTimingParams;
use crate::dwell::{max_dwell_for, ModelKind};
use crate::error::{Result, SchedError};
use crate::timing::SlotTiming;

/// Interference context of one application within a TT slot: the blocking
/// term, the higher-priority interference terms and the derived utilisation.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceContext {
    /// Blocking term `a`: the largest maximum dwell time among lower-priority
    /// applications sharing the slot (zero when there are none).
    pub blocking: f64,
    /// `(ξᴹⱼ, rⱼ)` pairs of the higher-priority applications sharing the slot.
    pub higher_priority: Vec<(f64, f64)>,
}

impl InterferenceContext {
    /// Builds the interference context for `apps[index]` among the
    /// applications listed in `slot` (indices into `apps`), using the dwell
    /// bound of the selected model under the slot geometry `timing`: every
    /// blocking/interference dwell bound is stretched by the per-slot
    /// transmission overhead `ξᴹⱼ + ΔΨ` before it enters the analysis.
    /// [`SlotTiming::ZERO`] is the design baseline, with no stretch.
    ///
    /// Priorities follow the paper: a smaller deadline means a higher
    /// priority; ties are broken by name for determinism.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidParameter`] if `index` is not contained
    /// in `slot` or any slot index is out of range.
    pub fn for_application(
        apps: &[AppTimingParams],
        slot: &[usize],
        index: usize,
        kind: ModelKind,
        timing: SlotTiming,
    ) -> Result<Self> {
        if !slot.contains(&index) {
            return Err(SchedError::InvalidParameter {
                reason: format!("application index {index} is not part of the analysed slot"),
            });
        }
        if slot.iter().any(|&i| i >= apps.len()) {
            return Err(SchedError::InvalidParameter {
                reason: "slot references an application index out of range".to_string(),
            });
        }
        let subject = &apps[index];
        let mut blocking: f64 = 0.0;
        let mut higher_priority = Vec::new();
        for &other_index in slot {
            if other_index == index {
                continue;
            }
            let other = &apps[other_index];
            let dwell_bound = timing.effective_dwell(max_dwell_for(other, kind));
            if other.outranks(subject) {
                higher_priority.push((dwell_bound, other.inter_arrival));
            } else {
                blocking = blocking.max(dwell_bound);
            }
        }
        Ok(InterferenceContext { blocking, higher_priority })
    }

    /// Higher-priority slot utilisation `m = Σ ξᴹⱼ / rⱼ` (Eq. (19)).
    pub fn utilization(&self) -> f64 {
        self.higher_priority.iter().map(|(dwell, r)| dwell / r).sum()
    }

    /// Sum of the higher-priority dwell bounds, `Σ ξᴹⱼ`.
    pub fn interference_sum(&self) -> f64 {
        self.higher_priority.iter().map(|(dwell, _)| *dwell).sum()
    }

    /// One evaluation of the paper's Eq. (5): `f(w) = a + Σ ⌈w/rⱼ⌉·ξᴹⱼ`.
    pub fn request_function(&self, wait: f64) -> f64 {
        self.blocking
            + self
                .higher_priority
                .iter()
                .map(|(dwell, r)| (wait / r).ceil().max(0.0) * dwell)
                .sum::<f64>()
    }
}

/// Closed-form upper bound on the maximum wait time, `a′/(1−m)` (Eq. (20)) —
/// the value the paper uses throughout the case study — under the slot
/// geometry `timing` (per-slot transmission overheads stretch the blocking
/// and interference terms; [`SlotTiming::ZERO`] is the design baseline).
///
/// # Errors
///
/// Returns [`SchedError::SlotOverloaded`] if the higher-priority utilisation
/// `m` is ≥ 1, in which case no finite wait-time bound exists.
pub fn max_wait_time_bound(
    apps: &[AppTimingParams],
    slot: &[usize],
    index: usize,
    kind: ModelKind,
    timing: SlotTiming,
) -> Result<f64> {
    let ctx = InterferenceContext::for_application(apps, slot, index, kind, timing)?;
    let m = ctx.utilization();
    if m >= 1.0 {
        return Err(SchedError::SlotOverloaded {
            application: apps[index].name.clone(),
            utilization: m,
        });
    }
    let a_prime = ctx.blocking + ctx.interference_sum();
    Ok(a_prime / (1.0 - m))
}

/// Closed-form lower bound on the maximum wait time, `a/(1−m)` (Eq. (21)),
/// under the slot geometry `timing`.
///
/// # Errors
///
/// Returns [`SchedError::SlotOverloaded`] if `m ≥ 1`.
pub fn max_wait_time_lower_bound(
    apps: &[AppTimingParams],
    slot: &[usize],
    index: usize,
    kind: ModelKind,
    timing: SlotTiming,
) -> Result<f64> {
    let ctx = InterferenceContext::for_application(apps, slot, index, kind, timing)?;
    let m = ctx.utilization();
    if m >= 1.0 {
        return Err(SchedError::SlotOverloaded {
            application: apps[index].name.clone(),
            utilization: m,
        });
    }
    Ok(ctx.blocking / (1.0 - m))
}

/// Maximum number of fixed-point iterations before declaring divergence
/// (shared with the branch-and-bound solver's streaming analysis so both
/// paths agree on the divergence budget).
pub(crate) const MAX_FIXED_POINT_ITERATIONS: usize = 10_000;

/// Exact maximum wait time: the least fixed point of the paper's Eq. (5),
/// computed by the standard monotone iteration `w ← f(w)` starting from the
/// blocking term (plus one interference hit from every higher-priority
/// application, matching the "all request simultaneously" worst case),
/// under the slot geometry `timing`.
///
/// This is at most the closed-form bound of [`max_wait_time_bound`]; the
/// difference is exercised by the `ablation_fixed_point` benchmark.
///
/// # Errors
///
/// * [`SchedError::SlotOverloaded`] if `m ≥ 1`.
/// * [`SchedError::FixedPointDiverged`] if the iteration does not converge
///   within its budget (cannot happen when `m < 1`, kept as a defensive
///   bound).
pub fn max_wait_time_fixed_point(
    apps: &[AppTimingParams],
    slot: &[usize],
    index: usize,
    kind: ModelKind,
    timing: SlotTiming,
) -> Result<f64> {
    let ctx = InterferenceContext::for_application(apps, slot, index, kind, timing)?;
    let m = ctx.utilization();
    if m >= 1.0 {
        return Err(SchedError::SlotOverloaded {
            application: apps[index].name.clone(),
            utilization: m,
        });
    }
    // Start from the smallest state in which the worst case can occur: the
    // blocking application holds the slot and every higher-priority
    // application has one pending request.
    let mut wait = ctx.blocking + ctx.interference_sum();
    for _ in 0..MAX_FIXED_POINT_ITERATIONS {
        let next = ctx.request_function(wait);
        if (next - wait).abs() < 1e-12 {
            return Ok(next);
        }
        wait = next;
    }
    Err(SchedError::FixedPointDiverged {
        application: apps[index].name.clone(),
        iterations: MAX_FIXED_POINT_ITERATIONS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The design-baseline slot geometry of the paper's analysis.
    const ZERO: SlotTiming = SlotTiming::ZERO;

    /// The paper's Table I.
    fn table1() -> Vec<AppTimingParams> {
        vec![
            AppTimingParams::with_explicit_conservative_dwell(
                "C1", 200.0, 9.5, 1.68, 11.62, 5.30, 2.27, 6.59,
            )
            .unwrap(),
            AppTimingParams::with_explicit_conservative_dwell(
                "C2", 20.0, 6.25, 2.58, 8.59, 2.95, 1.34, 3.50,
            )
            .unwrap(),
            AppTimingParams::with_explicit_conservative_dwell(
                "C3", 15.0, 2.0, 0.39, 3.97, 0.64, 0.69, 0.77,
            )
            .unwrap(),
            AppTimingParams::with_explicit_conservative_dwell(
                "C4", 200.0, 7.5, 2.50, 10.40, 4.03, 1.92, 4.94,
            )
            .unwrap(),
            AppTimingParams::with_explicit_conservative_dwell(
                "C5", 20.0, 8.5, 2.75, 10.63, 4.58, 1.97, 5.62,
            )
            .unwrap(),
            AppTimingParams::with_explicit_conservative_dwell(
                "C6", 6.0, 6.0, 0.71, 7.94, 0.92, 0.67, 1.01,
            )
            .unwrap(),
        ]
    }

    #[test]
    fn highest_priority_application_alone_has_zero_wait() {
        let apps = table1();
        // C3 alone on a slot: no blocking, no interference.
        let wait = max_wait_time_bound(&apps, &[2], 2, ModelKind::NonMonotonic, ZERO).unwrap();
        assert_eq!(wait, 0.0);
        let exact =
            max_wait_time_fixed_point(&apps, &[2], 2, ModelKind::NonMonotonic, ZERO).unwrap();
        assert_eq!(exact, 0.0);
    }

    #[test]
    fn c6_wait_time_matches_paper_value() {
        let apps = table1();
        // Slot S1 = {C3, C6}; analysing C6 (lower priority than C3).
        let wait = max_wait_time_bound(&apps, &[2, 5], 5, ModelKind::NonMonotonic, ZERO).unwrap();
        assert!((wait - 0.669).abs() < 0.001, "wait = {wait}");
    }

    #[test]
    fn c3_wait_time_when_sharing_with_c6_matches_paper_value() {
        let apps = table1();
        // Analysing C3 (higher priority): blocked by C6's maximum dwell 0.92.
        let wait = max_wait_time_bound(&apps, &[2, 5], 2, ModelKind::NonMonotonic, ZERO).unwrap();
        assert!((wait - 0.92).abs() < 1e-9);
    }

    #[test]
    fn monotonic_c2_wait_time_matches_paper_value() {
        let apps = table1();
        // Monotonic case, slot {C2, C4}: C2 is higher priority, blocked by
        // C4's conservative dwell xi'_M = 4.94.
        let wait =
            max_wait_time_bound(&apps, &[1, 3], 1, ModelKind::ConservativeMonotonic, ZERO).unwrap();
        assert!((wait - 4.94).abs() < 1e-9);
    }

    #[test]
    fn fixed_point_never_exceeds_bound() {
        let apps = table1();
        // Analyse every application on a fully shared slot.
        let slot: Vec<usize> = (0..apps.len()).collect();
        for kind in [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic] {
            for index in 0..apps.len() {
                let bound = max_wait_time_bound(&apps, &slot, index, kind, ZERO).unwrap();
                let exact = max_wait_time_fixed_point(&apps, &slot, index, kind, ZERO).unwrap();
                let lower = max_wait_time_lower_bound(&apps, &slot, index, kind, ZERO).unwrap();
                assert!(
                    exact <= bound + 1e-9,
                    "{}: exact {exact} must not exceed bound {bound}",
                    apps[index].name
                );
                assert!(
                    exact + 1e-9 >= lower,
                    "{}: exact {exact} must not fall below lower bound {lower}",
                    apps[index].name
                );
            }
        }
    }

    #[test]
    fn overloaded_slot_is_reported() {
        // Two higher-priority applications whose dwell consumes the full
        // inter-arrival budget of the lowest-priority one.
        let apps = vec![
            AppTimingParams::new("H1", 1.0, 0.5, 0.3, 2.0, 0.6, 0.5).unwrap(),
            AppTimingParams::new("H2", 1.0, 0.6, 0.3, 2.0, 0.6, 0.5).unwrap(),
            AppTimingParams::new("L", 10.0, 5.0, 0.3, 2.0, 0.6, 0.5).unwrap(),
        ];
        let slot = vec![0, 1, 2];
        let err = max_wait_time_bound(&apps, &slot, 2, ModelKind::NonMonotonic, ZERO).unwrap_err();
        assert!(matches!(err, SchedError::SlotOverloaded { .. }));
        assert!(matches!(
            max_wait_time_fixed_point(&apps, &slot, 2, ModelKind::NonMonotonic, ZERO),
            Err(SchedError::SlotOverloaded { .. })
        ));
        assert!(matches!(
            max_wait_time_lower_bound(&apps, &slot, 2, ModelKind::NonMonotonic, ZERO),
            Err(SchedError::SlotOverloaded { .. })
        ));
    }

    #[test]
    fn context_validation() {
        let apps = table1();
        assert!(InterferenceContext::for_application(
            &apps,
            &[0, 1],
            2,
            ModelKind::NonMonotonic,
            ZERO
        )
        .is_err());
        assert!(InterferenceContext::for_application(
            &apps,
            &[0, 99],
            0,
            ModelKind::NonMonotonic,
            ZERO
        )
        .is_err());
    }

    #[test]
    fn request_function_is_monotone_in_wait() {
        let apps = table1();
        let slot: Vec<usize> = (0..apps.len()).collect();
        let ctx =
            InterferenceContext::for_application(&apps, &slot, 0, ModelKind::NonMonotonic, ZERO)
                .unwrap();
        let mut previous = ctx.request_function(0.0);
        for i in 1..50 {
            let wait = i as f64 * 0.5;
            let value = ctx.request_function(wait);
            assert!(value + 1e-12 >= previous);
            previous = value;
        }
    }

    #[test]
    fn slot_timing_overhead_stretches_blocking_and_interference() {
        let apps = table1();
        let slot = vec![2, 5]; // {C3, C6}
                               // Zero overhead reproduces the baseline analysis bit for bit: C3 is
                               // blocked by C6's ξᴹ alone, C6 is interfered with by C3 alone.
        let zero = SlotTiming::new(0.0).unwrap();
        assert_eq!(zero, SlotTiming::ZERO);
        let c3 = max_wait_time_bound(&apps, &slot, 2, ModelKind::NonMonotonic, zero).unwrap();
        assert_eq!(c3.to_bits(), 0.92f64.to_bits());
        let c6 = max_wait_time_bound(&apps, &slot, 5, ModelKind::NonMonotonic, zero).unwrap();
        assert_eq!(c6.to_bits(), (0.64f64 / (1.0 - 0.64 / 15.0)).to_bits());
        // For C3 (highest priority, blocked by C6): wait = (xi_m_6 + delta).
        let delta = 0.25;
        let timing = SlotTiming::new(delta).unwrap();
        let wait = max_wait_time_bound(&apps, &slot, 2, ModelKind::NonMonotonic, timing).unwrap();
        assert!((wait - (0.92 + delta)).abs() < 1e-12);
        // For C6 (interfered by C3): a' = xi_m_3 + delta, m = (xi_m_3 + delta)/r_3.
        let effective = 0.64 + delta;
        let expected = effective / (1.0 - effective / 15.0);
        let wait = max_wait_time_bound(&apps, &slot, 5, ModelKind::NonMonotonic, timing).unwrap();
        assert!((wait - expected).abs() < 1e-12);
        // The exact fixed point and the lower bound respect the same ordering
        // under overhead as without.
        let exact =
            max_wait_time_fixed_point(&apps, &slot, 5, ModelKind::NonMonotonic, timing).unwrap();
        let lower =
            max_wait_time_lower_bound(&apps, &slot, 5, ModelKind::NonMonotonic, timing).unwrap();
        assert!(lower <= exact + 1e-12 && exact <= wait + 1e-12);
        // Overheads only grow the wait (monotone in delta).
        let larger = max_wait_time_bound(
            &apps,
            &slot,
            5,
            ModelKind::NonMonotonic,
            SlotTiming::new(2.0 * delta).unwrap(),
        )
        .unwrap();
        assert!(larger > wait);
    }

    #[test]
    fn deterministic_tie_break_on_equal_deadlines() {
        let apps = vec![
            AppTimingParams::new("A", 10.0, 5.0, 0.3, 2.0, 0.5, 0.4).unwrap(),
            AppTimingParams::new("B", 10.0, 5.0, 0.3, 2.0, 0.5, 0.4).unwrap(),
        ];
        // With equal deadlines, "A" (lexicographically smaller) is treated as
        // higher priority, so analysing A sees B as lower priority (blocking)
        // and analysing B sees A as interference.
        let ctx_a =
            InterferenceContext::for_application(&apps, &[0, 1], 0, ModelKind::NonMonotonic, ZERO)
                .unwrap();
        assert_eq!(ctx_a.higher_priority.len(), 0);
        assert!(ctx_a.blocking > 0.0);
        let ctx_b =
            InterferenceContext::for_application(&apps, &[0, 1], 1, ModelKind::NonMonotonic, ZERO)
                .unwrap();
        assert_eq!(ctx_b.higher_priority.len(), 1);
        assert_eq!(ctx_b.blocking, 0.0);
    }
}
