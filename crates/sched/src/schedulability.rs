//! Worst-case response times and per-slot schedulability (Section IV).

use crate::app::AppTimingParams;
use crate::dwell::{dwell_for, ModelKind};
use crate::error::{Result, SchedError};
use crate::timing::SlotTiming;
use crate::wait_time::{max_wait_time_bound, max_wait_time_fixed_point};

/// How the maximum wait time is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WaitTimeMethod {
    /// The closed-form upper bound `a′/(1−m)` of the paper's Eq. (20) — what
    /// the paper uses in its case study.
    #[default]
    ClosedFormBound,
    /// The exact least fixed point of Eq. (5) (tighter, still safe).
    ExactFixedPoint,
}

/// The result of analysing one application on one TT slot.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseTimeAnalysis {
    /// Name of the analysed application.
    pub application: String,
    /// Maximum wait time k̂_wait before the application gets the slot.
    pub max_wait_time: f64,
    /// Dwell time predicted by the model at that wait time.
    pub dwell_at_max_wait: f64,
    /// Worst-case response time ξ̂ = k̂_wait + k_dw(k̂_wait).
    pub worst_case_response_time: f64,
    /// The application's deadline ξᵈ.
    pub deadline: f64,
}

impl ResponseTimeAnalysis {
    /// Returns `true` if the worst-case response time meets the deadline.
    pub fn is_schedulable(&self) -> bool {
        self.worst_case_response_time <= self.deadline
    }

    /// Slack (deadline minus worst-case response time); negative when the
    /// deadline is missed.
    pub fn slack(&self) -> f64 {
        self.deadline - self.worst_case_response_time
    }
}

/// Analyses one application (given by `index` into `apps`) on the TT slot
/// holding the applications in `slot`, under the slot geometry `timing`.
///
/// The per-slot transmission overhead stretches the blocking and
/// interference occupancy intervals feeding the wait time; the analysed
/// application's own response `ξ(ŵ) = ŵ + k_dw(ŵ)` is a control-layer
/// settling event and is not stretched. [`SlotTiming::ZERO`] is the paper's
/// design-baseline analysis.
///
/// # Errors
///
/// * [`SchedError::SlotOverloaded`] if the higher-priority utilisation is ≥ 1.
/// * [`SchedError::InvalidParameter`] if the slot/index combination is
///   malformed.
pub fn analyze_application(
    apps: &[AppTimingParams],
    slot: &[usize],
    index: usize,
    kind: ModelKind,
    method: WaitTimeMethod,
    timing: SlotTiming,
) -> Result<ResponseTimeAnalysis> {
    let app = apps.get(index).ok_or_else(|| SchedError::InvalidParameter {
        reason: format!("application index {index} out of range"),
    })?;
    let max_wait = match method {
        WaitTimeMethod::ClosedFormBound => max_wait_time_bound(apps, slot, index, kind, timing)?,
        WaitTimeMethod::ExactFixedPoint => {
            max_wait_time_fixed_point(apps, slot, index, kind, timing)?
        }
    };
    // If the maximum wait already exceeds the pure-ET settling time, the
    // disturbance is rejected entirely over ET communication; the response
    // time is then xi_et (the dwell model evaluates to zero there).
    let dwell = dwell_for(app, kind, max_wait);
    let response = if max_wait >= app.xi_et { app.xi_et } else { max_wait + dwell };
    Ok(ResponseTimeAnalysis {
        application: app.name.clone(),
        max_wait_time: max_wait,
        dwell_at_max_wait: dwell,
        worst_case_response_time: response,
        deadline: app.deadline,
    })
}

/// The verdict for a whole slot: the per-application analyses and whether all
/// of them meet their deadlines.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotAnalysis {
    /// Analyses of every application sharing the slot (in the order given).
    pub analyses: Vec<ResponseTimeAnalysis>,
}

impl SlotAnalysis {
    /// Returns `true` if every application on the slot meets its deadline.
    pub fn is_schedulable(&self) -> bool {
        self.analyses.iter().all(ResponseTimeAnalysis::is_schedulable)
    }

    /// The first application (if any) that misses its deadline.
    pub fn first_violation(&self) -> Option<&ResponseTimeAnalysis> {
        self.analyses.iter().find(|a| !a.is_schedulable())
    }
}

/// Analyses all applications sharing one TT slot under the slot geometry
/// `timing` (see [`analyze_application`]).
///
/// Note that adding an application to a slot can break the schedulability of
/// applications that were already there (it adds blocking for
/// higher-priority ones and interference for lower-priority ones), which is
/// why the whole slot must be re-analysed after every change — exactly as the
/// paper's allocation procedure does.
///
/// # Errors
///
/// `SlotOverloaded` from the wait-time analysis is mapped to an
/// unschedulable verdict rather than an error (an overloaded slot simply
/// cannot hold the application); other parameter errors are propagated.
pub fn analyze_slot(
    apps: &[AppTimingParams],
    slot: &[usize],
    kind: ModelKind,
    method: WaitTimeMethod,
    timing: SlotTiming,
) -> Result<SlotAnalysis> {
    let mut analyses = Vec::with_capacity(slot.len());
    for &index in slot {
        match analyze_application(apps, slot, index, kind, method, timing) {
            Ok(analysis) => analyses.push(analysis),
            Err(SchedError::SlotOverloaded { application, .. }) => {
                // Utilisation ≥ 1 means the wait time is unbounded: represent
                // it as an infinite response time so the slot reports
                // unschedulable.
                let app = &apps[index];
                debug_assert_eq!(application, app.name);
                analyses.push(ResponseTimeAnalysis {
                    application: app.name.clone(),
                    max_wait_time: f64::INFINITY,
                    dwell_at_max_wait: 0.0,
                    worst_case_response_time: f64::INFINITY,
                    deadline: app.deadline,
                });
            }
            Err(other) => return Err(other),
        }
    }
    Ok(SlotAnalysis { analyses })
}

/// Convenience wrapper: is the given set of applications schedulable on a
/// single shared TT slot under the slot geometry `timing`?
///
/// # Errors
///
/// Propagates parameter errors from [`analyze_slot`].
pub fn is_slot_schedulable(
    apps: &[AppTimingParams],
    slot: &[usize],
    kind: ModelKind,
    method: WaitTimeMethod,
    timing: SlotTiming,
) -> Result<bool> {
    Ok(analyze_slot(apps, slot, kind, method, timing)?.is_schedulable())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study_fixtures::paper_table1;

    /// The design-baseline slot geometry of the paper's analysis.
    const ZERO: SlotTiming = SlotTiming::ZERO;

    #[test]
    fn c3_alone_has_tt_response_time() {
        let apps = paper_table1();
        let analysis = analyze_application(
            &apps,
            &[2],
            2,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO,
        )
        .unwrap();
        assert_eq!(analysis.max_wait_time, 0.0);
        assert!((analysis.worst_case_response_time - 0.39).abs() < 1e-9);
        assert!(analysis.is_schedulable());
        assert!(analysis.slack() > 1.5);
    }

    #[test]
    fn c6_with_c3_matches_paper_response_time() {
        let apps = paper_table1();
        let analysis = analyze_application(
            &apps,
            &[2, 5],
            5,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO,
        )
        .unwrap();
        assert!((analysis.max_wait_time - 0.669).abs() < 0.001);
        assert!((analysis.worst_case_response_time - 1.589).abs() < 0.005);
        assert!(analysis.is_schedulable());
    }

    #[test]
    fn c3_with_c6_matches_paper_response_time() {
        let apps = paper_table1();
        let analysis = analyze_application(
            &apps,
            &[2, 5],
            2,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO,
        )
        .unwrap();
        assert!((analysis.max_wait_time - 0.92).abs() < 1e-9);
        assert!((analysis.worst_case_response_time - 1.515).abs() < 0.005);
        assert!(analysis.is_schedulable());
    }

    #[test]
    fn adding_c2_to_slot1_breaks_c3() {
        let apps = paper_table1();
        let slot = vec![2, 5, 1]; // C3, C6, C2
        let analysis = analyze_slot(
            &apps,
            &slot,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO,
        )
        .unwrap();
        assert!(!analysis.is_schedulable());
        let violation = analysis.first_violation().unwrap();
        assert_eq!(violation.application, "C3");
        assert!(violation.worst_case_response_time > violation.deadline);
    }

    #[test]
    fn monotonic_c2_with_c4_misses_deadline_as_in_paper() {
        let apps = paper_table1();
        let analysis = analyze_application(
            &apps,
            &[1, 3],
            1,
            ModelKind::ConservativeMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO,
        )
        .unwrap();
        // Paper: k̂'_wait,2 = 4.94 and ξ̂'_2 = 6.426 > 6.25.
        assert!((analysis.max_wait_time - 4.94).abs() < 1e-9);
        assert!((analysis.worst_case_response_time - 6.426).abs() < 0.01);
        assert!(!analysis.is_schedulable());
    }

    #[test]
    fn non_monotonic_c2_with_c4_is_schedulable() {
        let apps = paper_table1();
        let analysis = analyze_slot(
            &apps,
            &[1, 3],
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO,
        )
        .unwrap();
        assert!(analysis.is_schedulable(), "S2 = {{C2, C4}} must be schedulable: {analysis:?}");
    }

    #[test]
    fn slot3_c5_c1_is_schedulable_non_monotonic() {
        let apps = paper_table1();
        let analysis = analyze_slot(
            &apps,
            &[4, 0],
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO,
        )
        .unwrap();
        assert!(analysis.is_schedulable(), "S3 = {{C5, C1}} must be schedulable: {analysis:?}");
    }

    #[test]
    fn exact_fixed_point_is_never_more_pessimistic() {
        let apps = paper_table1();
        let slot: Vec<usize> = (0..apps.len()).collect();
        for index in 0..apps.len() {
            let bound = analyze_application(
                &apps,
                &slot,
                index,
                ModelKind::NonMonotonic,
                WaitTimeMethod::ClosedFormBound,
                ZERO,
            )
            .unwrap();
            let exact = analyze_application(
                &apps,
                &slot,
                index,
                ModelKind::NonMonotonic,
                WaitTimeMethod::ExactFixedPoint,
                ZERO,
            )
            .unwrap();
            assert!(exact.max_wait_time <= bound.max_wait_time + 1e-9);
        }
    }

    #[test]
    fn overloaded_slot_reports_unschedulable_not_error() {
        let apps = vec![
            AppTimingParams::new("H1", 1.0, 0.5, 0.3, 2.0, 0.6, 0.5).unwrap(),
            AppTimingParams::new("H2", 1.0, 0.6, 0.3, 2.0, 0.6, 0.5).unwrap(),
            AppTimingParams::new("L", 10.0, 5.0, 0.3, 2.0, 0.6, 0.5).unwrap(),
        ];
        let analysis = analyze_slot(
            &apps,
            &[0, 1, 2],
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO,
        )
        .unwrap();
        assert!(!analysis.is_schedulable());
        assert!(analysis.analyses[2].worst_case_response_time.is_infinite());
        assert!(!is_slot_schedulable(
            &apps,
            &[0, 1, 2],
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO
        )
        .unwrap());
    }

    #[test]
    fn slot_timing_can_break_schedulability() {
        let apps = paper_table1();
        // S1 = {C3, C6} is schedulable under the baseline geometry. Along
        // the falling dwell segment C3's response grows with the wait at
        // slope 1 − ξᴹ/(ξᴱᵀ − k_p) ≈ 0.805, so its deadline breaks once the
        // per-slot overhead exceeds ≈ 0.603 s; 0.8 s (exaggerated — physical
        // ΔΨ is microseconds) pushes it clearly past.
        let slot = [2usize, 5];
        assert!(is_slot_schedulable(
            &apps,
            &slot,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO
        )
        .unwrap());
        let timing = SlotTiming::new(0.8).unwrap();
        let analysis = analyze_slot(
            &apps,
            &slot,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            timing,
        )
        .unwrap();
        assert!(!analysis.is_schedulable());
        assert_eq!(analysis.first_violation().unwrap().application, "C3");
        // A validated zero overhead is the bitwise baseline.
        let base = analyze_slot(
            &apps,
            &slot,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO,
        )
        .unwrap();
        let zero = analyze_slot(
            &apps,
            &slot,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            SlotTiming::new(0.0).unwrap(),
        )
        .unwrap();
        assert_eq!(base, zero);
        for (a, b) in base.analyses.iter().zip(&zero.analyses) {
            assert_eq!(a.max_wait_time.to_bits(), b.max_wait_time.to_bits());
            assert_eq!(
                a.worst_case_response_time.to_bits(),
                b.worst_case_response_time.to_bits()
            );
        }
    }

    #[test]
    fn invalid_index_is_an_error() {
        let apps = paper_table1();
        assert!(analyze_application(
            &apps,
            &[0],
            42,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            ZERO
        )
        .is_err());
    }
}
