//! One entry point per table/figure of the paper's evaluation, used by the
//! examples, the Criterion benches and EXPERIMENTS.md.

use crate::application::{ApplicationSpec, ControlApplication, ControllerSpec};
use crate::case_study;
use crate::characterize::{characterize_application, fit_non_monotonic};
use crate::cosim::{CoSimTrace, CoSimulation};
use crate::error::Result;
use cps_control::{plants, CharacterizationWorkspace, DwellWaitCurve};
use cps_flexray::FlexRayConfig;
use cps_sched::{AppTimingParams, DwellTimeModel, NonMonotonicModel, SimpleMonotonicModel};
use std::fmt::Write as _;

/// Builds the servo-rig application used for Figures 2 and 3 (the simulated
/// substitute for the paper's experimental setup).
///
/// # Errors
///
/// Propagates controller-design failures.
pub fn servo_rig_application() -> Result<ControlApplication> {
    ControlApplication::design(ApplicationSpec {
        name: "servo-rig".to_string(),
        plant: plants::servo_rig_upright(),
        period: case_study::CASE_STUDY_PERIOD,
        et_delay: case_study::CASE_STUDY_PERIOD,
        tt_delay: case_study::CASE_STUDY_TT_DELAY,
        threshold: case_study::CASE_STUDY_THRESHOLD,
        disturbance: vec![45.0_f64.to_radians(), 0.0],
        deadline: 8.0,
        inter_arrival: 20.0,
        controllers: ControllerSpec::PolePlacement {
            et_poles: vec![-0.7, -0.8, -40.0],
            tt_poles: vec![-6.0, -8.0, -40.0],
        },
        input_limit: Some(plants::SERVO_RIG_TORQUE_LIMIT),
    })
}

/// Experiment E1 (Figure 3): the measured dwell-time / wait-time relation of
/// the servo rig.
///
/// # Errors
///
/// Propagates design and simulation failures.
pub fn figure3_dwell_wait_curve() -> Result<DwellWaitCurve> {
    let app = servo_rig_application()?;
    characterize_application(&app, &mut CharacterizationWorkspace::new())
}

/// Data of experiment E2 (Figure 4): the measured curve plus the three
/// analytical models evaluated on a common wait-time grid.
#[derive(Debug, Clone)]
pub struct Figure4Data {
    /// Wait-time grid in seconds.
    pub wait_times: Vec<f64>,
    /// Measured dwell times.
    pub measured: Vec<f64>,
    /// The paper's two-segment non-monotonic model.
    pub non_monotonic: Vec<f64>,
    /// The conservative monotonic upper bound.
    pub conservative: Vec<f64>,
    /// The unsafe simple monotonic model of earlier work.
    pub simple: Vec<f64>,
}

/// Experiment E2 (Figure 4): fits the three analytical dwell-time models to
/// the servo-rig characterisation.
///
/// # Errors
///
/// Propagates characterisation and fitting failures.
pub fn figure4_models() -> Result<Figure4Data> {
    let curve = figure3_dwell_wait_curve()?;
    let (xi_tt, xi_et, xi_m, k_p) = fit_non_monotonic(&curve)?;
    let non_monotonic = NonMonotonicModel::new(xi_tt, xi_m, k_p, xi_et)
        .map_err(crate::error::CoreError::Sched)?;
    let conservative = non_monotonic.conservative_envelope();
    let simple =
        SimpleMonotonicModel::new(xi_tt, xi_et).map_err(crate::error::CoreError::Sched)?;
    let wait_times: Vec<f64> = curve.points.iter().map(|p| p.wait_time).collect();
    Ok(Figure4Data {
        measured: curve.points.iter().map(|p| p.dwell_time).collect(),
        non_monotonic: wait_times.iter().map(|&w| non_monotonic.dwell(w)).collect(),
        conservative: wait_times.iter().map(|&w| conservative.dwell(w)).collect(),
        simple: wait_times.iter().map(|&w| simple.dwell(w)).collect(),
        wait_times,
    })
}

/// Experiment E3a (Table I, published values).
pub fn table1_published() -> Vec<AppTimingParams> {
    case_study::paper_table1()
}

/// Experiment E3b (Table I, derived end-to-end from synthetic plants).
///
/// # Errors
///
/// Propagates design and characterisation failures.
pub fn table1_derived() -> Result<Vec<AppTimingParams>> {
    let fleet = case_study::derived_fleet()?;
    case_study::derive_table(&fleet)
}

/// Experiment E4 (Section V headline): slot allocation with both models on
/// the published Table I.
///
/// # Errors
///
/// Propagates allocation failures.
pub fn slot_allocation_comparison() -> Result<case_study::CaseStudyOutcome> {
    case_study::run_slot_allocation(&case_study::paper_table1())
}

/// Experiment E5 (Figure 5): co-simulation of the derived fleet over the
/// FlexRay bus with all disturbances applied at t = 0.
///
/// # Errors
///
/// Propagates design, allocation and simulation failures.
pub fn figure5_cosimulation(duration: f64) -> Result<CoSimTrace> {
    let fleet = case_study::derived_fleet()?;
    let table = case_study::derive_table(&fleet)?;
    let allocation = cps_sched::allocate_slots(&table, &cps_sched::AllocatorConfig::default())?;
    let mut cosim = CoSimulation::new(fleet, &allocation, FlexRayConfig::paper_case_study())?;
    cosim.inject_disturbances()?;
    cosim.run(duration)
}

/// Renders a Table-I-style parameter set as a plain-text table.
pub fn render_table(rows: &[AppTimingParams]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "application", "r", "xi_d", "xi_tt", "xi_et", "xi_m", "k_p", "xi'_m"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            row.name,
            row.inter_arrival,
            row.deadline,
            row.xi_tt,
            row.xi_et,
            row.xi_m,
            row.k_p,
            row.xi_prime_m
        );
    }
    out
}

/// Renders a dwell/wait curve as an ASCII listing (wait, dwell) suitable for
/// plotting or diffing against the paper's Figure 3.
pub fn render_curve(curve: &DwellWaitCurve, stride: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>10} {:>10}", "k_wait [s]", "k_dw [s]");
    for point in curve.points.iter().step_by(stride.max(1)) {
        let _ = writeln!(out, "{:>10.2} {:>10.2}", point.wait_time, point.dwell_time);
    }
    let _ = writeln!(
        out,
        "xi_tt = {:.2} s, xi_et = {:.2} s, xi_m = {:.2} s at k_p = {:.2} s",
        curve.xi_tt,
        curve.xi_et,
        curve.max_dwell(),
        curve.peak_wait()
    );
    out
}

/// Renders the slot-allocation comparison (experiment E4).
pub fn render_allocation(outcome: &case_study::CaseStudyOutcome, apps: &[AppTimingParams]) -> String {
    let mut out = String::new();
    let describe = |allocation: &cps_sched::SlotAllocation| -> String {
        allocation
            .slots
            .iter()
            .enumerate()
            .map(|(slot, members)| {
                let names: Vec<&str> =
                    members.iter().map(|&index| apps[index].name.as_str()).collect();
                format!("S{} = {{{}}}", slot + 1, names.join(", "))
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(
        out,
        "non-monotonic model : {} TT slots ({})",
        outcome.non_monotonic_slots,
        describe(&outcome.non_monotonic)
    );
    let _ = writeln!(
        out,
        "conservative model  : {} TT slots ({})",
        outcome.monotonic_slots,
        describe(&outcome.monotonic)
    );
    let _ = writeln!(
        out,
        "extra resource for the monotonic model: {:.0} %",
        outcome.overhead_fraction * 100.0
    );
    out
}

/// Renders the per-application outcome of the co-simulation (experiment E5).
pub fn render_cosim(trace: &CoSimTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>10} {:>10} {:>10}",
        "application", "response [s]", "deadline", "met", "TT time"
    );
    for app in &trace.apps {
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>10.2} {:>10} {:>10.2}",
            app.name,
            app.response_time.map(|t| format!("{t:.2}")).unwrap_or_else(|| "-".to_string()),
            app.deadline,
            if app.deadline_met() { "yes" } else { "NO" },
            app.tt_time(trace.period)
        );
    }
    let _ = writeln!(
        out,
        "bus: {} static tx, {} wasted static slots, {} dynamic tx, {} deferred",
        trace.bus_statistics.static_transmissions,
        trace.bus_statistics.wasted_static_slots,
        trace.bus_statistics.dynamic_transmissions,
        trace.bus_statistics.deferred_dynamic_transmissions
    );
    out
}

/// Checks the conservative-model domination property used in Figure 4: the
/// conservative curve must dominate the non-monotonic model, which must
/// dominate the measurement; the simple model must under-estimate somewhere.
pub fn figure4_orderings_hold(data: &Figure4Data) -> bool {
    let conservative_dominates = data
        .non_monotonic
        .iter()
        .zip(&data.conservative)
        .all(|(nm, cm)| cm + 1e-9 >= *nm);
    let model_dominates_measurement = data
        .measured
        .iter()
        .zip(&data.non_monotonic)
        .all(|(measured, nm)| nm + 1e-6 >= *measured);
    let simple_underestimates = data
        .measured
        .iter()
        .zip(&data.simple)
        .any(|(measured, simple)| *simple + 1e-9 < *measured);
    conservative_dominates && model_dominates_measurement && simple_underestimates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_curve_has_paper_shape() {
        let curve = figure3_dwell_wait_curve().unwrap();
        assert!(curve.is_non_monotonic());
        assert!(curve.max_dwell() > curve.xi_tt);
        let text = render_curve(&curve, 10);
        assert!(text.contains("k_wait"));
        assert!(text.contains("xi_tt"));
    }

    #[test]
    fn figure4_orderings() {
        let data = figure4_models().unwrap();
        assert!(figure4_orderings_hold(&data));
        assert_eq!(data.wait_times.len(), data.measured.len());
        assert_eq!(data.wait_times.len(), data.non_monotonic.len());
    }

    #[test]
    fn table_renderings_contain_all_rows() {
        let table = table1_published();
        let text = render_table(&table);
        for row in &table {
            assert!(text.contains(&row.name));
        }
    }

    #[test]
    fn allocation_rendering_mentions_counts() {
        let outcome = slot_allocation_comparison().unwrap();
        let text = render_allocation(&outcome, &table1_published());
        assert!(text.contains("3 TT slots"));
        assert!(text.contains("5 TT slots"));
        assert!(text.contains("67 %"));
    }
}
