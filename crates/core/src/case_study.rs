//! The paper's Section V case study: the published Table I (exact numbers),
//! a fully synthetic six-application fleet derived end-to-end from plant
//! models, and the slot-allocation comparison that yields the headline
//! "3 slots vs. 5 slots (+67 %)" result.

use crate::application::{ApplicationSpec, ControlApplication, ControllerSpec};
use crate::error::Result;
use cps_control::plants;
use cps_sched::{
    allocate_slots, AllocatorConfig, AppTimingParams, ModelKind, SlotAllocation, WaitTimeMethod,
};

/// The paper's Table I, exactly as published (re-exported from `cps-sched`).
pub fn paper_table1() -> Vec<AppTimingParams> {
    cps_sched::case_study_fixtures::paper_table1()
}

/// Outcome of the slot-allocation comparison between the non-monotonic and
/// the conservative monotonic dwell-time models.
#[derive(Debug, Clone)]
pub struct CaseStudyOutcome {
    /// Allocation computed with the paper's non-monotonic model.
    pub non_monotonic: SlotAllocation,
    /// Allocation computed with the conservative monotonic model.
    pub monotonic: SlotAllocation,
    /// Number of TT slots under the non-monotonic model.
    pub non_monotonic_slots: usize,
    /// Number of TT slots under the conservative monotonic model.
    pub monotonic_slots: usize,
    /// Extra communication resource required by the monotonic model,
    /// `(monotonic − non-monotonic) / non-monotonic` (the paper reports 67 %).
    pub overhead_fraction: f64,
}

/// Runs the paper's slot-allocation comparison on a set of applications.
///
/// # Errors
///
/// Propagates allocation failures (e.g. an application that cannot meet its
/// deadline even with a dedicated slot).
pub fn run_slot_allocation(apps: &[AppTimingParams]) -> Result<CaseStudyOutcome> {
    let base = AllocatorConfig {
        model: ModelKind::NonMonotonic,
        method: WaitTimeMethod::ClosedFormBound,
        ..AllocatorConfig::default()
    };
    let non_monotonic = allocate_slots(apps, &base)?;
    let monotonic = allocate_slots(
        apps,
        &AllocatorConfig { model: ModelKind::ConservativeMonotonic, ..base },
    )?;
    let non_monotonic_slots = non_monotonic.slot_count();
    let monotonic_slots = monotonic.slot_count();
    let overhead_fraction =
        (monotonic_slots as f64 - non_monotonic_slots as f64) / non_monotonic_slots as f64;
    Ok(CaseStudyOutcome {
        non_monotonic,
        monotonic,
        non_monotonic_slots,
        monotonic_slots,
        overhead_fraction,
    })
}

/// Sampling period shared by all case-study applications (20 ms, Section V).
pub const CASE_STUDY_PERIOD: f64 = 0.02;
/// Deterministic TT sensor-to-actuator delay (0.7 ms, Section III).
pub const CASE_STUDY_TT_DELAY: f64 = 0.0007;
/// Switching threshold E_th used throughout the case study.
pub const CASE_STUDY_THRESHOLD: f64 = 0.1;

/// The specifications of the six-application synthetic fleet used for the
/// *derived* variant of the case study: standard automotive plants, a
/// deliberately bandwidth-limited (pole-placed) design for the
/// event-triggered loop and a fast design for the time-triggered loop.
pub fn derived_fleet_specs() -> Vec<ApplicationSpec> {
    struct FleetEntry {
        name: &'static str,
        plant: cps_control::ContinuousStateSpace,
        disturbance: Vec<f64>,
        deadline: f64,
        inter_arrival: f64,
        et_poles: Vec<f64>,
        tt_poles: Vec<f64>,
    }
    let entries = vec![
        FleetEntry {
            name: "C1-cruise",
            plant: plants::cruise_control(),
            disturbance: vec![2.0],
            deadline: 9.5,
            inter_arrival: 200.0,
            et_poles: vec![-0.45, -40.0],
            tt_poles: vec![-2.5, -40.0],
        },
        FleetEntry {
            name: "C2-dc-motor",
            plant: plants::dc_motor_speed(),
            disturbance: vec![0.0, 1.0],
            deadline: 6.25,
            inter_arrival: 20.0,
            et_poles: vec![-0.9, -1.0, -40.0],
            tt_poles: vec![-5.0, -6.0, -40.0],
        },
        FleetEntry {
            name: "C3-servo",
            plant: plants::servo_position(),
            disturbance: vec![45.0_f64.to_radians(), 0.0],
            deadline: 8.0,
            inter_arrival: 15.0,
            et_poles: vec![-0.9, -1.0, -40.0],
            tt_poles: vec![-5.0, -6.0, -40.0],
        },
        FleetEntry {
            name: "C4-lane-keeping",
            plant: plants::lane_keeping(),
            disturbance: vec![0.8, 0.0],
            deadline: 7.5,
            inter_arrival: 200.0,
            et_poles: vec![-0.7, -0.8, -40.0],
            tt_poles: vec![-4.5, -5.5, -40.0],
        },
        FleetEntry {
            name: "C5-throttle",
            plant: plants::throttle_control(),
            disturbance: vec![0.6, 0.0],
            deadline: 8.5,
            inter_arrival: 20.0,
            et_poles: vec![-1.0, -1.1, -40.0],
            tt_poles: vec![-6.0, -7.0, -40.0],
        },
        FleetEntry {
            name: "C6-pendulum",
            plant: plants::inverted_pendulum(),
            disturbance: vec![0.25, 0.0],
            deadline: 6.0,
            inter_arrival: 10.0,
            et_poles: vec![-0.8, -0.9, -40.0],
            tt_poles: vec![-5.0, -6.0, -40.0],
        },
    ];
    entries
        .into_iter()
        .map(|entry| ApplicationSpec {
            name: entry.name.to_string(),
            plant: entry.plant,
            period: CASE_STUDY_PERIOD,
            et_delay: CASE_STUDY_PERIOD,
            tt_delay: CASE_STUDY_TT_DELAY,
            threshold: CASE_STUDY_THRESHOLD,
            disturbance: entry.disturbance,
            deadline: entry.deadline,
            inter_arrival: entry.inter_arrival,
            controllers: ControllerSpec::PolePlacement {
                et_poles: entry.et_poles,
                tt_poles: entry.tt_poles,
            },
            input_limit: None,
        })
        .collect()
}

/// A fleet of `count` specifications cycling through the six case-study
/// entries with unique names — the scaling axis for fleet-design throughput
/// studies (the `fleet_design` bench designs a 24-application fleet built
/// this way).
pub fn scaled_fleet_specs(count: usize) -> Vec<ApplicationSpec> {
    let base = derived_fleet_specs();
    (0..count)
        .map(|index| {
            let mut spec = base[index % base.len()].clone();
            spec.name = format!("{}-{}", spec.name, index / base.len());
            spec
        })
        .collect()
}

/// Builds the six-application synthetic derived fleet through the
/// [`crate::FleetDesigner`] pipeline.
///
/// The paper does not publish its plant models, so this fleet exercises the
/// complete pipeline (plant → controllers → characterisation → Table-I
/// parameters → allocation → co-simulation) on equivalent dynamics; the exact
/// published Table I is available separately via [`paper_table1`].
///
/// # Errors
///
/// Propagates controller-design failures.
pub fn derived_fleet() -> Result<Vec<ControlApplication>> {
    crate::designer::FleetDesigner::new().design(derived_fleet_specs())
}

/// Derives a Table-I-style parameter set for a fleet of designed applications
/// by characterising each one's dwell/wait curve and fitting the
/// non-monotonic model — routed through the parallel
/// [`crate::FleetDesigner::characterize`] pass (bit-identical to the
/// sequential per-application path for any worker count).
///
/// # Errors
///
/// Propagates characterisation failures.
pub fn derive_table(fleet: &[ControlApplication]) -> Result<Vec<AppTimingParams>> {
    crate::designer::FleetDesigner::new().characterize(fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_sched::SlotTiming;

    #[test]
    fn paper_allocation_reproduces_headline_result() {
        let apps = paper_table1();
        let outcome = run_slot_allocation(&apps).unwrap();
        assert_eq!(outcome.non_monotonic_slots, 3);
        assert_eq!(outcome.monotonic_slots, 5);
        assert!((outcome.overhead_fraction - 0.6667).abs() < 0.01);
        assert!(outcome.non_monotonic.verify_with(&apps, SlotTiming::ZERO).unwrap());
        assert!(outcome.monotonic.verify_with(&apps, SlotTiming::ZERO).unwrap());
    }

    #[test]
    fn derived_fleet_produces_valid_table_and_allocation() {
        let fleet = derived_fleet().unwrap();
        assert_eq!(fleet.len(), 6);
        let table = derive_table(&fleet).unwrap();
        assert_eq!(table.len(), 6);
        for row in &table {
            assert!(row.xi_tt <= row.xi_et);
            assert!(row.xi_m >= row.xi_tt);
            assert!(row.deadline <= row.inter_arrival);
        }
        let outcome = run_slot_allocation(&table).unwrap();
        assert!(outcome.non_monotonic_slots >= 1);
        assert!(outcome.monotonic_slots >= outcome.non_monotonic_slots);
        assert!(outcome.non_monotonic.verify_with(&table, SlotTiming::ZERO).unwrap());
    }

    #[test]
    fn constants_match_the_paper() {
        assert_eq!(CASE_STUDY_PERIOD, 0.02);
        assert_eq!(CASE_STUDY_TT_DELAY, 0.0007);
        assert_eq!(CASE_STUDY_THRESHOLD, 0.1);
    }
}
