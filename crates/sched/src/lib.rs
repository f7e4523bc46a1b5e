//! # cps-sched
//!
//! Schedulability analysis and TT-slot allocation for the DATE 2019
//! reproduction *Exploiting System Dynamics for Resource-Efficient Automotive
//! CPS Design*.
//!
//! The crate implements the analytical core of the paper:
//!
//! * [`AppTimingParams`] — one row of the paper's Table I (disturbance
//!   inter-arrival time, deadline, pure-mode response times, dwell-curve
//!   breakpoints).
//! * [`NonMonotonicModel`], [`ConservativeMonotonicModel`],
//!   [`SimpleMonotonicModel`], [`PiecewiseLinearModel`] — the dwell-time
//!   models of Figure 4.
//! * [`max_wait_time_bound`] / [`max_wait_time_fixed_point`] — the maximum
//!   wait time of Eq. (5) with the closed-form bound of Eq. (20) whose
//!   existence the paper proves.
//! * [`analyze_application`] / [`analyze_slot`] — worst-case response times
//!   ξ̂ = k̂_wait + k_dw(k̂_wait) and deadline checks.
//! * [`allocate_slots`] — the paper's greedy next-fit slot allocation plus
//!   first-fit and best-fit ablations.
//! * [`PortfolioAllocator`] / [`allocate_slots_portfolio`] — an *exact*
//!   branch-and-bound slot allocation that provably minimises the slot
//!   count: the greedy answers become upper bounds (the incumbent seed) the
//!   search must meet or beat, nodes are cut by a slot-demand relaxation of
//!   the paper's utilisation test (every feasible slot carries demand
//!   `Σ ξᴹⱼ/rⱼ < 1 + u_max`) and by provably-dead slots (wait times only
//!   grow as a slot fills, and the response floor over all larger waits is
//!   attained at a breakpoint of the piecewise-linear dwell curve). One
//!   driver with a worker-count knob ([`PortfolioConfig`]), a node budget
//!   and a cancellation token; [`allocate_slots_optimal`] is the plain
//!   sequential search it is checked against, bit for bit.
//! * [`SlotTiming`] — how the bus's slot geometry enters the analysis: the
//!   extra per-slot transmission time of a swept static slot length Ψ
//!   stretches every blocking/interference occupancy (and the solver's
//!   demand bound). Every analysis function takes a `SlotTiming`
//!   ([`SlotTiming::ZERO`] is the paper's baseline), so both the greedy
//!   allocators and the exact search see Ψ-dependent per-slot capacity.
//! * [`case_study_fixtures::paper_table1`] — the published Table I, from
//!   which the headline 3-versus-5-slot result is reproduced exactly.
//!
//! # Example: the paper's headline result
//!
//! ```
//! use cps_sched::{allocate_slots, AllocatorConfig, ModelKind};
//! use cps_sched::case_study_fixtures::paper_table1;
//!
//! let apps = paper_table1();
//! let non_monotonic = allocate_slots(&apps, &AllocatorConfig::default())?;
//! let monotonic = allocate_slots(
//!     &apps,
//!     &AllocatorConfig { model: ModelKind::ConservativeMonotonic, ..AllocatorConfig::default() },
//! )?;
//! assert_eq!(non_monotonic.slot_count(), 3);
//! assert_eq!(monotonic.slot_count(), 5);
//! # Ok::<(), cps_sched::SchedError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod allocation;
mod app;
mod cancel;
mod dwell;
mod error;
mod optimal;
mod schedulability;
mod timing;
mod wait_time;

pub mod case_study_fixtures;

pub use allocation::{
    allocate_slots, allocation_sweep, AllocationStrategy, AllocatorConfig, SlotAllocation,
};
pub use cancel::CancelToken;
pub use optimal::{
    allocate_slots_optimal, allocate_slots_portfolio, PortfolioAllocator, PortfolioConfig,
};
pub use app::{priority_order, AppTimingParams};
pub use dwell::{
    dwell_for, max_dwell_for, ConservativeMonotonicModel, DwellTimeModel, ModelKind,
    NonMonotonicModel, PiecewiseLinearModel, SimpleMonotonicModel,
};
pub use error::{Result, SchedError};
pub use schedulability::{
    analyze_application, analyze_slot, is_slot_schedulable, ResponseTimeAnalysis, SlotAnalysis,
    WaitTimeMethod,
};
pub use timing::SlotTiming;
pub use wait_time::{
    max_wait_time_bound, max_wait_time_fixed_point, max_wait_time_lower_bound, InterferenceContext,
};
