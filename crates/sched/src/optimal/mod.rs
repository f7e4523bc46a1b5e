//! Exact TT-slot allocation by branch-and-bound (the design-space companion
//! to the greedy heuristics of [`crate::allocate_slots`]).
//!
//! Minimising the number of TT slots generalises bin packing and is NP-hard,
//! but the fleets the paper dimensions are small (a handful to a few dozen
//! applications), so an exact search is practical — and it turns the
//! heuristic sweep into a provable tool: every greedy answer becomes an upper
//! bound the solver must meet or beat.
//!
//! The module splits into:
//!
//! * [`search`](self) (private) — the restricted-growth DFS core, the
//!   allocation-free per-slot analysis and the deadness test;
//! * `bounds` (private) — the slot-demand relaxation and the
//!   pairwise-conflict clique lower bound;
//! * [`PortfolioAllocator`] — the exact driver: restart-seeded incumbent,
//!   node budget, cancellation token and a worker-count knob
//!   ([`PortfolioConfig::threads`]; one worker runs inline, without
//!   spawning);
//! * [`allocate_slots_optimal`] — the sequential reference: one plain
//!   greedy-seeded `dfs` that the portfolio must reproduce bit for bit.
//!
//! # Search space
//!
//! Applications are processed in the same deterministic priority order as the
//! greedy allocator (increasing deadline, name tie-break). A node of the
//! search tree is a partial assignment of the first `k` applications to
//! slots; application `k` branches over every currently open slot (in
//! creation order) and, last, over opening a new slot. Because applications
//! arrive in a fixed order and a new slot is always the next unused index,
//! every set partition of the fleet is enumerated exactly once (the standard
//! restricted-growth canonical form), so slot-relabelling symmetries are
//! never explored.
//!
//! # Feasibility is a property of *final* slot contents
//!
//! The non-monotonic dwell curve means schedulability is **not** monotone
//! under adding applications to a slot: the extra interference increases a
//! member's maximum wait time, and on the falling segment of the curve a
//! larger wait can *reduce* the total response `ξ(k̂) = k̂ + k_dw(k̂)` (or push
//! it past ξᴱᵀ, where the response caps at ξᴱᵀ). A sound exact solver may
//! therefore only prune a branch when a slot is **dead** — provably
//! unschedulable for *every* superset of its current members — and must
//! verify full schedulability at the leaves. Deadness uses two monotone
//! facts proved in the paper's analysis:
//!
//! * the maximum wait time of a member only grows as applications join its
//!   slot (more blocking, more interference, larger utilisation `m`), and an
//!   overloaded slot (`m ≥ 1`) can never recover;
//! * the response at any *future* wait `w′ ≥ w` is bounded below by
//!   `min_{t ≥ w} ξ(t)`, which is attained at a segment endpoint of the
//!   piecewise-linear dwell model (the current wait, the peak `k_p`, or
//!   ξᴱᵀ).
//!
//! If that floor already exceeds a member's deadline, no completion can fix
//! the slot and the branch is cut.
//!
//! # Lower bounds
//!
//! Nodes are cut when `open slots + lower bound ≥ incumbent`. Two valid
//! bounds combine (their maximum): the slot-demand relaxation of the
//! paper's Eq. (19) (every feasible slot carries demand
//! `Σ (ξᴹⱼ + ΔΨ)/rⱼ < 1 + u_max`, yielding a bin-packing floor for the
//! unassigned suffix) and a pairwise-conflict clique bound (applications
//! whose two-member slot is provably dead under the monotone response
//! envelope can never share a slot, so a conflict clique forces that many
//! distinct slots). See the `bounds` module docs for the soundness
//! arguments.
//!
//! The incumbent is seeded with the best feasible greedy allocation
//! (next-fit, first-fit and best-fit under the same model and wait-time
//! method), so the search is pure improvement: it returns a strictly better
//! allocation or proves the greedy one optimal.
//!
//! # Determinism and allocation-freedom
//!
//! Branching order, priority order and tie-breaks are all deterministic, so
//! the returned allocation is a pure function of the inputs — for the
//! sequential reference *and* for the portfolio at any worker count (see
//! [`PortfolioAllocator`] for the two-phase argument). After
//! [`PortfolioAllocator::new`] returns, a single-worker
//! [`PortfolioAllocator::solve_in_place`] performs no heap allocation: slot
//! membership, status flags and the best assignment live in buffers sized
//! at construction, and the per-node schedulability check and bound stream
//! over those buffers (verified by the workspace's counting-allocator
//! test).

mod bounds;
mod portfolio;
mod search;

pub use portfolio::{allocate_slots_portfolio, PortfolioAllocator, PortfolioConfig};

use crate::allocation::{AllocatorConfig, SlotAllocation};
use crate::app::AppTimingParams;
use crate::error::{Result, SchedError};

use search::{dfs, seed_greedy, Driver, Problem, SearchState};

/// The reference's [`Driver`]: plain-field incumbent, record-and-continue
/// at improving leaves, no budget and no cancellation.
struct ReferenceDriver<'s> {
    best_slots: &'s mut [Vec<usize>],
    best_used: usize,
}

impl Driver for ReferenceDriver<'_> {
    fn bound(&self) -> usize {
        self.best_used
    }
    fn enter_node(&mut self) -> bool {
        true
    }
    fn on_leaf(&mut self, state: &SearchState) -> bool {
        self.best_used = state.used;
        for (best, slot) in self.best_slots.iter_mut().zip(&state.slots).take(state.used) {
            best.clear();
            best.extend_from_slice(slot);
        }
        true
    }
}

/// Allocates the applications to TT slots with the *minimum possible* slot
/// count under the configured dwell model and wait-time method
/// (`config.strategy` is ignored): one sequential, greedy-seeded
/// branch-and-bound search whose result never uses more slots than any
/// greedy strategy.
///
/// This is the sequential reference the exact driver is checked against:
/// [`allocate_slots_portfolio`] must return the bit-identical outcome for
/// every worker count (asserted by the test suites against exhaustive
/// enumeration). It has no node budget, no cancellation and no node
/// counter; production code solves through [`PortfolioAllocator`].
///
/// Unlike the greedy [`crate::allocate_slots`] — which requires every
/// application to be schedulable on a dedicated slot because it only ever
/// *adds* blocking — the exact search also finds allocations in which an
/// application is only schedulable thanks to its slot mates (possible under
/// the non-monotonic dwell curve).
///
/// # Errors
///
/// * [`SchedError::InvalidParameter`] if `apps` is empty or `max_slots` is
///   zero.
/// * [`SchedError::NoFeasibleAllocation`] if the search proves no feasible
///   allocation within `config.max_slots` slots exists.
pub fn allocate_slots_optimal(
    apps: &[AppTimingParams],
    config: &AllocatorConfig,
) -> Result<SlotAllocation> {
    let problem = Problem::new(apps, config)?;
    let mut best_slots: Vec<Vec<usize>> =
        (0..problem.pool()).map(|_| Vec::with_capacity(apps.len())).collect();
    let best_used = seed_greedy(&problem, &mut best_slots);
    let mut driver = ReferenceDriver { best_slots: &mut best_slots, best_used };
    dfs(&problem, &mut SearchState::new(&problem), &mut driver, 0);
    let best_used = driver.best_used;
    if best_used == usize::MAX {
        return Err(SchedError::NoFeasibleAllocation { max_slots: problem.max_slots });
    }
    best_slots.truncate(best_used);
    Ok(SlotAllocation { slots: best_slots, model: problem.model, method: problem.method })
}

#[cfg(test)]
mod tests {
    use super::search::{member_response, min_future_response, MemberResponse};
    use super::*;
    use crate::allocation::allocate_slots;
    use crate::case_study_fixtures::paper_table1;
    use crate::dwell::{dwell_for, ModelKind};
    use crate::schedulability::WaitTimeMethod;
    use crate::timing::SlotTiming;

    fn configs() -> Vec<AllocatorConfig> {
        let mut out = Vec::new();
        for model in [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic] {
            for method in [WaitTimeMethod::ClosedFormBound, WaitTimeMethod::ExactFixedPoint] {
                out.push(AllocatorConfig { model, method, ..AllocatorConfig::default() });
            }
        }
        out
    }

    #[test]
    fn paper_case_study_optima_match_the_greedy_headline() {
        let apps = paper_table1();
        for config in configs() {
            let optimal = allocate_slots_optimal(&apps, &config).unwrap();
            let greedy = allocate_slots(&apps, &config).unwrap();
            assert!(optimal.verify_with(&apps, SlotTiming::ZERO).unwrap());
            assert!(optimal.slot_count() <= greedy.slot_count());
        }
        // The paper's greedy 3-slot result is already optimal.
        let optimal = allocate_slots_optimal(&apps, &AllocatorConfig::default()).unwrap();
        assert_eq!(optimal.slot_count(), 3);
    }

    #[test]
    fn streaming_member_analysis_matches_reference_analysis() {
        let apps = paper_table1();
        let slots: Vec<Vec<usize>> =
            vec![vec![2, 5], vec![1, 3], vec![4, 0], vec![0, 1, 2, 3, 4, 5], vec![3]];
        let timings =
            [SlotTiming::ZERO, SlotTiming::new(0.3).unwrap(), SlotTiming::new(0.8).unwrap()];
        for model in
            [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic, ModelKind::SimpleMonotonic]
        {
            for method in [WaitTimeMethod::ClosedFormBound, WaitTimeMethod::ExactFixedPoint] {
                for timing in timings {
                    for slot in &slots {
                        let mut streaming = true;
                        for &index in slot {
                            match member_response(&apps, slot, index, model, method, timing) {
                                MemberResponse::Finite { response, .. } => {
                                    if response > apps[index].deadline {
                                        streaming = false;
                                    }
                                }
                                _ => streaming = false,
                            }
                        }
                        let reference =
                            crate::is_slot_schedulable(&apps, slot, model, method, timing).unwrap();
                        assert_eq!(
                            streaming, reference,
                            "slot {slot:?} model {model:?} method {method:?} timing {timing:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slot_timing_overhead_raises_the_optimum() {
        let apps = paper_table1();
        // The baseline optimum is the greedy 3-slot packing; a 0.8 s
        // per-slot overhead (exaggerated — physical ΔΨ is microseconds)
        // makes S1 = {C3, C6} infeasible, so even the exact search needs
        // more slots, and its result verifies only under its own geometry.
        let timing = SlotTiming::new(0.8).unwrap();
        let config = AllocatorConfig { slot_timing: timing, ..AllocatorConfig::default() };
        let baseline = allocate_slots_optimal(&apps, &AllocatorConfig::default()).unwrap();
        let stretched = allocate_slots_optimal(&apps, &config).unwrap();
        assert_eq!(baseline.slot_count(), 3);
        assert!(stretched.slot_count() > baseline.slot_count());
        assert!(stretched.verify_with(&apps, timing).unwrap());
        assert!(!baseline.verify_with(&apps, timing).unwrap());
        // The exact search still meets or beats every greedy strategy under
        // the same geometry.
        let greedy = allocate_slots(&apps, &config).unwrap();
        assert!(stretched.slot_count() <= greedy.slot_count());
    }

    #[test]
    fn clique_lower_bound_never_exceeds_the_optimum() {
        let apps = paper_table1();
        for config in configs() {
            let mut solver =
                PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(1))
                    .unwrap();
            let clique = solver.clique_lower_bound();
            if let Some(optimum) = solver.solve_in_place() {
                assert!(
                    clique <= optimum,
                    "clique bound {clique} exceeds optimum {optimum} under {config:?}"
                );
            }
        }
    }

    #[test]
    fn infeasible_fleets_report_no_feasible_allocation() {
        let apps = paper_table1();
        let config = AllocatorConfig {
            model: ModelKind::ConservativeMonotonic,
            max_slots: 3,
            ..AllocatorConfig::default()
        };
        // The conservative model needs 5 slots; 3 are offered.
        assert!(matches!(
            allocate_slots_optimal(&apps, &config),
            Err(SchedError::NoFeasibleAllocation { max_slots: 3 })
        ));
        // An application that can never meet its deadline poisons every
        // partition.
        let impossible =
            vec![AppTimingParams::new("X", 10.0, 0.2, 0.39, 3.97, 0.64, 0.69).unwrap()];
        assert!(allocate_slots_optimal(&impossible, &AllocatorConfig::default()).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let apps = paper_table1();
        assert!(allocate_slots_optimal(&[], &AllocatorConfig::default()).is_err());
        assert!(allocate_slots_optimal(
            &apps,
            &AllocatorConfig { max_slots: 0, ..AllocatorConfig::default() }
        )
        .is_err());
    }

    #[test]
    fn single_application_needs_one_slot() {
        let apps = vec![AppTimingParams::new("X", 10.0, 2.0, 0.39, 3.97, 0.64, 0.69).unwrap()];
        let allocation = allocate_slots_optimal(&apps, &AllocatorConfig::default()).unwrap();
        assert_eq!(allocation.slot_count(), 1);
        assert_eq!(allocation.slots[0], vec![0]);
    }

    #[test]
    fn min_future_response_is_a_true_floor() {
        let apps = paper_table1();
        for app in &apps {
            for kind in [
                ModelKind::NonMonotonic,
                ModelKind::ConservativeMonotonic,
                ModelKind::SimpleMonotonic,
            ] {
                for start in 0..40 {
                    let wait = start as f64 * 0.33;
                    let floor = min_future_response(app, kind, wait);
                    // Sample the tail densely; the floor must bound it below.
                    for extra in 0..200 {
                        let t = wait + extra as f64 * 0.1;
                        let response = if t >= app.xi_et {
                            app.xi_et
                        } else {
                            t + dwell_for(app, kind, t)
                        };
                        assert!(
                            floor <= response + 1e-9,
                            "{} {kind:?}: floor {floor} exceeds response {response} at t={t}",
                            app.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn portfolio_matches_sequential_on_the_paper_fleet() {
        let apps = paper_table1();
        for config in configs() {
            let sequential = allocate_slots_optimal(&apps, &config).unwrap();
            for threads in 1..=4 {
                let portfolio = PortfolioConfig::with_threads(threads);
                let parallel = allocate_slots_portfolio(&apps, &config, &portfolio).unwrap();
                assert_eq!(parallel, sequential, "threads={threads} config={config:?}");
            }
        }
    }

    #[test]
    fn portfolio_is_idempotent_and_aggregates_nodes() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        let mut solver =
            PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(1)).unwrap();
        assert_eq!(solver.greedy_bound(), Some(3));
        assert!(solver.incumbent_bound().unwrap() <= 3);
        let first = solver.solve_in_place();
        let nodes = solver.nodes_explored();
        let allocation_a = solver.best_allocation().unwrap();
        assert_eq!(first, Some(3));
        assert!(solver.certified_optimal());
        assert!(nodes > 0);
        for _ in 0..3 {
            assert_eq!(solver.solve_in_place(), first);
            assert_eq!(solver.best_allocation().unwrap(), allocation_a);
            // One worker: the aggregate node count is deterministic.
            assert_eq!(solver.nodes_explored(), nodes);
        }
    }

    #[test]
    fn portfolio_budget_and_cancellation_degrade_like_sequential() {
        let apps = paper_table1();
        let config = AllocatorConfig::default();
        for threads in [1, 2] {
            let mut solver =
                PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(threads))
                    .unwrap();
            let exact = solver.solve_in_place();
            assert!(solver.certified_optimal());
            let exact_allocation = solver.best_allocation().unwrap();

            // Budgets of 0 and 1 both cut at the generation root: the
            // incumbent (on this fleet, the greedy seed) comes back
            // uncertified.
            for budget in [0, 1] {
                solver.set_node_budget(Some(budget));
                let degraded = solver.solve_in_place();
                assert_eq!(degraded, solver.incumbent_bound(), "threads={threads}");
                assert_eq!(degraded, solver.greedy_bound(), "threads={threads}");
                assert!(!solver.certified_optimal());
                assert!(solver
                    .best_allocation()
                    .unwrap()
                    .verify_with(&apps, SlotTiming::ZERO)
                    .unwrap());
            }

            // An armed but un-cancelled token leaves the result unchanged.
            solver.set_node_budget(None);
            let token = crate::CancelToken::new();
            solver.set_cancel_token(Some(token.clone()));
            assert_eq!(solver.solve_in_place(), exact);
            assert!(solver.certified_optimal());

            // Pre-cancelled token: same ladder.
            token.cancel();
            assert_eq!(solver.solve_in_place(), solver.incumbent_bound());
            assert!(!solver.certified_optimal());

            // Clearing both restores the certified optimum, bit for bit —
            // cut solves never corrupt solver state.
            solver.set_cancel_token(None);
            assert_eq!(solver.solve_in_place(), exact);
            assert!(solver.certified_optimal());
            assert_eq!(solver.best_allocation().unwrap(), exact_allocation);
        }
    }

    #[test]
    fn portfolio_proves_infeasibility_like_sequential() {
        let apps = paper_table1();
        let config = AllocatorConfig {
            model: ModelKind::ConservativeMonotonic,
            max_slots: 3,
            ..AllocatorConfig::default()
        };
        // An application that misses its deadline even alone: no greedy or
        // restart incumbent exists.
        let impossible =
            vec![AppTimingParams::new("X", 10.0, 0.2, 0.39, 3.97, 0.64, 0.69).unwrap()];
        let cancelled = crate::CancelToken::new();
        cancelled.cancel();
        for threads in [1, 3] {
            let portfolio = PortfolioConfig::with_threads(threads);
            let result = allocate_slots_portfolio(&apps, &config, &portfolio);
            assert!(matches!(result, Err(SchedError::NoFeasibleAllocation { max_slots: 3 })));

            let default = AllocatorConfig::default();
            let mut solver = PortfolioAllocator::new(&impossible, &default, &portfolio).unwrap();
            assert_eq!(solver.incumbent_bound(), None);
            assert!(matches!(solver.solve(), Err(SchedError::NoFeasibleAllocation { .. })));
            // A cut search with no incumbent has no answer at all: solve()
            // reports the cut, not infeasibility.
            solver.set_cancel_token(Some(cancelled.clone()));
            assert!(matches!(solver.solve(), Err(SchedError::SearchCancelled { .. })));
            assert!(!solver.certified_optimal());
        }
    }
}
