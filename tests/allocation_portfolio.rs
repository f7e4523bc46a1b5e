//! Regression suite for the portfolio branch-and-bound allocator, the
//! workspace's one exact-allocation driver.
//!
//! The committed fixture is an 18-application fleet (deterministic LCG, seed
//! recorded below) on which the greedy seed is strictly suboptimal, so the
//! exact search has real work to do. The suite pins:
//!
//! * the **single-worker node count** — the recorded cost of proving the
//!   optimum at `threads = 1` (every phase inline, so the count is
//!   deterministic) with the demand + clique bounds and the restart
//!   schedule of this revision; a silent regression of the pruning shows up
//!   as a changed constant, not as a slow test;
//! * the **portfolio node budget** — the parallel solver must reach and
//!   certify the same optimum within a fixed budget for every worker
//!   count, which bounds the parallel search overhead (stale incumbents
//!   can cost extra nodes, but never more than the committed headroom);
//! * **bit-identity** — every worker count and every repeat returns the
//!   same `SlotAllocation` as the sequential reference
//!   `allocate_slots_optimal`, the portfolio's central determinism
//!   invariant;
//! * the degradation ladder — a cancelled or budget-cut parallel search
//!   still answers with the greedy incumbent and refuses to certify.
//!
//! `ci.sh` fails if this file stops being collected.

use automotive_cps::sched::{
    AllocatorConfig, AppTimingParams, CancelToken, PortfolioAllocator, PortfolioConfig, SlotTiming,
};

/// Fleet size of the committed fixture (the floor is 16 applications).
const FIXTURE_APPS: usize = 18;
/// LCG seed of the committed fixture, picked by the exploration probe
/// below: the greedy seed needs 5 slots, the true optimum is 4, and the
/// proof costs a non-trivial (but fast) node count.
const FIXTURE_SEED: u64 = 9005;
/// Optimal slot count of the fixture under the default configuration.
const FIXTURE_OPTIMUM: usize = 4;
/// Best greedy slot count (the incumbent seed the search must beat).
const FIXTURE_GREEDY: usize = 5;
/// Nodes the single-worker portfolio explores to prove the fixture's
/// optimum (frontier generation, count search and reconstruction).
const FIXTURE_SINGLE_WORKER_NODES: u64 = 9730;
/// Node budget under which every portfolio worker count must certify the
/// fixture's optimum. The probe observed 9730–9784 aggregate nodes across
/// worker counts 1–8 (stale shared incumbents cost a few extra nodes over
/// the single worker's 9730); the committed budget fixes ~1.7× headroom.
const FIXTURE_NODE_BUDGET: u64 = 16_384;

/// The committed fixture: a deterministic LCG fleet over plausible Table-I
/// ranges (same generator family as the oracle suite, wider spread so the
/// greedy strategies misplace applications).
fn fixture_fleet() -> Vec<AppTimingParams> {
    lcg_fleet(FIXTURE_APPS, FIXTURE_SEED)
}

fn fixture_config() -> AllocatorConfig {
    AllocatorConfig { max_slots: FIXTURE_APPS, ..AllocatorConfig::default() }
}

fn lcg_fleet(n: usize, seed: u64) -> Vec<AppTimingParams> {
    let mut state = seed.max(1);
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    (0..n)
        .map(|i| {
            let xi_tt = 0.2 + next() * 1.5;
            let xi_et = xi_tt * (2.0 + next() * 4.0);
            let xi_m = xi_tt * (1.0 + next() * 1.2);
            let k_p = xi_et * (0.05 + next() * 0.4);
            let deadline = xi_m + k_p + 0.2 + next() * 3.0;
            let inter_arrival = deadline + 2.0 + next() * 100.0;
            AppTimingParams::new(format!("R{i}"), inter_arrival, deadline, xi_tt, xi_et, xi_m, k_p)
                .expect("generated parameters satisfy the invariants")
        })
        .collect()
}

/// One-off exploration probe used to pick the committed fixture and record
/// its constants; kept for reproducibility (`cargo test -- --ignored`).
#[test]
#[ignore = "fixture exploration probe, not part of the suite"]
fn probe_candidate_fixtures() {
    for n in [16usize, 18] {
        for seed in 9000u64..9010 {
            let apps = lcg_fleet(n, seed);
            let config = AllocatorConfig { max_slots: n, ..AllocatorConfig::default() };
            let mut solver =
                PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(1))
                    .expect("portfolio builds");
            let greedy = solver.greedy_bound();
            let clique = solver.clique_lower_bound();
            let started = std::time::Instant::now();
            let optimum = solver.solve_in_place();
            println!(
                "n={n} seed={seed}: greedy={greedy:?} clique={clique} optimum={optimum:?} \
                 portfolio(1) nodes={} in {:?}",
                solver.nodes_explored(),
                started.elapsed()
            );
            if optimum.is_none() {
                continue;
            }
            let reference =
                automotive_cps::sched::allocate_slots_optimal(&apps, &config).expect("solves");
            assert_eq!(solver.best_allocation().as_ref(), Some(&reference));
            for threads in [2usize, 4, 8] {
                let mut low = u64::MAX;
                let mut high = 0u64;
                for _ in 0..5 {
                    let mut portfolio = PortfolioAllocator::new(
                        &apps,
                        &config,
                        &PortfolioConfig::with_threads(threads),
                    )
                    .expect("portfolio builds");
                    assert_eq!(portfolio.solve_in_place(), optimum);
                    low = low.min(portfolio.nodes_explored());
                    high = high.max(portfolio.nodes_explored());
                }
                println!("  portfolio({threads}): nodes {low}..{high}");
            }
        }
    }
}

#[test]
fn committed_fixture_defeats_the_greedy_seed() {
    let apps = fixture_fleet();
    let config = fixture_config();
    let mut solver = PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(1))
        .expect("portfolio builds");
    assert_eq!(solver.greedy_bound(), Some(FIXTURE_GREEDY));
    let optimum = solver.solve_in_place().expect("fixture is feasible");
    assert_eq!(optimum, FIXTURE_OPTIMUM);
    // The fixture must make the exact search do real work: a greedy-tied
    // optimum would certify straight from the seed.
    assert!(optimum < FIXTURE_GREEDY);
    let allocation = solver.best_allocation().expect("optimum recorded");
    assert!(allocation.verify_with(&apps, SlotTiming::ZERO).expect("analysis runs"));
}

#[test]
fn sequential_node_count_is_recorded_and_stable() {
    // One worker runs every phase sequentially on the calling thread, so
    // its node count is a deterministic function of the fixture.
    let apps = fixture_fleet();
    let mut solver =
        PortfolioAllocator::new(&apps, &fixture_config(), &PortfolioConfig::with_threads(1))
            .expect("portfolio builds");
    for repeat in 0..3 {
        assert_eq!(solver.solve_in_place(), Some(FIXTURE_OPTIMUM));
        assert_eq!(
            solver.nodes_explored(),
            FIXTURE_SINGLE_WORKER_NODES,
            "repeat={repeat}: single-worker node count moved — the pruning, the restart \
             schedule or the search order changed; re-record the constant deliberately if \
             the change is intended"
        );
    }
}

#[test]
fn portfolio_certifies_the_fixture_within_the_committed_budget() {
    let apps = fixture_fleet();
    let config = fixture_config();
    let reference =
        automotive_cps::sched::allocate_slots_optimal(&apps, &config).expect("fixture solves");
    for threads in [1usize, 2, 4, 8] {
        let mut solver =
            PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(threads))
                .expect("portfolio builds");
        solver.set_node_budget(Some(FIXTURE_NODE_BUDGET));
        let allocation = solver.solve().expect("budget suffices");
        assert!(
            solver.certified_optimal(),
            "threads={threads}: portfolio exhausted the committed budget \
             ({} nodes explored of {FIXTURE_NODE_BUDGET})",
            solver.nodes_explored()
        );
        assert_eq!(allocation.slot_count(), FIXTURE_OPTIMUM);
        // Bit-identity against the sequential answer, not just the count.
        assert_eq!(allocation, reference, "threads={threads}");
    }
}

#[test]
fn portfolio_is_bit_identical_across_repeats_and_worker_counts() {
    let apps = fixture_fleet();
    let config = fixture_config();
    let reference =
        automotive_cps::sched::allocate_slots_optimal(&apps, &config).expect("fixture solves");
    for repeat in 0..3 {
        for threads in [1usize, 2, 4, 8] {
            let allocation = automotive_cps::sched::allocate_slots_portfolio(
                &apps,
                &config,
                &PortfolioConfig::with_threads(threads),
            )
            .expect("fixture solves");
            assert_eq!(allocation, reference, "repeat={repeat} threads={threads}");
        }
    }
}

#[test]
fn cancelling_a_parallel_search_mid_flight_keeps_a_valid_incumbent() {
    let apps = fixture_fleet();
    let config = fixture_config();
    let reference =
        automotive_cps::sched::allocate_slots_optimal(&apps, &config).expect("fixture solves");
    // Fire the token from another thread while the 4-worker search runs.
    // The outcome is timing-dependent by construction — either the search
    // finished (certified, bit-identical) or it degraded — but every
    // branch's answer must be a *valid* allocation no worse than the
    // greedy seed.
    let token = CancelToken::new();
    let mut solver =
        PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(4))
            .expect("portfolio builds");
    solver.set_cancel_token(Some(token.clone()));
    let canceller = std::thread::spawn({
        let token = token.clone();
        move || {
            std::thread::sleep(std::time::Duration::from_micros(200));
            token.cancel();
        }
    });
    let outcome = solver.solve();
    canceller.join().expect("canceller joins");
    let allocation = outcome.expect("the greedy incumbent always exists on the fixture");
    assert!(allocation.verify_with(&apps, SlotTiming::ZERO).expect("analysis runs"));
    assert!(allocation.slot_count() <= FIXTURE_GREEDY);
    if solver.certified_optimal() {
        assert_eq!(allocation, reference);
    } else {
        assert!(allocation.slot_count() >= FIXTURE_OPTIMUM);
    }
}

#[test]
fn exhausted_budgets_degrade_to_the_uncertified_incumbent() {
    let apps = fixture_fleet();
    let config = fixture_config();
    for threads in [1usize, 4] {
        let mut solver =
            PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(threads))
                .expect("portfolio builds");
        solver.set_node_budget(Some(1));
        let degraded = solver.solve().expect("incumbent survives the cut");
        assert!(!solver.certified_optimal(), "threads={threads}");
        assert_eq!(degraded.slot_count(), solver.incumbent_bound().expect("seed exists"));
        assert!(degraded.verify_with(&apps, SlotTiming::ZERO).expect("analysis runs"));
    }
}
