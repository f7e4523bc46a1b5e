//! Oracle suite for the exact branch-and-bound slot allocator.
//!
//! The exact allocator is `PortfolioAllocator`; `allocate_slots_optimal` is
//! its sequential reference. Both claim a *true minimum*; this suite pins
//! that claim against an independent cross-crate oracle: exhaustive
//! enumeration of **every** set partition of the fleet (restricted-growth
//! canonical form), with each candidate partition judged by the public
//! `SlotAllocation::verify_with` — the same cross-checked analysis the rest
//! of the workspace trusts. The branch-and-bound result must match the
//! enumerated minimum on every fleet, under every dwell model × wait-time
//! method combination.
//!
//! The suite also commits the fixture behind the headline design claim: a
//! fleet on which *all twelve* greedy heuristics of
//! `AllocatorConfig::sweep_matrix` are strictly suboptimal, and only the
//! exact search finds the 2-slot packing.
//!
//! The suite also gates the portfolio against the reference: for every
//! oracle case — the small-fleet grid *and* 8–10 application fleets — the
//! portfolio must return the **bit-identical** `SlotAllocation` (same slot
//! count *and* same deterministically tie-broken assignment) for every
//! worker count 1..=8, and a property test pins the conflict-clique lower
//! bound below the true optimum.
//!
//! `ci.sh` fails if this file stops being collected — the optimality story
//! rests on it.

use automotive_cps::sched::{
    allocate_slots, allocate_slots_optimal, allocate_slots_portfolio, AllocatorConfig,
    AppTimingParams, ModelKind, PortfolioAllocator, PortfolioConfig, SlotAllocation, SlotTiming,
    WaitTimeMethod,
};
use proptest::prelude::*;

/// The four model × method combinations the allocator supports (the unsafe
/// simple monotonic model is excluded, as in `sweep_matrix`).
fn analysis_configs(max_slots: usize) -> Vec<AllocatorConfig> {
    let mut configs = Vec::new();
    for model in [ModelKind::NonMonotonic, ModelKind::ConservativeMonotonic] {
        for method in [WaitTimeMethod::ClosedFormBound, WaitTimeMethod::ExactFixedPoint] {
            configs.push(AllocatorConfig { model, method, max_slots, ..AllocatorConfig::default() });
        }
    }
    configs
}

/// Exhaustive oracle: the minimum slot count over *all* feasible set
/// partitions of the fleet (at most `max_slots` parts), judged by
/// `SlotAllocation::verify_with`. `None` if no partition is feasible.
fn oracle_minimum(apps: &[AppTimingParams], config: &AllocatorConfig) -> Option<usize> {
    let mut assignment = vec![0usize; apps.len()];
    let mut best: Option<usize> = None;
    enumerate_partitions(apps, config, &mut assignment, 0, 0, &mut best);
    best
}

/// Recursive restricted-growth enumeration: application `depth` joins one of
/// the `groups` existing groups or opens group `groups` (canonical form, so
/// every partition appears exactly once).
fn enumerate_partitions(
    apps: &[AppTimingParams],
    config: &AllocatorConfig,
    assignment: &mut [usize],
    depth: usize,
    groups: usize,
    best: &mut Option<usize>,
) {
    if depth == apps.len() {
        if groups > config.max_slots {
            return;
        }
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); groups];
        for (app, &group) in assignment.iter().enumerate() {
            slots[group].push(app);
        }
        let candidate =
            SlotAllocation { slots, model: config.model, method: config.method };
        if candidate.verify_with(apps, config.slot_timing).expect("analysis runs")
            && best.map_or(true, |b| groups < b)
        {
            *best = Some(groups);
        }
        return;
    }
    for group in 0..=groups.min(config.max_slots.saturating_sub(1)) {
        assignment[depth] = group;
        let next_groups = groups.max(group + 1);
        enumerate_partitions(apps, config, assignment, depth + 1, next_groups, best);
    }
}

/// Deterministic LCG over plausible Table-I parameter ranges (mirrors the
/// bench crate's generator, with wider deadline spread so some fleets are
/// hard to pack and some are infeasible under the conservative model).
fn random_fleet(n: usize, seed: u64) -> Vec<AppTimingParams> {
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

/// The committed fixture on which every greedy heuristic is strictly
/// suboptimal: four applications with near-equal deadlines whose dwell
/// peaks act like bin-packing item sizes 0.8, 0.8, 1.1, 1.1 against a
/// response budget of ~2 s. Priority order is the listing order, so every
/// greedy strategy pairs the two 0.8s first ({A1,A2} leaves no room for a
/// 1.1) and ends with 3 slots; the exact search pairs 0.8 with 1.1 twice.
fn greedy_trap_fleet() -> Vec<AppTimingParams> {
    let mk = |name: &str, xi_m: f64, deadline: f64| {
        AppTimingParams::new(name, 200.0, deadline, 0.1, 10.0, xi_m, 0.05)
            .expect("fixture parameters are valid")
    };
    vec![
        mk("A1", 0.8, 2.00),
        mk("A2", 0.8, 2.01),
        mk("A3", 1.1, 2.02),
        mk("A4", 1.1, 2.03),
    ]
}

#[test]
fn branch_and_bound_matches_exhaustive_enumeration_on_random_fleets() {
    let mut checked = 0usize;
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    for n in 2..=5 {
        for seed in 0..12 {
            let apps = random_fleet(n, seed * 1000 + n as u64);
            // An uncapped pass (dedicated slots always possible) and a
            // single-slot pass (often infeasible) so both verdicts are
            // exercised against the oracle.
            for config in
                analysis_configs(n).into_iter().chain(analysis_configs(1))
            {
                let oracle = oracle_minimum(&apps, &config);
                let solver = allocate_slots_optimal(&apps, &config);
                match (oracle, solver) {
                    (Some(minimum), Ok(allocation)) => {
                        assert_eq!(
                            allocation.slot_count(),
                            minimum,
                            "n={n} seed={seed} {:?}/{:?}: solver found {} slots, \
                             exhaustive minimum is {minimum}",
                            config.model,
                            config.method,
                            allocation.slot_count()
                        );
                        assert!(
                            allocation.verify_with(&apps, SlotTiming::ZERO).expect("analysis runs"),
                            "n={n} seed={seed}: solver returned an infeasible map"
                        );
                        feasible += 1;
                    }
                    (None, Err(_)) => infeasible += 1,
                    (oracle, solver) => panic!(
                        "n={n} seed={seed} {:?}/{:?}: oracle and solver disagree on \
                         feasibility: {oracle:?} vs {solver:?}",
                        config.model, config.method
                    ),
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 4 * 12 * 8);
    // The sweep must exercise both verdicts to mean anything.
    assert!(feasible > 50, "only {feasible} feasible cases — generator too harsh");
    assert!(infeasible > 0, "no infeasible cases — generator too lenient");
}

#[test]
fn branch_and_bound_matches_exhaustive_enumeration_on_the_paper_fleet() {
    // Six applications is past the issue's ≤5 floor but still only 203
    // partitions — cheap, and it pins the headline numbers to the oracle:
    // the greedy 3-slot (non-monotonic) and 5-slot (conservative) designs
    // are not just heuristic outcomes, they are provably optimal.
    let apps = automotive_cps::core::case_study::paper_table1();
    for config in analysis_configs(apps.len()) {
        let oracle = oracle_minimum(&apps, &config).expect("paper fleet is schedulable");
        let allocation = allocate_slots_optimal(&apps, &config).expect("paper fleet solves");
        assert_eq!(allocation.slot_count(), oracle);
        match config.model {
            ModelKind::NonMonotonic => assert_eq!(oracle, 3),
            ModelKind::ConservativeMonotonic => assert_eq!(oracle, 5),
            ModelKind::SimpleMonotonic => unreachable!("not part of the analysis configs"),
        }
    }
}

#[test]
fn committed_fixture_beats_every_greedy_heuristic_strictly() {
    let apps = greedy_trap_fleet();
    let base = AllocatorConfig { max_slots: apps.len(), ..AllocatorConfig::default() };

    // Every greedy heuristic in the sweep matrix (3 strategies × 2 safe
    // models × 2 wait-time methods) produces a feasible but strictly
    // suboptimal allocation.
    let sweep = base.sweep_matrix();
    assert_eq!(sweep.len(), 12);
    for config in &sweep {
        let greedy = allocate_slots(&apps, config).expect("greedy succeeds on the fixture");
        assert!(greedy.verify_with(&apps, SlotTiming::ZERO).expect("analysis runs"));
        assert_eq!(
            greedy.slot_count(),
            3,
            "{}/{:?}/{:?} was expected to need 3 slots",
            config.strategy,
            config.model,
            config.method
        );
    }

    // The exact search needs only 2 — and the oracle agrees that 2 is the
    // true minimum under every model × method combination.
    for config in analysis_configs(apps.len()) {
        let optimal = allocate_slots_optimal(&apps, &config).expect("fixture solves");
        assert_eq!(optimal.slot_count(), 2);
        assert!(optimal.verify_with(&apps, SlotTiming::ZERO).expect("analysis runs"));
        assert_eq!(oracle_minimum(&apps, &config), Some(2));
        // The winning packing pairs a small peak with a large one.
        for slot in &optimal.slots {
            assert_eq!(slot.len(), 2);
            let peaks: Vec<f64> = slot.iter().map(|&i| apps[i].xi_m).collect();
            assert!(peaks.contains(&0.8) && peaks.contains(&1.1));
        }
    }
}

#[test]
fn branch_and_bound_matches_exhaustive_enumeration_under_slot_timing() {
    // The Ψ axis of the bus design space: the per-slot transmission
    // overhead stretches every blocking/interference occupancy and the
    // solver's demand bound. The solver must still find the exhaustive
    // minimum — judged by `verify_with` under the *same* geometry — for
    // every overhead in the case matrix (0.2/0.8 s are exaggerated relative
    // to physical slot-length deltas so verdicts actually flip).
    let overheads = [SlotTiming::new(0.2).unwrap(), SlotTiming::new(0.8).unwrap()];
    let mut checked = 0usize;
    let mut feasible = 0usize;
    let mut infeasible = 0usize;
    let mut shrunk_by_timing = 0usize;
    for n in 2..=4 {
        for seed in 0..6 {
            let apps = random_fleet(n, seed * 3000 + n as u64);
            for base in analysis_configs(n) {
                let baseline = oracle_minimum(&apps, &base);
                for timing in overheads {
                    let config = AllocatorConfig { slot_timing: timing, ..base };
                    let oracle = oracle_minimum(&apps, &config);
                    let solver = allocate_slots_optimal(&apps, &config);
                    match (oracle, solver) {
                        (Some(minimum), Ok(allocation)) => {
                            assert_eq!(
                                allocation.slot_count(),
                                minimum,
                                "n={n} seed={seed} {:?}/{:?} overhead={}: solver found {} \
                                 slots, exhaustive minimum is {minimum}",
                                config.model,
                                config.method,
                                timing.overhead(),
                                allocation.slot_count()
                            );
                            assert!(allocation
                                .verify_with(&apps, timing)
                                .expect("analysis runs"));
                            feasible += 1;
                        }
                        (None, Err(_)) => infeasible += 1,
                        (oracle, solver) => panic!(
                            "n={n} seed={seed} {:?}/{:?} overhead={}: oracle and solver \
                             disagree on feasibility: {oracle:?} vs {solver:?}",
                            config.model,
                            config.method,
                            timing.overhead()
                        ),
                    }
                    // Stretching the geometry can only cost slots, never
                    // save them (occupancies grow monotonically in ΔΨ).
                    if let (Some(baseline), Some(stretched)) = (baseline, oracle) {
                        assert!(stretched >= baseline);
                        if stretched > baseline {
                            shrunk_by_timing += 1;
                        }
                    }
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 3 * 6 * 4 * 2);
    assert!(feasible > 30, "only {feasible} feasible cases — generator too harsh");
    assert!(infeasible > 0 || shrunk_by_timing > 0, "the overhead axis never exercised");

    // The paper fleet under a stretched geometry: the optimum moves from 3
    // slots to the exhaustive minimum of the stretched analysis.
    let apps = automotive_cps::core::case_study::paper_table1();
    let config = AllocatorConfig {
        slot_timing: SlotTiming::new(0.8).unwrap(),
        ..AllocatorConfig::default()
    };
    let oracle = oracle_minimum(&apps, &config).expect("paper fleet stays schedulable");
    let allocation = allocate_slots_optimal(&apps, &config).expect("solver succeeds");
    assert_eq!(allocation.slot_count(), oracle);
    assert!(oracle > 3, "0.8 s of per-slot overhead must cost the paper fleet slots");
}

/// Asserts the portfolio's central invariant on one case: for every worker
/// count 1..=8 the parallel solver returns exactly the sequential outcome —
/// the bit-identical `SlotAllocation` when feasible, the same error when
/// not.
fn assert_portfolio_bit_identical(
    apps: &[AppTimingParams],
    config: &AllocatorConfig,
    context: &str,
) {
    let sequential = allocate_slots_optimal(apps, config);
    for threads in 1..=8usize {
        let portfolio =
            allocate_slots_portfolio(apps, config, &PortfolioConfig::with_threads(threads));
        assert_eq!(
            portfolio, sequential,
            "{context} threads={threads}: portfolio diverged from the sequential solver"
        );
    }
}

#[test]
fn portfolio_is_bit_identical_to_sequential_on_the_oracle_grid() {
    // The full grid behind `branch_and_bound_matches_exhaustive_enumeration_
    // on_random_fleets` — every fleet × config case the oracle certifies,
    // re-run through every worker count. Feasible and infeasible cases
    // alike must agree exactly.
    for n in 2..=5 {
        for seed in 0..12 {
            let apps = random_fleet(n, seed * 1000 + n as u64);
            for config in analysis_configs(n).into_iter().chain(analysis_configs(1)) {
                assert_portfolio_bit_identical(
                    &apps,
                    &config,
                    &format!("n={n} seed={seed} {:?}/{:?}", config.model, config.method),
                );
            }
        }
    }
}

#[test]
fn branch_and_bound_matches_exhaustive_enumeration_on_mid_size_fleets() {
    // 8–10 applications: large enough that the frontier actually splits
    // across workers (the small-fleet grid often fits a single subtree),
    // still small enough for the exhaustive oracle (Bell(10) = 115 975
    // partitions). Each case is judged by the oracle *and* re-run through
    // every worker count.
    let full = analysis_configs(0).len(); // 4 model × method combinations
    assert_eq!(full, 4);
    let cases: Vec<(usize, u64, Vec<usize>)> = vec![
        (8, 81, (0..4).collect()),
        (8, 82, (0..4).collect()),
        (8, 83, (0..4).collect()),
        (9, 91, vec![0, 3]),
        (9, 92, vec![0, 3]),
        (10, 101, vec![0, 3]),
    ];
    let mut feasible = 0usize;
    for (n, seed, config_indices) in cases {
        let apps = random_fleet(n, seed);
        let configs = analysis_configs(n);
        for index in config_indices {
            let config = configs[index];
            let context = format!("n={n} seed={seed} {:?}/{:?}", config.model, config.method);
            let oracle = oracle_minimum(&apps, &config);
            match (oracle, allocate_slots_optimal(&apps, &config)) {
                (Some(minimum), Ok(allocation)) => {
                    assert_eq!(
                        allocation.slot_count(),
                        minimum,
                        "{context}: solver found {} slots, exhaustive minimum is {minimum}",
                        allocation.slot_count()
                    );
                    assert!(
                        allocation.verify_with(&apps, SlotTiming::ZERO).expect("analysis runs"),
                        "{context}"
                    );
                    feasible += 1;
                }
                (None, Err(_)) => {}
                (oracle, solver) => panic!(
                    "{context}: oracle and solver disagree on feasibility: \
                     {oracle:?} vs {solver:?}"
                ),
            }
            assert_portfolio_bit_identical(&apps, &config, &context);
        }
    }
    assert!(feasible >= 8, "only {feasible} feasible mid-size cases — seeds too harsh");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The conflict-clique relaxation is a *valid* lower bound: on any
    /// fleet the solver can decide, the clique size never exceeds the true
    /// optimal slot count (if it did, pruning could cut the optimum and
    /// the portfolio's first-leaf determinism argument would collapse).
    #[test]
    fn clique_lower_bound_never_exceeds_the_true_optimum(
        n in 2usize..8,
        seed in 0i64..1_000_000,
        config_index in 0usize..4,
    ) {
        let apps = random_fleet(n, seed as u64);
        let config = analysis_configs(n)[config_index];
        let mut solver =
            PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(1))
                .expect("solver builds");
        let clique = solver.clique_lower_bound();
        if let Some(optimum) = solver.solve_in_place() {
            prop_assert!(
                clique <= optimum,
                "clique bound {clique} exceeds the optimum {optimum} \
                 (n={n} seed={seed} {:?}/{:?})",
                config.model,
                config.method
            );
        }
    }
}

#[test]
fn greedy_bound_is_always_met_or_beaten() {
    // The solver's contract on every fleet the greedy allocator can handle:
    // its incumbent seed is the best greedy result, and the exact answer
    // never exceeds it (strictly beats it on the committed fixture above).
    for n in 2..=5 {
        for seed in 100..106 {
            let apps = random_fleet(n, seed * 7919 + n as u64);
            for config in analysis_configs(n) {
                let mut solver =
                    PortfolioAllocator::new(&apps, &config, &PortfolioConfig::with_threads(1))
                        .expect("solver builds");
                let greedy = solver.greedy_bound();
                let solved = solver.solve_in_place();
                if let (Some(greedy), Some(optimal)) = (greedy, solved) {
                    assert!(
                        optimal <= greedy,
                        "n={n} seed={seed}: optimal {optimal} exceeds greedy bound {greedy}"
                    );
                }
                // A greedy solution implies the exact search finds one too.
                if greedy.is_some() {
                    assert!(solved.is_some());
                }
            }
        }
    }
}
