//! Perf bench — cost of the *exact* branch-and-bound slot allocation
//! versus the greedy heuristic sweep it upgrades.
//!
//! The solver is the single-worker `PortfolioAllocator` (the exact
//! driver every production path runs), seeded with the best greedy
//! allocation and a deterministic restart schedule, so its cost is the
//! greedy sweep plus the restarts plus the proof of optimality; the
//! interesting quantity is how that proof scales with fleet size. `solve`
//! benches run on a pre-constructed solver (`solve_in_place` is
//! allocation-free at one worker and idempotent), mirroring how the
//! design-space sweeps reuse one solver per fleet.
//!
//! The `portfolio_{1,2,4}_threads` rungs run the portfolio on a contended
//! 24-app fleet where the randomized restart schedule beats every greedy
//! strategy, so the proof starts from a strictly tighter incumbent than
//! the greedy seed — the mechanism the restarts exist for, asserted on
//! every run and printed next to the timings.

use cps_bench::{synthetic_fleet, synthetic_fleet_tight};
use cps_sched::case_study_fixtures::paper_table1;
use cps_sched::{
    allocation_sweep, AllocatorConfig, AppTimingParams, PortfolioAllocator, PortfolioConfig,
    SlotTiming,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let apps = paper_table1();
    let config = AllocatorConfig::default();
    let one_worker = PortfolioConfig::with_threads(1);

    // Correctness gates: the solver must reproduce the paper's 3-slot
    // optimum and never lose to the greedy sweep.
    let mut solver = PortfolioAllocator::new(&apps, &config, &one_worker).expect("solver");
    let optimal = solver.solve().expect("feasible");
    assert_eq!(optimal.slot_count(), 3);
    assert!(optimal.verify_with(&apps, SlotTiming::ZERO).expect("verification runs"));
    let greedy_best = allocation_sweep(&apps, &config.sweep_matrix())
        .iter()
        .map(cps_sched::SlotAllocation::slot_count)
        .min()
        .expect("sweep is non-empty");
    assert!(optimal.slot_count() <= greedy_best);
    println!(
        "\n=== Exact slot allocation ===\npaper Table I: optimal {} slots ({} search nodes), greedy best {}",
        optimal.slot_count(),
        solver.nodes_explored(),
        greedy_best
    );

    let mut group = c.benchmark_group("allocation_opt");
    group.bench_function("paper_table1_branch_and_bound", |b| {
        b.iter(|| solver.solve_in_place().expect("feasible"))
    });
    group.bench_function("paper_table1_greedy_sweep_baseline", |b| {
        b.iter(|| allocation_sweep(&apps, &config.sweep_matrix()))
    });
    group.bench_function("paper_table1_solver_construction", |b| {
        b.iter(|| PortfolioAllocator::new(&apps, &config, &one_worker).expect("solver"))
    });

    // Scaling: synthetic fleets (deterministic seed) with the slot budget
    // opened up to the fleet size so the search space, not the cap, binds.
    for size in [6usize, 8, 10] {
        let fleet: Vec<AppTimingParams> = synthetic_fleet(size, 42);
        let sized = AllocatorConfig { max_slots: size, ..config };
        let mut solver = PortfolioAllocator::new(&fleet, &sized, &one_worker).expect("solver");
        let slots = solver.solve_in_place().expect("synthetic fleets are schedulable");
        println!(
            "synthetic fleet n={size}: optimal {slots} slots, {} search nodes",
            solver.nodes_explored()
        );
        group.bench_with_input(
            BenchmarkId::new("synthetic_branch_and_bound", size),
            &size,
            |b, _| b.iter(|| solver.solve_in_place().expect("feasible")),
        );
    }

    // Portfolio rungs: a contended 24-app fleet (tight deadlines, slot
    // budget open) whose optimality proof costs hundreds of thousands of
    // nodes, and where the randomized restart schedule finds a better
    // packing than any greedy strategy — so the search prunes with a
    // strictly tighter incumbent than the greedy seed at every worker
    // count. Node counts and times are printed alongside the timings; the
    // assertions keep the restart claim and the worker-count invariance
    // honest on every perf run.
    let fleet = synthetic_fleet_tight(24, 9015);
    let sized = AllocatorConfig { max_slots: 24, ..config };
    let mut optimum = None;
    for threads in [1usize, 2, 4] {
        let schedule = PortfolioConfig::with_threads(threads);
        let mut solver = PortfolioAllocator::new(&fleet, &sized, &schedule).expect("solver");
        let greedy = solver.greedy_bound().expect("greedy strategies succeed");
        let incumbent = solver.incumbent_bound().expect("incumbent exists");
        assert!(
            incumbent < greedy,
            "the restart schedule must beat every greedy strategy \
             (incumbent {incumbent} vs greedy {greedy} slots)"
        );
        let started = Instant::now();
        let slots = solver.solve_in_place().expect("tight fleet is schedulable");
        let elapsed = started.elapsed();
        let nodes = solver.nodes_explored();
        assert_eq!(*optimum.get_or_insert(slots), slots, "the optimum must not depend on threads");
        println!(
            "tight fleet n=24 seed=9015, portfolio threads={threads}: optimum {slots} slots \
             (greedy {greedy}, restart incumbent {incumbent}), {nodes} nodes in {elapsed:?}"
        );
        group.bench_function(format!("portfolio_{threads}_threads"), |b| {
            b.iter(|| solver.solve_in_place().expect("feasible"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
