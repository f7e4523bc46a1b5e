//! `allocate`: each op is one exact, 2-thread portfolio allocation of a
//! fresh seeded contended timing table (14–16 applications, slot budget
//! open). Only the sched layer runs: no characterisation, no bus.

use crate::stats::Digest;
use crate::trace::{Fidelity, Tracer};
use crate::{gen, ms_since, window, BoxResult, Deadline, Metrics, Window, THREADS};
use cps_flexray::SimRng;
use cps_sched::{
    AllocatorConfig, AppTimingParams, PortfolioAllocator, PortfolioConfig, SlotAllocation,
};
use std::time::Instant;

/// Ops whose slot maps make up the run's digest (a run must complete them).
const DIGEST_OPS: u64 = 256;

pub struct State {
    seed: u64,
}

impl State {
    /// The generator of table `index` of this run.
    fn input(&self, index: u64) -> SimRng {
        gen::op_rng(self.seed, 3, index)
    }
}

/// An open slot budget: every application may get its own slot.
fn open_budget(table: &[AppTimingParams]) -> AllocatorConfig {
    AllocatorConfig {
        max_slots: table.len(),
        ..AllocatorConfig::default()
    }
}

/// One op's answer with what its check needs from the solver.
struct Answer {
    allocation: SlotAllocation,
    certified: bool,
    clique_lower_bound: usize,
}

fn allocate(table: &[AppTimingParams], threads: usize) -> cps_sched::Result<Answer> {
    let mut solver = PortfolioAllocator::new(
        table,
        &open_budget(table),
        &PortfolioConfig::with_threads(threads),
    )?;
    let allocation = solver.solve()?;
    Ok(Answer {
        allocation,
        certified: solver.certified_optimal(),
        clique_lower_bound: solver.clique_lower_bound(),
    })
}

/// Tables of the fixed warm-up set solved before timing.
const WARM_UP_TABLES: u64 = 32;

/// Set-up: the input stream and a warm-up solve of a fixed set of tables
/// (the same for every seed).
pub fn setup(seed: u64) -> BoxResult<State> {
    let mut warm_up = gen::rng(0, 3);
    for _ in 0..WARM_UP_TABLES {
        allocate(&gen::allocation_table(&mut warm_up), THREADS)?;
    }
    Ok(State { seed })
}

pub fn run(state: &mut State, seconds: f64) -> BoxResult<Window> {
    let mut digest = Digest::default();
    let window = window::median_of_passes(seconds, |index, first| {
        let table = gen::allocation_table(&mut state.input(index));
        let start = Instant::now();
        let answer = allocate(&table, THREADS);
        let latency_ms = ms_since(start);
        let Ok(answer) = answer else {
            return Ok((latency_ms, None));
        };
        if first && index < DIGEST_OPS {
            digest.slots(&answer.allocation.slots);
        }
        // Output check: certified optimum, at least the clique lower bound,
        // and schedulable by the verifier.
        let ok = answer.certified
            && answer.allocation.slot_count() >= answer.clique_lower_bound
            && answer
                .allocation
                .verify_with(&table, open_budget(&table).slot_timing)?;
        let mut output = Digest::default();
        output.slots(&answer.allocation.slots);
        Ok((latency_ms, ok.then(|| output.value())))
    })?;
    if window.attempted() < DIGEST_OPS {
        return Err(format!(
            "only {} allocate ops ran; the digest needs {DIGEST_OPS}",
            window.attempted()
        )
        .into());
    }
    eprintln!(
        "allocate: {} ops, each run {} times, {} failed, digest of the first {DIGEST_OPS} slot maps {:016x}",
        window.attempted(),
        window::PASSES,
        window.failed(),
        digest.value()
    );
    Ok(window)
}

/// The allocator breakdown: construction (bounds, greedy seeds, restarts)
/// split from the search, node counts and root bounds, and the same table
/// solved on 1 thread for the parallel speed-up. Every split answer must
/// equal the one-call answer.
pub fn trace(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> BoxResult<Fidelity> {
    let state = setup(seed)?;
    let portfolio = PortfolioConfig::with_threads(THREADS);
    let mut fidelity = Fidelity::default();
    let (mut one_call_ns, mut traced_ns, mut one_thread_ns) = (0.0, 0.0, 0.0);
    let (mut nodes, mut root_gap, mut greedy_optimal) = (0u64, 0usize, 0u64);
    let deadline = Deadline::after(seconds);
    while deadline.running() || fidelity.attempted == 0 {
        let op = fidelity.attempted;
        let table = gen::allocation_table(&mut state.input(op));
        let config = open_budget(&table);

        // The three paths take turns to meet each input first, so none pays
        // the first-touch costs on every op.
        let (mut reference, mut split, mut sequential) = (None, None, None);
        for turn in 0..3 {
            match (op + turn) % 3 {
                0 => {
                    let span = tracer.open("sched.one_call", None, op);
                    reference = Some(cps_sched::allocate_slots_portfolio(
                        &table, &config, &portfolio,
                    )?);
                    one_call_ns += tracer.close(span) as f64;
                }
                1 => {
                    let root = tracer.open("sched.op", None, op);
                    let span = tracer.open("sched.construct", Some(root), op);
                    let mut solver = PortfolioAllocator::new(&table, &config, &portfolio)?;
                    tracer.close(span);
                    let span = tracer.open("sched.search", Some(root), op);
                    let optimum = solver.solve_in_place();
                    tracer.close(span);
                    traced_ns += tracer.close(root) as f64;
                    nodes += solver.nodes_explored();
                    let greedy = solver.greedy_bound().unwrap_or(usize::MAX);
                    root_gap += greedy.saturating_sub(solver.clique_lower_bound());
                    greedy_optimal += u64::from(Some(greedy) == optimum);
                    split = optimum.and(solver.best_allocation());
                }
                _ => {
                    let span = tracer.open("sched.one_thread", None, op);
                    sequential = Some(allocate(&table, 1)?.allocation);
                    one_thread_ns += tracer.close(span) as f64;
                }
            }
        }

        fidelity.attempted += 1;
        if split != reference || sequential != reference {
            fidelity.failed += 1;
        }
    }
    let ops = fidelity.attempted as f64;
    let search_ns = tracer.total_ns("sched.search");
    metrics.put(
        "sched.construct_ms",
        tracer.total_ns("sched.construct") / ops * 1e-6,
        "ms",
    );
    metrics.put("sched.search_ms", search_ns / ops * 1e-6, "ms");
    metrics.put(
        "sched.op_self_ms",
        tracer.self_ns("sched.op") / ops * 1e-6,
        "ms",
    );
    metrics.put("sched.nodes_per_op", nodes as f64 / ops, "count");
    metrics.put(
        "sched.nodes_per_ms",
        nodes as f64 / (search_ns * 1e-6),
        "1/ms",
    );
    metrics.put("sched.root_gap", root_gap as f64 / ops, "count");
    metrics.put(
        "sched.greedy_optimal_frac",
        greedy_optimal as f64 / ops,
        "frac",
    );
    metrics.put(
        "sched.parallel_speedup",
        one_thread_ns / one_call_ns,
        "ratio",
    );
    fidelity.overhead_frac = traced_ns / one_call_ns - 1.0;
    eprintln!(
        "allocate trace: {} ops, {} mismatches",
        fidelity.attempted, fidelity.failed
    );
    Ok(fidelity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_tables_are_schedulable_under_an_open_budget() {
        for index in 0..64 {
            let table = gen::allocation_table(&mut gen::op_rng(11, 3, index));
            let answer = allocate(&table, THREADS).expect("open budget is schedulable");
            assert!(answer.certified);
            assert!(answer
                .allocation
                .verify_with(&table, open_budget(&table).slot_timing)
                .unwrap());
        }
    }
}
