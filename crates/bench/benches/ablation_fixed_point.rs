//! Ablation A1 — closed-form wait-time bound (paper Eq. (20)) versus the
//! exact fixed point of Eq. (5): tightness on random fleets and runtime cost.

use cps_bench::synthetic_fleet;
use cps_sched::{max_wait_time_bound, max_wait_time_fixed_point, ModelKind, SlotTiming};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    println!("\n=== Ablation A1: closed-form bound vs. exact fixed point ===");
    // The paper's non-monotonic model on the design-baseline slot geometry.
    let (kind, timing) = (ModelKind::NonMonotonic, SlotTiming::ZERO);
    let fleet = synthetic_fleet(8, 42);
    let slot: Vec<usize> = (0..fleet.len()).collect();
    for index in 0..fleet.len() {
        let bound = max_wait_time_bound(&fleet, &slot, index, kind, timing);
        let exact = max_wait_time_fixed_point(&fleet, &slot, index, kind, timing);
        match (bound, exact) {
            (Ok(bound), Ok(exact)) => println!(
                "{:<4} bound = {:>7.3} s, exact = {:>7.3} s, pessimism = {:>5.1} %",
                fleet[index].name,
                bound,
                exact,
                if exact > 0.0 { (bound - exact) / exact * 100.0 } else { 0.0 }
            ),
            _ => println!("{:<4} slot overloaded under this interference", fleet[index].name),
        }
    }
    println!();

    let mut group = c.benchmark_group("ablation_fixed_point");
    for size in [4usize, 8, 16, 32] {
        let fleet = synthetic_fleet(size, 42);
        let slot: Vec<usize> = (0..fleet.len()).collect();
        group.bench_with_input(BenchmarkId::new("closed_form_bound", size), &size, |b, _| {
            b.iter(|| {
                for index in 0..fleet.len() {
                    let _ = max_wait_time_bound(&fleet, &slot, index, kind, timing);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("exact_fixed_point", size), &size, |b, _| {
            b.iter(|| {
                for index in 0..fleet.len() {
                    let _ = max_wait_time_fixed_point(&fleet, &slot, index, kind, timing);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
