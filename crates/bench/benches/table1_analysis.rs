//! Experiment E3 — regenerates Table I (published values) together with the
//! per-application worst-case response-time analysis on the paper's slot
//! allocation, and benchmarks the response-time analysis.

use cps_core::{case_study, experiments};
use cps_sched::{analyze_slot, ModelKind, SlotTiming, WaitTimeMethod};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let apps = case_study::paper_table1();
    println!("\n=== Table I (published timing parameters, seconds) ===");
    println!("{}", experiments::render_table(&apps));

    // Worst-case response times on the paper's non-monotonic slot allocation,
    // under the design-baseline slot geometry.
    let (kind, timing) = (ModelKind::NonMonotonic, SlotTiming::ZERO);
    let outcome = case_study::run_slot_allocation(&apps).expect("allocation must succeed");
    println!("=== Worst-case response times per slot (non-monotonic model) ===");
    for (slot_index, slot) in outcome.non_monotonic.slots.iter().enumerate() {
        let analysis = analyze_slot(&apps, slot, kind, WaitTimeMethod::ClosedFormBound, timing)
            .expect("analysis must succeed");
        for entry in &analysis.analyses {
            println!(
                "S{} {:<4} wait = {:>6.3} s, response = {:>6.3} s, deadline = {:>5.2} s, slack = {:>6.3} s",
                slot_index + 1,
                entry.application,
                entry.max_wait_time,
                entry.worst_case_response_time,
                entry.deadline,
                entry.slack()
            );
        }
    }
    println!();

    let slot_all: Vec<usize> = (0..apps.len()).collect();
    let mut group = c.benchmark_group("table1");
    group.bench_function("analyze_full_slot_non_monotonic", |b| {
        b.iter(|| {
            analyze_slot(&apps, &slot_all, kind, WaitTimeMethod::ClosedFormBound, timing)
                .expect("analysis must succeed")
        })
    });
    group.bench_function("analyze_full_slot_exact_fixed_point", |b| {
        b.iter(|| {
            analyze_slot(&apps, &slot_all, kind, WaitTimeMethod::ExactFixedPoint, timing)
                .expect("analysis must succeed")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
