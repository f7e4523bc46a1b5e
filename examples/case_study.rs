//! Full Section V case study: the published Table I, the per-application
//! worst-case response-time analysis, the slot-allocation comparison, and —
//! as an extension — the same flow on a synthetic fleet derived end-to-end
//! from plant models.
//!
//! Run with `cargo run --release --example case_study`.

use automotive_cps::core::{case_study, experiments};
use automotive_cps::sched::{analyze_slot, ModelKind, SlotTiming, WaitTimeMethod};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: the paper's published Table I.
    let apps = case_study::paper_table1();
    println!("=== Table I (published) ===\n{}", experiments::render_table(&apps));

    let outcome = case_study::run_slot_allocation(&apps)?;
    println!("=== Slot allocation ===\n{}", experiments::render_allocation(&outcome, &apps));

    println!("=== Worst-case response times on the non-monotonic allocation ===");
    for (slot_index, slot) in outcome.non_monotonic.slots.iter().enumerate() {
        let analysis = analyze_slot(
            &apps,
            slot,
            ModelKind::NonMonotonic,
            WaitTimeMethod::ClosedFormBound,
            SlotTiming::ZERO,
        )?;
        for entry in &analysis.analyses {
            println!(
                "  S{} {:<4} k_wait = {:>6.3} s  xi_hat = {:>6.3} s  deadline = {:>5.2} s  ({})",
                slot_index + 1,
                entry.application,
                entry.max_wait_time,
                entry.worst_case_response_time,
                entry.deadline,
                if entry.is_schedulable() { "ok" } else { "MISS" }
            );
        }
    }

    // Part 2: the same pipeline on a synthetic fleet derived from plant
    // models (plant -> controllers -> characterisation -> Table I -> slots).
    println!("\n=== Derived fleet (synthetic plants, end-to-end pipeline) ===");
    let fleet = case_study::derived_fleet()?;
    let table = case_study::derive_table(&fleet)?;
    println!("{}", experiments::render_table(&table));
    let derived_outcome = case_study::run_slot_allocation(&table)?;
    println!("{}", experiments::render_allocation(&derived_outcome, &table));
    Ok(())
}
