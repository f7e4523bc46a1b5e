//! Seeded input generators. Every input a workload feeds the system is a
//! pure function of the run's `--seed`; the system under test receives only
//! the generated inputs.

use cps_core::{case_study, ApplicationSpec, ControllerSpec, RobustnessSweep};
use cps_flexray::{GilbertElliott, SimRng};
use cps_sched::AppTimingParams;
use std::ops::RangeInclusive;

/// Poles faster than this are the loop's fixed fast pole (the delay-state
/// pole of every case-study design), not a dominant pole.
const FAST_POLE: f64 = 20.0;

/// A generator stream for one purpose of one run: the same `(seed, stream)`
/// always yields the same draws, and different streams never share them.
pub fn rng(seed: u64, stream: u64) -> SimRng {
    SimRng::seeded(SimRng::derive(seed, stream))
}

/// The generator of input `index` of one purpose of one run: every input is
/// a pure function of `(seed, stream, index)`, so an input can be made
/// again for a second run without keeping it.
pub fn op_rng(seed: u64, stream: u64, index: u64) -> SimRng {
    SimRng::seeded(SimRng::derive(SimRng::derive(seed, stream), index))
}

/// Uniform draw from `[lo, hi]`.
fn uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_unit()
}

/// Fleet sizes of the `design` workload. Larger fleets are left out on
/// purpose: at 17–20 applications 4% of fleets needed 10–85 ms exact
/// searches (800 fleets measured), which put p99 on the edge of that tail.
/// At 8–16 the exact allocation stays within about 0.1–7 ms.
pub const DESIGN_FLEET: RangeInclusive<usize> = 8..=16;

/// Fleet sizes of the `service` working set.
pub const SERVICE_FLEET: RangeInclusive<usize> = 6..=12;

/// Table sizes of the `allocate` workload. Larger tables are left out on
/// purpose: at 19–20 applications single tables take up to 1.5 s and the
/// slowest 1% of tables take 45% of the time, so a run's throughput would
/// hang on which few tables a seed draws. At 14–16 the slowest table takes
/// about 0.1 s.
pub const ALLOCATION_TABLE: RangeInclusive<usize> = 14..=16;

/// Uniform integer draw from `sizes`.
fn between(rng: &mut SimRng, sizes: &RangeInclusive<usize>) -> usize {
    sizes.start() + rng.next_below((sizes.end() - sizes.start() + 1) as u64) as usize
}

/// A fleet of `sizes` applications drawn from the six case-study plants.
/// Every application gets its own ET and TT dominant poles (each scaled by
/// a factor from [0.9, 1.1]) and its own deadline (scaled by a factor from
/// [0.6, 1.0]), so no two applications share a characterisation.
pub fn fleet_specs(rng: &mut SimRng, sizes: RangeInclusive<usize>) -> Vec<ApplicationSpec> {
    let base = case_study::derived_fleet_specs();
    let count = between(rng, &sizes);
    (0..count)
        .map(|index| {
            let mut spec = base[rng.next_below(base.len() as u64) as usize].clone();
            spec.name = format!("{}-{index}", spec.name);
            if let ControllerSpec::PolePlacement { et_poles, tt_poles } = &mut spec.controllers {
                for pole in et_poles.iter_mut().chain(tt_poles.iter_mut()) {
                    if pole.abs() < FAST_POLE {
                        *pole *= uniform(rng, 0.9, 1.1);
                    }
                }
            }
            spec.deadline *= uniform(rng, 0.6, 1.0);
            spec
        })
        .collect()
}

/// A contended timing table for the exact allocator.
pub fn allocation_table(rng: &mut SimRng) -> Vec<AppTimingParams> {
    let count = between(rng, &ALLOCATION_TABLE);
    cps_bench::synthetic_fleet_tight(count, rng.next_u64())
}

/// The fault sweep of one `campaign` op: six drop probabilities with
/// Gilbert–Elliott bursts, corruption, dynamic contention, sensor noise and
/// disturbance scales from [0.8, 1.2], over a 12 s horizon that runs past
/// the fleet's settling time. 21 scenarios per intensity make 126 per op:
/// two default-size chunks, so both workers get one.
pub fn campaign_sweep() -> RobustnessSweep {
    RobustnessSweep::new(vec![0.0, 0.05, 0.1, 0.2, 0.4, 0.8], 21, 12.0)
        .with_disturbance_range(0.8, 1.2)
        .with_burst(GilbertElliott {
            degrade_probability: 0.1,
            recover_probability: 0.4,
            bad_drop_probability: 0.8,
        })
        .with_corruption(0.01)
        .with_dynamic_contention(6)
        .with_sensor_noise(0.01)
}

/// Draws a rank from a Zipf(1) law over `0..n` (rank 0 most popular).
pub fn zipf(rng: &mut SimRng, cumulative: &[f64]) -> usize {
    let total = *cumulative.last().expect("non-empty working set");
    let draw = rng.next_unit() * total;
    cumulative
        .partition_point(|&c| c <= draw)
        .min(cumulative.len() - 1)
}

/// Cumulative Zipf(1) weights over `n` ranks.
pub fn zipf_cumulative(n: usize) -> Vec<f64> {
    let mut sum = 0.0;
    (1..=n)
        .map(|rank| {
            sum += 1.0 / rank as f64;
            sum
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(seed: u64, index: u64) -> String {
        format!("{:?}", fleet_specs(&mut op_rng(seed, 2, index), DESIGN_FLEET))
    }

    fn tables(seed: u64) -> Vec<Vec<AppTimingParams>> {
        (0..8)
            .map(|index| allocation_table(&mut op_rng(seed, 3, index)))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(fleet(5, 0), fleet(5, 0));
        assert_eq!(fleet(5, 7), fleet(5, 7));
        assert_eq!(tables(5), tables(5));
        assert_eq!(rng(5, 1).next_u64(), rng(5, 1).next_u64());
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(fleet(5, 0), fleet(6, 0));
        // Inputs of one run differ from one another too.
        assert_ne!(fleet(5, 0), fleet(5, 1));
        assert_ne!(tables(5), tables(6));
        assert_ne!(rng(5, 1).next_u64(), rng(6, 1).next_u64());
        // Streams of one seed are independent too.
        assert_ne!(rng(5, 1).next_u64(), rng(5, 2).next_u64());
    }

    #[test]
    fn generated_inputs_stay_in_their_ranges() {
        let base = case_study::derived_fleet_specs();
        for seed in 0..32 {
            let specs = fleet_specs(&mut rng(seed, 4), SERVICE_FLEET);
            assert!(SERVICE_FLEET.contains(&specs.len()));
            for spec in &specs {
                let origin = base
                    .iter()
                    .find(|b| spec.name.starts_with(&b.name))
                    .expect("a case-study plant");
                let scale = spec.deadline / origin.deadline;
                assert!((0.6..=1.0).contains(&scale), "deadline scale {scale}");
            }
            for table in tables(seed) {
                assert!(ALLOCATION_TABLE.contains(&table.len()));
            }
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let cumulative = zipf_cumulative(96);
        let mut stream = rng(1, 9);
        let mut counts = [0usize; 96];
        for _ in 0..20_000 {
            counts[zipf(&mut stream, &cumulative)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[95]);
        assert!(counts[95] > 0);
    }
}
