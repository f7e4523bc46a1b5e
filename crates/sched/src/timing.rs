//! Per-slot transmission timing: how the bus's slot geometry (the static
//! slot length Ψ and the frame payload that determines it) enters the
//! wait-time analysis.
//!
//! The dwell/wait characterisation measures *control-layer* transients under
//! the design-baseline bus: the TT delay the controllers were discretised
//! with already accounts for one baseline slot transmission, so the Table-I
//! dwell times absorb the baseline geometry. Sweeping the bus to a *longer*
//! slot Ψ > Ψ₀ stretches every slot acquisition by the extra transmission
//! time ΔΨ = Ψ − Ψ₀: each occupancy interval another application observes on
//! the slot — the blocking term and every interference hit of the paper's
//! Eq. (5) — grows by that overhead. A shorter slot cannot shorten the
//! characterised dwell (the control transient dominates the frame time), so
//! the overhead is floored at zero and the model stays a safe
//! over-approximation.
//!
//! [`SlotTiming`] carries that overhead through the analysis: the effective
//! dwell bound of an *interfering or blocking* application becomes
//! `ξᴹⱼ + ΔΨ`, which enters the utilisation `m = Σ (ξᴹⱼ + ΔΨ)/rⱼ`, the
//! closed-form bound `a′/(1 − m)`, the exact fixed point and the
//! branch-and-bound slot-demand relaxation. The analysed application's *own*
//! response `ξ(ŵ) = ŵ + k_dw(ŵ)` is unchanged — its settling is a
//! control-layer event; only the occupancy other applications see stretches.
//!
//! [`SlotTiming::ZERO`] (the default) reproduces the baseline analysis bit
//! for bit.

use crate::error::{Result, SchedError};

/// Per-slot transmission timing seen by the wait-time analysis: the extra
/// occupancy ΔΨ (seconds) each dwell interval adds on top of the
/// characterised control-layer dwell time.
///
/// Construct with [`SlotTiming::new`] (validated) or use [`SlotTiming::ZERO`]
/// for the design-baseline geometry; derive from a swept bus with
/// `BusConfigSweep` in `cps-core`, which maps candidate slot lengths to
/// overheads relative to its base configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotTiming {
    /// Extra per-slot occupancy ΔΨ in seconds (≥ 0, finite).
    transmission_overhead: f64,
}

impl SlotTiming {
    /// The design-baseline geometry: no extra per-slot occupancy. Every dwell
    /// bound enters the analysis as `ξᴹ + 0.0 = ξᴹ`, so the analysis under
    /// `ZERO` is the paper's overhead-free analysis bit for bit.
    pub const ZERO: SlotTiming = SlotTiming { transmission_overhead: 0.0 };

    /// A timing with the given extra per-slot transmission overhead in
    /// seconds.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidParameter`] unless the overhead is
    /// finite and non-negative.
    pub fn new(transmission_overhead: f64) -> Result<Self> {
        if !transmission_overhead.is_finite() || transmission_overhead < 0.0 {
            return Err(SchedError::InvalidParameter {
                reason: format!(
                    "per-slot transmission overhead must be finite and non-negative, \
                     got {transmission_overhead}"
                ),
            });
        }
        Ok(SlotTiming { transmission_overhead })
    }

    /// The extra per-slot occupancy ΔΨ in seconds.
    pub fn overhead(&self) -> f64 {
        self.transmission_overhead
    }

    /// The effective occupancy another application observes for a dwell
    /// interval with the given model dwell bound: `ξᴹ + ΔΨ`.
    pub fn effective_dwell(&self, dwell_bound: f64) -> f64 {
        dwell_bound + self.transmission_overhead
    }
}

impl Default for SlotTiming {
    fn default() -> Self {
        SlotTiming::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let timing = SlotTiming::new(0.25).unwrap();
        assert_eq!(timing.overhead(), 0.25);
        assert_eq!(timing.effective_dwell(1.0), 1.25);
        assert_eq!(SlotTiming::default(), SlotTiming::ZERO);
        assert_eq!(SlotTiming::ZERO.overhead(), 0.0);
        // Zero overhead is the bitwise identity on positive dwell bounds.
        let dwell = 0.64_f64;
        assert_eq!(SlotTiming::ZERO.effective_dwell(dwell).to_bits(), dwell.to_bits());
    }

    #[test]
    fn validation_rejects_bad_overheads() {
        assert!(SlotTiming::new(-0.1).is_err());
        assert!(SlotTiming::new(f64::NAN).is_err());
        assert!(SlotTiming::new(f64::INFINITY).is_err());
        assert!(SlotTiming::new(0.0).is_ok());
    }
}
