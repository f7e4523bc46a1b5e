//! Cycle-accurate FlexRay bus simulator.
//!
//! The simulator advances one communication cycle at a time. In every cycle
//! the static (TT) slots fire in TDMA order — a slot either carries the one
//! frame assigned to it (if a payload was queued before the slot starts) or
//! is wasted — and the dynamic (ET) segment then serves pending
//! dynamic-segment frames in frame-identifier order, each consuming its
//! number of minislots, until the minislot budget of the cycle is exhausted.
//! Frames that do not fit carry over to the next cycle, which is what
//! produces the time-varying ET latency the paper contrasts with the
//! deterministic TT latency.
//!
//! A seeded [`FaultModel`] can be installed with
//! [`FlexRayBus::set_fault_model`]: transmission attempts are then routed
//! through a deterministic drop/burst/corruption layer and the dynamic
//! segment can carry background contention — see [`crate::fault`] for the
//! exact RNG draw order. Without a fault model the bus consumes no
//! randomness and behaves bit-identically to the nominal simulator.

use crate::config::FlexRayConfig;
use crate::error::{FlexRayError, Result};
use crate::fault::FaultModel;
use crate::frame::{Frame, Segment, Transmission};
use crate::rng::SimRng;

/// Counters describing bus usage, updated as the simulation advances.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BusStatistics {
    /// Number of cycles simulated so far.
    pub cycles: u64,
    /// Static-slot transmissions completed.
    pub static_transmissions: u64,
    /// Static slots that went unused (no payload queued at the slot start) —
    /// the entire slot of length Ψ is wasted, as the paper notes.
    pub wasted_static_slots: u64,
    /// Dynamic-segment transmissions completed.
    pub dynamic_transmissions: u64,
    /// Transmissions that had to be deferred to a later cycle because the
    /// dynamic segment ran out of minislots.
    pub deferred_dynamic_transmissions: u64,
    /// Transmission attempts lost to a (possibly burst-state) drop of the
    /// installed [`FaultModel`]. The slot/minislots were still consumed.
    pub dropped_frames: u64,
    /// Transmission attempts whose payload arrived corrupted; corruption is
    /// detected and the payload discarded, so these are losses too.
    pub corrupted_frames: u64,
    /// Minislots occupied by background contention traffic in the dynamic
    /// segment (only with [`FaultModel::dynamic_contention`]).
    pub background_minislots: u64,
}

impl BusStatistics {
    /// Total transmission attempts lost to the fault layer (drops plus
    /// detected corruptions).
    pub fn lost_frames(&self) -> u64 {
        self.dropped_frames + self.corrupted_frames
    }
}

/// The FlexRay bus simulator.
///
/// Frames live in dense tables indexed by their position in `frames`, which
/// is kept sorted by identifier: iterating indices in order *is* the
/// dynamic-segment arbitration order, and the public by-identifier methods
/// are thin lookups into these tables. A cycle therefore needs no map
/// lookup, owner scan, sort or queue compaction.
#[derive(Debug, Clone)]
pub struct FlexRayBus {
    config: FlexRayConfig,
    /// Registered frames, sorted by identifier.
    frames: Vec<Frame>,
    /// Per static slot: index of the frame currently owning it.
    slot_owner: Vec<Option<usize>>,
    /// Per frame: queueing time of its pending payload (a re-queue replaces
    /// the stale payload, so there is at most one).
    pending: Vec<Option<f64>>,
    /// Per frame: transmission attempts lost to the fault layer.
    losses: Vec<u64>,
    log: Vec<Transmission>,
    statistics: BusStatistics,
    completed_cycles: u64,
    /// Installed fault model; `None` = nominal bus, zero RNG consumption.
    fault: Option<FaultModel>,
    /// The fault layer's RNG stream (reseeded from the model on install and
    /// on [`FlexRayBus::reset`]).
    fault_rng: SimRng,
    /// Current Gilbert–Elliott channel state (`true` = bad/bursty).
    burst_bad: bool,
    /// Whether completed transmissions are appended to the log. Streaming
    /// campaigns disable this so a long run stays O(1) in memory.
    logging: bool,
}

impl FlexRayBus {
    /// Creates a bus with the given cycle configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidConfig`] if the configuration is
    /// inconsistent.
    pub fn new(config: FlexRayConfig) -> Result<Self> {
        config.validate()?;
        Ok(FlexRayBus {
            config,
            frames: Vec::new(),
            slot_owner: vec![None; config.static_slot_count],
            pending: Vec::new(),
            losses: Vec::new(),
            log: Vec::new(),
            statistics: BusStatistics::default(),
            completed_cycles: 0,
            fault: None,
            fault_rng: SimRng::seeded(0),
            burst_bad: false,
            logging: true,
        })
    }

    /// The bus configuration.
    pub fn config(&self) -> &FlexRayConfig {
        &self.config
    }

    /// Current simulation time (start of the next cycle to simulate).
    pub fn time(&self) -> f64 {
        self.completed_cycles as f64 * self.config.cycle_length
    }

    /// Usage counters accumulated so far.
    pub fn statistics(&self) -> BusStatistics {
        self.statistics
    }

    /// All completed transmissions in completion order (empty while logging
    /// is disabled — see [`FlexRayBus::set_logging`]).
    pub fn transmissions(&self) -> &[Transmission] {
        &self.log
    }

    /// Installs (or removes, with `None`) the fault model. The fault RNG is
    /// reseeded from the model's seed, so installing the same model twice
    /// replays the same fault sequence.
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidConfig`] if any model probability is
    /// outside `[0, 1]`.
    pub fn set_fault_model(&mut self, model: Option<FaultModel>) -> Result<()> {
        if let Some(model) = &model {
            model.validate()?;
        }
        self.fault = model;
        self.reseed_faults();
        Ok(())
    }

    /// The currently installed fault model, if any.
    pub fn fault_model(&self) -> Option<FaultModel> {
        self.fault
    }

    /// Enables or disables the transmission log. Disabling keeps long runs
    /// O(1) in memory (the counters still accumulate); the log contents are
    /// unchanged until the next completed transmission or reset.
    pub fn set_logging(&mut self, logging: bool) {
        self.logging = logging;
    }

    /// Whether completed transmissions are appended to the log.
    pub fn logging(&self) -> bool {
        self.logging
    }

    /// Dense index of `frame_id`, or `Err(insertion point)` if unregistered.
    fn index_of(&self, frame_id: u32) -> std::result::Result<usize, usize> {
        self.frames.binary_search_by_key(&frame_id, |frame| frame.id)
    }

    /// Dense index of a registered frame.
    fn registered(&self, frame_id: u32) -> Result<usize> {
        self.index_of(frame_id).map_err(|_| FlexRayError::InvalidFrame {
            reason: format!("frame id {frame_id} is not registered"),
        })
    }

    /// Number of transmission attempts of `frame_id` lost to the fault layer
    /// (drops plus detected corruptions) since the last reset.
    pub fn losses_of(&self, frame_id: u32) -> u64 {
        self.index_of(frame_id).map_or(0, |index| self.losses[index])
    }

    /// Registers a frame on the bus.
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidFrame`] if the identifier is already
    /// registered, the frame references a non-existent static slot, the slot
    /// is already owned by another frame, or the frame needs more minislots
    /// than the dynamic segment offers.
    pub fn register_frame(&mut self, frame: Frame) -> Result<()> {
        let Err(index) = self.index_of(frame.id) else {
            return Err(FlexRayError::InvalidFrame {
                reason: format!("frame id {} is already registered", frame.id),
            });
        };
        if frame.dynamic_minislots > self.config.minislot_count {
            return Err(FlexRayError::InvalidFrame {
                reason: format!(
                    "frame {} needs {} minislots but the dynamic segment has only {}",
                    frame.id, frame.dynamic_minislots, self.config.minislot_count
                ),
            });
        }
        if let Segment::Static { slot } = frame.segment {
            self.validate_static_assignment(frame.id, slot)?;
        }
        // Frames behind the insertion point shift up one index.
        for owner in self.slot_owner.iter_mut().flatten() {
            if *owner >= index {
                *owner += 1;
            }
        }
        if let Segment::Static { slot } = frame.segment {
            self.slot_owner[slot] = Some(index);
        }
        self.frames.insert(index, frame);
        self.pending.insert(index, None);
        self.losses.insert(index, 0);
        Ok(())
    }

    fn validate_static_assignment(&self, frame_id: u32, slot: usize) -> Result<()> {
        self.config.static_slot_start(slot)?;
        match self.slot_owner(slot) {
            Some(owner) if owner != frame_id => Err(FlexRayError::InvalidFrame {
                reason: format!("static slot {slot} is already owned by frame {owner}"),
            }),
            _ => Ok(()),
        }
    }

    /// Identifier of the frame currently owning static slot `slot`, if any
    /// (`None` also for slots outside the static segment).
    pub fn slot_owner(&self, slot: usize) -> Option<u32> {
        self.slot_owner.get(slot).copied().flatten().map(|index| self.frames[index].id)
    }

    /// Moves a frame between the static and dynamic segments — the bus-level
    /// primitive behind the paper's dynamic resource-allocation scheme
    /// (Figure 1): a control signal requests a TT slot during a transient and
    /// relinquishes it afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidFrame`] if the frame is unknown or the
    /// requested static slot is invalid or occupied.
    pub fn reassign_frame(&mut self, frame_id: u32, segment: Segment) -> Result<()> {
        let index = self.registered(frame_id)?;
        if let Segment::Static { slot } = segment {
            self.validate_static_assignment(frame_id, slot)?;
        }
        if let Segment::Static { slot } = self.frames[index].segment {
            self.slot_owner[slot] = None;
        }
        if let Segment::Static { slot } = segment {
            self.slot_owner[slot] = Some(index);
        }
        self.frames[index].segment = segment;
        Ok(())
    }

    /// Returns the frame registered under `frame_id`, if any.
    pub fn frame(&self, frame_id: u32) -> Option<&Frame> {
        self.index_of(frame_id).ok().map(|index| &self.frames[index])
    }

    /// Queues a payload of `frame_id` for transmission at time `queued_at`.
    ///
    /// Earlier queued payloads of the same frame that are still pending are
    /// replaced (a control signal always transmits its freshest value).
    ///
    /// # Errors
    ///
    /// Returns [`FlexRayError::InvalidFrame`] if the frame is unknown.
    pub fn queue_message(&mut self, frame_id: u32, queued_at: f64) -> Result<()> {
        let index = self.registered(frame_id)?;
        self.pending[index] = Some(queued_at);
        Ok(())
    }

    /// Routes one transmission attempt of frame `index` through the fault
    /// layer. Returns `true` if the payload arrives intact; losses bump the
    /// statistics and the per-frame counter. See [`crate::fault`] for the
    /// draw order.
    fn transmission_survives(&mut self, index: usize) -> bool {
        let Some(model) = self.fault else {
            return true;
        };
        if let Some(burst) = model.burst {
            let transition = if self.burst_bad {
                burst.recover_probability
            } else {
                burst.degrade_probability
            };
            if self.fault_rng.next_unit() < transition {
                self.burst_bad = !self.burst_bad;
            }
        }
        let drop_probability = match (model.burst, self.burst_bad) {
            (Some(burst), true) => burst.bad_drop_probability,
            _ => model.drop_probability,
        };
        if self.fault_rng.next_unit() < drop_probability {
            self.statistics.dropped_frames += 1;
            self.losses[index] += 1;
            return false;
        }
        if self.fault_rng.next_unit() < model.corruption_probability {
            self.statistics.corrupted_frames += 1;
            self.losses[index] += 1;
            return false;
        }
        true
    }

    /// Records a completed transmission in the log (when logging) and in
    /// `out` (when given).
    fn complete(&mut self, tx: Transmission, out: &mut Option<&mut Vec<Transmission>>) {
        if self.logging {
            self.log.push(tx);
        }
        if let Some(sink) = out.as_deref_mut() {
            sink.push(tx);
        }
    }

    /// Simulates one full communication cycle; completed transmissions go to
    /// the log (when logging) and to `out` (when given). Allocation-free.
    fn cycle_into(&mut self, mut out: Option<&mut Vec<Transmission>>) {
        let cycle_start = self.time();

        // Static (TT) segment: each slot carries its owner's payload if one
        // was queued before the slot begins. A lost payload still consumed
        // its slot (the wire was busy), so the TDMA timetable is unaffected.
        for slot in 0..self.slot_owner.len() {
            let Some(index) = self.slot_owner[slot] else {
                continue;
            };
            let slot_start = cycle_start + slot as f64 * self.config.static_slot_length;
            match self.pending[index] {
                Some(queued_at) if queued_at <= slot_start => {
                    self.pending[index] = None;
                    if self.transmission_survives(index) {
                        self.statistics.static_transmissions += 1;
                        let tx = Transmission {
                            frame_id: self.frames[index].id,
                            queued_at,
                            completed_at: slot_start + self.config.static_slot_length,
                            used_static_slot: true,
                        };
                        self.complete(tx, &mut out);
                    }
                }
                _ => self.statistics.wasted_static_slots += 1,
            }
        }

        // Dynamic (ET) segment: background contention (if modelled) occupies
        // the head of the minislot budget, then pending dynamic frames
        // arbitrate in identifier (= index) order over what is left.
        let dynamic_start = cycle_start + self.config.dynamic_segment_start();
        let mut used_minislots = 0usize;
        if let Some(contention) = self.fault.and_then(|m| m.dynamic_contention) {
            let background = self
                .fault_rng
                .next_below(contention.max_background_minislots as u64 + 1)
                as usize;
            used_minislots = background.min(self.config.minislot_count);
            self.statistics.background_minislots += used_minislots as u64;
        }
        for index in 0..self.frames.len() {
            let Some(queued_at) = self.pending[index] else {
                continue;
            };
            if !(queued_at <= dynamic_start) || self.frames[index].is_static() {
                continue;
            }
            let minislots = self.frames[index].dynamic_minislots;
            if used_minislots + minislots > self.config.minislot_count {
                // Does not fit any more: deferred to the next cycle.
                self.statistics.deferred_dynamic_transmissions += 1;
                continue;
            }
            used_minislots += minislots;
            self.pending[index] = None;
            if self.transmission_survives(index) {
                self.statistics.dynamic_transmissions += 1;
                let tx = Transmission {
                    frame_id: self.frames[index].id,
                    queued_at,
                    completed_at: dynamic_start
                        + used_minislots as f64 * self.config.minislot_length,
                    used_static_slot: false,
                };
                self.complete(tx, &mut out);
            }
        }

        self.statistics.cycles += 1;
        self.completed_cycles += 1;
    }

    /// Simulates one full communication cycle and returns the transmissions
    /// completed during it.
    pub fn run_cycle(&mut self) -> Vec<Transmission> {
        let mut completed = Vec::new();
        self.cycle_into(Some(&mut completed));
        completed
    }

    /// Simulates one full communication cycle without materialising the
    /// completed transmissions — the allocation-free twin of
    /// [`FlexRayBus::run_cycle`] for streaming workloads (combine with
    /// [`FlexRayBus::set_logging`]`(false)` for O(1) memory).
    pub fn advance_cycle(&mut self) {
        self.cycle_into(None);
    }

    /// The cycle count at which the simulation time reaches `time`: the
    /// smallest `n` with `n · cycle_length ≥ time`, where a quotient
    /// `time / cycle_length` within rounding error of a whole number counts
    /// as that number. Comparing the float products instead would let
    /// `k · period` land one cycle early or late whenever the two products
    /// round apart — and a control loop advancing to each period end would
    /// then run one cycle too many or too few in a period.
    fn cycles_until(&self, time: f64) -> u64 {
        let cycles = time / self.config.cycle_length;
        let nearest = cycles.round();
        let whole = (cycles - nearest).abs() <= 1e-9 * nearest.abs().max(1.0);
        // Saturating cast: negative and NaN targets mean zero cycles.
        (if whole { nearest } else { cycles.ceil() }) as u64
    }

    /// Runs full cycles until the simulation time reaches `time` (see
    /// [`FlexRayBus::advance_until`] for the cycle-count rule), returning all
    /// transmissions completed on the way.
    pub fn run_until(&mut self, time: f64) -> Vec<Transmission> {
        let target = self.cycles_until(time);
        let mut all = Vec::new();
        while self.completed_cycles < target {
            self.cycle_into(Some(&mut all));
        }
        all
    }

    /// Runs full cycles until the simulation time reaches `time`, without
    /// materialising transmissions — the allocation-free twin of
    /// [`FlexRayBus::run_until`]. The target is a whole cycle count: the
    /// first cycle boundary at or after `time`, where a boundary within
    /// float rounding of `time` counts as reaching it. Advancing to the end
    /// of every control period `k · period` therefore runs exactly
    /// `period / cycle_length` cycles per period when that ratio is whole
    /// (4 on the paper's 20 ms period over a 5 ms cycle).
    pub fn advance_until(&mut self, time: f64) {
        let target = self.cycles_until(time);
        while self.completed_cycles < target {
            self.cycle_into(None);
        }
    }

    /// Latencies of all completed transmissions of the given frame.
    pub fn latencies_of(&self, frame_id: u32) -> Vec<f64> {
        self.log.iter().filter(|t| t.frame_id == frame_id).map(Transmission::latency).collect()
    }

    /// Rewinds the bus to time zero: pending payloads, the transmission log,
    /// the usage counters, the cycle counter, the per-frame loss counters
    /// and the fault layer's RNG/burst state are cleared (the fault RNG is
    /// reseeded from the installed model, so a rerun replays the same fault
    /// sequence). Registered frames, the installed fault model and the
    /// logging flag are kept, so a simulation can be rerun without
    /// rebuilding the bus — the primitive behind `CoSimulation::reset` and
    /// the scenario/campaign engines.
    pub fn reset(&mut self) {
        self.pending.fill(None);
        self.log.clear();
        self.statistics = BusStatistics::default();
        self.completed_cycles = 0;
        self.losses.fill(0);
        self.reseed_faults();
    }

    /// Rewinds the fault RNG stream to the installed model's seed and the
    /// burst channel to the good state.
    fn reseed_faults(&mut self) {
        self.fault_rng = SimRng::seeded(self.fault.map(|m| m.seed).unwrap_or(0));
        self.burst_bad = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::GilbertElliott;

    fn paper_bus() -> FlexRayBus {
        FlexRayBus::new(FlexRayConfig::paper_case_study()).unwrap()
    }

    #[test]
    fn static_transmission_is_deterministic() {
        let mut bus = paper_bus();
        bus.register_frame(Frame::static_slot(1, "c1", 2, 1).unwrap()).unwrap();
        bus.queue_message(1, 0.0).unwrap();
        let txs = bus.run_cycle();
        assert_eq!(txs.len(), 1);
        let tx = txs[0];
        assert!(tx.used_static_slot);
        // Slot 2 starts at 0.4 ms and lasts 0.2 ms.
        assert!((tx.completed_at - 0.0006).abs() < 1e-12);
        assert_eq!(bus.statistics().static_transmissions, 1);
        // The other 9 slots are unowned and do not count as wasted? They do not
        // have owners, so they are simply skipped; only owned-but-empty slots
        // count as wasted.
        assert_eq!(bus.statistics().wasted_static_slots, 0);
    }

    #[test]
    fn owned_but_empty_static_slot_is_wasted() {
        let mut bus = paper_bus();
        bus.register_frame(Frame::static_slot(1, "c1", 0, 1).unwrap()).unwrap();
        bus.run_cycle();
        assert_eq!(bus.statistics().wasted_static_slots, 1);
    }

    #[test]
    fn dynamic_arbitration_is_by_frame_id() {
        let mut bus = paper_bus();
        bus.register_frame(Frame::dynamic(10, "low", 4).unwrap()).unwrap();
        bus.register_frame(Frame::dynamic(2, "high", 4).unwrap()).unwrap();
        bus.queue_message(10, 0.0).unwrap();
        bus.queue_message(2, 0.0).unwrap();
        let txs = bus.run_cycle();
        assert_eq!(txs.len(), 2);
        // Frame 2 (higher priority) completes before frame 10.
        let high = txs.iter().find(|t| t.frame_id == 2).unwrap();
        let low = txs.iter().find(|t| t.frame_id == 10).unwrap();
        assert!(high.completed_at < low.completed_at);
        // Dynamic segment starts at 2 ms; frame 2 uses 4 minislots of 0.05 ms.
        assert!((high.completed_at - 0.0022).abs() < 1e-9);
    }

    #[test]
    fn dynamic_overflow_defers_to_next_cycle() {
        let mut bus = paper_bus();
        // Two frames of 40 minislots each cannot share one 60-minislot segment.
        bus.register_frame(Frame::dynamic(1, "a", 40).unwrap()).unwrap();
        bus.register_frame(Frame::dynamic(2, "b", 40).unwrap()).unwrap();
        bus.queue_message(1, 0.0).unwrap();
        bus.queue_message(2, 0.0).unwrap();
        let first_cycle = bus.run_cycle();
        assert_eq!(first_cycle.len(), 1);
        assert_eq!(first_cycle[0].frame_id, 1);
        assert_eq!(bus.statistics().deferred_dynamic_transmissions, 1);
        let second_cycle = bus.run_cycle();
        assert_eq!(second_cycle.len(), 1);
        assert_eq!(second_cycle[0].frame_id, 2);
        // The deferred frame's latency exceeds one cycle.
        assert!(second_cycle[0].latency() > bus.config().cycle_length);
    }

    #[test]
    fn message_queued_after_slot_start_waits_for_next_cycle() {
        let mut bus = paper_bus();
        bus.register_frame(Frame::static_slot(1, "c1", 0, 1).unwrap()).unwrap();
        // Queued after slot 0 of the first cycle has already started.
        bus.queue_message(1, 0.0001).unwrap();
        let first = bus.run_cycle();
        assert!(first.is_empty());
        let second = bus.run_cycle();
        assert_eq!(second.len(), 1);
        assert!((second[0].completed_at - (0.005 + 0.0002)).abs() < 1e-12);
    }

    #[test]
    fn reassignment_moves_frame_between_segments() {
        let mut bus = paper_bus();
        bus.register_frame(Frame::dynamic(1, "c1", 2).unwrap()).unwrap();
        bus.reassign_frame(1, Segment::Static { slot: 3 }).unwrap();
        assert!(bus.frame(1).unwrap().is_static());
        bus.reassign_frame(1, Segment::Dynamic).unwrap();
        assert!(!bus.frame(1).unwrap().is_static());
        assert!(bus.reassign_frame(99, Segment::Dynamic).is_err());
    }

    #[test]
    fn duplicate_ids_and_slot_collisions_are_rejected() {
        let mut bus = paper_bus();
        bus.register_frame(Frame::static_slot(1, "a", 0, 1).unwrap()).unwrap();
        assert!(bus.register_frame(Frame::dynamic(1, "dup", 1).unwrap()).is_err());
        assert!(bus.register_frame(Frame::static_slot(2, "b", 0, 1).unwrap()).is_err());
        assert!(bus.register_frame(Frame::static_slot(3, "c", 99, 1).unwrap()).is_err());
        assert!(bus.register_frame(Frame::dynamic(4, "huge", 1000).unwrap()).is_err());
        assert!(bus.queue_message(99, 0.0).is_err());
    }

    #[test]
    fn requeue_replaces_stale_payload() {
        let mut bus = paper_bus();
        bus.register_frame(Frame::dynamic(1, "c1", 2).unwrap()).unwrap();
        bus.queue_message(1, 0.0).unwrap();
        bus.queue_message(1, 0.001).unwrap();
        let txs = bus.run_cycle();
        assert_eq!(txs.len(), 1);
        // The latency is measured from the *fresh* queueing instant.
        assert!((txs[0].queued_at - 0.001).abs() < 1e-12);
    }

    #[test]
    fn reset_rewinds_but_keeps_frames() {
        let mut bus = paper_bus();
        bus.register_frame(Frame::static_slot(1, "c1", 0, 1).unwrap()).unwrap();
        bus.queue_message(1, 0.0).unwrap();
        bus.run_cycle();
        assert_eq!(bus.statistics().static_transmissions, 1);
        bus.reset();
        assert_eq!(bus.time(), 0.0);
        assert_eq!(bus.statistics(), BusStatistics::default());
        assert!(bus.transmissions().is_empty());
        assert!(bus.frame(1).is_some(), "registered frames survive a reset");
        // The rerun reproduces the original timeline exactly.
        bus.queue_message(1, 0.0).unwrap();
        let txs = bus.run_cycle();
        assert_eq!(txs.len(), 1);
        assert!((txs[0].completed_at - 0.0002).abs() < 1e-12);
    }

    #[test]
    fn run_until_advances_multiple_cycles() {
        let mut bus = paper_bus();
        bus.register_frame(Frame::static_slot(1, "c1", 0, 1).unwrap()).unwrap();
        for k in 0..4 {
            bus.queue_message(1, k as f64 * 0.005).unwrap();
            bus.run_cycle();
        }
        assert_eq!(bus.latencies_of(1).len(), 4);
        let mut bus2 = paper_bus();
        bus2.run_until(0.02);
        assert_eq!(bus2.statistics().cycles, 4);
        assert!((bus2.time() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn advance_until_runs_whole_cycles_per_control_period() {
        // 20 ms periods over a 5 ms cycle: `k · 0.02 / 0.005` is not exactly
        // `4k` in floating point for many k, yet every period must advance
        // exactly four cycles.
        let mut bus = paper_bus();
        let period = 0.02;
        for step in 0..10_000u64 {
            bus.advance_until(step as f64 * period + period);
            assert_eq!(bus.statistics().cycles, 4 * (step + 1), "period {step}");
        }
        // Off-boundary targets still round up to the next cycle start, and
        // past or NaN targets run nothing.
        let mut bus = paper_bus();
        bus.advance_until(0.0051);
        assert_eq!(bus.statistics().cycles, 2);
        bus.advance_until(0.001);
        bus.advance_until(f64::NAN);
        assert_eq!(bus.run_until(-1.0).len(), 0);
        assert_eq!(bus.statistics().cycles, 2);
    }

    // --- fault layer -----------------------------------------------------

    /// Drives `cycles` cycles with one static and one dynamic frame queued
    /// every cycle, returning the final statistics.
    fn drive(bus: &mut FlexRayBus, cycles: usize) -> BusStatistics {
        for k in 0..cycles {
            let t = k as f64 * bus.config().cycle_length;
            bus.queue_message(1, t).unwrap();
            bus.queue_message(2, t).unwrap();
            bus.advance_cycle();
        }
        bus.statistics()
    }

    fn faulty_bus(model: FaultModel) -> FlexRayBus {
        let mut bus = paper_bus();
        bus.register_frame(Frame::static_slot(1, "tt", 0, 1).unwrap()).unwrap();
        bus.register_frame(Frame::dynamic(2, "et", 2).unwrap()).unwrap();
        bus.set_fault_model(Some(model)).unwrap();
        bus
    }

    #[test]
    fn certain_drop_loses_everything_but_keeps_timing() {
        let mut bus = faulty_bus(FaultModel::drops(1, 1.0));
        let stats = drive(&mut bus, 10);
        assert_eq!(stats.static_transmissions, 0);
        assert_eq!(stats.dynamic_transmissions, 0);
        assert_eq!(stats.dropped_frames, 20);
        assert_eq!(stats.lost_frames(), 20);
        // The lost payloads consumed their slots: nothing was "wasted" and
        // nothing deferred — the timetable is unchanged.
        assert_eq!(stats.wasted_static_slots, 0);
        assert_eq!(stats.deferred_dynamic_transmissions, 0);
        assert_eq!(bus.losses_of(1), 10);
        assert_eq!(bus.losses_of(2), 10);
        assert_eq!(bus.losses_of(99), 0);
    }

    #[test]
    fn zero_probability_model_is_nominal() {
        let mut nominal = paper_bus();
        nominal.register_frame(Frame::static_slot(1, "tt", 0, 1).unwrap()).unwrap();
        nominal.register_frame(Frame::dynamic(2, "et", 2).unwrap()).unwrap();
        let nominal_stats = drive(&mut nominal, 10);

        let mut faulty = faulty_bus(FaultModel::drops(7, 0.0));
        let faulty_stats = drive(&mut faulty, 10);
        assert_eq!(nominal_stats, faulty_stats);
        assert_eq!(faulty_stats.lost_frames(), 0);
    }

    #[test]
    fn corruption_is_counted_separately_from_drops() {
        let mut bus = faulty_bus(FaultModel::drops(3, 0.0).with_corruption(1.0));
        let stats = drive(&mut bus, 5);
        assert_eq!(stats.corrupted_frames, 10);
        assert_eq!(stats.dropped_frames, 0);
        assert_eq!(stats.lost_frames(), 10);
        assert_eq!(stats.static_transmissions, 0);
        assert_eq!(stats.dynamic_transmissions, 0);
    }

    #[test]
    fn fault_sequence_is_seed_deterministic() {
        let model = FaultModel::drops(42, 0.3).with_corruption(0.1).with_burst(GilbertElliott {
            degrade_probability: 0.1,
            recover_probability: 0.4,
            bad_drop_probability: 0.9,
        });
        let mut a = faulty_bus(model);
        let mut b = faulty_bus(model);
        assert_eq!(drive(&mut a, 50), drive(&mut b, 50));

        let mut other_seed = faulty_bus(FaultModel { seed: 43, ..model });
        assert_ne!(drive(&mut other_seed, 50).lost_frames(), a.statistics().lost_frames());
    }

    #[test]
    fn reset_replays_the_fault_sequence() {
        let model = FaultModel::drops(11, 0.4).with_burst(GilbertElliott {
            degrade_probability: 0.2,
            recover_probability: 0.3,
            bad_drop_probability: 0.95,
        });
        let mut bus = faulty_bus(model);
        let first = drive(&mut bus, 40);
        assert!(first.lost_frames() > 0, "p=0.4 over 80 attempts must lose frames");
        bus.reset();
        assert_eq!(bus.statistics(), BusStatistics::default());
        assert_eq!(bus.losses_of(1), 0);
        let second = drive(&mut bus, 40);
        assert_eq!(first, second, "reset must rewind the fault RNG to the seed");
    }

    #[test]
    fn burst_channel_produces_bursty_losses() {
        // Near-certain loss in the bad state, no independent drops: losses
        // only happen inside bursts, and with slow transitions the loss
        // count differs markedly from the independent-drop model at the same
        // average intensity.
        let model = FaultModel::drops(5, 0.0).with_burst(GilbertElliott {
            degrade_probability: 0.05,
            recover_probability: 0.2,
            bad_drop_probability: 1.0,
        });
        let mut bus = faulty_bus(model);
        let stats = drive(&mut bus, 200);
        assert!(stats.dropped_frames > 0, "bursts must produce losses");
        assert!(
            stats.dropped_frames < 400,
            "not every attempt is inside a burst: {}",
            stats.dropped_frames
        );
    }

    #[test]
    fn dynamic_contention_defers_control_traffic() {
        // Background traffic can occupy the whole 60-minislot segment; the
        // 2-minislot control frame then sometimes defers to a later cycle.
        let mut bus = faulty_bus(FaultModel {
            seed: 8,
            ..FaultModel::default()
        }
        .with_dynamic_contention(60));
        let stats = drive(&mut bus, 100);
        assert!(stats.background_minislots > 0);
        assert!(
            stats.deferred_dynamic_transmissions > 0,
            "full-segment background bursts must defer the control frame"
        );
        // Static traffic is untouched by dynamic-segment contention.
        assert_eq!(stats.static_transmissions, 100);
    }

    #[test]
    fn invalid_fault_models_are_rejected_and_not_installed() {
        let mut bus = paper_bus();
        assert!(bus.set_fault_model(Some(FaultModel::drops(0, 2.0))).is_err());
        assert!(bus.fault_model().is_none());
        bus.set_fault_model(Some(FaultModel::drops(1, 0.5))).unwrap();
        assert_eq!(bus.fault_model().unwrap().seed, 1);
        bus.set_fault_model(None).unwrap();
        assert!(bus.fault_model().is_none());
    }

    #[test]
    fn advance_cycle_matches_run_cycle_and_logging_can_be_disabled() {
        let mut logged = paper_bus();
        logged.register_frame(Frame::static_slot(1, "tt", 0, 1).unwrap()).unwrap();
        logged.register_frame(Frame::dynamic(2, "et", 2).unwrap()).unwrap();
        let mut unlogged = logged.clone();
        unlogged.set_logging(false);
        assert!(!unlogged.logging());

        for k in 0..6 {
            let t = k as f64 * 0.005;
            logged.queue_message(1, t).unwrap();
            logged.queue_message(2, t).unwrap();
            logged.run_cycle();
            unlogged.queue_message(1, t).unwrap();
            unlogged.queue_message(2, t).unwrap();
            unlogged.advance_cycle();
        }
        assert_eq!(logged.statistics(), unlogged.statistics());
        assert_eq!(logged.transmissions().len(), 12);
        assert!(unlogged.transmissions().is_empty(), "logging off: O(1) memory");
        assert_eq!(logged.time(), unlogged.time());

        // advance_until mirrors run_until.
        let mut a = paper_bus();
        let mut b = paper_bus();
        a.run_until(0.03);
        b.advance_until(0.03);
        assert_eq!(a.statistics(), b.statistics());
    }
}
