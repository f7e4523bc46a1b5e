//! Differential suite for the FlexRay bus: the production [`FlexRayBus`]
//! (dense frame tables) against [`ReferenceBus`], the original
//! `BTreeMap`-based simulator kept here as a test-only oracle.
//!
//! The reference is the bus as it was before the dense-table rewrite: frames
//! in a `BTreeMap` keyed by identifier, a per-slot owner scan, a pending
//! list compacted with `retain`, and a sorted per-cycle arbitration scratch.
//! Its semantics — static slots in slot order, then the background
//! contention draw, then dynamic frames in identifier order, every fault
//! draw in the order documented in `cps_flexray`'s fault module — are the
//! contract. The property test drives both buses through the same random
//! operation sequences (registration of static and dynamic frames under
//! non-contiguous identifiers, legal and conflicting reassignments,
//! off-cycle queueing, cycle advances and resets), with and without fault
//! models, and asserts that every observable agrees after every operation:
//! `statistics()`, `transmissions()`, `losses_of`, `frame`, `time` and the
//! `is_err()` outcome of every fallible call.

use automotive_cps::flexray::{
    BusStatistics, FaultModel, FlexRayBus, FlexRayConfig, FlexRayError, Frame, GilbertElliott,
    Result, Segment, SimRng, Transmission,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A queued, not yet transmitted payload.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PendingTransmission {
    frame_id: u32,
    queued_at: f64,
}

/// The original `BTreeMap`-based bus simulator (test-only oracle).
#[derive(Debug, Clone)]
struct ReferenceBus {
    config: FlexRayConfig,
    frames: BTreeMap<u32, Frame>,
    pending: Vec<PendingTransmission>,
    log: Vec<Transmission>,
    statistics: BusStatistics,
    completed_cycles: u64,
    fault: Option<FaultModel>,
    fault_rng: SimRng,
    burst_bad: bool,
    frame_losses: Vec<(u32, u64)>,
    logging: bool,
    dynamic_scratch: Vec<PendingTransmission>,
}

impl ReferenceBus {
    fn new(config: FlexRayConfig) -> Result<Self> {
        config.validate()?;
        Ok(ReferenceBus {
            config,
            frames: BTreeMap::new(),
            pending: Vec::new(),
            log: Vec::new(),
            statistics: BusStatistics::default(),
            completed_cycles: 0,
            fault: None,
            fault_rng: SimRng::seeded(0),
            burst_bad: false,
            frame_losses: Vec::new(),
            logging: true,
            dynamic_scratch: Vec::new(),
        })
    }

    fn time(&self) -> f64 {
        self.completed_cycles as f64 * self.config.cycle_length
    }

    fn statistics(&self) -> BusStatistics {
        self.statistics
    }

    fn transmissions(&self) -> &[Transmission] {
        &self.log
    }

    fn set_fault_model(&mut self, model: Option<FaultModel>) -> Result<()> {
        if let Some(model) = &model {
            model.validate()?;
        }
        self.fault = model;
        self.reseed_faults();
        Ok(())
    }

    fn set_logging(&mut self, logging: bool) {
        self.logging = logging;
    }

    fn losses_of(&self, frame_id: u32) -> u64 {
        self.frame_losses
            .iter()
            .find(|(id, _)| *id == frame_id)
            .map(|(_, losses)| *losses)
            .unwrap_or(0)
    }

    fn register_frame(&mut self, frame: Frame) -> Result<()> {
        if self.frames.contains_key(&frame.id) {
            return Err(FlexRayError::InvalidFrame {
                reason: format!("frame id {} is already registered", frame.id),
            });
        }
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
        self.frame_losses.push((frame.id, 0));
        self.frames.insert(frame.id, frame);
        Ok(())
    }

    fn validate_static_assignment(&self, frame_id: u32, slot: usize) -> Result<()> {
        self.config.static_slot_start(slot)?;
        if let Some(owner) = self
            .frames
            .values()
            .find(|f| f.id != frame_id && f.segment == Segment::Static { slot })
        {
            return Err(FlexRayError::InvalidFrame {
                reason: format!("static slot {slot} is already owned by frame {}", owner.id),
            });
        }
        Ok(())
    }

    fn reassign_frame(&mut self, frame_id: u32, segment: Segment) -> Result<()> {
        if !self.frames.contains_key(&frame_id) {
            return Err(FlexRayError::InvalidFrame {
                reason: format!("frame id {frame_id} is not registered"),
            });
        }
        if let Segment::Static { slot } = segment {
            self.validate_static_assignment(frame_id, slot)?;
        }
        if let Some(frame) = self.frames.get_mut(&frame_id) {
            frame.segment = segment;
        }
        Ok(())
    }

    fn frame(&self, frame_id: u32) -> Option<&Frame> {
        self.frames.get(&frame_id)
    }

    fn queue_message(&mut self, frame_id: u32, queued_at: f64) -> Result<()> {
        if !self.frames.contains_key(&frame_id) {
            return Err(FlexRayError::InvalidFrame {
                reason: format!("frame id {frame_id} is not registered"),
            });
        }
        self.pending.retain(|p| p.frame_id != frame_id);
        self.pending.push(PendingTransmission { frame_id, queued_at });
        Ok(())
    }

    fn transmission_survives(&mut self, frame_id: u32) -> bool {
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
            self.record_loss(frame_id);
            return false;
        }
        if self.fault_rng.next_unit() < model.corruption_probability {
            self.statistics.corrupted_frames += 1;
            self.record_loss(frame_id);
            return false;
        }
        true
    }

    fn record_loss(&mut self, frame_id: u32) {
        if let Some(entry) = self.frame_losses.iter_mut().find(|(id, _)| *id == frame_id) {
            entry.1 += 1;
        }
    }

    fn cycle_into(&mut self, mut out: Option<&mut Vec<Transmission>>) {
        let cycle_start = self.time();

        for slot in 0..self.config.static_slot_count {
            let slot_start = cycle_start
                + self.config.static_slot_start(slot).expect("slot index within configured range");
            let owner = self
                .frames
                .values()
                .find(|f| f.segment == Segment::Static { slot })
                .map(|f| f.id);
            let Some(owner_id) = owner else {
                continue;
            };
            let ready = self
                .pending
                .iter()
                .position(|p| p.frame_id == owner_id && p.queued_at <= slot_start);
            match ready {
                Some(index) => {
                    let request = self.pending.remove(index);
                    if self.transmission_survives(owner_id) {
                        let tx = Transmission {
                            frame_id: owner_id,
                            queued_at: request.queued_at,
                            completed_at: slot_start + self.config.static_slot_length,
                            used_static_slot: true,
                        };
                        self.statistics.static_transmissions += 1;
                        if self.logging {
                            self.log.push(tx);
                        }
                        if let Some(sink) = out.as_deref_mut() {
                            sink.push(tx);
                        }
                    }
                }
                None => {
                    self.statistics.wasted_static_slots += 1;
                }
            }
        }

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
        let mut ready = std::mem::take(&mut self.dynamic_scratch);
        ready.clear();
        ready.extend(self.pending.iter().copied().filter(|p| {
            p.queued_at <= dynamic_start
                && self.frames.get(&p.frame_id).map(|f| !f.is_static()).unwrap_or(false)
        }));
        ready.sort_by_key(|p| p.frame_id);
        for request in &ready {
            let minislots = self.frames[&request.frame_id].dynamic_minislots;
            if used_minislots + minislots > self.config.minislot_count {
                self.statistics.deferred_dynamic_transmissions += 1;
                continue;
            }
            used_minislots += minislots;
            self.pending.retain(|p| p.frame_id != request.frame_id);
            if self.transmission_survives(request.frame_id) {
                let tx = Transmission {
                    frame_id: request.frame_id,
                    queued_at: request.queued_at,
                    completed_at: dynamic_start
                        + used_minislots as f64 * self.config.minislot_length,
                    used_static_slot: false,
                };
                self.statistics.dynamic_transmissions += 1;
                if self.logging {
                    self.log.push(tx);
                }
                if let Some(sink) = out.as_deref_mut() {
                    sink.push(tx);
                }
            }
        }
        self.dynamic_scratch = ready;

        self.statistics.cycles += 1;
        self.completed_cycles += 1;
    }

    fn run_cycle(&mut self) -> Vec<Transmission> {
        let mut completed = Vec::new();
        self.cycle_into(Some(&mut completed));
        completed
    }

    fn advance_cycle(&mut self) {
        self.cycle_into(None);
    }

    /// The bus clock's cycle-count rule: the first cycle boundary at or
    /// after `time`, a boundary within float rounding of `time` counting as
    /// reaching it. (The original loop compared `time() < time` and drifted
    /// a cycle early or late whenever the two float products rounded apart;
    /// the oracle follows the corrected clock.)
    fn cycles_until(&self, time: f64) -> u64 {
        let cycles = time / self.config.cycle_length;
        let nearest = cycles.round();
        let whole = (cycles - nearest).abs() <= 1e-9 * nearest.abs().max(1.0);
        (if whole { nearest } else { cycles.ceil() }) as u64
    }

    fn run_until(&mut self, time: f64) -> Vec<Transmission> {
        let target = self.cycles_until(time);
        let mut all = Vec::new();
        while self.completed_cycles < target {
            self.cycle_into(Some(&mut all));
        }
        all
    }

    fn advance_until(&mut self, time: f64) {
        let target = self.cycles_until(time);
        while self.completed_cycles < target {
            self.cycle_into(None);
        }
    }

    fn reset(&mut self) {
        self.pending.clear();
        self.log.clear();
        self.statistics = BusStatistics::default();
        self.completed_cycles = 0;
        for entry in &mut self.frame_losses {
            entry.1 = 0;
        }
        self.reseed_faults();
    }

    fn reseed_faults(&mut self) {
        self.fault_rng = SimRng::seeded(self.fault.map(|m| m.seed).unwrap_or(0));
        self.burst_bad = false;
    }
}

// --- differential driver -------------------------------------------------

/// Non-contiguous frame identifiers; the registration order is random, so
/// dense indices shift as frames are inserted in front of others.
const IDS: [u32; 10] = [1, 3, 4, 7, 10, 13, 20, 21, 42, 100];

/// One random operation: `(kind, id pick, slot, minislots, offset, flag)`.
type RawOp = (usize, usize, usize, usize, f64, usize);

fn raw_op() -> impl Strategy<Value = RawOp> {
    // Slots up to 11 (two past the paper bus's ten) and minislots up to 69
    // (nine past its 60) exercise the rejection paths too.
    (0usize..100, 0usize..IDS.len(), 0usize..12, 1usize..70, 0.0f64..1.0, 0usize..4)
}

/// The fault configurations every sequence is replayed under.
fn fault_model(kind: usize, seed: u64) -> Option<FaultModel> {
    let burst = GilbertElliott {
        degrade_probability: 0.2,
        recover_probability: 0.4,
        bad_drop_probability: 0.9,
    };
    match kind {
        0 => None,
        1 => Some(FaultModel::drops(seed, 0.2).with_burst(burst).with_corruption(0.1)),
        2 => Some(FaultModel::drops(seed, 0.05).with_dynamic_contention(50)),
        _ => Some(
            FaultModel::drops(seed, 0.3)
                .with_burst(burst)
                .with_corruption(0.05)
                .with_dynamic_contention(20),
        ),
    }
}

/// Asserts that every observable of the two buses agrees.
fn assert_same(bus: &FlexRayBus, reference: &ReferenceBus, step: usize) {
    assert_eq!(bus.statistics(), reference.statistics(), "statistics after op {step}");
    assert_eq!(bus.transmissions(), reference.transmissions(), "log after op {step}");
    assert_eq!(bus.time().to_bits(), reference.time().to_bits(), "time after op {step}");
    for id in IDS {
        assert_eq!(bus.losses_of(id), reference.losses_of(id), "losses of {id} after op {step}");
        assert_eq!(bus.frame(id), reference.frame(id), "frame {id} after op {step}");
    }
}

/// Replays `ops` on a fresh production bus and a fresh reference bus under
/// the given fault model, comparing after every operation.
fn replay(ops: &[RawOp], fault: Option<FaultModel>) {
    let config = FlexRayConfig::paper_case_study();
    let cycle = config.cycle_length;
    let mut bus = FlexRayBus::new(config).expect("paper bus");
    let mut reference = ReferenceBus::new(config).expect("paper bus");
    bus.set_fault_model(fault).expect("valid model");
    reference.set_fault_model(fault).expect("valid model");

    for (step, &(kind, pick, slot, minislots, offset, flag)) in ops.iter().enumerate() {
        let id = IDS[pick];
        match kind {
            // Registration: static (possibly on an owned or missing slot)
            // or dynamic (possibly wider than the dynamic segment).
            0..=14 => {
                let frame = if flag < 2 {
                    Frame::static_slot(id, format!("s{id}"), slot, minislots)
                } else {
                    Frame::dynamic(id, format!("d{id}"), minislots)
                }
                .expect("minislots >= 1");
                let got = bus.register_frame(frame.clone());
                let want = reference.register_frame(frame);
                assert_eq!(got.is_err(), want.is_err(), "register {id} at op {step}");
            }
            // Reassignment: to a (possibly owned or missing) static slot or
            // back to the dynamic segment; unknown ids fail on both.
            15..=39 => {
                let segment =
                    if flag < 3 { Segment::Static { slot } } else { Segment::Dynamic };
                let got = bus.reassign_frame(id, segment);
                let want = reference.reassign_frame(id, segment);
                assert_eq!(got.is_err(), want.is_err(), "reassign {id} at op {step}");
                assert_eq!(got, want, "reassign {id} error at op {step}");
            }
            // Queueing exactly at a static slot start of the next cycle (the
            // `queued_at <= slot_start` boundary), or at an off-cycle instant
            // up to one cycle in the past and two cycles ahead of the clock.
            40..=69 => {
                let at = if flag == 0 {
                    reference.time() + slot as f64 * config.static_slot_length
                } else {
                    reference.time() + (offset * 3.0 - 1.0) * cycle
                };
                let got = bus.queue_message(id, at);
                let want = reference.queue_message(id, at);
                assert_eq!(got.is_err(), want.is_err(), "queue {id} at op {step}");
            }
            70..=79 => {
                bus.advance_cycle();
                reference.advance_cycle();
            }
            80..=87 => {
                assert_eq!(bus.run_cycle(), reference.run_cycle(), "run_cycle at op {step}");
            }
            88..=93 => {
                // Off-boundary targets, or the end of the current 20 ms
                // control period (a cycle boundary only up to rounding).
                let until = if flag == 3 {
                    let period = 4.0 * cycle;
                    ((reference.time() / period).floor() + 1.0) * period
                } else {
                    reference.time() + offset * 3.0 * cycle
                };
                if flag % 2 == 0 {
                    bus.advance_until(until);
                    reference.advance_until(until);
                } else {
                    assert_eq!(
                        bus.run_until(until),
                        reference.run_until(until),
                        "run_until at op {step}"
                    );
                }
            }
            94..=96 => {
                let logging = flag != 0;
                bus.set_logging(logging);
                reference.set_logging(logging);
            }
            _ => {
                bus.reset();
                reference.reset();
            }
        }
        assert_same(&bus, &reference, step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dense bus and the `BTreeMap` reference agree on every observable
    /// after every operation, nominally and under each fault model.
    #[test]
    fn dense_bus_matches_the_reference_on_random_op_sequences(
        ops in proptest::collection::vec(raw_op(), 20..160),
        seed in 0usize..1_000_000,
    ) {
        for kind in 0..4 {
            replay(&ops, fault_model(kind, seed as u64));
        }
    }
}

/// The paper's co-simulation traffic pattern over many periods: six frames
/// registered dynamically, TT grants moving between them (including the
/// same-period slot handover that makes `reassign_frame` fail), queueing at
/// every period start, and `advance_until` to the period end — under the
/// full fault model.
#[test]
fn dense_bus_matches_the_reference_on_the_cosimulation_pattern() {
    let config = FlexRayConfig::paper_case_study();
    let period = 0.02;
    let fault = fault_model(3, 0x5EED);
    let mut bus = FlexRayBus::new(config).expect("paper bus");
    let mut reference = ReferenceBus::new(config).expect("paper bus");
    for id in 1..=6u32 {
        let frame = Frame::dynamic(id, format!("app{id}"), 2).expect("frame");
        bus.register_frame(frame.clone()).expect("register");
        reference.register_frame(frame).expect("register");
    }
    bus.set_fault_model(fault).expect("model");
    reference.set_fault_model(fault).expect("model");
    bus.set_logging(false);
    reference.set_logging(false);

    let mut rng = SimRng::seeded(17);
    let mut failed_reassigns = 0;
    for step in 0..2_000usize {
        let time = step as f64 * period;
        for id in 1..=6u32 {
            // Each frame holds one of three slots with probability 1/2.
            let segment = if rng.next_unit() < 0.5 {
                Segment::Static { slot: rng.next_below(3) as usize }
            } else {
                Segment::Dynamic
            };
            let got = bus.reassign_frame(id, segment);
            let want = reference.reassign_frame(id, segment);
            assert_eq!(got.is_err(), want.is_err(), "reassign {id} at period {step}");
            if got.is_err() {
                failed_reassigns += 1;
                bus.reassign_frame(id, Segment::Dynamic).expect("dynamic fallback");
                reference.reassign_frame(id, Segment::Dynamic).expect("dynamic fallback");
            }
            bus.queue_message(id, time).expect("queue");
            reference.queue_message(id, time).expect("queue");
        }
        bus.advance_until(time + period);
        reference.advance_until(time + period);
        assert_same(&bus, &reference, step);
    }
    assert!(failed_reassigns > 0, "the pattern must exercise conflicting reassignments");
    assert!(bus.statistics().lost_frames() > 0, "the fault model must lose frames");
}
