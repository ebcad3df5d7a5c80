//! Streaming, event-driven scheduler core — O(active jobs) resident memory.
//!
//! The paper's algorithms are naturally online: Algorithm C reacts only to
//! release and completion events, and Algorithm NC additionally never
//! preempts. The batch runners ([`crate::run_c`], [`crate::run_nc_uniform`])
//! are therefore thin wrappers over the state machines in this module —
//! same instance in, **bitwise-identical** objectives out, because batch
//! and stream literally execute the same arithmetic in the same order
//! (DESIGN.md §9 calls this the batch-vs-stream equivalence contract, and
//! `tests/differential_oracle.rs` enforces it).
//!
//! Resident state per stream:
//!
//! * a [`JobArena`] slot per **active** job (SoA slices, recycled on
//!   completion), over which the `W^{1−1/α}` decay kernels batch their
//!   per-event accounting;
//! * a binary heap of active-job keys (HDF order for C);
//! * O(1) running objective accumulators (energy, fractional and integral
//!   flow of completed jobs);
//! * a [`SpillRing`] of retired segments, drained by the consumer (batch
//!   collector, auditor) or capped and dropped-oldest for objective-only
//!   soak runs.
//!
//! Jobs enter through [`CStream::offer`] / [`NcStream::offer`] in
//! non-decreasing release order — the online arrival order — and
//! completions are pushed to a caller-supplied sink as the event loop
//! crosses them.

use crate::clairvoyant::ActiveKey;
use ncss_sim::arena::{ArenaSnapshot, JobArena};
use ncss_sim::kernel::{DecayKernel, GrowthKernel};
use ncss_sim::profile::{Phase, PhaseScope};
use ncss_sim::spill::{SpillRing, SpillSnapshot};
use ncss_sim::{Job, JobId, Objective, PowerLaw, Segment, SimError, SimResult, SpeedLaw};
use std::collections::BinaryHeap;

/// Initial capacity of the active-job heap. A run has one such stream (the
/// fleet dispatchers' per-machine shadows use [`CStream::shadow`], which
/// does not pre-size), so a generous pre-size trades a few KiB for an
/// allocation-free steady state; streams whose active set outgrows it just
/// fall back to amortized doubling.
const HEAP_PRESIZE: usize = 1024;

/// Exact total-weight resync cadence. `W(t)` is maintained incrementally
/// (one multiply per event) and re-derived from the per-job remainders over
/// the arena slices every this many events, bounding accumulation drift at
/// a few thousand rounding errors — far below the audit tolerances — while
/// removing the O(active) per-event recompute. The counter is part of the
/// stream snapshot, so a resumed run resyncs on the same events as an
/// uninterrupted one (bitwise-resume contract).
const WEIGHT_RESYNC_EVERY: u32 = 4096;

/// Cancellation guard for the incremental total weight: when one event
/// removes weight `delta` and leaves less than `delta * GUARD` behind, the
/// subtraction was catastrophic (the survivors' weights were absorbed into
/// the big value's rounding) and the total is re-derived exactly right
/// away. On homogeneous workloads this never fires; on mixed-magnitude
/// (fault-injection) workloads it bounds the relative error of the kept
/// total near `ulp / GUARD`. The trigger depends only on snapshotted values,
/// so resumed runs resync on the same events.
const WEIGHT_CANCEL_GUARD: f64 = 1e-3;

/// Configuration of a stream's segment-retention policy.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Retire closed segments into the spill ring (`false` for shadow runs
    /// that only need the weight trajectory, e.g. NC's embedded C run).
    pub keep_segments: bool,
    /// Resident cap of the spill ring; `None` means unbounded (the batch
    /// wrappers, which drain once at the end).
    pub spill_capacity: Option<usize>,
}

impl StreamConfig {
    /// Unbounded ring, segments kept — what [`crate::run_c`] and
    /// [`crate::run_nc_uniform`] use to reassemble a full [`ncss_sim::Schedule`].
    #[must_use]
    pub fn batch() -> Self {
        Self { keep_segments: true, spill_capacity: None }
    }

    /// Bounded ring of `capacity` segments, segments kept — the streaming
    /// mode; the consumer must drain between events or accept drops.
    #[must_use]
    pub fn streaming(capacity: usize) -> Self {
        Self { keep_segments: true, spill_capacity: Some(capacity) }
    }

    fn ring(&self) -> SpillRing {
        match self.spill_capacity {
            Some(cap) => SpillRing::with_capacity(cap),
            None => SpillRing::unbounded(),
        }
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self::batch()
    }
}

/// A completed job as emitted by [`CStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CCompletion {
    /// Arrival index of the job (0-based ingest order = [`JobId`] in the
    /// equivalent batch [`ncss_sim::Instance`]).
    pub id: JobId,
    /// The job as offered.
    pub job: Job,
    /// Completion time.
    pub completion: f64,
    /// Fractional flow-time accrued by this job.
    pub frac_flow: f64,
    /// Integral (weighted) flow-time `W · (completion − release)`.
    pub int_flow: f64,
}

/// A completed job as emitted by [`NcStream`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NcCompletion {
    /// Arrival index of the job.
    pub id: JobId,
    /// The job as offered.
    pub job: Job,
    /// Base power level `K_j = W^{(C)}(r_j^-)` used for this job.
    pub base_power: f64,
    /// Service start time (FIFO: after all earlier jobs complete).
    pub start: f64,
    /// Completion time.
    pub completion: f64,
    /// Fractional flow-time accrued by this job.
    pub frac_flow: f64,
    /// Integral (weighted) flow-time.
    pub int_flow: f64,
}

/// Final tally of a finished stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Aggregate objective, accounted incrementally during the run.
    pub objective: Objective,
    /// Jobs completed (equals jobs offered once `finish` returns).
    pub completed: usize,
    /// Completion time of the last job (0 for an empty stream).
    pub makespan: f64,
}

/// Resident-memory counters of a stream — what the soak bench asserts its
/// flat-memory ceiling against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Jobs offered so far.
    pub ingested: usize,
    /// Jobs completed so far.
    pub completed: usize,
    /// Jobs currently active (released, not complete).
    pub active: usize,
    /// High-water mark of simultaneously active jobs.
    pub peak_active: usize,
    /// Arena slots ever created (= peak active, by slot recycling).
    pub arena_slots: usize,
    /// Segments currently resident in the spill ring.
    pub spill_resident: usize,
    /// High-water mark of resident spill segments.
    pub spill_peak_resident: usize,
    /// Segments dropped because the consumer fell behind the ring cap.
    pub spill_dropped: u64,
    /// Segments ever retired.
    pub spill_total: u64,
}

/// Heap key: [`ActiveKey`] ordering (highest density, earliest release,
/// smallest id) plus the arena slot the job lives in and the slot's
/// generation at push time. Neither the slot nor the generation
/// participates in the ordering.
///
/// The generation implements *lazy deletion*: retiring a slot bumps its
/// generation, so any key still in the heap for that slot goes stale and is
/// skipped (popped and discarded) when it surfaces, instead of requiring an
/// O(n) sift-out. The current C policy only ever completes the top job, so
/// stale keys cannot arise today — the machinery is what lets future
/// policies (cancellation, re-prioritisation in the algorithm zoo) reuse
/// this heap without restructuring it.
#[derive(Debug, Clone, Copy)]
struct StreamKey {
    key: ActiveKey,
    slot: usize,
    gen: u32,
}

impl PartialEq for StreamKey {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for StreamKey {}

impl PartialOrd for StreamKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StreamKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Streaming Algorithm C: highest-density-first with `P(s(t)) = W(t)`,
/// driven by an ordered release stream.
///
/// This *is* the Algorithm C event loop — [`crate::run_c`] wraps it — with
/// the per-job `Vec`s replaced by an arena over active jobs only.
///
/// # Examples
///
/// ```
/// use ncss_core::streaming::{CStream, StreamConfig};
/// use ncss_sim::{Job, PowerLaw};
///
/// let mut stream = CStream::new(PowerLaw::new(2.0).unwrap(), StreamConfig::batch());
/// let mut done = Vec::new();
/// stream.offer(Job::unit_density(0.0, 4.0), &mut |c| done.push(c)).unwrap();
/// let summary = stream.finish(&mut |c| done.push(c)).unwrap();
/// // Lemma 2: a weight-4 job at alpha = 2 finishes at t = 4.
/// assert!((done[0].completion - 4.0).abs() < 1e-9);
/// assert_eq!(summary.completed, 1);
/// // Energy = fractional flow for Algorithm C.
/// assert!((summary.objective.energy - summary.objective.frac_flow).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct CStream {
    law: PowerLaw,
    arena: JobArena,
    heap: BinaryHeap<StreamKey>,
    /// Generation counter per arena slot, bumped on retire; heap keys
    /// carrying an older generation are stale and lazily deleted.
    slot_gen: Vec<u32>,
    spill: SpillRing,
    keep_segments: bool,
    t: f64,
    watermark: f64,
    total_w: f64,
    /// Events since the last exact `total_w` resync (see
    /// [`WEIGHT_RESYNC_EVERY`]).
    events_since_sync: u32,
    last_seg: Option<Segment>,
    ingested: usize,
    completed: usize,
    energy: f64,
    frac_done: f64,
    int_done: f64,
}

impl Clone for CStream {
    fn clone(&self) -> Self {
        let mut stream = Self::with_heap(self.law, self.keep_segments, SpillRing::unbounded(), 0);
        stream.clone_from(self);
        stream
    }

    /// Field-wise, reusing `self`'s arena, heap and slot buffers, so a
    /// caller that re-clones one stream into the same target per query
    /// (non-uniform NC's speed oracle) stops allocating once the target's
    /// capacity has caught up.
    fn clone_from(&mut self, source: &Self) {
        self.law = source.law;
        self.arena.clone_from(&source.arena);
        self.heap.clone_from(&source.heap);
        self.slot_gen.clone_from(&source.slot_gen);
        self.spill.clone_from(&source.spill);
        self.keep_segments = source.keep_segments;
        self.t = source.t;
        self.watermark = source.watermark;
        self.total_w = source.total_w;
        self.events_since_sync = source.events_since_sync;
        self.last_seg = source.last_seg;
        self.ingested = source.ingested;
        self.completed = source.completed;
        self.energy = source.energy;
        self.frac_done = source.frac_done;
        self.int_done = source.int_done;
    }
}

impl CStream {
    /// A fresh stream under power law `law`.
    #[must_use]
    pub fn new(law: PowerLaw, config: StreamConfig) -> Self {
        Self::with_heap(law, config.keep_segments, config.ring(), HEAP_PRESIZE)
    }

    /// A shadow stream: it keeps only the weight trajectory (no segments
    /// retained) and allocates nothing before its first job. The fleet
    /// dispatchers keep one per machine they use, so unlike
    /// [`CStream::new`] it does not pre-size its heap.
    #[must_use]
    pub fn shadow(law: PowerLaw) -> Self {
        Self::with_heap(law, false, SpillRing::unbounded(), 0)
    }

    fn with_heap(law: PowerLaw, keep_segments: bool, spill: SpillRing, heap: usize) -> Self {
        Self {
            law,
            arena: JobArena::new(),
            heap: BinaryHeap::with_capacity(heap),
            slot_gen: Vec::new(),
            spill,
            keep_segments,
            t: 0.0,
            watermark: f64::NEG_INFINITY,
            total_w: 0.0,
            events_since_sync: 0,
            last_seg: None,
            ingested: 0,
            completed: 0,
            energy: 0.0,
            frac_done: 0.0,
            int_done: 0.0,
        }
    }

    /// Offer the next released job. Releases must be non-decreasing; the
    /// event loop first advances to `job.release` (emitting any completions
    /// crossed on the way), then admits the job. Returns the job's
    /// [`JobId`] (its arrival index).
    pub fn offer<F: FnMut(CCompletion)>(&mut self, job: Job, sink: &mut F) -> SimResult<JobId> {
        let id = self.ingested;
        job.validated(id)?;
        if job.release < self.watermark {
            return Err(SimError::InvalidInstance {
                reason: "streamed releases must be non-decreasing",
            });
        }
        self.watermark = job.release;
        self.advance_to(job.release, sink)?;
        let slot = {
            let _p = PhaseScope::enter(Phase::Dispatch);
            let slot = self.arena.alloc(job, id);
            if slot >= self.slot_gen.len() {
                self.slot_gen.resize(slot + 1, 0);
            }
            slot
        };
        {
            let _p = PhaseScope::enter(Phase::HeapOps);
            self.heap.push(StreamKey {
                key: ActiveKey { density: job.density, release: job.release, id },
                slot,
                gen: self.slot_gen[slot],
            });
        }
        self.total_w += job.weight();
        self.ingested += 1;
        Ok(id)
    }

    /// Advance the event loop to time `bound`, emitting completions crossed
    /// on the way. The caller promises no job is released before `bound`
    /// (this is what "ordered release stream" buys: the future is silent
    /// until the next offer).
    pub fn advance_to<F: FnMut(CCompletion)>(&mut self, bound: f64, sink: &mut F) -> SimResult<()> {
        self.drain_events(bound, false, sink)
    }

    /// Declare the release stream exhausted and run every remaining job to
    /// completion. Idempotent; the summary restates the accumulated
    /// objective (validated for finiteness).
    pub fn finish<F: FnMut(CCompletion)>(&mut self, sink: &mut F) -> SimResult<StreamSummary> {
        self.drain_events(f64::INFINITY, true, sink)?;
        let objective = self.objective_so_far().validated("run_c: objective")?;
        Ok(StreamSummary { objective, completed: self.completed, makespan: self.t })
    }

    /// The event loop. With `finishing` no further release bounds segments,
    /// so a non-finite completion time cannot make progress and is a
    /// numeric error (same contract as the batch loop had).
    ///
    /// Per service interval the loop makes exactly one fused
    /// [`DecayKernel::serve`] call (2 power-kernel evaluations when the top
    /// job completes, 3 when the interval is truncated at `bound`), touches
    /// only the in-service job's arena slot (waiting jobs settle their flow
    /// lazily via [`JobArena::settle_waiting`]), maintains `W(t)` with one
    /// multiply (exact resync every [`WEIGHT_RESYNC_EVERY`] events), and
    /// emits completions allocation-free: [`CCompletion`] is `Copy` and
    /// goes straight to the caller's sink.
    fn drain_events<F: FnMut(CCompletion)>(
        &mut self,
        bound: f64,
        finishing: bool,
        sink: &mut F,
    ) -> SimResult<()> {
        self.drain_until(bound, finishing, f64::INFINITY, sink).map(drop)
    }

    /// [`CStream::drain_events`] that stops short of the service interval
    /// covering `probe` (`start ≤ probe < end`) and returns that interval
    /// as the segment the loop would retire, uncommitted. Every interval
    /// ending at or before `probe` is committed exactly as `drain_events`
    /// commits it. `None` means the loop went idle (or ended at `bound`)
    /// without an interval covering `probe`. Inlined so the `probe = ∞`
    /// comparison folds away on the hot path.
    #[inline(always)]
    fn drain_until<F: FnMut(CCompletion)>(
        &mut self,
        bound: f64,
        finishing: bool,
        probe: f64,
        sink: &mut F,
    ) -> SimResult<Option<Segment>> {
        loop {
            // Lazily delete stale keys (slot generation moved on) before
            // reading the top. See [`StreamKey`]; never fires under the
            // current complete-at-top-only policy.
            while let Some(&k) = self.heap.peek() {
                if self.slot_gen[k.slot] == k.gen {
                    break;
                }
                let _p = PhaseScope::enter(Phase::HeapOps);
                self.heap.pop();
            }
            let Some(&top) = self.heap.peek() else {
                // Idle until the next release (gap segments stay implicit).
                if self.t < bound && bound.is_finite() {
                    self.t = bound;
                }
                return Ok(None);
            };
            let slot = top.slot;
            let rho = top.key.density;
            let kernel = DecayKernel { law: self.law, w0: self.total_w, rho };
            let rem = self.arena.remaining(slot);
            let sv = {
                let _p = PhaseScope::enter(Phase::RootFind);
                kernel.serve(rem, bound - self.t)
            };
            if finishing && !(self.t + sv.tau).is_finite() {
                // Kernel overflow at extreme weight scales: with no further
                // release to bound the segment, the event loop cannot make
                // progress — report instead of spinning or emitting NaN.
                return Err(SimError::Numeric {
                    what: "run_c: completion time",
                    value: self.t + sv.tau,
                });
            }
            let t_end = if sv.completes { self.t + sv.tau } else { bound };
            let tau = sv.tau;
            if t_end > probe {
                let law = SpeedLaw::Decay { w0: self.total_w, rho };
                return Ok(Some(Segment::new(self.t, t_end, Some(top.key.id), law)));
            }

            // Guard on *clock-visible* progress: a service interval shorter
            // than the clock's ulp (huge-W, tiny-volume degeneracies) closes
            // no segment and accrues nothing — same as a zero-length
            // interval; the job's waiting flow settles at completion below.
            if t_end > self.t {
                let _p = PhaseScope::enter(Phase::Dispatch);
                let seg = Segment::new(
                    self.t,
                    t_end,
                    Some(top.key.id),
                    SpeedLaw::Decay { w0: self.total_w, rho },
                );
                if self.keep_segments {
                    self.spill.push(seg);
                }
                self.last_seg = Some(seg);
                self.energy += sv.step.energy;
                // Waiting stretches settle lazily: bring the in-service
                // job's flow current through the interval start, add the
                // drain-side flow analytically, and mark it accounted
                // through the interval end. Every *other* active job keeps
                // deferring (its remainder is constant while it waits).
                self.arena.settle_waiting(slot, self.t);
                self.arena.add_frac_flow(slot, rho * (rem * tau - sv.step.volume_integral));
                self.arena.set_remaining(
                    slot,
                    if sv.completes { 0.0 } else { (rem - sv.step.volume).max(0.0) },
                );
                self.arena.set_accrued(slot, t_end);
            }
            self.t = t_end;

            let rem_end = if sv.completes {
                {
                    let _p = PhaseScope::enter(Phase::HeapOps);
                    self.heap.pop();
                }
                let _p = PhaseScope::enter(Phase::Dispatch);
                // Settle any outstanding waiting stretch first: a no-op when
                // the job was served this event (remaining is already 0),
                // but a zero-length completion (volume below W's ulp) skips
                // the service block entirely and still owes its waiting flow.
                self.arena.settle_waiting(slot, self.t);
                self.arena.set_remaining(slot, 0.0);
                let job = self.arena.job(slot);
                let frac = self.arena.frac_flow(slot);
                let int = job.weight() * (self.t - job.release);
                self.frac_done += frac;
                self.int_done += int;
                self.completed += 1;
                sink(CCompletion {
                    id: top.key.id,
                    job,
                    completion: self.t,
                    frac_flow: frac,
                    int_flow: int,
                });
                self.arena.retire(slot);
                self.slot_gen[slot] = self.slot_gen[slot].wrapping_add(1);
                0.0
            } else {
                self.arena.remaining(slot)
            };
            // Incremental total-weight maintenance: one multiply per event,
            // snapped back to the exactly re-derived slice sum every
            // WEIGHT_RESYNC_EVERY events (and to exactly 0 when the active
            // set empties) so drift never accumulates past a few thousand
            // rounding errors.
            {
                let _p = PhaseScope::enter(Phase::Dispatch);
                let delta = rho * (rem - rem_end);
                self.total_w -= delta;
                if self.arena.live() == 0 {
                    self.total_w = 0.0;
                    self.events_since_sync = 0;
                } else {
                    self.events_since_sync += 1;
                    if self.events_since_sync >= WEIGHT_RESYNC_EVERY
                        || self.total_w < delta * WEIGHT_CANCEL_GUARD
                    {
                        self.events_since_sync = 0;
                        self.total_w = self.arena.total_weight();
                    }
                }
            }
            if !sv.completes {
                return Ok(None);
            }
        }
    }

    /// Speed of Algorithm C at time `t`: the bits
    /// [`ncss_sim::Schedule::speed_at`] reads at `t` from the schedule of a
    /// batch [`crate::run_c`] over the jobs offered so far followed by jobs
    /// released no earlier than `next_release` (`f64::INFINITY` when none
    /// follow). Right-continuous at events, and at the end of a busy period
    /// it keeps the schedule's closing-speed rule (the speed the last
    /// segment ends with, read within `1e-12` after its end).
    ///
    /// Requires `clock() ≤ t < next_release`. The stream commits every
    /// service interval that ends at or before `t` exactly as advancing to
    /// `next_release` (or finishing) would; the interval covering `t` is
    /// read, not committed, so `C`'s future beyond `t` is not simulated.
    /// The stream is left between events: offering the job released at
    /// `next_release` (or finishing) afterwards continues bit for bit as
    /// if no read had happened. Errors are those [`CStream::advance_to`] /
    /// [`CStream::finish`] raise on the committed intervals and the one
    /// covering `t`.
    pub fn speed_at(&mut self, t: f64, next_release: f64) -> SimResult<f64> {
        debug_assert!(self.t <= t && t < next_release, "speed read outside [clock, next release)");
        let finishing = next_release == f64::INFINITY;
        Ok(match self.drain_until(next_release, finishing, t, &mut |_| {})? {
            Some(seg) => seg.speed_at(self.law, t),
            None => match &self.last_seg {
                Some(s) if (t - s.end).abs() <= 1e-12 => s.speed_at(self.law, t),
                _ => 0.0,
            },
        })
    }

    /// The segments this stream retires if no further job arrives: a copy
    /// of it run to completion, with `self` left untouched. It fails
    /// exactly where [`CStream::finish`] would.
    ///
    /// A batch [`crate::run_c`] over the same offers ends with exactly these
    /// segments, so for any `t` at or after the last release, reading them
    /// as [`crate::CRun::remaining_weight_before`] does gives the same bits
    /// without re-running the stream's history.
    pub fn remaining_segments(&self) -> SimResult<Vec<Segment>> {
        let mut rest = self.clone();
        rest.keep_segments = true;
        rest.spill = SpillRing::unbounded();
        rest.finish(&mut |_| {})?;
        Ok(rest.spill.drain().collect())
    }

    /// The left limit `W(t^-)` of the total remaining weight — the quantity
    /// `W^{(C)}(r^-)` Algorithm NC reads at each release. Valid for `t` at
    /// or behind the stream clock; reads the last closed segment with
    /// `(start, end]` semantics, exactly like the batch
    /// [`crate::CRun::remaining_weight_before`].
    #[must_use]
    pub fn weight_before(&self, t: f64) -> f64 {
        match &self.last_seg {
            Some(s) if s.start < t && t <= s.end => s.power_at(self.law, t),
            _ => 0.0,
        }
    }

    /// Objective accumulated so far: energy spent (including on
    /// partially-served jobs), flow-times of *completed* jobs.
    #[must_use]
    pub fn objective_so_far(&self) -> Objective {
        Objective { energy: self.energy, frac_flow: self.frac_done, int_flow: self.int_done }
    }

    /// Current event-loop clock.
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.t
    }

    /// Resident-memory counters.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            ingested: self.ingested,
            completed: self.completed,
            active: self.arena.live(),
            peak_active: self.arena.peak_live(),
            arena_slots: self.arena.capacity(),
            spill_resident: self.spill.resident(),
            spill_peak_resident: self.spill.peak_resident(),
            spill_dropped: self.spill.dropped(),
            spill_total: self.spill.total_retired(),
        }
    }

    /// The spill ring of retired segments, for draining.
    pub fn spill_mut(&mut self) -> &mut SpillRing {
        &mut self.spill
    }

    /// Capture the complete stream state as plain data (DESIGN.md §10).
    ///
    /// The snapshot is taken between events (the stream is always quiescent
    /// between [`CStream::offer`] calls), carries every `f64` bit-for-bit,
    /// and is sufficient for [`CStream::from_snapshot`] to rebuild a stream
    /// whose future completions and objectives are **bitwise identical** to
    /// this one's — the checkpoint/resume contract that
    /// `tests/checkpoint_determinism.rs` enforces.
    #[must_use]
    pub fn snapshot(&self) -> CStreamSnapshot {
        CStreamSnapshot {
            alpha: self.law.alpha(),
            keep_segments: self.keep_segments,
            arena: self.arena.snapshot(),
            heap: self
                .heap
                .iter()
                .filter(|k| self.slot_gen[k.slot] == k.gen) // drop lazily-deleted keys
                .map(|k| HeapEntry {
                    density: k.key.density,
                    release: k.key.release,
                    id: k.key.id,
                    slot: k.slot,
                })
                .collect(),
            spill: self.spill.snapshot(),
            t: self.t,
            watermark: self.watermark,
            total_w: self.total_w,
            events_since_sync: self.events_since_sync,
            last_seg: self.last_seg,
            ingested: self.ingested,
            completed: self.completed,
            energy: self.energy,
            frac_done: self.frac_done,
            int_done: self.int_done,
        }
    }

    /// Rebuild a stream from a snapshot, validating its structure.
    ///
    /// Snapshots restored from disk may be corrupt; inconsistent shapes
    /// (heap slots outside the arena, live/heap cardinality mismatch, bad
    /// α) come back as structured errors, never panics. The rebuilt binary
    /// heap may have a different *internal* layout than the original — pop
    /// order is still unique because `ActiveKey`s are totally ordered, so
    /// the event loop's arithmetic is unaffected.
    pub fn from_snapshot(snap: CStreamSnapshot) -> SimResult<Self> {
        let law = PowerLaw::new(snap.alpha)?;
        let arena = JobArena::restore(snap.arena)?;
        let bad = |reason| Err(SimError::InvalidInstance { reason });
        if snap.heap.len() != arena.live() {
            return bad("stream snapshot: heap size disagrees with live jobs");
        }
        // Snapshots carry no stale keys (filtered at capture), so every
        // restored key starts at generation zero.
        let mut heap = BinaryHeap::with_capacity(snap.heap.len().max(HEAP_PRESIZE));
        for e in &snap.heap {
            if e.slot >= arena.capacity() {
                return bad("stream snapshot: heap entry slot out of range");
            }
            heap.push(StreamKey {
                key: ActiveKey { density: e.density, release: e.release, id: e.id },
                slot: e.slot,
                gen: 0,
            });
        }
        let slot_gen = vec![0; arena.capacity()];
        if snap.completed > snap.ingested || snap.ingested - snap.completed != arena.live() {
            return bad("stream snapshot: ingested/completed/live counts disagree");
        }
        if snap.events_since_sync >= WEIGHT_RESYNC_EVERY {
            return bad("stream snapshot: resync counter out of range");
        }
        let spill = SpillRing::restore(snap.spill)?;
        Ok(Self {
            law,
            arena,
            heap,
            slot_gen,
            spill,
            keep_segments: snap.keep_segments,
            t: snap.t,
            watermark: snap.watermark,
            total_w: snap.total_w,
            events_since_sync: snap.events_since_sync,
            last_seg: snap.last_seg,
            ingested: snap.ingested,
            completed: snap.completed,
            energy: snap.energy,
            frac_done: snap.frac_done,
            int_done: snap.int_done,
        })
    }
}

/// One active-job entry of a [`CStreamSnapshot`] heap: the HDF ordering key
/// plus the arena slot the job lives in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapEntry {
    /// Job density (primary HDF key).
    pub density: f64,
    /// Release time (tie-break).
    pub release: f64,
    /// External job id (final tie-break).
    pub id: JobId,
    /// Arena slot of the job.
    pub slot: usize,
}

/// Plain-data image of a [`CStream`], produced by [`CStream::snapshot`] and
/// consumed by [`CStream::from_snapshot`]. Serialized into trace checkpoint
/// frames by `ncss-trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct CStreamSnapshot {
    /// Power-law exponent α.
    pub alpha: f64,
    /// Whether closed segments are retired into the spill ring.
    pub keep_segments: bool,
    /// Active-job store.
    pub arena: ArenaSnapshot,
    /// Active-job heap entries (order is the heap's internal layout; only
    /// the *set* matters, see [`CStream::from_snapshot`]).
    pub heap: Vec<HeapEntry>,
    /// Spill ring (resident segments + drop accounting).
    pub spill: SpillSnapshot,
    /// Event-loop clock.
    pub t: f64,
    /// Highest release offered so far (−∞ before the first offer).
    pub watermark: f64,
    /// Cached total remaining weight `W(t)`.
    pub total_w: f64,
    /// Events since the last exact total-weight resync (< 4096).
    pub events_since_sync: u32,
    /// Last closed segment (for the `W(t⁻)` left limit).
    pub last_seg: Option<Segment>,
    /// Jobs offered.
    pub ingested: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Energy accumulated.
    pub energy: f64,
    /// Fractional flow of completed jobs.
    pub frac_done: f64,
    /// Integral flow of completed jobs.
    pub int_done: f64,
}

/// Streaming Algorithm NC for uniform densities: FIFO, one growth segment
/// per job, `P(s(t)) = K_j + W̆_j(t)`.
///
/// Completions are emitted *eagerly at offer time*: under FIFO without
/// preemption, a later arrival can never change an already-queued job's
/// service curve, so the moment job `j` is offered its start (when the
/// machine frees up), growth curve (from `K_j`), and completion are all
/// determined. The embedded shadow [`CStream`] supplies `K_j = W^{(C)}(r_j^-)`
/// without ever re-running a prefix — which also makes the batch wrapper
/// [`crate::run_nc_uniform`] O(n log n) instead of the former O(n²).
///
/// # Examples
///
/// ```
/// use ncss_core::streaming::{NcStream, StreamConfig};
/// use ncss_sim::{Job, PowerLaw};
///
/// let mut stream = NcStream::new(PowerLaw::cube(), StreamConfig::batch());
/// let mut done = Vec::new();
/// stream.offer(Job::unit_density(0.0, 1.0), &mut |c| done.push(c)).unwrap();
/// stream.offer(Job::unit_density(0.5, 2.0), &mut |c| done.push(c)).unwrap();
/// let summary = stream.finish().unwrap();
/// assert_eq!(done.len(), 2);
/// assert_eq!(done[0].base_power, 0.0); // nothing released before job 0
/// assert!(done[1].base_power > 0.0);   // W^(C)(0.5^-) of the prefix
/// assert_eq!(summary.completed, 2);
/// ```
#[derive(Debug, Clone)]
pub struct NcStream {
    law: PowerLaw,
    shadow: CStream,
    spill: SpillRing,
    t_free: f64,
    density0: Option<f64>,
    tie_release: f64,
    tie_weight: f64,
    watermark: f64,
    ingested: usize,
    energy: f64,
    frac_sum: f64,
    int_sum: f64,
    makespan: f64,
}

impl NcStream {
    /// A fresh stream under power law `law`.
    #[must_use]
    pub fn new(law: PowerLaw, config: StreamConfig) -> Self {
        let shadow_cfg = StreamConfig { keep_segments: false, spill_capacity: Some(1) };
        Self {
            law,
            shadow: CStream::new(law, shadow_cfg),
            spill: config.ring(),
            t_free: 0.0,
            density0: None,
            tie_release: f64::NEG_INFINITY,
            tie_weight: 0.0,
            watermark: f64::NEG_INFINITY,
            ingested: 0,
            energy: 0.0,
            frac_sum: 0.0,
            int_sum: 0.0,
            makespan: 0.0,
        }
    }

    /// Offer the next released job; its completion is emitted immediately
    /// (see the type docs for why that is sound under FIFO). Releases must
    /// be non-decreasing and densities uniform.
    pub fn offer<F: FnMut(NcCompletion)>(&mut self, job: Job, sink: &mut F) -> SimResult<JobId> {
        let id = self.ingested;
        job.validated(id)?;
        if job.release < self.watermark {
            return Err(SimError::InvalidInstance {
                reason: "streamed releases must be non-decreasing",
            });
        }
        self.watermark = job.release;
        match self.density0 {
            None => self.density0 = Some(job.density),
            // Same tolerance as Instance::is_uniform_density.
            Some(d0) => {
                if (job.density - d0).abs() > 1e-12 * d0.abs() {
                    return Err(SimError::NonUniformDensity);
                }
            }
        }

        // K_j = W^(C)(r_j^-) from the shadow clairvoyant run, plus the full
        // weight of jobs tied at r_j that arrived earlier (the
        // distinct-release limit of the paper's w.l.o.g. assumption).
        let mut drop_sink = |_c: CCompletion| {};
        self.shadow.advance_to(job.release, &mut drop_sink)?;
        if job.release != self.tie_release {
            self.tie_release = job.release;
            self.tie_weight = 0.0;
        }
        let k_j = self.shadow.weight_before(job.release) + self.tie_weight;
        self.shadow.offer(job, &mut drop_sink)?;
        self.tie_weight += job.weight();

        // FIFO: job j starts once jobs 0..j are done and j is released.
        let start = self.t_free.max(job.release);
        let rho = job.density;
        let kernel = GrowthKernel { law: self.law, u0: k_j, rho };
        let sv = {
            let _p = PhaseScope::enter(Phase::RootFind);
            kernel.serve_volume(job.volume)
        };
        if !sv.tau.is_finite() {
            return Err(SimError::Numeric { what: "run_nc_uniform: service time", value: sv.tau });
        }
        let (tau, step) = (sv.tau, sv.step);
        let _p = PhaseScope::enter(Phase::Dispatch);
        if tau > 0.0 {
            self.spill.push(Segment::new(
                start,
                start + tau,
                Some(id),
                SpeedLaw::Growth { u0: k_j, rho },
            ));
        }
        self.energy += step.energy;
        // Fractional flow: full volume waits from release to service start,
        // then drains along the growth curve.
        let frac = rho * job.volume * (start - job.release)
            + rho * (job.volume * tau - step.volume_integral);
        let completion = start + tau;
        let int = job.weight() * (completion - job.release);
        self.frac_sum += frac;
        self.int_sum += int;
        self.t_free = completion;
        self.makespan = self.makespan.max(completion);
        self.ingested += 1;
        sink(NcCompletion {
            id,
            job,
            base_power: k_j,
            start,
            completion,
            frac_flow: frac,
            int_flow: int,
        });
        Ok(id)
    }

    /// Declare the stream exhausted: every offered job already completed
    /// (FIFO emits eagerly), so this validates and returns the tally.
    pub fn finish(&mut self) -> SimResult<StreamSummary> {
        let objective = self.objective_so_far().validated("run_nc_uniform: objective")?;
        Ok(StreamSummary { objective, completed: self.ingested, makespan: self.makespan })
    }

    /// Objective accumulated so far (all offered jobs, completed by
    /// construction).
    #[must_use]
    pub fn objective_so_far(&self) -> Objective {
        Objective { energy: self.energy, frac_flow: self.frac_sum, int_flow: self.int_sum }
    }

    /// Time at which the machine frees up (completion of the last queued job).
    #[must_use]
    pub fn clock(&self) -> f64 {
        self.t_free
    }

    /// Resident-memory counters. `spill_*` describe this stream's own ring;
    /// the arena/heap numbers come from the embedded shadow C run, which is
    /// the only per-job state NC keeps.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        let shadow = self.shadow.stats();
        StreamStats {
            ingested: self.ingested,
            completed: self.ingested,
            active: shadow.active,
            peak_active: shadow.peak_active,
            arena_slots: shadow.arena_slots,
            spill_resident: self.spill.resident(),
            spill_peak_resident: self.spill.peak_resident(),
            spill_dropped: self.spill.dropped(),
            spill_total: self.spill.total_retired(),
        }
    }

    /// The spill ring of retired segments, for draining.
    pub fn spill_mut(&mut self) -> &mut SpillRing {
        &mut self.spill
    }

    /// Capture the complete stream state — including the embedded shadow
    /// [`CStream`] — as plain data. Same bitwise-resume contract as
    /// [`CStream::snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> NcStreamSnapshot {
        NcStreamSnapshot {
            alpha: self.law.alpha(),
            shadow: self.shadow.snapshot(),
            spill: self.spill.snapshot(),
            t_free: self.t_free,
            density0: self.density0,
            tie_release: self.tie_release,
            tie_weight: self.tie_weight,
            watermark: self.watermark,
            ingested: self.ingested,
            energy: self.energy,
            frac_sum: self.frac_sum,
            int_sum: self.int_sum,
            makespan: self.makespan,
        }
    }

    /// Rebuild a stream from a snapshot, validating its structure (the
    /// shadow stream and spill ring are validated by their own restores).
    pub fn from_snapshot(snap: NcStreamSnapshot) -> SimResult<Self> {
        let law = PowerLaw::new(snap.alpha)?;
        let shadow = CStream::from_snapshot(snap.shadow)?;
        if shadow.law.alpha() != snap.alpha {
            return Err(SimError::InvalidInstance {
                reason: "stream snapshot: shadow alpha disagrees with stream alpha",
            });
        }
        if shadow.ingested != snap.ingested {
            return Err(SimError::InvalidInstance {
                reason: "stream snapshot: shadow ingest count disagrees with stream",
            });
        }
        let spill = SpillRing::restore(snap.spill)?;
        Ok(Self {
            law,
            shadow,
            spill,
            t_free: snap.t_free,
            density0: snap.density0,
            tie_release: snap.tie_release,
            tie_weight: snap.tie_weight,
            watermark: snap.watermark,
            ingested: snap.ingested,
            energy: snap.energy,
            frac_sum: snap.frac_sum,
            int_sum: snap.int_sum,
            makespan: snap.makespan,
        })
    }
}

/// Plain-data image of an [`NcStream`], produced by [`NcStream::snapshot`]
/// and consumed by [`NcStream::from_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct NcStreamSnapshot {
    /// Power-law exponent α.
    pub alpha: f64,
    /// The embedded shadow clairvoyant stream supplying `K_j`.
    pub shadow: CStreamSnapshot,
    /// This stream's own spill ring.
    pub spill: SpillSnapshot,
    /// Time the machine frees up.
    pub t_free: f64,
    /// Locked-in uniform density (None before the first offer).
    pub density0: Option<f64>,
    /// Release time of the current tie group.
    pub tie_release: f64,
    /// Weight of earlier arrivals tied at `tie_release`.
    pub tie_weight: f64,
    /// Highest release offered so far.
    pub watermark: f64,
    /// Jobs offered (= completed; NC emits eagerly).
    pub ingested: usize,
    /// Energy accumulated.
    pub energy: f64,
    /// Fractional flow accumulated.
    pub frac_sum: f64,
    /// Integral flow accumulated.
    pub int_sum: f64,
    /// Completion time of the latest-finishing job.
    pub makespan: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncss_sim::numeric::approx_eq;
    use ncss_sim::{Instance, ScheduleBuilder};

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    #[test]
    fn rejects_out_of_order_releases() {
        let mut s = CStream::new(pl(2.0), StreamConfig::batch());
        s.offer(Job::unit_density(1.0, 1.0), &mut |_| {}).unwrap();
        let err = s.offer(Job::unit_density(0.5, 1.0), &mut |_| {});
        assert!(matches!(err, Err(SimError::InvalidInstance { .. })));
        let mut nc = NcStream::new(pl(2.0), StreamConfig::batch());
        nc.offer(Job::unit_density(1.0, 1.0), &mut |_| {}).unwrap();
        assert!(matches!(
            nc.offer(Job::unit_density(0.5, 1.0), &mut |_| {}),
            Err(SimError::InvalidInstance { .. })
        ));
    }

    #[test]
    fn rejects_invalid_jobs() {
        let mut s = CStream::new(pl(2.0), StreamConfig::batch());
        assert!(matches!(
            s.offer(Job::new(0.0, -1.0, 1.0), &mut |_| {}),
            Err(SimError::InvalidJob { index: 0, .. })
        ));
    }

    #[test]
    fn nc_stream_rejects_non_uniform() {
        let mut nc = NcStream::new(pl(2.0), StreamConfig::batch());
        nc.offer(Job::new(0.0, 1.0, 1.0), &mut |_| {}).unwrap();
        assert!(matches!(
            nc.offer(Job::new(0.5, 1.0, 2.0), &mut |_| {}),
            Err(SimError::NonUniformDensity)
        ));
    }

    #[test]
    fn completions_arrive_in_event_order() {
        // Two jobs, the second denser: it preempts and completes first.
        let mut s = CStream::new(pl(2.0), StreamConfig::batch());
        let mut order = Vec::new();
        s.offer(Job::new(0.0, 10.0, 1.0), &mut |c| order.push(c.id)).unwrap();
        s.offer(Job::new(0.1, 0.1, 100.0), &mut |c| order.push(c.id)).unwrap();
        s.finish(&mut |c| order.push(c.id)).unwrap();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn drained_spill_rebuilds_a_valid_schedule() {
        let law = pl(2.5);
        let jobs = vec![
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.2, 2.0),
            Job::unit_density(1.5, 0.5),
        ];
        let mut s = CStream::new(law, StreamConfig::batch());
        for &j in &jobs {
            s.offer(j, &mut |_| {}).unwrap();
        }
        let summary = s.finish(&mut |_| {}).unwrap();
        let mut builder = ScheduleBuilder::new(law);
        for seg in s.spill_mut().drain() {
            builder.push(seg);
        }
        let schedule = builder.build().unwrap();
        let inst = Instance::new(jobs).unwrap();
        let ev = ncss_sim::evaluate(&schedule, &inst).unwrap();
        assert!(approx_eq(ev.objective.energy, summary.objective.energy, 1e-7));
        assert!(approx_eq(ev.objective.frac_flow, summary.objective.frac_flow, 1e-7));
    }

    #[test]
    fn memory_stays_flat_under_churn() {
        // 10k sequential jobs, never more than a handful active: the arena
        // must stay at its peak-active footprint, not grow with n.
        let law = pl(2.0);
        let mut s = CStream::new(law, StreamConfig::streaming(64));
        let mut completions = 0usize;
        for i in 0..10_000 {
            let release = i as f64 * 0.5;
            s.offer(Job::unit_density(release, 0.2), &mut |_| completions += 1).unwrap();
            let _ = s.spill_mut().drain().count();
        }
        s.finish(&mut |_| completions += 1).unwrap();
        let stats = s.stats();
        assert_eq!(completions, 10_000);
        assert_eq!(stats.spill_dropped, 0, "drained between offers: nothing may drop");
        assert!(stats.peak_active <= 4, "peak active {} for a trickle", stats.peak_active);
        assert_eq!(stats.arena_slots, stats.peak_active);
    }

    #[test]
    fn snapshot_resume_is_bitwise_identical() {
        // Kill a C stream after every prefix of offers; the resumed stream
        // must finish with bitwise-equal completions and objectives.
        let law = pl(2.5);
        let jobs = vec![
            Job::new(0.0, 1.0, 2.0),
            Job::new(0.2, 2.0, 1.0),
            Job::new(0.2, 0.5, 5.0),
            Job::new(1.7, 0.3, 1.0),
        ];
        let mut full = Vec::new();
        let mut s = CStream::new(law, StreamConfig::batch());
        for &j in &jobs {
            s.offer(j, &mut |c| full.push(c)).unwrap();
        }
        let full_summary = s.finish(&mut |c| full.push(c)).unwrap();

        for k in 0..=jobs.len() {
            let mut done = Vec::new();
            let mut s = CStream::new(law, StreamConfig::batch());
            for &j in &jobs[..k] {
                s.offer(j, &mut |c| done.push(c)).unwrap();
            }
            let snap = s.snapshot();
            drop(s); // the "crash"
            let mut r = CStream::from_snapshot(snap).unwrap();
            for &j in &jobs[k..] {
                r.offer(j, &mut |c| done.push(c)).unwrap();
            }
            let summary = r.finish(&mut |c| done.push(c)).unwrap();
            assert_eq!(summary.objective.energy.to_bits(), full_summary.objective.energy.to_bits());
            assert_eq!(
                summary.objective.frac_flow.to_bits(),
                full_summary.objective.frac_flow.to_bits()
            );
            assert_eq!(done.len(), full.len());
            for (a, b) in done.iter().zip(&full) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.completion.to_bits(), b.completion.to_bits());
                assert_eq!(a.frac_flow.to_bits(), b.frac_flow.to_bits());
            }
        }
    }

    #[test]
    fn nc_snapshot_resume_is_bitwise_identical() {
        let law = pl(3.0);
        let jobs = vec![
            Job::unit_density(0.0, 4.0),
            Job::unit_density(1.0, 1.0),
            Job::unit_density(1.0, 2.0),
            Job::unit_density(3.0, 0.7),
        ];
        let mut full = Vec::new();
        let mut s = NcStream::new(law, StreamConfig::batch());
        for &j in &jobs {
            s.offer(j, &mut |c| full.push(c)).unwrap();
        }
        let full_summary = s.finish().unwrap();

        for k in 0..=jobs.len() {
            let mut done = Vec::new();
            let mut s = NcStream::new(law, StreamConfig::batch());
            for &j in &jobs[..k] {
                s.offer(j, &mut |c| done.push(c)).unwrap();
            }
            let snap = s.snapshot();
            drop(s);
            let mut r = NcStream::from_snapshot(snap).unwrap();
            for &j in &jobs[k..] {
                r.offer(j, &mut |c| done.push(c)).unwrap();
            }
            let summary = r.finish().unwrap();
            assert_eq!(summary.objective.energy.to_bits(), full_summary.objective.energy.to_bits());
            assert_eq!(summary.objective.int_flow.to_bits(), full_summary.objective.int_flow.to_bits());
            for (a, b) in done[k..].iter().zip(&full[k..]) {
                assert_eq!(a.base_power.to_bits(), b.base_power.to_bits());
                assert_eq!(a.completion.to_bits(), b.completion.to_bits());
            }
        }
    }

    #[test]
    fn from_snapshot_rejects_inconsistent_state() {
        let mut s = CStream::new(pl(2.0), StreamConfig::batch());
        s.offer(Job::unit_density(0.0, 2.0), &mut |_| {}).unwrap();
        let good = s.snapshot();

        let mut bad = good.clone();
        bad.alpha = 0.5;
        assert!(CStream::from_snapshot(bad).is_err(), "bad alpha");

        let mut bad = good.clone();
        bad.heap.clear();
        assert!(CStream::from_snapshot(bad).is_err(), "heap/live mismatch");

        let mut bad = good.clone();
        bad.heap[0].slot = 99;
        assert!(CStream::from_snapshot(bad).is_err(), "slot out of range");

        let mut bad = good;
        bad.completed = 5;
        assert!(CStream::from_snapshot(bad).is_err(), "count mismatch");
    }

    #[test]
    fn shadow_base_power_matches_prefix_rerun() {
        // The NC shadow's K_j against the O(n²) prefix-rerun definition.
        let jobs = vec![
            Job::unit_density(0.0, 4.0),
            Job::unit_density(1.0, 1.0),
            Job::unit_density(1.0, 2.0),
            Job::unit_density(3.0, 0.7),
        ];
        let inst = Instance::new(jobs.clone()).unwrap();
        let law = pl(2.0);
        let mut nc = NcStream::new(law, StreamConfig::batch());
        let mut ks = Vec::new();
        for &j in &jobs {
            nc.offer(j, &mut |c| ks.push(c.base_power)).unwrap();
        }
        for (j, &k) in ks.iter().enumerate() {
            let reference = crate::nc_uniform::base_power(&inst, law, j).unwrap();
            assert!(approx_eq(k, reference, 1e-9), "K_{j}: stream {k} vs prefix {reference}");
        }
    }
}
