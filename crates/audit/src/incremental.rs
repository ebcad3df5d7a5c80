//! Incremental (streaming) auditing: O(delta) always-on checks.
//!
//! The batch auditors ([`crate::ScheduleAudit`], [`crate::MultiAudit`])
//! re-derive a *finished* run from its full segment list — O(run) work and
//! O(run) memory per audit, which cannot ride along with the streaming
//! cores soaking millions of releases on bounded memory (DESIGN.md §9).
//! [`IncrementalAudit`] subscribes to the stream's own event feed instead
//! — releases, retired segments from the `SpillRing`, completions — and
//! maintains rolling accumulators so that
//!
//! * each **segment** costs O(1): the wellformed / release-before-service
//!   folds, the running closed-form energy sum (same
//!   [`crate::closed_form`] fast path and quadrature cross-check tier as
//!   the batch pass, sampled by the same global segment index), and the
//!   running measurement-resolution state (peak speed, horizon);
//! * each **completion** costs O(its segments): the job's per-segment
//!   volumes, prefix-sum [`SegmentIndex`] completion inversion, and
//!   fractional-flow integral are derived with *bit-identical arithmetic*
//!   to [`crate::ScheduleAudit`]'s `derive_per_job` /
//!   `frac_flow_rederived`, then the job's retained segments are dropped —
//!   resident state is O(active jobs), independent of stream length;
//! * [`IncrementalAudit::finalize`] emits a standard [`AuditReport`] with
//!   the same named checks, in the same order, judged by the same
//!   scale-free residuals and tolerances as the batch auditor.
//!
//! # Feeding contract
//!
//! Events must be fed in the stream's retirement order: for every offer,
//! **buffer** the completions the sink emits, then drain the spill ring and
//! feed each retired segment via [`IncrementalAudit::on_segment`], then
//! feed the buffered completions via [`IncrementalAudit::on_complete`].
//! Both streaming cores retire every segment of a completing job before (or
//! at) the offer that emits its completion, so under this contract a job's
//! full segment history always precedes its completion event. Feeding a
//! completion before one of its segments shows up as lost volume — exactly
//! what it would mean.
//!
//! # Parity contract
//!
//! Against the batch auditor the contract is **verdict parity**: identical
//! check names in identical order, identical verdicts, and failing
//! residuals of the same order of magnitude (property-tested in
//! `tests/audit_property.rs` across the full tamper matrix). Most
//! accumulators are in fact bitwise equal to the batch pass (energy is
//! summed in the same global segment order; the per-job derivations are the
//! same arithmetic); the documented exceptions are sums accumulated in
//! completion order rather than job-id order (last-ulp differences) and the
//! volume-conservation *candidate selection*, which uses the measurement
//! resolution known at completion time rather than the end-of-run value
//! (the recorded residual is re-normalised with the final resolution).
//!
//! Against **itself** the contract is bitwise: the full accumulator state
//! round-trips through [`IncrementalSnapshot`] (and the `crates/trace`
//! codec), so a killed-and-resumed run's final report equals the
//! uninterrupted run's report bit for bit (`tests/incremental_resume.rs`).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::closed_form;
use crate::quad::integrate;
use crate::report::{AuditReport, Stopwatch};
use crate::schedule_audit::{completion_margin, residual, sampled, AuditConfig};
use ncss_sim::profile::{Phase, PhaseScope};
use ncss_sim::{Job, JobId, Objective, PowerLaw, Segment, SegmentIndex, SimResult, SpeedLaw};

/// An eagerly tripped check: emitted by [`IncrementalAudit::on_segment`] /
/// [`IncrementalAudit::on_complete`] the moment a rolling check leaves
/// tolerance, so an always-on service can fail fast instead of waiting for
/// [`IncrementalAudit::finalize`]. The same violation is also folded into
/// the final report.
#[derive(Debug, Clone, PartialEq)]
pub struct Trip {
    /// Name of the tripped check (one of the batch auditor's check names).
    pub check: &'static str,
    /// The offending residual, judged against the check's tolerance.
    pub residual: f64,
    /// Human-readable description of the violation.
    pub detail: String,
}

/// A running worst-violation fold: the largest residual seen so far and
/// the detail string describing it.
#[derive(Debug, Clone, PartialEq)]
struct Worst {
    value: f64,
    detail: String,
}

impl Worst {
    fn new(ok: &str) -> Self {
        Self { value: 0.0, detail: ok.to_string() }
    }

    /// Batch-auditor fold rule for plain maxima (`r > worst`).
    fn fold(&mut self, value: f64, detail: impl FnOnce() -> String) {
        if value > self.value {
            self.value = value;
            self.detail = detail();
        }
    }
}

/// A released-but-not-yet-audited job: its static fields plus every
/// serving segment retired so far. Dropped as soon as the completion
/// event is audited, so the map of these is O(active jobs).
#[derive(Debug, Clone, PartialEq)]
struct ActiveJob {
    release: f64,
    volume: f64,
    density: f64,
    segs: Vec<Segment>,
}

/// A serving segment that named a job id the auditor has not seen released
/// (tampered feeds only — honest streams release before serving). Resolved
/// at [`IncrementalAudit::finalize`]: still-unknown ids reproduce the batch
/// auditor's infinite release-before-service residual.
#[derive(Debug, Clone, PartialEq)]
struct PendingSegment {
    index: u64,
    job: u64,
    seg: Segment,
    /// True when the id *was* known but its job had already completed and
    /// been audited — service after completion, an infinite volume fault.
    late: bool,
}

/// Plain-data snapshot of an [`IncrementalAudit`]: every accumulator,
/// bit for bit. Round-trips through `ncss-trace`'s frame codec so that a
/// checkpointed stream can checkpoint its auditor alongside and a resumed
/// run reproduces the uninterrupted run's verdicts bitwise.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalSnapshot {
    /// Power-law exponent α (the law is rebuilt via [`PowerLaw::new`]).
    pub alpha: f64,
    /// [`AuditConfig::rel_tol`] of the running auditor.
    pub rel_tol: f64,
    /// [`AuditConfig::time_tol`] of the running auditor.
    pub time_tol: f64,
    /// [`AuditConfig::cross_check_stride`] of the running auditor.
    pub cross_check_stride: u64,
    /// Releases fed so far.
    pub released: u64,
    /// Completions audited so far.
    pub completed: u64,
    /// Segments fed so far (the global energy-sampling index).
    pub seg_count: u64,
    /// Running peak of the segment-endpoint speeds (resolution state).
    pub peak_speed: f64,
    /// End of the last fed segment (the running horizon), 0 before any.
    pub horizon: f64,
    /// `prev_end` of the wellformed fold (−∞ before the first segment).
    pub wf_prev_end: f64,
    /// Worst wellformed violation so far.
    pub wf_worst: f64,
    /// Detail of the worst wellformed violation.
    pub wf_detail: String,
    /// Worst early-service violation so far.
    pub rel_worst: f64,
    /// Detail of the worst early-service violation.
    pub rel_detail: String,
    /// Volume-conservation candidate: |delivered − volume| of the worst job.
    pub vol_a: f64,
    /// Volume-conservation candidate: its denominator base `1 + volume`.
    pub vol_b: f64,
    /// Selection value the candidate won with (resolution-at-completion).
    pub vol_sel: f64,
    /// Detail of the volume-conservation candidate.
    pub vol_detail: String,
    /// Worst completion-consistency residual so far.
    pub comp_worst: f64,
    /// Detail of the worst completion-consistency violation.
    pub comp_detail: String,
    /// Running energy sum (global segment order — bitwise the batch sum).
    pub energy: f64,
    /// Running re-derived fractional-flow sum (completion order).
    pub frac_derived: f64,
    /// Running re-derived integral-flow sum (completion order).
    pub int_derived: f64,
    /// Worst completion-after-release violation over reported completions.
    pub car_worst: f64,
    /// Detail of the worst completion-after-release violation.
    pub car_detail: String,
    /// Worst frac-dominated-by-int residual over reported per-job flows.
    pub fdi_worst: f64,
    /// Detail of the worst frac-dominated-by-int violation.
    pub fdi_detail: String,
    /// Running sum of reported per-job fractional flows.
    pub rep_frac: f64,
    /// Running sum of reported per-job integral flows.
    pub rep_int: f64,
    /// Active (released, not yet audited) jobs, ascending id:
    /// `(id, release, volume, density, serving segments so far)`.
    pub active: Vec<(u64, f64, f64, f64, Vec<Segment>)>,
    /// Unresolved segments naming unknown or completed jobs:
    /// `(global index, job id, segment, late?)`.
    pub pending: Vec<(u64, u64, Segment, bool)>,
}

/// Streaming single-machine auditor; see the module docs for the feeding
/// and parity contracts.
///
/// ```
/// use ncss_audit::{AuditConfig, IncrementalAudit};
/// use ncss_sim::{Job, PowerLaw, Segment, SpeedLaw};
///
/// let law = PowerLaw::new(2.0).unwrap();
/// let mut audit = IncrementalAudit::new(law, AuditConfig::default());
/// audit.on_release(0, Job::new(0.0, 1.0, 1.0));
/// audit.on_segment(Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 1.0 }));
/// // Job 0 delivered its unit volume at speed 1: completes at t = 1.
/// assert!(audit.on_complete(0, 1.0, 0.5, 1.0).is_none());
/// let report = audit.finalize(&ncss_sim::Objective { energy: 1.0, frac_flow: 0.5, int_flow: 1.0 });
/// assert!(report.passed(), "{report}");
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalAudit {
    config: AuditConfig,
    law: PowerLaw,
    released: u64,
    completed: u64,
    seg_count: u64,
    peak_speed: f64,
    horizon: f64,
    wf_prev_end: f64,
    wf: Worst,
    rel: Worst,
    vol_a: f64,
    vol_b: f64,
    vol_sel: f64,
    vol_detail: String,
    comp: Worst,
    energy: f64,
    frac_derived: f64,
    int_derived: f64,
    car: Worst,
    fdi: Worst,
    rep_frac: f64,
    rep_int: f64,
    /// Hash-indexed for O(1) per-event lookups; every consumer that
    /// observes more than one entry (`finalize`, `snapshot`) sorts by id
    /// first, so nothing depends on iteration order.
    active: HashMap<JobId, ActiveJob>,
    pending: Vec<PendingSegment>,
    /// Scratch per-segment volumes, reused across completions. Dead
    /// between events; never snapshotted.
    scratch_dvs: Vec<f64>,
    /// Scratch inclusive prefix sums of `scratch_dvs`, same lifecycle.
    scratch_cum: Vec<f64>,
    /// Recycled per-job segment buffers (≤ peak active jobs entries):
    /// completions return their emptied vec here, releases take one back.
    seg_pool: Vec<Vec<Segment>>,
}

impl IncrementalAudit {
    /// A fresh auditor for a stream running under `law`. Only `rel_tol`,
    /// `time_tol`, and `cross_check_stride` of `config` are used — the
    /// incremental path is strictly serial (every event is O(1) or O(one
    /// job), so there is nothing to shard).
    #[must_use]
    pub fn new(law: PowerLaw, config: AuditConfig) -> Self {
        Self {
            config,
            law,
            released: 0,
            completed: 0,
            seg_count: 0,
            peak_speed: 0.0,
            horizon: 0.0,
            wf_prev_end: f64::NEG_INFINITY,
            wf: Worst::new("all segments ordered"),
            rel: Worst::new("no early service"),
            vol_a: 0.0,
            vol_b: 1.0,
            vol_sel: 0.0,
            vol_detail: String::from("all volumes conserved"),
            comp: Worst::new("completions agree"),
            energy: 0.0,
            frac_derived: 0.0,
            int_derived: 0.0,
            car: Worst::new("all completions after release"),
            fdi: Worst::new("fractional ≤ integral per job"),
            rep_frac: 0.0,
            rep_int: 0.0,
            active: HashMap::new(),
            pending: Vec::new(),
            scratch_dvs: Vec::new(),
            scratch_cum: Vec::new(),
            seg_pool: Vec::new(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> AuditConfig {
        self.config
    }

    /// Number of released jobs whose completion has not been audited yet —
    /// the auditor's resident state is proportional to this (plus their
    /// retained segments), never to the stream length.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Releases fed so far.
    #[must_use]
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Completions audited so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Measurement resolution implied by the segments fed so far (the
    /// batch auditor's `measurement_resolution` over the running peak
    /// speed and horizon).
    fn resolution(&self) -> f64 {
        self.peak_speed * self.horizon.abs() * f64::EPSILON * 64.0
    }

    /// Record job `id`'s release. Ids must be the stream's arrival indices
    /// (dense from 0); re-releasing a live id resets its segment history.
    pub fn on_release(&mut self, id: JobId, job: Job) {
        let _p = PhaseScope::enter(Phase::Audit);
        self.released = self.released.max(id as u64 + 1);
        let mut segs = self.seg_pool.pop().unwrap_or_default();
        // A tampered feed can serve a job before releasing it: adopt the
        // pended segments (feed order preserved) and charge the early
        // service to the release fold, as the batch scan would.
        let mut i = 0;
        while i < self.pending.len() {
            if !self.pending[i].late && self.pending[i].job == id as u64 {
                let p = self.pending.remove(i);
                let early = job.release - p.seg.start;
                self.rel.fold(early, || {
                    format!(
                        "job {id} served {early:.3e} before release (segment {})",
                        p.index
                    )
                });
                segs.push(p.seg);
            } else {
                i += 1;
            }
        }
        self.active.insert(
            id,
            ActiveJob { release: job.release, volume: job.volume, density: job.density, segs },
        );
    }

    /// Feed one retired segment (in retirement order). O(1): folds the
    /// wellformed / early-service checks, the running energy sum, and the
    /// resolution state, and appends serving segments to their job's
    /// retained history. Returns a [`Trip`] if a time-axis check left
    /// tolerance at this segment.
    pub fn on_segment(&mut self, seg: Segment) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let i = self.seg_count;
        self.seg_count += 1;
        let pl = self.law;

        // --- wellformed fold (exactly `wellformed_residual`'s scan).
        let bad_times = !(seg.start.is_finite() && seg.end.is_finite() && seg.scale.is_finite());
        let inversion = seg.start - seg.end;
        let overlap =
            if self.wf_prev_end.is_finite() { self.wf_prev_end - seg.start } else { 0.0 };
        let v = if bad_times { f64::INFINITY } else { inversion.max(overlap).max(0.0) };
        self.wf.fold(v, || format!("segment {i}: [{:.6}, {:.6}]", seg.start, seg.end));
        self.wf_prev_end = self.wf_prev_end.max(seg.end);

        // --- resolution state (running peak speed and horizon). Every
        // speed law is monotone within its segment (constant, decaying,
        // or growing), so with a non-negative scale only the dominating
        // endpoint can raise the running max — evaluating just that one
        // yields the identical max bits at half the kernel evaluations.
        // A negative scale (representable, never emitted) reverses the
        // ordering, so it falls back to both endpoints.
        self.peak_speed = if seg.scale >= 0.0 {
            let t = match seg.law {
                SpeedLaw::Growth { .. } => seg.end,
                SpeedLaw::Idle | SpeedLaw::Constant { .. } | SpeedLaw::Decay { .. } => seg.start,
            };
            self.peak_speed.max(seg.speed_at(pl, t))
        } else {
            self.peak_speed
                .max(seg.speed_at(pl, seg.start))
                .max(seg.speed_at(pl, seg.end))
        };
        self.horizon = seg.end;

        // --- running energy, sampled by the global segment index — the
        // same index the batch pass uses over the rebuilt schedule, so the
        // sum is bitwise identical.
        let de = if sampled(self.config.cross_check_stride, i as usize) {
            integrate(|t| seg.power_at(pl, t), seg.start, seg.end)
        } else {
            closed_form::energy(pl, &seg)
        };
        self.energy += de;

        // --- early-service fold and per-job retention.
        if let Some(j) = seg.job {
            if let Some(job) = self.active.get_mut(&j) {
                let early = job.release - seg.start;
                self.rel
                    .fold(early, || format!("job {j} served {early:.3e} before release (segment {i})"));
                job.segs.push(seg);
            } else {
                let late = (j as u64) < self.released;
                self.pending.push(PendingSegment { index: i, job: j as u64, seg, late });
            }
        }

        let time_tol = self.config.time_slack(self.horizon);
        if !(self.wf.value.is_finite() && self.wf.value <= time_tol) {
            return Some(Trip {
                check: "segments-wellformed",
                residual: self.wf.value,
                detail: self.wf.detail.clone(),
            });
        }
        if !(self.rel.value.is_finite() && self.rel.value <= time_tol) {
            return Some(Trip {
                check: "release-before-service",
                residual: self.rel.value,
                detail: self.rel.detail.clone(),
            });
        }
        None
    }

    /// Audit job `id`'s completion: derive its delivered volume,
    /// completion time, and flow contributions from its retained segments
    /// (O(its segments), bit-identical arithmetic to the batch
    /// `derive_per_job` / `frac_flow_rederived`), fold every rolling
    /// check, and drop the job's state. `completion`, `frac_flow`, and
    /// `int_flow` are the *reported* per-job values from the stream's
    /// completion event. Returns the first per-job check that left
    /// tolerance, if any.
    pub fn on_complete(
        &mut self,
        id: JobId,
        completion: f64,
        frac_flow: f64,
        int_flow: f64,
    ) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let Some(job) = self.active.remove(&id) else {
            // Completion for a job never released (or audited twice):
            // nothing to derive against, which is itself a finding.
            let detail = format!("job {id}: completed but never released");
            self.comp.fold(f64::INFINITY, || detail.clone());
            self.completed += 1;
            return Some(Trip {
                check: "completion-consistency",
                residual: f64::INFINITY,
                detail,
            });
        };
        self.completed += 1;
        let pl = self.law;
        let j = id;
        let stride = self.config.cross_check_stride;
        let resolution = self.resolution();

        // --- per-segment volumes + completion inversion: the exact
        // arithmetic of the batch `derive_per_job` for this one job. The
        // volume and prefix-sum vectors are scratch space reused across
        // completions; the sums accumulate in the same order as the batch
        // [`SegmentIndex`], so every derived value keeps its batch bits.
        let speed_of = |s: &Segment| {
            let s = *s;
            move |t: f64| s.speed_at(pl, t)
        };
        let mut dvs = std::mem::take(&mut self.scratch_dvs);
        dvs.clear();
        dvs.extend(job.segs.iter().enumerate().map(|(i, s)| {
            if sampled(stride, j + i) {
                integrate(speed_of(s), s.start, s.end)
            } else {
                closed_form::volume(pl, s)
            }
        }));
        let mut cum_volume = std::mem::take(&mut self.scratch_cum);
        cum_volume.clear();
        let mut running = 0.0;
        cum_volume.extend(dvs.iter().map(|&v| {
            running += v;
            running
        }));
        let margin = completion_margin(job.volume);
        let mut derived_c = f64::NAN;
        // `SegmentIndex::first_reaching` / `volume_before` over the
        // scratch prefix sums.
        let target_v = job.volume - margin;
        let i = cum_volume.partition_point(|&p| !(p >= target_v));
        if let Some(s) = job.segs.get(i) {
            let before = if i == 0 { 0.0 } else { cum_volume[i - 1] };
            let target = (job.volume - before).min(dvs[i]).max(0.0);
            if dvs[i] - target <= margin {
                derived_c = s.end;
            } else {
                derived_c = closed_form::time_at_volume(pl, s, target);
            }
        }
        let cum = cum_volume.last().copied().unwrap_or(0.0);
        if derived_c.is_nan()
            && (cum - job.volume).abs() <= self.config.rel_tol * (1.0 + job.volume + resolution)
        {
            derived_c = job.segs.last().map_or(completion, |s| s.end).max(job.release);
        }

        // --- volume-conservation candidate. Selection uses the resolution
        // known *now* (it only grows, so a job that passes now passes the
        // final judgement too); the recorded residual is re-normalised
        // with the end-of-run resolution in `finalize`.
        let a = (cum - job.volume).abs();
        let b = 1.0 + job.volume;
        let sel = a / (b + resolution);
        if !(sel <= self.vol_sel) {
            self.vol_sel = sel;
            self.vol_a = a;
            self.vol_b = b;
            self.vol_detail = format!("job {j}: delivered {cum:.9e} of {:.9e}", job.volume);
        }

        // --- completion-consistency fold.
        let r = residual(derived_c, completion);
        let r = if r.is_nan() { f64::INFINITY } else { r };
        self.comp
            .fold(r, || format!("job {j}: derived {derived_c:.9} vs reported {completion:.9}"));

        // --- fractional flow contribution (batch `frac_flow_rederived`
        // for this one job, with the derived completion).
        let dfrac = if derived_c.is_finite() {
            let cut = job.segs.partition_point(|s| s.start < derived_c);
            let mut served = 0.0;
            for s in &job.segs[..cut] {
                served += if sampled(stride, j) {
                    integrate(|t| (derived_c - t) * s.speed_at(pl, t), s.start, s.end.min(derived_c))
                } else {
                    closed_form::weighted_volume(pl, s, derived_c)
                };
            }
            job.density * (job.volume * (derived_c - job.release) - served)
        } else {
            f64::NAN
        };
        self.frac_derived += dfrac;
        self.int_derived += (job.density * job.volume) * (derived_c - job.release);

        // Hand the per-job buffers back: scratch for the next completion,
        // the emptied segment vec to the release pool.
        self.scratch_dvs = dvs;
        self.scratch_cum = cum_volume;
        let mut segs = job.segs;
        segs.clear();
        self.seg_pool.push(segs);

        // --- outcome folds over the *reported* per-job values.
        let car = if completion.is_finite() { job.release - completion } else { f64::INFINITY };
        self.car
            .fold(car, || format!("job {j}: completion {completion} vs release {}", job.release));
        let fdi = residual(frac_flow.max(int_flow), int_flow);
        let fdi = if fdi.is_nan() { f64::INFINITY } else { fdi };
        self.fdi.fold(fdi, || format!("job {j}: frac {frac_flow} vs int {int_flow}"));
        self.rep_frac += frac_flow;
        self.rep_int += int_flow;

        // --- eager verdict: first per-job check out of tolerance.
        let tol = self.config.rel_tol;
        let trip = |check, residual: f64, detail: String| Some(Trip { check, residual, detail });
        if !(sel.is_finite() && sel <= tol) {
            return trip(
                "volume-conservation",
                sel,
                format!("job {j}: delivered {cum:.9e} of {:.9e}", job.volume),
            );
        }
        if !(r.is_finite() && r <= tol) {
            return trip(
                "completion-consistency",
                r,
                format!("job {j}: derived {derived_c:.9} vs reported {completion:.9}"),
            );
        }
        if !(car.is_finite() && car.max(0.0) <= tol) {
            return trip(
                "completion-after-release",
                car,
                format!("job {j}: completion {completion} vs release {}", job.release),
            );
        }
        if !(fdi.is_finite() && fdi <= tol) {
            return trip(
                "frac-dominated-by-int",
                fdi,
                format!("job {j}: frac {frac_flow} vs int {int_flow}"),
            );
        }
        None
    }

    /// Close the run against the stream's reported aggregate `objective`
    /// and emit the final [`AuditReport`]: the batch auditor's checks, in
    /// the batch auditor's order, judged with the batch tolerances.
    ///
    /// Jobs still active (released, never completed) are derived here with
    /// no reported completion to compare against — they trip
    /// `completion-consistency` exactly as a short reported-completions
    /// array trips the batch pass.
    #[must_use]
    pub fn finalize(mut self, objective: &Objective) -> AuditReport {
        let mut report = AuditReport::default();
        let mut clock = Stopwatch::new();
        let tol = self.config.rel_tol;
        let time_tol = self.config.time_slack(self.horizon);

        // Jobs that never completed: audit them now (reported completion
        // NaN), ascending id — the batch scan's order — so lost jobs
        // cannot hide from the per-job checks.
        let mut leftover: Vec<JobId> = self.active.keys().copied().collect();
        leftover.sort_unstable();
        for id in leftover {
            let _ = self.on_complete(id, f64::NAN, f64::NAN, f64::NAN);
            self.completed -= 1; // they did not actually complete
        }

        // Pending segments that never resolved: unknown ids reproduce the
        // batch release scan's infinite residual; service *after* a job's
        // audited completion is unaccountable volume.
        for p in &self.pending {
            if p.late {
                self.vol_sel = f64::INFINITY;
                self.vol_a = f64::INFINITY;
                self.vol_b = 1.0;
                self.vol_detail =
                    format!("job {}: served after completion (segment {})", p.job, p.index);
            } else {
                self.rel.value = f64::INFINITY;
                self.rel.detail = format!("segment {} serves unknown job {}", p.index, p.job);
            }
        }

        let res_final = self.resolution();
        report.record_timed(
            "segments-wellformed",
            self.wf.value,
            time_tol,
            self.wf.detail,
            clock.lap(),
        );
        report.record_timed(
            "release-before-service",
            self.rel.value,
            time_tol,
            self.rel.detail,
            clock.lap(),
        );

        // Recorded volume residual: the winning candidate re-normalised
        // with the end-of-run resolution (bitwise the batch value whenever
        // the candidate is the batch argmax — see the module docs).
        let vol = self.vol_a / (self.vol_b + res_final);
        report.record_timed("volume-conservation", vol, tol, self.vol_detail, clock.lap());
        report.record_timed(
            "completion-consistency",
            self.comp.value,
            tol,
            self.comp.detail,
            clock.lap(),
        );
        report.record_timed(
            "energy-recomputed",
            residual(self.energy, objective.energy),
            tol,
            format!("re-derived {:.9e} vs reported {:.9e}", self.energy, objective.energy),
            clock.lap(),
        );
        report.record_timed(
            "frac-flow-recomputed",
            residual(self.frac_derived, objective.frac_flow),
            tol,
            format!(
                "re-derived {:.9e} vs reported {:.9e}",
                self.frac_derived, objective.frac_flow
            ),
            clock.lap(),
        );
        report.record_timed(
            "int-flow-recomputed",
            residual(self.int_derived, objective.int_flow),
            tol,
            format!("derived {:.9e} vs reported {:.9e}", self.int_derived, objective.int_flow),
            clock.lap(),
        );

        // --- outcome checks, batch order and arithmetic.
        let mut worst = 0.0f64;
        let mut detail = String::from("all components finite");
        for (what, v) in [
            ("energy", objective.energy),
            ("frac_flow", objective.frac_flow),
            ("int_flow", objective.int_flow),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                worst = f64::INFINITY;
                detail = format!("{what} = {v}");
            }
        }
        report.record_timed("objective-finite", worst, tol, detail, clock.lap());

        if self.completed != self.released {
            self.car.value = f64::INFINITY;
            self.car.detail =
                format!("{} completions for {} jobs", self.completed, self.released);
        }
        report.record_timed(
            "completion-after-release",
            self.car.value.max(0.0),
            tol,
            self.car.detail,
            clock.lap(),
        );
        report.record_timed(
            "frac-dominated-by-int",
            self.fdi.value,
            tol,
            self.fdi.detail,
            clock.lap(),
        );
        let v = residual(self.rep_frac, objective.frac_flow)
            .max(residual(self.rep_int, objective.int_flow));
        let v = if v.is_nan() { f64::INFINITY } else { v };
        report.record_timed(
            "reported-sums-consistent",
            v,
            tol,
            format!("Σfrac {:.9e} / Σint {:.9e}", self.rep_frac, self.rep_int),
            clock.lap(),
        );
        report
    }

    /// Capture the full accumulator state, bit for bit.
    #[must_use]
    pub fn snapshot(&self) -> IncrementalSnapshot {
        IncrementalSnapshot {
            alpha: self.law.alpha(),
            rel_tol: self.config.rel_tol,
            time_tol: self.config.time_tol,
            cross_check_stride: self.config.cross_check_stride as u64,
            released: self.released,
            completed: self.completed,
            seg_count: self.seg_count,
            peak_speed: self.peak_speed,
            horizon: self.horizon,
            wf_prev_end: self.wf_prev_end,
            wf_worst: self.wf.value,
            wf_detail: self.wf.detail.clone(),
            rel_worst: self.rel.value,
            rel_detail: self.rel.detail.clone(),
            vol_a: self.vol_a,
            vol_b: self.vol_b,
            vol_sel: self.vol_sel,
            vol_detail: self.vol_detail.clone(),
            comp_worst: self.comp.value,
            comp_detail: self.comp.detail.clone(),
            energy: self.energy,
            frac_derived: self.frac_derived,
            int_derived: self.int_derived,
            car_worst: self.car.value,
            car_detail: self.car.detail.clone(),
            fdi_worst: self.fdi.value,
            fdi_detail: self.fdi.detail.clone(),
            rep_frac: self.rep_frac,
            rep_int: self.rep_int,
            active: {
                let mut rows: Vec<_> = self
                    .active
                    .iter()
                    .map(|(&id, j)| (id as u64, j.release, j.volume, j.density, j.segs.clone()))
                    .collect();
                rows.sort_unstable_by_key(|r| r.0);
                rows
            },
            pending: self
                .pending
                .iter()
                .map(|p| (p.index, p.job, p.seg, p.late))
                .collect(),
        }
    }

    /// Rebuild an auditor from a snapshot. Fails only if the snapshot's α
    /// does not name a valid power law.
    pub fn from_snapshot(snap: IncrementalSnapshot) -> SimResult<Self> {
        let law = PowerLaw::new(snap.alpha)?;
        let config = AuditConfig {
            rel_tol: snap.rel_tol,
            time_tol: snap.time_tol,
            threads: Some(1),
            cross_check_stride: snap.cross_check_stride as usize,
        };
        Ok(Self {
            config,
            law,
            released: snap.released,
            completed: snap.completed,
            seg_count: snap.seg_count,
            peak_speed: snap.peak_speed,
            horizon: snap.horizon,
            wf_prev_end: snap.wf_prev_end,
            wf: Worst { value: snap.wf_worst, detail: snap.wf_detail },
            rel: Worst { value: snap.rel_worst, detail: snap.rel_detail },
            vol_a: snap.vol_a,
            vol_b: snap.vol_b,
            vol_sel: snap.vol_sel,
            vol_detail: snap.vol_detail,
            comp: Worst { value: snap.comp_worst, detail: snap.comp_detail },
            energy: snap.energy,
            frac_derived: snap.frac_derived,
            int_derived: snap.int_derived,
            car: Worst { value: snap.car_worst, detail: snap.car_detail },
            fdi: Worst { value: snap.fdi_worst, detail: snap.fdi_detail },
            rep_frac: snap.rep_frac,
            rep_int: snap.rep_int,
            active: snap
                .active
                .into_iter()
                .map(|(id, release, volume, density, segs)| {
                    (id as JobId, ActiveJob { release, volume, density, segs })
                })
                .collect(),
            pending: snap
                .pending
                .into_iter()
                .map(|(index, job, seg, late)| PendingSegment { index, job, seg, late })
                .collect(),
            scratch_dvs: Vec::new(),
            scratch_cum: Vec::new(),
            seg_pool: Vec::new(),
        })
    }
}

/// Per-machine fold state of the multi-machine incremental auditor.
#[derive(Debug, Clone)]
struct MachineState {
    seg_count: u64,
    prev_end: f64,
    wf: Worst,
    rel: Worst,
    energy: f64,
    pending: Vec<(u64, u64, Segment)>,
}

/// Exact maximum over per-machine values under point updates: a complete
/// binary max-tree, O(log k) per update and O(1) per read. A value may
/// go down as well as up (a tampered timeline can end earlier than its
/// previous segment), so a running maximum would not do.
#[derive(Debug, Clone)]
struct MaxTree {
    leaves: usize,
    nodes: Vec<f64>,
}

impl MaxTree {
    fn new(len: usize) -> Self {
        let leaves = len.next_power_of_two();
        Self { leaves, nodes: vec![0.0; 2 * leaves] }
    }

    fn set(&mut self, i: usize, value: f64) {
        let mut p = self.leaves + i;
        self.nodes[p] = value;
        while p > 1 {
            p /= 2;
            self.nodes[p] = self.nodes[2 * p].max(self.nodes[2 * p + 1]);
        }
    }

    /// `fold(0.0, f64::max)` over the values, bit for bit: `f64::max`
    /// skips NaN, and every value is folded with `0.0`.
    fn max(&self) -> f64 {
        self.nodes[1].max(0.0)
    }
}

/// A fleet job's cross-machine state while active: static fields plus its
/// serving segments tagged `(machine, arrival index)`.
#[derive(Debug, Clone)]
struct MultiActiveJob {
    release: f64,
    volume: f64,
    density: f64,
    segs: Vec<(usize, u64, Segment)>,
}

/// Streaming cross-machine auditor: the incremental counterpart of
/// [`crate::MultiAudit`]. Feed per-machine retired segments via
/// [`IncrementalMultiAudit::on_segment`] and fleet completions via
/// [`IncrementalMultiAudit::on_complete`]; resident state is O(active
/// jobs' segments + machines).
///
/// Parity with the batch pass is at the verdict level (same check names,
/// same order, same verdicts, failing residuals of the same order); the
/// energy cross-check tier samples by per-machine segment index rather
/// than the batch pass's fleet-concatenation index, so the energy residual
/// can differ from the batch value by quadrature-vs-closed-form slack
/// (≲1e-12), far below the audit tolerance.
#[derive(Debug, Clone)]
pub struct IncrementalMultiAudit {
    config: AuditConfig,
    laws: Vec<PowerLaw>,
    machines: Vec<MachineState>,
    /// `|end|` of each machine's latest segment; the fleet horizon is
    /// their maximum.
    last_ends: MaxTree,
    /// Machines holding segments of jobs not yet released, in machine
    /// order.
    pending_machines: BTreeSet<usize>,
    peak_speed: f64,
    released: u64,
    completed: u64,
    nds: Worst,
    vol_a: f64,
    vol_b: f64,
    vol_sel: f64,
    vol_detail: String,
    comp: Worst,
    frac_derived: f64,
    int_derived: f64,
    car: Worst,
    fdi: Worst,
    rep_frac: f64,
    rep_int: f64,
    active: BTreeMap<JobId, MultiActiveJob>,
}

impl IncrementalMultiAudit {
    /// A fresh fleet auditor: one power law per machine (the fleet is
    /// fixed for the run, as in [`crate::MultiAudit`]).
    #[must_use]
    pub fn new(laws: Vec<PowerLaw>, config: AuditConfig) -> Self {
        let machines = laws
            .iter()
            .map(|_| MachineState {
                seg_count: 0,
                prev_end: f64::NEG_INFINITY,
                // A machine's details are read only after a fold has set a
                // positive residual, so a clean machine allocates none.
                wf: Worst { value: 0.0, detail: String::new() },
                rel: Worst { value: 0.0, detail: String::new() },
                energy: 0.0,
                pending: Vec::new(),
            })
            .collect();
        Self {
            config,
            last_ends: MaxTree::new(laws.len()),
            pending_machines: BTreeSet::new(),
            laws,
            machines,
            peak_speed: 0.0,
            released: 0,
            completed: 0,
            nds: Worst::new("no cross-machine overlap"),
            vol_a: 0.0,
            vol_b: 1.0,
            vol_sel: 0.0,
            vol_detail: String::from("all volumes conserved across machines"),
            comp: Worst::new("completions agree"),
            frac_derived: 0.0,
            int_derived: 0.0,
            car: Worst::new("all completions after release"),
            fdi: Worst::new("fractional ≤ integral per job"),
            rep_frac: 0.0,
            rep_int: 0.0,
            active: BTreeMap::new(),
        }
    }

    /// The fleet's reference law (machine 0's, or the inert cube fallback
    /// of the batch pass for an empty fleet).
    fn law(&self) -> PowerLaw {
        self.laws.first().copied().unwrap_or_else(PowerLaw::cube)
    }

    fn horizon(&self) -> f64 {
        self.last_ends.max()
    }

    fn resolution(&self) -> f64 {
        self.peak_speed * self.horizon() * f64::EPSILON * 64.0
    }

    /// Jobs released but not yet audited.
    #[must_use]
    pub fn active_jobs(&self) -> usize {
        self.active.len()
    }

    /// Record job `id`'s release to the fleet.
    pub fn on_release(&mut self, id: JobId, job: Job) {
        let _p = PhaseScope::enter(Phase::Audit);
        self.released = self.released.max(id as u64 + 1);
        let mut segs = Vec::new();
        // Only machines that served a job before its release hold pending
        // segments; honest fleets have none, so this visits no machine.
        let machines = &mut self.machines;
        self.pending_machines.retain(|&m| {
            let ms = &mut machines[m];
            let mut i = 0;
            while i < ms.pending.len() {
                if ms.pending[i].1 == id as u64 {
                    let (idx, _, seg) = ms.pending.remove(i);
                    let early = job.release - seg.start;
                    ms.rel.fold(early, || {
                        format!("job {id} served {early:.3e} before release (segment {idx})")
                    });
                    segs.push((m, idx, seg));
                } else {
                    i += 1;
                }
            }
            !ms.pending.is_empty()
        });
        self.active.insert(
            id,
            MultiActiveJob {
                release: job.release,
                volume: job.volume,
                density: job.density,
                segs,
            },
        );
    }

    /// Feed machine `m`'s next retired segment (machine-chronological
    /// order per machine; machines may interleave freely).
    ///
    /// # Panics
    /// Panics if `m` is outside the fleet declared at construction.
    pub fn on_segment(&mut self, m: usize, seg: Segment) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let pl = self.laws[m];
        let ms = &mut self.machines[m];
        let i = ms.seg_count;
        ms.seg_count += 1;

        let bad_times = !(seg.start.is_finite() && seg.end.is_finite() && seg.scale.is_finite());
        let inversion = seg.start - seg.end;
        let overlap = if ms.prev_end.is_finite() { ms.prev_end - seg.start } else { 0.0 };
        let v = if bad_times { f64::INFINITY } else { inversion.max(overlap).max(0.0) };
        ms.wf.fold(v, || format!("segment {i}: [{:.6}, {:.6}]", seg.start, seg.end));
        ms.prev_end = ms.prev_end.max(seg.end);
        self.last_ends.set(m, seg.end.abs());

        self.peak_speed = self
            .peak_speed
            .max(seg.speed_at(pl, seg.start))
            .max(seg.speed_at(pl, seg.end));

        let de = if sampled(self.config.cross_check_stride, i as usize) {
            integrate(|t| seg.power_at(pl, t), seg.start, seg.end)
        } else {
            closed_form::energy(pl, &seg)
        };
        self.machines[m].energy += de;

        if let Some(j) = seg.job {
            if let Some(job) = self.active.get_mut(&j) {
                let early = job.release - seg.start;
                self.machines[m]
                    .rel
                    .fold(early, || format!("job {j} served {early:.3e} before release (segment {i})"));
                job.segs.push((m, i, seg));
            } else {
                self.machines[m].pending.push((i, j as u64, seg));
                self.pending_machines.insert(m);
            }
        }

        let time_tol = self.config.time_slack(self.horizon());
        let wf = &self.machines[m].wf;
        if !(wf.value.is_finite() && wf.value <= time_tol) {
            return Some(Trip {
                check: "segments-wellformed",
                residual: wf.value,
                detail: format!("machine {m}: {}", wf.detail),
            });
        }
        None
    }

    /// Audit job `id`'s fleet completion: merge its cross-machine serving
    /// intervals (batch sort order: start, then machine, then arrival),
    /// run the O(k²) no-double-service scan, derive volume / completion /
    /// flows over the merged timeline, fold every check, and drop the
    /// job's state.
    pub fn on_complete(
        &mut self,
        id: JobId,
        completion: f64,
        frac_flow: f64,
        int_flow: f64,
    ) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let Some(mut job) = self.active.remove(&id) else {
            let detail = format!("job {id}: completed but never released");
            self.comp.fold(f64::INFINITY, || detail.clone());
            self.completed += 1;
            return Some(Trip {
                check: "completion-consistency",
                residual: f64::INFINITY,
                detail,
            });
        };
        self.completed += 1;
        let pl = self.law();
        let j = id;
        let stride = self.config.cross_check_stride;
        let resolution = self.resolution();

        // Batch merge order: machine-major insertion, stable sort by
        // start. `(start, machine, arrival)` reproduces it exactly.
        job.segs
            .sort_by(|a, b| a.2.start.total_cmp(&b.2.start).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));

        // --- no-double-service: O(k²) over this job's intervals, batch
        // scan order.
        let mut worst = f64::NEG_INFINITY;
        let mut detail = String::new();
        for (i, (m_a, _, a)) in job.segs.iter().enumerate() {
            for (m_b, _, b) in &job.segs[i + 1..] {
                if m_a == m_b {
                    continue;
                }
                let lo = a.start.max(b.start);
                let hi = a.end.min(b.end);
                let overlap = hi - lo;
                if overlap > worst {
                    worst = overlap;
                    detail = format!("machines {m_a}/{m_b} both serve [{lo:.6}, {hi:.6}]");
                }
            }
        }
        self.nds.fold(worst, || format!("job {j}: {detail}"));

        // --- merged-timeline derivation (batch `derive_per_job` body).
        let segs: Vec<Segment> = job.segs.iter().map(|&(_, _, s)| s).collect();
        let speed_of = |s: &Segment| {
            let s = *s;
            move |t: f64| s.speed_at(pl, t)
        };
        let dvs: Vec<f64> = segs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if sampled(stride, j + i) {
                    integrate(speed_of(s), s.start, s.end)
                } else {
                    closed_form::volume(pl, s)
                }
            })
            .collect();
        let index = SegmentIndex::from_volumes(&segs, dvs.iter().copied());
        let margin = completion_margin(job.volume);
        let mut derived_c = f64::NAN;
        let i = index.first_reaching(job.volume - margin);
        if let Some(s) = segs.get(i) {
            let target = (job.volume - index.volume_before(i)).min(dvs[i]).max(0.0);
            if dvs[i] - target <= margin {
                derived_c = s.end;
            } else {
                derived_c = closed_form::time_at_volume(pl, s, target);
            }
        }
        let cum = index.total_volume();
        if derived_c.is_nan()
            && (cum - job.volume).abs() <= self.config.rel_tol * (1.0 + job.volume + resolution)
        {
            derived_c = segs.last().map_or(completion, |s| s.end).max(job.release);
        }

        let a = (cum - job.volume).abs();
        let b = 1.0 + job.volume;
        let sel = a / (b + resolution);
        if !(sel <= self.vol_sel) {
            self.vol_sel = sel;
            self.vol_a = a;
            self.vol_b = b;
            self.vol_detail =
                format!("job {j}: machines delivered {cum:.9e} of {:.9e}", job.volume);
        }

        let r = residual(derived_c, completion);
        let r = if r.is_nan() { f64::INFINITY } else { r };
        self.comp
            .fold(r, || format!("job {j}: derived {derived_c:.9} vs reported {completion:.9}"));

        let dfrac = if derived_c.is_finite() {
            let cut = segs.partition_point(|s| s.start < derived_c);
            let mut served = 0.0;
            for s in &segs[..cut] {
                served += if sampled(stride, j) {
                    integrate(|t| (derived_c - t) * s.speed_at(pl, t), s.start, s.end.min(derived_c))
                } else {
                    closed_form::weighted_volume(pl, s, derived_c)
                };
            }
            job.density * (job.volume * (derived_c - job.release) - served)
        } else {
            f64::NAN
        };
        self.frac_derived += dfrac;
        self.int_derived += (job.density * job.volume) * (derived_c - job.release);

        let car = if completion.is_finite() { job.release - completion } else { f64::INFINITY };
        self.car
            .fold(car, || format!("job {j}: completion {completion} vs release {}", job.release));
        let fdi = residual(frac_flow.max(int_flow), int_flow);
        let fdi = if fdi.is_nan() { f64::INFINITY } else { fdi };
        self.fdi.fold(fdi, || format!("job {j}: frac {frac_flow} vs int {int_flow}"));
        self.rep_frac += frac_flow;
        self.rep_int += int_flow;

        let tol = self.config.rel_tol;
        let time_tol = self.config.time_slack(self.horizon());
        if !(self.nds.value.max(0.0) <= time_tol && self.nds.value.is_finite() || self.nds.value == f64::NEG_INFINITY)
        {
            return Some(Trip {
                check: "no-double-service",
                residual: self.nds.value.max(0.0),
                detail: self.nds.detail.clone(),
            });
        }
        if !(sel.is_finite() && sel <= tol) {
            return Some(Trip {
                check: "cross-machine-volume",
                residual: sel,
                detail: format!("job {j}: machines delivered {cum:.9e} of {:.9e}", job.volume),
            });
        }
        if !(r.is_finite() && r <= tol) {
            return Some(Trip {
                check: "completion-consistency",
                residual: r,
                detail: format!("job {j}: derived {derived_c:.9} vs reported {completion:.9}"),
            });
        }
        None
    }

    /// Close the run and emit the final report — [`crate::MultiAudit`]'s
    /// checks, in its order, with its tolerances.
    #[must_use]
    pub fn finalize(mut self, objective: &Objective) -> AuditReport {
        let mut report = AuditReport::default();
        let mut clock = Stopwatch::new();
        let tol = self.config.rel_tol;
        let pl = self.law();
        let time_tol = self.config.time_slack(self.horizon());

        let leftover: Vec<JobId> = self.active.keys().copied().collect();
        for id in leftover {
            let _ = self.on_complete(id, f64::NAN, f64::NAN, f64::NAN);
            self.completed -= 1;
        }
        for &m in &self.pending_machines {
            let ms = &mut self.machines[m];
            if let Some(&(idx, j, _)) = ms.pending.first() {
                ms.rel.value = f64::INFINITY;
                ms.rel.detail = format!("segment {idx} serves unknown job {j}");
            }
        }

        // --- power-law-consistent (batch loop, verbatim).
        let mut worst = 0.0f64;
        let mut detail = String::from("all machines share one power law");
        for (m, law) in self.laws.iter().enumerate() {
            let d = (law.alpha() - pl.alpha()).abs();
            if !(d <= worst) {
                worst = if d.is_nan() { f64::INFINITY } else { d };
                detail = format!(
                    "machine {m}: α = {} vs machine 0: α = {}",
                    law.alpha(),
                    pl.alpha()
                );
            }
        }
        report.record_timed("power-law-consistent", worst, tol, detail, clock.lap());

        // --- per-machine folds, machine-order worst-of (batch `worst_of`).
        let mut worst = 0.0f64;
        let mut detail = String::from("all machine timelines ordered");
        for (m, ms) in self.machines.iter().enumerate() {
            if ms.wf.value > worst {
                worst = ms.wf.value;
                detail = format!("machine {m}: {}", ms.wf.detail);
            }
        }
        report.record_timed("segments-wellformed", worst, time_tol, detail, clock.lap());

        let mut worst = 0.0f64;
        let mut detail = String::from("no early service");
        for (m, ms) in self.machines.iter().enumerate() {
            if ms.rel.value > worst {
                worst = ms.rel.value;
                detail = format!("machine {m}: {}", ms.rel.detail);
            }
        }
        report.record_timed("release-before-service", worst, time_tol, detail, clock.lap());

        let res_final = self.resolution();
        report.record_timed(
            "no-double-service",
            self.nds.value.max(0.0),
            time_tol,
            self.nds.detail,
            clock.lap(),
        );

        let vol = self.vol_a / (self.vol_b + res_final);
        report.record_timed("cross-machine-volume", vol, tol, self.vol_detail, clock.lap());
        report.record_timed(
            "completion-consistency",
            self.comp.value,
            tol,
            self.comp.detail,
            clock.lap(),
        );

        let energy: f64 = self.machines.iter().map(|m| m.energy).sum();
        report.record_timed(
            "energy-recomputed",
            residual(energy, objective.energy),
            tol,
            format!("re-derived {energy:.9e} vs reported {:.9e}", objective.energy),
            clock.lap(),
        );
        report.record_timed(
            "frac-flow-recomputed",
            residual(self.frac_derived, objective.frac_flow),
            tol,
            format!(
                "re-derived {:.9e} vs reported {:.9e}",
                self.frac_derived, objective.frac_flow
            ),
            clock.lap(),
        );
        report.record_timed(
            "int-flow-recomputed",
            residual(self.int_derived, objective.int_flow),
            tol,
            format!("derived {:.9e} vs reported {:.9e}", self.int_derived, objective.int_flow),
            clock.lap(),
        );

        let mut worst = 0.0f64;
        let mut detail = String::from("all components finite");
        for (what, v) in [
            ("energy", objective.energy),
            ("frac_flow", objective.frac_flow),
            ("int_flow", objective.int_flow),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                worst = f64::INFINITY;
                detail = format!("{what} = {v}");
            }
        }
        report.record_timed("objective-finite", worst, tol, detail, clock.lap());

        if self.completed != self.released {
            self.car.value = f64::INFINITY;
            self.car.detail =
                format!("{} completions for {} jobs", self.completed, self.released);
        }
        report.record_timed(
            "completion-after-release",
            self.car.value.max(0.0),
            tol,
            self.car.detail,
            clock.lap(),
        );
        report.record_timed(
            "frac-dominated-by-int",
            self.fdi.value,
            tol,
            self.fdi.detail,
            clock.lap(),
        );
        let v = residual(self.rep_frac, objective.frac_flow)
            .max(residual(self.rep_int, objective.int_flow));
        let v = if v.is_nan() { f64::INFINITY } else { v };
        report.record_timed(
            "reported-sums-consistent",
            v,
            tol,
            format!("Σfrac {:.9e} / Σint {:.9e}", self.rep_frac, self.rep_int),
            clock.lap(),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultiAudit, ScheduleAudit};
    use ncss_sim::{evaluate, Instance, Schedule, SpeedLaw};

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    /// Feed a finished batch run (schedule order, then completions in job
    /// order) through a fresh incremental auditor.
    fn incremental_report(
        law: PowerLaw,
        jobs: &[Job],
        segments: &[Segment],
        per_job: &ncss_sim::PerJob,
        objective: &Objective,
    ) -> AuditReport {
        let mut audit = IncrementalAudit::new(law, AuditConfig::default());
        for (id, job) in jobs.iter().enumerate() {
            audit.on_release(id, *job);
        }
        for seg in segments {
            let _ = audit.on_segment(*seg);
        }
        for j in 0..jobs.len() {
            let _ = audit.on_complete(
                j,
                per_job.completion.get(j).copied().unwrap_or(f64::NAN),
                per_job.frac_flow.get(j).copied().unwrap_or(f64::NAN),
                per_job.int_flow.get(j).copied().unwrap_or(f64::NAN),
            );
        }
        audit.finalize(objective)
    }

    fn constant_run() -> (Instance, Schedule, ncss_sim::Evaluated) {
        let inst =
            Instance::new(vec![Job::new(0.0, 2.0, 3.0), Job::new(0.5, 1.0, 1.0)]).unwrap();
        let law = pl(2.0);
        let segs = vec![
            Segment::new(0.0, 2.0, Some(0), SpeedLaw::Constant { speed: 1.0 }),
            Segment::new(2.0, 3.0, Some(1), SpeedLaw::Constant { speed: 1.0 }),
        ];
        let sched = Schedule::new(law, segs).unwrap();
        let ev = evaluate(&sched, &inst).unwrap();
        (inst, sched, ev)
    }

    #[test]
    fn honest_run_matches_batch_bitwise() {
        let (inst, sched, ev) = constant_run();
        let batch = ScheduleAudit::default().audit(&inst, &sched, &ev);
        let inc = incremental_report(
            sched.power_law(),
            inst.jobs(),
            sched.segments(),
            &ev.per_job,
            &ev.objective,
        );
        assert!(batch.passed(), "{batch}");
        assert!(inc.passed(), "{inc}");
        assert_eq!(batch.checks.len(), inc.checks.len());
        for (b, i) in batch.checks.iter().zip(&inc.checks) {
            assert_eq!(b.name, i.name);
            assert_eq!(b.passed, i.passed, "{}: {b:?} vs {i:?}", b.name);
            assert_eq!(
                b.residual.to_bits(),
                i.residual.to_bits(),
                "{}: batch {:e} vs incremental {:e}",
                b.name,
                b.residual,
                i.residual
            );
        }
    }

    #[test]
    fn tampered_energy_trips_same_check_as_batch() {
        let (inst, sched, mut ev) = constant_run();
        ev.objective.energy *= 1.5;
        let batch = ScheduleAudit::default().audit(&inst, &sched, &ev);
        let inc = incremental_report(
            sched.power_law(),
            inst.jobs(),
            sched.segments(),
            &ev.per_job,
            &ev.objective,
        );
        assert!(!batch.passed());
        assert!(!inc.passed());
        assert!(inc.failures().iter().any(|c| c.name == "energy-recomputed"), "{inc}");
    }

    #[test]
    fn eager_verdict_fires_at_the_offending_completion() {
        let (inst, _sched, ev) = constant_run();
        let law = pl(2.0);
        let mut audit = IncrementalAudit::new(law, AuditConfig::default());
        for (id, job) in inst.jobs().iter().enumerate() {
            audit.on_release(id, *job);
        }
        // Job 0's serving segment never arrives: its completion must trip
        // volume-conservation immediately.
        let trip = audit
            .on_complete(0, ev.per_job.completion[0], ev.per_job.frac_flow[0], ev.per_job.int_flow[0])
            .expect("lost volume must trip eagerly");
        assert_eq!(trip.check, "volume-conservation");
        assert!(trip.residual > 1e-3, "{trip:?}");
    }

    #[test]
    fn snapshot_round_trip_is_bitwise() {
        let (inst, sched, ev) = constant_run();
        let mut audit = IncrementalAudit::new(sched.power_law(), AuditConfig::default());
        for (id, job) in inst.jobs().iter().enumerate() {
            audit.on_release(id, *job);
        }
        let _ = audit.on_segment(sched.segments()[0]);
        let snap = audit.snapshot();
        let restored = IncrementalAudit::from_snapshot(snap.clone()).unwrap();
        assert_eq!(restored.snapshot(), snap);

        // Continue both; final reports must be bitwise identical.
        let mut a = audit;
        let mut b = restored;
        for side in [&mut a, &mut b] {
            let _ = side.on_segment(sched.segments()[1]);
            for j in 0..inst.len() {
                let _ = side.on_complete(
                    j,
                    ev.per_job.completion[j],
                    ev.per_job.frac_flow[j],
                    ev.per_job.int_flow[j],
                );
            }
        }
        let ra = a.finalize(&ev.objective);
        let rb = b.finalize(&ev.objective);
        for (x, y) in ra.checks.iter().zip(&rb.checks) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.passed, y.passed);
            assert_eq!(x.residual.to_bits(), y.residual.to_bits());
            assert_eq!(x.detail, y.detail);
        }
    }

    #[test]
    fn multi_duplicated_timeline_trips_like_batch() {
        let inst =
            Instance::new(vec![Job::new(0.0, 2.0, 1.0), Job::new(0.0, 1.0, 1.0)]).unwrap();
        let law = pl(2.0);
        let m0 = vec![Segment::new(0.0, 2.0, Some(0), SpeedLaw::Constant { speed: 1.0 })];
        let m1 = vec![Segment::new(0.0, 1.0, Some(1), SpeedLaw::Constant { speed: 1.0 })];
        let per_job = ncss_sim::PerJob {
            completion: vec![2.0, 1.0],
            frac_flow: vec![2.0, 0.5],
            int_flow: vec![4.0, 1.0],
        };
        let objective = Objective { energy: 3.0, frac_flow: 2.5, int_flow: 5.0 };

        // Honest fleet passes.
        let mut audit = IncrementalMultiAudit::new(vec![law, law], AuditConfig::default());
        for (id, job) in inst.jobs().iter().enumerate() {
            audit.on_release(id, *job);
        }
        for s in &m0 {
            let _ = audit.on_segment(0, *s);
        }
        for s in &m1 {
            let _ = audit.on_segment(1, *s);
        }
        for j in 0..2 {
            assert!(audit
                .on_complete(j, per_job.completion[j], per_job.frac_flow[j], per_job.int_flow[j])
                .is_none());
        }
        let honest = audit.finalize(&objective);
        assert!(honest.passed(), "{honest}");

        // Machine 1 duplicating machine 0's timeline trips the same named
        // checks as the batch cross-machine auditor.
        let mut audit = IncrementalMultiAudit::new(vec![law, law], AuditConfig::default());
        for (id, job) in inst.jobs().iter().enumerate() {
            audit.on_release(id, *job);
        }
        for s in &m0 {
            let _ = audit.on_segment(0, *s);
            let _ = audit.on_segment(1, *s);
        }
        let mut tripped = None;
        for j in 0..2 {
            if let Some(t) = audit.on_complete(
                j,
                per_job.completion[j],
                per_job.frac_flow[j],
                per_job.int_flow[j],
            ) {
                tripped.get_or_insert(t);
            }
        }
        let inc = audit.finalize(&objective);
        let schedules = vec![
            Schedule::new(law, m0.clone()).unwrap(),
            Schedule::new(law, m0.clone()).unwrap(),
        ];
        let ev = ncss_sim::Evaluated { objective, per_job };
        let batch = MultiAudit::default().audit(&inst, &schedules, &ev);
        assert!(!batch.passed());
        assert!(!inc.passed());
        let batch_names: Vec<_> = batch.failures().iter().map(|c| c.name).collect();
        let inc_names: Vec<_> = inc.failures().iter().map(|c| c.name).collect();
        assert_eq!(batch_names, inc_names, "batch {batch} vs incremental {inc}");
        assert!(tripped.is_some(), "duplicated service must trip eagerly");
        let names: Vec<_> = inc.checks.iter().map(|c| c.name).collect();
        let batch_all: Vec<_> = batch.checks.iter().map(|c| c.name).collect();
        assert_eq!(names, batch_all);
    }
}
