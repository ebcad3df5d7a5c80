//! Incremental (streaming) auditing: O(delta) always-on checks.
//!
//! [`IncrementalAudit`] (one timeline) and [`IncrementalMultiAudit`] (a
//! fleet of them) are the crate's only auditors: the batch forms,
//! [`crate::ScheduleAudit`] and [`crate::MultiAudit`], replay a finished
//! run into them. They subscribe to a run's event feed — releases,
//! retired segments (from the streaming cores' `SpillRing`, or a finished
//! schedule in order), completions — and maintain rolling accumulators so
//! that
//!
//! * each **segment** costs O(1): the wellformed / release-before-service
//!   folds, the running closed-form energy sum ([`crate::closed_form`],
//!   with every `cross_check_stride`-th segment re-measured by quadrature),
//!   and the running measurement-resolution state (peak speed, horizon);
//! * each **completion** costs O(its segments): one derivation shared by
//!   both auditors computes the job's per-segment volumes, inverts the
//!   prefix sums for its completion time, and integrates its fractional
//!   flow, then the job's retained segments are dropped — resident state
//!   is O(active jobs), independent of stream length;
//! * `finalize` emits a standard [`AuditReport`]; both auditors close it
//!   with one shared tail of checks.
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
//! A batch audit feeds every release in id order, then every segment in
//! schedule order, then the reported completions in id order. Fed that
//! way, the auditors reproduce the serial re-derivation kept in
//! `tests/audit_reference.rs`: identical check names in identical order,
//! identical verdicts, honest single-timeline residuals bitwise equal, and
//! failing residuals of the same order of magnitude. A live stream feeds
//! completions as they happen instead, so its flow sums accumulate in
//! completion order (last-ulp differences), and it selects the
//! volume-conservation candidate with the measurement resolution known at
//! completion time (the recorded residual is re-normalised with the final
//! resolution).
//!
//! Against **itself** the contract is bitwise: the full accumulator state
//! round-trips through [`IncrementalSnapshot`] (and the `crates/trace`
//! codec), so a killed-and-resumed run's final report equals the
//! uninterrupted run's report bit for bit (`tests/incremental_resume.rs`).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::closed_form;
use crate::quad::integrate;
use crate::report::{AuditReport, Stopwatch};
use crate::schedule_audit::{
    completion_margin, objective_finite, residual, sampled, sums_residual, AuditConfig,
};
use ncss_sim::profile::{Phase, PhaseScope};
use ncss_sim::{Job, JobId, Objective, PowerLaw, Segment, SimResult, SpeedLaw};

/// An eagerly tripped check: emitted by [`IncrementalAudit::on_segment`] /
/// [`IncrementalAudit::on_complete`] the moment a rolling check leaves
/// tolerance, so an always-on service can fail fast instead of waiting for
/// [`IncrementalAudit::finalize`]. The same violation is also folded into
/// the final report.
#[derive(Debug, Clone, PartialEq)]
pub struct Trip {
    /// Name of the tripped check (one of the report's check names).
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

    /// Fold rule for plain maxima (`r > worst`): the first of equal
    /// violations keeps the detail.
    fn fold(&mut self, value: f64, detail: impl FnOnce() -> String) {
        if value > self.value {
            self.value = value;
            self.detail = detail();
        }
    }

    /// Fold one segment into a timeline's "finite, positively oriented,
    /// monotone, non-overlapping" check; `prev_end` is the latest end seen
    /// on the timeline (−∞ before its first segment).
    fn fold_wellformed(&mut self, prev_end: &mut f64, i: u64, seg: &Segment) {
        let bad_times = !(seg.start.is_finite() && seg.end.is_finite() && seg.scale.is_finite());
        let inversion = seg.start - seg.end; // > 0 means reversed
        let overlap = if prev_end.is_finite() { *prev_end - seg.start } else { 0.0 };
        let v = if bad_times { f64::INFINITY } else { inversion.max(overlap).max(0.0) };
        self.fold(v, || format!("segment {i}: [{:.6}, {:.6}]", seg.start, seg.end));
        *prev_end = prev_end.max(seg.end);
    }

    /// Fold segment `i` serving job `j` (released at `release`) into the
    /// release-before-service check.
    fn fold_early(&mut self, j: JobId, release: f64, i: u64, seg: &Segment) {
        let early = release - seg.start;
        self.fold(early, || format!("job {j} served {early:.3e} before release (segment {i})"));
    }
}

/// Energy of segment `i` of a timeline: the closed form, or quadrature of
/// the pointwise power curve on the cross-check tier.
fn segment_energy(pl: PowerLaw, stride: usize, i: u64, seg: &Segment) -> f64 {
    if sampled(stride, i as usize) {
        integrate(|t| seg.power_at(pl, t), seg.start, seg.end)
    } else {
        closed_form::energy(pl, seg)
    }
}

/// Verdict of a time-axis fold, if it left the slack.
fn time_trip(check: &'static str, worst: &Worst, slack: f64) -> Option<Trip> {
    (!(worst.value.is_finite() && worst.value <= slack)).then(|| Trip {
        check,
        residual: worst.value,
        detail: worst.detail.clone(),
    })
}

/// A released-but-not-yet-audited job plus every serving segment retired
/// so far: bare segments on one timeline, `(machine, arrival index,
/// segment)` across a fleet. Dropped as soon as the completion is audited,
/// so the map of these is O(active jobs).
#[derive(Debug, Clone, PartialEq)]
struct ActiveJob<S> {
    job: Job,
    segs: Vec<S>,
}

/// A serving segment that named a job id the auditor has not seen released
/// (tampered feeds only — honest streams release before serving). Resolved
/// at [`IncrementalAudit::finalize`]: a still-unknown id is an infinite
/// release-before-service residual.
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
    /// Running energy sum, in global segment order.
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

/// How an auditor names its volume check and words its details.
#[derive(Debug)]
struct VolumeNames {
    check: &'static str,
    ok: &'static str,
    delivered: &'static str,
}

const TIMELINE: VolumeNames = VolumeNames {
    check: "volume-conservation",
    ok: "all volumes conserved",
    delivered: "delivered",
};

const FLEET: VolumeNames = VolumeNames {
    check: "cross-machine-volume",
    ok: "all volumes conserved across machines",
    delivered: "machines delivered",
};

/// The per-job state both auditors share: release and completion counts,
/// the volume-conservation candidate, the completion-consistency and
/// outcome folds, the derived and reported flow sums, and the scratch
/// buffers of the per-job derivation.
#[derive(Debug, Clone)]
struct JobFolds {
    names: &'static VolumeNames,
    released: u64,
    completed: u64,
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
    /// Scratch per-segment volumes, reused across completions. Dead
    /// between events; never snapshotted.
    scratch_dvs: Vec<f64>,
    /// Scratch inclusive prefix sums of `scratch_dvs`, same lifecycle.
    scratch_cum: Vec<f64>,
}

impl JobFolds {
    fn new(names: &'static VolumeNames) -> Self {
        Self {
            names,
            released: 0,
            completed: 0,
            vol_a: 0.0,
            vol_b: 1.0,
            vol_sel: 0.0,
            vol_detail: names.ok.to_string(),
            comp: Worst::new("completions agree"),
            frac_derived: 0.0,
            int_derived: 0.0,
            car: Worst::new("all completions after release"),
            fdi: Worst::new("fractional ≤ integral per job"),
            rep_frac: 0.0,
            rep_int: 0.0,
            scratch_dvs: Vec::new(),
            scratch_cum: Vec::new(),
        }
    }

    /// Completion of a job never released (or audited twice): nothing to
    /// derive against, which is itself a finding.
    fn unreleased(&mut self, id: JobId) -> Trip {
        let detail = format!("job {id}: completed but never released");
        self.comp.fold(f64::INFINITY, || detail.clone());
        self.completed += 1;
        Trip { check: "completion-consistency", residual: f64::INFINITY, detail }
    }

    /// Audit job `j`'s completion from its serving segments `segs`
    /// (increasing start order) and fold every per-job check.
    /// `(completion, frac_flow, int_flow)` are the *reported* per-job
    /// values; `resolution` is the measurement resolution known now.
    /// Returns the first per-job check that left tolerance, if any.
    #[allow(clippy::too_many_arguments)]
    fn complete(
        &mut self,
        pl: PowerLaw,
        config: &AuditConfig,
        resolution: f64,
        j: JobId,
        job: Job,
        segs: &[Segment],
        (completion, frac_flow, int_flow): (f64, f64, f64),
    ) -> Option<Trip> {
        self.completed += 1;
        let stride = config.cross_check_stride;

        // --- closed-form per-segment volumes, every stride-th re-measured
        // by quadrature (sampled by `j + i`, which spreads the tier across
        // jobs), and their inclusive prefix sums, in scratch space reused
        // across completions.
        let mut dvs = std::mem::take(&mut self.scratch_dvs);
        dvs.clear();
        dvs.extend(segs.iter().enumerate().map(|(i, s)| {
            if sampled(stride, j + i) {
                integrate(|t| s.speed_at(pl, t), s.start, s.end)
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

        // --- completion inversion: binary search for the first segment
        // whose cumulative volume reaches the job size (less the
        // completion margin), analytic inversion inside it.
        let margin = completion_margin(job.volume);
        let mut derived_c = f64::NAN;
        let reach = job.volume - margin;
        let i = cum_volume.partition_point(|&p| !(p >= reach));
        if let Some(s) = segs.get(i) {
            let before = if i == 0 { 0.0 } else { cum_volume[i - 1] };
            let target = (job.volume - before).min(dvs[i]).max(0.0);
            if dvs[i] - target <= margin {
                // The job's remaining volume at the segment boundary is
                // indistinguishable from zero, so the boundary is the
                // completion. Inverting would chase the vanishing-speed
                // tail and land early on curves that drain exactly at the
                // segment end (the closed-form optimum at α < 2 loses
                // ~1e-6 that way).
                derived_c = s.end;
            } else {
                derived_c = closed_form::time_at_volume(pl, s, target);
            }
        }
        let cum = cum_volume.last().copied().unwrap_or(0.0);
        if derived_c.is_nan()
            && (cum - job.volume).abs() <= config.rel_tol * (1.0 + job.volume + resolution)
        {
            // All measurable volume was delivered but no crossing was
            // detectable (zero-scale jobs whose serving segments are empty
            // or underflow): the inversion cannot constrain the
            // completion, so adopt the last serving instant — or the
            // reported value when the job never measurably ran at all.
            derived_c = segs.last().map_or(completion, |s| s.end).max(job.release);
        }
        self.scratch_dvs = dvs;
        self.scratch_cum = cum_volume;

        // --- volume-conservation candidate. Selection uses the resolution
        // known *now* (it only grows, so a job that passes now passes the
        // final judgement too); the recorded residual is re-normalised
        // with the end-of-run resolution in `record`.
        let delivered = self.names.delivered;
        let vol_detail = || format!("job {j}: {delivered} {cum:.9e} of {:.9e}", job.volume);
        let a = (cum - job.volume).abs();
        let b = 1.0 + job.volume;
        let sel = a / (b + resolution);
        if !(sel <= self.vol_sel) {
            self.vol_sel = sel;
            self.vol_a = a;
            self.vol_b = b;
            self.vol_detail = vol_detail();
        }

        let r = residual(derived_c, completion);
        let r = if r.is_nan() { f64::INFINITY } else { r };
        let comp_detail = || format!("job {j}: derived {derived_c:.9} vs reported {completion:.9}");
        self.comp.fold(r, comp_detail);

        // --- flows from the derived completion c_j. With q_j(t) the volume
        // processed by t, F_j = ρ_j ∫_{r_j}^{c_j} (V_j − q_j(t)) dt
        // = ρ_j [V_j (c_j − r_j) − ∫_{r_j}^{c_j} (c_j − τ) s_j(τ) dτ] by
        // Fubini; segments at or past c_j contribute nothing, and every
        // stride-th *job* is integrated by quadrature instead.
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
        self.int_derived += job.weight() * (derived_c - job.release);

        // --- outcome folds over the *reported* per-job values.
        let car = if completion.is_finite() { job.release - completion } else { f64::INFINITY };
        let car_detail = || format!("job {j}: completion {completion} vs release {}", job.release);
        self.car.fold(car, car_detail);
        let fdi = residual(frac_flow.max(int_flow), int_flow);
        let fdi = if fdi.is_nan() { f64::INFINITY } else { fdi };
        let fdi_detail = || format!("job {j}: frac {frac_flow} vs int {int_flow}");
        self.fdi.fold(fdi, fdi_detail);
        self.rep_frac += frac_flow;
        self.rep_int += int_flow;

        // --- eager verdict: the first per-job check out of tolerance.
        let tol = config.rel_tol;
        let trip = |check, residual, detail| Some(Trip { check, residual, detail });
        if !(sel.is_finite() && sel <= tol) {
            return trip(self.names.check, sel, vol_detail());
        }
        if !(r.is_finite() && r <= tol) {
            return trip("completion-consistency", r, comp_detail());
        }
        if !(car.is_finite() && car.max(0.0) <= tol) {
            return trip("completion-after-release", car, car_detail());
        }
        if !(fdi.is_finite() && fdi <= tol) {
            return trip("frac-dominated-by-int", fdi, fdi_detail());
        }
        None
    }

    /// Record the checks both reports end with — the volume check and
    /// completion-consistency, the energy / fractional / integral flow
    /// re-derivations against the reported `objective`, then the outcome
    /// checks — judged at `tol`, with the volume residual re-normalised by
    /// `resolution`, the end-of-run measurement resolution.
    fn record(
        mut self,
        report: &mut AuditReport,
        clock: &mut Stopwatch,
        tol: f64,
        resolution: f64,
        energy: f64,
        objective: &Objective,
    ) {
        // The winning candidate re-normalised with the final resolution:
        // in a replay, where every completion follows every segment, the
        // two resolutions are the same.
        let vol = self.vol_a / (self.vol_b + resolution);
        report.record_timed(self.names.check, vol, tol, self.vol_detail, clock.lap());
        report.record_timed("completion-consistency", self.comp.value, tol, self.comp.detail, clock.lap());
        report.record_timed(
            "energy-recomputed",
            residual(energy, objective.energy),
            tol,
            format!("re-derived {energy:.9e} vs reported {:.9e}", objective.energy),
            clock.lap(),
        );
        let frac = self.frac_derived;
        report.record_timed(
            "frac-flow-recomputed",
            residual(frac, objective.frac_flow),
            tol,
            format!("re-derived {frac:.9e} vs reported {:.9e}", objective.frac_flow),
            clock.lap(),
        );
        let int = self.int_derived;
        report.record_timed(
            "int-flow-recomputed",
            residual(int, objective.int_flow),
            tol,
            format!("derived {int:.9e} vs reported {:.9e}", objective.int_flow),
            clock.lap(),
        );

        let (worst, detail) = objective_finite(objective);
        report.record_timed("objective-finite", worst, tol, detail, clock.lap());
        if self.completed != self.released {
            self.car.value = f64::INFINITY;
            self.car.detail = format!("{} completions for {} jobs", self.completed, self.released);
        }
        report.record_timed(
            "completion-after-release",
            self.car.value.max(0.0),
            tol,
            self.car.detail,
            clock.lap(),
        );
        report.record_timed("frac-dominated-by-int", self.fdi.value, tol, self.fdi.detail, clock.lap());
        let (v, detail) = sums_residual(self.rep_frac, self.rep_int, objective);
        report.record_timed("reported-sums-consistent", v, tol, detail, clock.lap());
    }
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
    seg_count: u64,
    peak_speed: f64,
    horizon: f64,
    wf_prev_end: f64,
    wf: Worst,
    rel: Worst,
    energy: f64,
    folds: JobFolds,
    /// Hash-indexed for O(1) per-event lookups; every consumer that
    /// observes more than one entry (`finalize`, `snapshot`) sorts by id
    /// first, so nothing depends on iteration order.
    active: HashMap<JobId, ActiveJob<Segment>>,
    pending: Vec<PendingSegment>,
    /// Recycled per-job segment buffers (≤ peak active jobs entries):
    /// completions return their emptied vec here, releases take one back.
    seg_pool: Vec<Vec<Segment>>,
}

impl IncrementalAudit {
    /// A fresh auditor for a stream running under `law`. Only `rel_tol`,
    /// `time_tol`, and `cross_check_stride` of `config` are used.
    #[must_use]
    pub fn new(law: PowerLaw, config: AuditConfig) -> Self {
        Self {
            config,
            law,
            seg_count: 0,
            peak_speed: 0.0,
            horizon: 0.0,
            wf_prev_end: f64::NEG_INFINITY,
            wf: Worst::new("all segments ordered"),
            rel: Worst::new("no early service"),
            energy: 0.0,
            folds: JobFolds::new(&TIMELINE),
            active: HashMap::new(),
            pending: Vec::new(),
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
        self.folds.released
    }

    /// Completions audited so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.folds.completed
    }

    /// Measurement resolution of the segments fed so far: a job's service
    /// is representable only if its duration exceeds one ulp of the time
    /// axis. Under 1e±150 faults a normal-size job served at speed ~1e74
    /// finishes in ~1e-74 and legitimately leaves no segment behind, so any
    /// volume below `peak_speed · horizon · ε` is unmeasurable by any
    /// observer of the timeline, auditor included.
    fn resolution(&self) -> f64 {
        self.peak_speed * self.horizon.abs() * f64::EPSILON * 64.0
    }

    /// Record job `id`'s release. Ids must be the stream's arrival indices
    /// (dense from 0); re-releasing a live id resets its segment history.
    pub fn on_release(&mut self, id: JobId, job: Job) {
        let _p = PhaseScope::enter(Phase::Audit);
        self.folds.released = self.folds.released.max(id as u64 + 1);
        let mut segs = self.seg_pool.pop().unwrap_or_default();
        // A tampered feed can serve a job before releasing it: adopt the
        // pended segments (feed order preserved) and charge the early
        // service to the release fold.
        let mut i = 0;
        while i < self.pending.len() {
            if !self.pending[i].late && self.pending[i].job == id as u64 {
                let p = self.pending.remove(i);
                self.rel.fold_early(id, job.release, p.index, &p.seg);
                segs.push(p.seg);
            } else {
                i += 1;
            }
        }
        self.active.insert(id, ActiveJob { job, segs });
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
        self.wf.fold_wellformed(&mut self.wf_prev_end, i, &seg);

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
        // Summed in feed order and sampled by the global segment index.
        self.energy += segment_energy(pl, self.config.cross_check_stride, i, &seg);

        // --- early-service fold and per-job retention.
        if let Some(j) = seg.job {
            if let Some(active) = self.active.get_mut(&j) {
                self.rel.fold_early(j, active.job.release, i, &seg);
                active.segs.push(seg);
            } else {
                let late = (j as u64) < self.folds.released;
                self.pending.push(PendingSegment { index: i, job: j as u64, seg, late });
            }
        }

        let time_tol = self.config.time_slack(self.horizon);
        time_trip("segments-wellformed", &self.wf, time_tol)
            .or_else(|| time_trip("release-before-service", &self.rel, time_tol))
    }

    /// Audit job `id`'s completion: derive its delivered volume,
    /// completion time, and flow contributions from its retained segments
    /// (O(its segments)), fold every per-job check, and drop the job's
    /// state. `completion`, `frac_flow`, and `int_flow` are the *reported*
    /// per-job values from the stream's completion event. Returns the
    /// first per-job check that left tolerance, if any.
    pub fn on_complete(
        &mut self,
        id: JobId,
        completion: f64,
        frac_flow: f64,
        int_flow: f64,
    ) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let Some(ActiveJob { job, mut segs }) = self.active.remove(&id) else {
            return Some(self.folds.unreleased(id));
        };
        let resolution = self.resolution();
        let reported = (completion, frac_flow, int_flow);
        let trip = self.folds.complete(self.law, &self.config, resolution, id, job, &segs, reported);
        segs.clear();
        self.seg_pool.push(segs);
        trip
    }

    /// Close the run against the stream's reported aggregate `objective`
    /// and emit the final [`AuditReport`]: segments-wellformed,
    /// release-before-service, volume-conservation, completion-consistency,
    /// the energy / flow re-derivations and the outcome checks.
    ///
    /// Jobs still active (released, never completed) are derived here with
    /// no reported completion to compare against, so they trip
    /// `completion-consistency`.
    #[must_use]
    pub fn finalize(self, objective: &Objective) -> AuditReport {
        self.finish(objective, Stopwatch::new())
    }

    /// [`IncrementalAudit::finalize`], charging the time since `clock`'s
    /// last lap to the report's first check (a replay's feed).
    pub(crate) fn finish(mut self, objective: &Objective, mut clock: Stopwatch) -> AuditReport {
        let mut report = AuditReport::default();
        let time_tol = self.config.time_slack(self.horizon);

        // Jobs that never completed: audit them now (reported completion
        // NaN), ascending id, so lost jobs cannot hide from the per-job
        // checks.
        let mut leftover: Vec<JobId> = self.active.keys().copied().collect();
        leftover.sort_unstable();
        for id in leftover {
            let _ = self.on_complete(id, f64::NAN, f64::NAN, f64::NAN);
            self.folds.completed -= 1; // they did not actually complete
        }

        // Pending segments that never resolved: service *after* a job's
        // audited completion is unaccountable volume; the first segment
        // naming an unknown id is an infinite early-service residual.
        for p in self.pending.iter().filter(|p| p.late) {
            self.folds.vol_sel = f64::INFINITY;
            self.folds.vol_a = f64::INFINITY;
            self.folds.vol_b = 1.0;
            self.folds.vol_detail =
                format!("job {}: served after completion (segment {})", p.job, p.index);
        }
        if let Some(p) = self.pending.iter().find(|p| !p.late) {
            self.rel.value = f64::INFINITY;
            self.rel.detail = format!("segment {} serves unknown job {}", p.index, p.job);
        }

        let resolution = self.resolution();
        report.record_timed("segments-wellformed", self.wf.value, time_tol, self.wf.detail, clock.lap());
        report.record_timed(
            "release-before-service",
            self.rel.value,
            time_tol,
            self.rel.detail,
            clock.lap(),
        );
        let tol = self.config.rel_tol;
        self.folds.record(&mut report, &mut clock, tol, resolution, self.energy, objective);
        report
    }

    /// Capture the full accumulator state, bit for bit.
    #[must_use]
    pub fn snapshot(&self) -> IncrementalSnapshot {
        let f = &self.folds;
        let mut active: Vec<_> = self
            .active
            .iter()
            .map(|(&id, a)| (id as u64, a.job.release, a.job.volume, a.job.density, a.segs.clone()))
            .collect();
        active.sort_unstable_by_key(|r| r.0);
        IncrementalSnapshot {
            alpha: self.law.alpha(),
            rel_tol: self.config.rel_tol,
            time_tol: self.config.time_tol,
            cross_check_stride: self.config.cross_check_stride as u64,
            released: f.released,
            completed: f.completed,
            seg_count: self.seg_count,
            peak_speed: self.peak_speed,
            horizon: self.horizon,
            wf_prev_end: self.wf_prev_end,
            wf_worst: self.wf.value,
            wf_detail: self.wf.detail.clone(),
            rel_worst: self.rel.value,
            rel_detail: self.rel.detail.clone(),
            vol_a: f.vol_a,
            vol_b: f.vol_b,
            vol_sel: f.vol_sel,
            vol_detail: f.vol_detail.clone(),
            comp_worst: f.comp.value,
            comp_detail: f.comp.detail.clone(),
            energy: self.energy,
            frac_derived: f.frac_derived,
            int_derived: f.int_derived,
            car_worst: f.car.value,
            car_detail: f.car.detail.clone(),
            fdi_worst: f.fdi.value,
            fdi_detail: f.fdi.detail.clone(),
            rep_frac: f.rep_frac,
            rep_int: f.rep_int,
            active,
            pending: self.pending.iter().map(|p| (p.index, p.job, p.seg, p.late)).collect(),
        }
    }

    /// Rebuild an auditor from a snapshot. Fails only if the snapshot's α
    /// does not name a valid power law.
    pub fn from_snapshot(snap: IncrementalSnapshot) -> SimResult<Self> {
        let law = PowerLaw::new(snap.alpha)?;
        let config = AuditConfig {
            rel_tol: snap.rel_tol,
            time_tol: snap.time_tol,
            cross_check_stride: snap.cross_check_stride as usize,
            ..AuditConfig::default()
        };
        let folds = JobFolds {
            released: snap.released,
            completed: snap.completed,
            vol_a: snap.vol_a,
            vol_b: snap.vol_b,
            vol_sel: snap.vol_sel,
            vol_detail: snap.vol_detail,
            comp: Worst { value: snap.comp_worst, detail: snap.comp_detail },
            frac_derived: snap.frac_derived,
            int_derived: snap.int_derived,
            car: Worst { value: snap.car_worst, detail: snap.car_detail },
            fdi: Worst { value: snap.fdi_worst, detail: snap.fdi_detail },
            rep_frac: snap.rep_frac,
            rep_int: snap.rep_int,
            ..JobFolds::new(&TIMELINE)
        };
        Ok(Self {
            config,
            law,
            seg_count: snap.seg_count,
            peak_speed: snap.peak_speed,
            horizon: snap.horizon,
            wf_prev_end: snap.wf_prev_end,
            wf: Worst { value: snap.wf_worst, detail: snap.wf_detail },
            rel: Worst { value: snap.rel_worst, detail: snap.rel_detail },
            energy: snap.energy,
            folds,
            active: snap
                .active
                .into_iter()
                .map(|(id, release, volume, density, segs)| {
                    (id as JobId, ActiveJob { job: Job { release, volume, density }, segs })
                })
                .collect(),
            pending: snap
                .pending
                .into_iter()
                .map(|(index, job, seg, late)| PendingSegment { index, job, seg, late })
                .collect(),
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

/// Streaming cross-machine auditor. Feed per-machine retired segments via
/// [`IncrementalMultiAudit::on_segment`] and fleet completions via
/// [`IncrementalMultiAudit::on_complete`]; resident state is O(active
/// jobs' segments + machines).
///
/// On top of each machine's timeline checks it audits what no single
/// timeline shows: one power law across the fleet, **no-double-service**
/// (no job in service on two machines at overlapping times; the residual
/// is the worst overlap) and **cross-machine-volume** (each job's volume
/// summed over every machine that served it). Energy sums per machine,
/// each sampling its quadrature tier by its own segment index, then
/// across machines in machine order.
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
    nds: Worst,
    folds: JobFolds,
    active: BTreeMap<JobId, ActiveJob<(usize, u64, Segment)>>,
    /// Scratch merged timeline of the completing job, reused across
    /// completions.
    scratch_segs: Vec<Segment>,
}

impl IncrementalMultiAudit {
    /// A fresh fleet auditor: one power law per machine (the fleet is
    /// fixed for the run).
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
            nds: Worst::new("no cross-machine overlap"),
            folds: JobFolds::new(&FLEET),
            active: BTreeMap::new(),
            scratch_segs: Vec::new(),
        }
    }

    /// The fleet's reference law: machine 0's. An all-idle fleet has no
    /// law to read; any law integrates the empty segment set to zero, so
    /// the cube fallback is inert.
    fn law(&self) -> PowerLaw {
        self.laws.first().copied().unwrap_or_else(PowerLaw::cube)
    }

    fn horizon(&self) -> f64 {
        self.last_ends.max()
    }

    /// [`IncrementalAudit`]'s measurement resolution over the whole fleet.
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
        self.folds.released = self.folds.released.max(id as u64 + 1);
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
                    ms.rel.fold_early(id, job.release, idx, &seg);
                    segs.push((m, idx, seg));
                } else {
                    i += 1;
                }
            }
            !ms.pending.is_empty()
        });
        self.active.insert(id, ActiveJob { job, segs });
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
        ms.wf.fold_wellformed(&mut ms.prev_end, i, &seg);
        ms.energy += segment_energy(pl, self.config.cross_check_stride, i, &seg);
        self.last_ends.set(m, seg.end.abs());
        self.peak_speed = self
            .peak_speed
            .max(seg.speed_at(pl, seg.start))
            .max(seg.speed_at(pl, seg.end));

        if let Some(j) = seg.job {
            let ms = &mut self.machines[m];
            if let Some(active) = self.active.get_mut(&j) {
                ms.rel.fold_early(j, active.job.release, i, &seg);
                active.segs.push((m, i, seg));
            } else {
                ms.pending.push((i, j as u64, seg));
                self.pending_machines.insert(m);
            }
        }

        let time_tol = self.config.time_slack(self.horizon());
        time_trip("segments-wellformed", &self.machines[m].wf, time_tol).map(|mut trip| {
            trip.detail = format!("machine {m}: {}", trip.detail);
            trip
        })
    }

    /// Audit job `id`'s fleet completion: merge its cross-machine serving
    /// intervals (ordered by start, then machine, then arrival), run the
    /// O(k²) no-double-service scan, derive volume / completion / flows
    /// over the merged timeline, fold every check, and drop the job's
    /// state.
    pub fn on_complete(
        &mut self,
        id: JobId,
        completion: f64,
        frac_flow: f64,
        int_flow: f64,
    ) -> Option<Trip> {
        let _p = PhaseScope::enter(Phase::Audit);
        let Some(ActiveJob { job, segs: mut tagged }) = self.active.remove(&id) else {
            return Some(self.folds.unreleased(id));
        };
        let pl = self.law();
        let resolution = self.resolution();
        tagged.sort_by(|a, b| {
            a.2.start.total_cmp(&b.2.start).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1))
        });

        // --- no-double-service: a job's serving intervals on *different*
        // machines must not overlap (same-machine overlap is
        // segments-wellformed's).
        let mut worst = f64::NEG_INFINITY;
        let mut detail = String::new();
        for (i, (m_a, _, a)) in tagged.iter().enumerate() {
            for (m_b, _, b) in &tagged[i + 1..] {
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
        self.nds.fold(worst, || format!("job {id}: {detail}"));

        let mut segs = std::mem::take(&mut self.scratch_segs);
        segs.clear();
        segs.extend(tagged.iter().map(|&(_, _, s)| s));
        let reported = (completion, frac_flow, int_flow);
        let trip = self.folds.complete(pl, &self.config, resolution, id, job, &segs, reported);
        self.scratch_segs = segs;

        let time_tol = self.config.time_slack(self.horizon());
        let nds = self.nds.value.max(0.0);
        if !(nds <= time_tol && self.nds.value.is_finite()) {
            return Some(Trip {
                check: "no-double-service",
                residual: nds,
                detail: self.nds.detail.clone(),
            });
        }
        trip
    }

    /// Close the run and emit the final report: power-law-consistent, the
    /// worst machine's segments-wellformed and release-before-service,
    /// no-double-service, cross-machine-volume, completion-consistency,
    /// the energy / flow re-derivations and the outcome checks.
    #[must_use]
    pub fn finalize(self, objective: &Objective) -> AuditReport {
        self.finish(objective, Stopwatch::new())
    }

    /// [`IncrementalMultiAudit::finalize`], charging the time since
    /// `clock`'s last lap to the report's first check (a replay's feed).
    pub(crate) fn finish(mut self, objective: &Objective, mut clock: Stopwatch) -> AuditReport {
        let mut report = AuditReport::default();
        let tol = self.config.rel_tol;
        let pl = self.law();
        let time_tol = self.config.time_slack(self.horizon());

        let leftover: Vec<JobId> = self.active.keys().copied().collect();
        for id in leftover {
            let _ = self.on_complete(id, f64::NAN, f64::NAN, f64::NAN);
            self.folds.completed -= 1;
        }
        for &m in &self.pending_machines {
            let ms = &mut self.machines[m];
            if let Some(&(idx, j, _)) = ms.pending.first() {
                ms.rel.value = f64::INFINITY;
                ms.rel.detail = format!("segment {idx} serves unknown job {j}");
            }
        }

        // --- power-law-consistent: one fleet, one energy model.
        let mut worst = 0.0f64;
        let mut detail = String::from("all machines share one power law");
        for (m, law) in self.laws.iter().enumerate() {
            let d = (law.alpha() - pl.alpha()).abs();
            if !(d <= worst) {
                worst = if d.is_nan() { f64::INFINITY } else { d };
                detail = format!("machine {m}: α = {} vs machine 0: α = {}", law.alpha(), pl.alpha());
            }
        }
        report.record_timed("power-law-consistent", worst, tol, detail, clock.lap());

        // --- the worst machine's timeline checks (the first on ties).
        let worst_machine = |fold: fn(&MachineState) -> &Worst, ok: &str| {
            let mut worst = Worst::new(ok);
            for (m, ms) in self.machines.iter().enumerate() {
                let w = fold(ms);
                worst.fold(w.value, || format!("machine {m}: {}", w.detail));
            }
            worst
        };
        let wf = worst_machine(|ms| &ms.wf, "all machine timelines ordered");
        report.record_timed("segments-wellformed", wf.value, time_tol, wf.detail, clock.lap());
        let rel = worst_machine(|ms| &ms.rel, "no early service");
        report.record_timed("release-before-service", rel.value, time_tol, rel.detail, clock.lap());

        let resolution = self.resolution();
        report.record_timed(
            "no-double-service",
            self.nds.value.max(0.0),
            time_tol,
            self.nds.detail,
            clock.lap(),
        );
        let energy: f64 = self.machines.iter().map(|m| m.energy).sum();
        self.folds.record(&mut report, &mut clock, tol, resolution, energy, objective);
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

    fn unit(start: f64, end: f64, job: JobId) -> Segment {
        Segment::new(start, end, Some(job), SpeedLaw::Constant { speed: 1.0 })
    }

    /// Feed a finished run the way a stream would: each job's release,
    /// then its segments, then its completion, job by job.
    fn stream_report(
        law: PowerLaw,
        jobs: &[Job],
        segments: &[Segment],
        per_job: &ncss_sim::PerJob,
        objective: &Objective,
    ) -> AuditReport {
        let mut audit = IncrementalAudit::new(law, AuditConfig::default());
        for (id, job) in jobs.iter().enumerate() {
            audit.on_release(id, *job);
            for seg in segments.iter().filter(|s| s.job == Some(id)) {
                let _ = audit.on_segment(*seg);
            }
            let _ = audit.on_complete(id, per_job.completion[id], per_job.frac_flow[id], per_job.int_flow[id]);
        }
        audit.finalize(objective)
    }

    fn constant_run() -> (Instance, Schedule, ncss_sim::Evaluated) {
        let inst =
            Instance::new(vec![Job::new(0.0, 2.0, 3.0), Job::new(0.5, 1.0, 1.0)]).unwrap();
        let sched = Schedule::new(pl(2.0), vec![unit(0.0, 2.0, 0), unit(2.0, 3.0, 1)]).unwrap();
        let ev = evaluate(&sched, &inst).unwrap();
        (inst, sched, ev)
    }

    #[test]
    fn streamed_run_matches_the_replay_bitwise() {
        let (inst, sched, ev) = constant_run();
        let replay = ScheduleAudit::default().audit(&inst, &sched, &ev);
        let stream =
            stream_report(sched.power_law(), inst.jobs(), sched.segments(), &ev.per_job, &ev.objective);
        assert!(replay.passed(), "{replay}");
        assert!(stream.passed(), "{stream}");
        assert!(stream.max_residual() < 1e-7, "{stream}");
        assert_eq!(replay.checks.len(), stream.checks.len());
        for (r, s) in replay.checks.iter().zip(&stream.checks) {
            assert_eq!((r.name, r.passed, &r.detail), (s.name, s.passed, &s.detail));
            assert_eq!(r.residual.to_bits(), s.residual.to_bits(), "{}", r.name);
        }
    }

    #[test]
    fn tampered_energy_fails_the_energy_check() {
        let (inst, sched, mut ev) = constant_run();
        ev.objective.energy *= 1.5;
        let report =
            stream_report(sched.power_law(), inst.jobs(), sched.segments(), &ev.per_job, &ev.objective);
        assert!(!report.passed());
        assert!(report.failures().iter().any(|c| c.name == "energy-recomputed"), "{report}");
    }

    #[test]
    fn eager_verdict_fires_at_the_offending_completion() {
        let (inst, _sched, ev) = constant_run();
        let mut audit = IncrementalAudit::new(pl(2.0), AuditConfig::default());
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
    fn unknown_ids_name_the_first_offending_segment() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        let segs = vec![unit(0.0, 1.0, 0), unit(1.0, 2.0, 7), unit(2.0, 3.0, 9)];
        let sched = Schedule::new(pl(2.0), segs).unwrap();
        let per_job = ncss_sim::PerJob { completion: vec![1.0], frac_flow: vec![0.5], int_flow: vec![1.0] };
        let ev = ncss_sim::Evaluated {
            objective: Objective { energy: 3.0, frac_flow: 0.5, int_flow: 1.0 },
            per_job,
        };
        let want = "segment 1 serves unknown job 7";
        let mut audit = IncrementalAudit::new(sched.power_law(), AuditConfig::default());
        audit.on_release(0, inst.jobs()[0]);
        for seg in sched.segments() {
            let _ = audit.on_segment(*seg);
        }
        let _ = audit.on_complete(0, 1.0, 0.5, 1.0);
        let stream = audit.finalize(&ev.objective);
        let replay = ScheduleAudit::default().audit(&inst, &sched, &ev);
        let fleet = MultiAudit::default().audit(&inst, std::slice::from_ref(&sched), &ev);
        for (report, detail) in
            [(&stream, want.to_string()), (&replay, want.to_string()), (&fleet, format!("machine 0: {want}"))]
        {
            let check = report.checks.iter().find(|c| c.name == "release-before-service").unwrap();
            assert!(!check.passed && check.residual == f64::INFINITY, "{report}");
            assert_eq!(check.detail, detail, "{report}");
        }
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
    fn multi_duplicated_timeline_trips_eagerly_and_in_the_report() {
        let inst =
            Instance::new(vec![Job::new(0.0, 2.0, 1.0), Job::new(0.0, 1.0, 1.0)]).unwrap();
        let law = pl(2.0);
        let m0 = [unit(0.0, 2.0, 0)];
        let m1 = [unit(0.0, 1.0, 1)];
        let per_job = ncss_sim::PerJob {
            completion: vec![2.0, 1.0],
            frac_flow: vec![2.0, 0.5],
            int_flow: vec![4.0, 1.0],
        };
        let objective = Objective { energy: 3.0, frac_flow: 2.5, int_flow: 5.0 };
        // Machines feed interleaved, as live pool tasks retire segments.
        let run = |timelines: [&[Segment]; 2]| {
            let mut audit = IncrementalMultiAudit::new(vec![law, law], AuditConfig::default());
            for (id, job) in inst.jobs().iter().enumerate() {
                audit.on_release(id, *job);
            }
            for (a, b) in timelines[0].iter().zip(timelines[1]) {
                let _ = audit.on_segment(0, *a);
                let _ = audit.on_segment(1, *b);
            }
            let trips: Vec<Trip> = (0..2)
                .filter_map(|j| {
                    audit.on_complete(j, per_job.completion[j], per_job.frac_flow[j], per_job.int_flow[j])
                })
                .collect();
            (trips, audit.finalize(&objective))
        };

        let (trips, honest) = run([&m0, &m1]);
        assert!(trips.is_empty() && honest.passed(), "{trips:?}\n{honest}");

        // Machine 1 duplicating machine 0's timeline serves job 0 twice.
        let (trips, report) = run([&m0, &m0]);
        assert_eq!(trips.first().map(|t| t.check), Some("no-double-service"), "{trips:?}");
        let failed: Vec<_> = report.failures().iter().map(|c| c.name).collect();
        assert!(failed.contains(&"no-double-service"), "{report}");
        assert!(failed.contains(&"cross-machine-volume"), "{report}");
        let schedules = [Schedule::new(law, m0.to_vec()).unwrap(), Schedule::new(law, m0.to_vec()).unwrap()];
        let ev = ncss_sim::Evaluated { objective, per_job: per_job.clone() };
        let replay = MultiAudit::default().audit(&inst, &schedules, &ev);
        let names = |r: &AuditReport| r.checks.iter().map(|c| (c.name, c.passed)).collect::<Vec<_>>();
        assert_eq!(names(&report), names(&replay));
    }
}
