//! Piecewise-analytic machine schedules.
//!
//! Speeds under the paper's algorithms are continuous curves, not step
//! functions, so a schedule is a sequence of [`Segment`]s each carrying an
//! analytic [`SpeedLaw`] (idle, constant, clairvoyant decay, non-clairvoyant
//! growth) plus a pointwise speed `scale` factor. The scale factor exists
//! for the Section 5 fractional-to-integral reduction, which runs at exactly
//! `(1+ε)` times a base schedule's speed at every instant. Energies,
//! processed volumes, and their time-integrals are exact per segment via
//! [`crate::kernel`]; figures sample the curves.

use crate::error::{SimError, SimResult};
use crate::job::JobId;
use crate::kernel::{DecayKernel, GrowthKernel};
use crate::numeric::tie_slack;
use crate::power::PowerLaw;

/// The analytic speed law in force during one segment (before scaling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedLaw {
    /// Machine off.
    Idle,
    /// Constant speed (used by baselines and by step-integrated algorithms).
    Constant {
        /// The speed.
        speed: f64,
    },
    /// Algorithm C dynamics: power = remaining weight, starting from `w0`
    /// and decaying while a job of density `rho` is processed.
    Decay {
        /// Remaining weight at segment start.
        w0: f64,
        /// Density of the processed job.
        rho: f64,
    },
    /// Algorithm NC dynamics: power = `u0` + weight processed since segment
    /// start, growing while a job of density `rho` is processed.
    Growth {
        /// Power level at segment start.
        u0: f64,
        /// Density of the processed job.
        rho: f64,
    },
}

/// One schedule segment: a time interval, the job in service (if any), the
/// base speed law, and a pointwise speed multiplier.
///
/// With scale `c`, the actual speed is `c · s_base(t)`, so energy scales by
/// `c^α` and processed volume by `c`. The *base* law's internal state (e.g.
/// the decaying weight of the curve it was copied from) is unaffected —
/// exactly the semantics of the paper's `A_int` shadowing `A_frac`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Absolute start time.
    pub start: f64,
    /// Absolute end time (`> start`).
    pub end: f64,
    /// Job in service, or `None` when idle.
    pub job: Option<JobId>,
    /// Base speed law over `[start, end]`.
    pub law: SpeedLaw,
    /// Pointwise speed multiplier (1 for ordinary segments).
    pub scale: f64,
}

impl Segment {
    /// An unscaled segment.
    #[must_use]
    pub fn new(start: f64, end: f64, job: Option<JobId>, law: SpeedLaw) -> Self {
        Self { start, end, job, law, scale: 1.0 }
    }

    /// The same segment with speed multiplied pointwise by `scale`.
    #[must_use]
    pub fn with_scale(self, scale: f64) -> Self {
        Self { scale, ..self }
    }

    /// Segment duration.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    fn base_speed_at(&self, pl: PowerLaw, t: f64) -> f64 {
        let tau = (t - self.start).clamp(0.0, self.duration());
        match self.law {
            SpeedLaw::Idle => 0.0,
            SpeedLaw::Constant { speed } => speed,
            SpeedLaw::Decay { w0, rho } => DecayKernel { law: pl, w0, rho }.speed_at(tau),
            SpeedLaw::Growth { u0, rho } => GrowthKernel { law: pl, u0, rho }.speed_at(tau),
        }
    }

    /// Speed at absolute time `t ∈ [start, end]`.
    #[must_use]
    pub fn speed_at(&self, pl: PowerLaw, t: f64) -> f64 {
        self.scale * self.base_speed_at(pl, t)
    }

    /// Instantaneous power at absolute time `t`.
    #[must_use]
    pub fn power_at(&self, pl: PowerLaw, t: f64) -> f64 {
        pl.power(self.speed_at(pl, t))
    }

    fn base_energy_to(&self, pl: PowerLaw, t: f64) -> f64 {
        let tau = (t - self.start).clamp(0.0, self.duration());
        match self.law {
            SpeedLaw::Idle => 0.0,
            SpeedLaw::Constant { speed } => pl.power(speed) * tau,
            SpeedLaw::Decay { w0, rho } => DecayKernel { law: pl, w0, rho }.energy(tau),
            SpeedLaw::Growth { u0, rho } => GrowthKernel { law: pl, u0, rho }.energy(tau),
        }
    }

    /// Energy consumed over `[start, t]` (scales as `scale^α`).
    #[must_use]
    pub fn energy_to(&self, pl: PowerLaw, t: f64) -> f64 {
        pl.power(self.scale) * self.base_energy_to(pl, t)
    }

    /// Energy consumed over the whole segment.
    #[must_use]
    pub fn energy(&self, pl: PowerLaw) -> f64 {
        self.energy_to(pl, self.end)
    }

    fn base_volume_to(&self, pl: PowerLaw, t: f64) -> f64 {
        let tau = (t - self.start).clamp(0.0, self.duration());
        match self.law {
            SpeedLaw::Idle => 0.0,
            SpeedLaw::Constant { speed } => speed * tau,
            SpeedLaw::Decay { w0, rho } => DecayKernel { law: pl, w0, rho }.volume(tau),
            SpeedLaw::Growth { u0, rho } => GrowthKernel { law: pl, u0, rho }.volume(tau),
        }
    }

    /// Volume processed over `[start, t]` (scales linearly).
    #[must_use]
    pub fn volume_to(&self, pl: PowerLaw, t: f64) -> f64 {
        self.scale * self.base_volume_to(pl, t)
    }

    /// Volume processed over the whole segment.
    #[must_use]
    pub fn volume(&self, pl: PowerLaw) -> f64 {
        self.volume_to(pl, self.end)
    }

    /// `∫_{start}^{t} volume_to(x) dx` — the time-integral of the processed
    /// volume, for exact fractional flow-time accrual.
    #[must_use]
    pub fn volume_integral_to(&self, pl: PowerLaw, t: f64) -> f64 {
        let tau = (t - self.start).clamp(0.0, self.duration());
        let base = match self.law {
            SpeedLaw::Idle => 0.0,
            SpeedLaw::Constant { speed } => 0.5 * speed * tau * tau,
            SpeedLaw::Decay { w0, rho } => DecayKernel { law: pl, w0, rho }.volume_integral(tau),
            SpeedLaw::Growth { u0, rho } => GrowthKernel { law: pl, u0, rho }.volume_integral(tau),
        };
        self.scale * base
    }

    /// Absolute time within the segment at which cumulative processed volume
    /// reaches `v` (requires `0 ≤ v ≤ volume()`), or `None` for idle laws or
    /// `v` beyond the segment's capacity.
    #[must_use]
    pub fn time_at_volume(&self, pl: PowerLaw, v: f64) -> Option<f64> {
        if v <= 0.0 {
            return Some(self.start);
        }
        let total = self.volume(pl);
        if v > total * (1.0 + 1e-12) {
            return None;
        }
        let v = (v / self.scale).min(total / self.scale);
        let tau = match self.law {
            SpeedLaw::Idle => return None,
            SpeedLaw::Constant { speed } => {
                if speed <= 0.0 {
                    return None;
                }
                v / speed
            }
            SpeedLaw::Decay { w0, rho } => DecayKernel { law: pl, w0, rho }.time_to_volume(v),
            SpeedLaw::Growth { u0, rho } => GrowthKernel { law: pl, u0, rho }.time_to_volume(v),
        };
        Some(self.start + tau.min(self.duration()))
    }

    /// Time spent within the segment at (scaled) speed at least `x > 0`.
    #[must_use]
    pub fn time_with_speed_at_least(&self, pl: PowerLaw, x: f64) -> f64 {
        let x = x / self.scale;
        let tau = self.duration();
        match self.law {
            SpeedLaw::Idle => 0.0,
            SpeedLaw::Constant { speed } => {
                if speed >= x {
                    tau
                } else {
                    0.0
                }
            }
            SpeedLaw::Decay { w0, rho } => {
                DecayKernel { law: pl, w0, rho }.time_with_speed_at_least(x, tau)
            }
            SpeedLaw::Growth { u0, rho } => {
                GrowthKernel { law: pl, u0, rho }.time_with_speed_at_least(x, tau)
            }
        }
    }

    /// Largest speed attained in the segment (laws are monotone in time).
    #[must_use]
    pub fn max_speed(&self, pl: PowerLaw) -> f64 {
        self.speed_at(pl, self.start).max(self.speed_at(pl, self.end))
    }

    /// Split at absolute time `t ∈ (start, end)` into two equivalent
    /// segments.
    #[must_use]
    pub fn split_at(&self, pl: PowerLaw, t: f64) -> (Segment, Segment) {
        debug_assert!(t > self.start && t < self.end);
        let left = Segment { end: t, ..*self };
        let right_law = match self.law {
            SpeedLaw::Idle => SpeedLaw::Idle,
            SpeedLaw::Constant { speed } => SpeedLaw::Constant { speed },
            SpeedLaw::Decay { w0, rho } => SpeedLaw::Decay {
                w0: DecayKernel { law: pl, w0, rho }.weight_at(t - self.start),
                rho,
            },
            SpeedLaw::Growth { u0, rho } => SpeedLaw::Growth {
                u0: GrowthKernel { law: pl, u0, rho }.u_at(t - self.start),
                rho,
            },
        };
        let right = Segment { start: t, end: self.end, job: self.job, law: right_law, scale: self.scale };
        (left, right)
    }
}

/// A complete machine schedule: ordered, non-overlapping segments under one
/// power law. Gaps between segments are implicit idle time.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    law: PowerLaw,
    segments: Vec<Segment>,
}

impl Schedule {
    /// Build a schedule, validating segment ordering.
    ///
    /// A segment may start before its predecessor ends by at most the
    /// [`tie_slack`] of that end time, plus four ulps of the same magnitude
    /// for rounding: the fleet dispatchers hand a machine its next job
    /// within that tie slack of its previous completion. The slack is
    /// relative below magnitude 1, so an overlap is rejected at every time
    /// scale.
    pub fn new(law: PowerLaw, segments: Vec<Segment>) -> SimResult<Self> {
        let mut prev_end = f64::NEG_INFINITY;
        for s in &segments {
            if !(s.start.is_finite() && s.end.is_finite()) || s.end <= s.start {
                return Err(SimError::MalformedSchedule { reason: "segment with non-positive duration" });
            }
            if !(s.scale.is_finite() && s.scale > 0.0) {
                return Err(SimError::MalformedSchedule { reason: "segment with non-positive scale" });
            }
            let slack = tie_slack(prev_end) + 4.0 * f64::EPSILON * prev_end.abs().min(1.0);
            if s.start < prev_end - slack {
                return Err(SimError::MalformedSchedule { reason: "overlapping segments" });
            }
            prev_end = s.end;
        }
        Ok(Self { law, segments })
    }

    /// The power function.
    #[must_use]
    pub fn power_law(&self) -> PowerLaw {
        self.law
    }

    /// The segments in time order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Time at which the last segment ends (0 for an empty schedule).
    #[must_use]
    pub fn end_time(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.end)
    }

    /// Speed at absolute time `t` (0 during gaps and outside the horizon).
    #[must_use]
    pub fn speed_at(&self, t: f64) -> f64 {
        match self.segments.binary_search_by(|s| {
            if t < s.start {
                std::cmp::Ordering::Greater
            } else if t >= s.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => self.segments[i].speed_at(self.law, t),
            Err(i) => {
                // Segments are half-open [start, end); at the very end of a
                // segment with no successor covering t (e.g. the schedule's
                // final instant), report the closing speed instead of 0.
                if i > 0 && (t - self.segments[i - 1].end).abs() <= 1e-12 {
                    self.segments[i - 1].speed_at(self.law, t)
                } else {
                    0.0
                }
            }
        }
    }

    /// Power at absolute time `t`.
    #[must_use]
    pub fn power_at(&self, t: f64) -> f64 {
        self.law.power(self.speed_at(t))
    }

    /// Total energy.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.segments.iter().map(|s| s.energy(self.law)).sum()
    }

    /// Total processed volume.
    #[must_use]
    pub fn total_volume(&self) -> f64 {
        self.segments.iter().map(|s| s.volume(self.law)).sum()
    }

    /// Total time spent at speed at least `x > 0` — the level-set measure of
    /// the speed profile used to verify the paper's measure-preserving
    /// mapping (Lemma 6).
    #[must_use]
    pub fn time_with_speed_at_least(&self, x: f64) -> f64 {
        self.segments.iter().map(|s| s.time_with_speed_at_least(self.law, x)).sum()
    }

    /// Largest speed attained anywhere.
    #[must_use]
    pub fn max_speed(&self) -> f64 {
        self.segments.iter().map(|s| s.max_speed(self.law)).fold(0.0, f64::max)
    }

    /// Total time covered by (non-idle-law) segments.
    #[must_use]
    pub fn busy_time(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| !matches!(s.law, SpeedLaw::Idle))
            .map(Segment::duration)
            .sum()
    }

    /// Idle time within the span `[first start, end_time]`: gaps between
    /// segments plus explicit idle segments.
    #[must_use]
    pub fn idle_time(&self) -> f64 {
        let Some(first) = self.segments.first() else {
            return 0.0;
        };
        (self.end_time() - first.start) - self.busy_time()
    }

    /// Volume processed per job id (length `n_jobs`).
    #[must_use]
    pub fn volume_by_job(&self, n_jobs: usize) -> Vec<f64> {
        let mut v = vec![0.0; n_jobs];
        for s in &self.segments {
            if let Some(j) = s.job {
                if j < n_jobs {
                    v[j] += s.volume(self.law);
                }
            }
        }
        v
    }

    /// Build a prefix-sum [`SegmentIndex`] over this schedule's segments
    /// for `O(log n)` time/volume queries.
    #[must_use]
    pub fn index(&self) -> SegmentIndex {
        SegmentIndex::new(self.law, &self.segments)
    }

    /// Sample `(t, speed, power)` at `n + 1` evenly spaced points over
    /// `[0, horizon]` for plotting.
    #[must_use]
    pub fn sample(&self, n: usize, horizon: f64) -> Vec<(f64, f64, f64)> {
        (0..=n)
            .map(|i| {
                let t = horizon * i as f64 / n as f64;
                let s = self.speed_at(t);
                (t, s, self.law.power(s))
            })
            .collect()
    }
}

/// Prefix-sum time/volume index over an ordered segment list, for
/// `O(log n)` "which segment covers time `t`" / "where does cumulative
/// volume reach `v`" queries instead of linear scans.
///
/// Built either from the segments' own closed forms
/// ([`SegmentIndex::new`], [`Schedule::index`]) or from caller-supplied
/// per-segment volumes ([`SegmentIndex::from_volumes`]) — the audit passes
/// its independently re-derived values so the index never launders the
/// simulator's arithmetic into the checker.
///
/// # Examples
///
/// ```
/// use ncss_sim::{PowerLaw, Schedule, Segment, SpeedLaw};
///
/// let law = PowerLaw::new(2.0).unwrap();
/// let segs = vec![
///     Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 2.0 }),
///     Segment::new(1.0, 3.0, Some(1), SpeedLaw::Constant { speed: 0.5 }),
/// ];
/// let sched = Schedule::new(law, segs).unwrap();
/// let index = sched.index();
/// // Cumulative volume crosses 2.5 inside the second segment, at t = 2.
/// assert_eq!(index.first_reaching(2.5), 1);
/// let t = index.time_at_volume(law, sched.segments(), 2.5).unwrap();
/// assert!((t - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentIndex {
    ends: Vec<f64>,
    cum_volume: Vec<f64>,
}

impl SegmentIndex {
    /// Index `segments` using their own closed-form volumes.
    #[must_use]
    pub fn new(pl: PowerLaw, segments: &[Segment]) -> Self {
        Self::from_volumes(segments, segments.iter().map(|s| s.volume(pl)))
    }

    /// Index `segments` with externally supplied per-segment volumes
    /// (must be in segment order and of equal length).
    #[must_use]
    pub fn from_volumes(segments: &[Segment], volumes: impl IntoIterator<Item = f64>) -> Self {
        let ends: Vec<f64> = segments.iter().map(|s| s.end).collect();
        let mut cum = 0.0;
        let cum_volume: Vec<f64> = volumes
            .into_iter()
            .map(|v| {
                cum += v;
                cum
            })
            .collect();
        debug_assert_eq!(ends.len(), cum_volume.len());
        Self { ends, cum_volume }
    }

    /// Number of indexed segments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total indexed volume (0 when empty).
    #[must_use]
    pub fn total_volume(&self) -> f64 {
        self.cum_volume.last().copied().unwrap_or(0.0)
    }

    /// Cumulative volume delivered strictly before segment `i`.
    #[must_use]
    pub fn volume_before(&self, i: usize) -> f64 {
        if i == 0 { 0.0 } else { self.cum_volume[i - 1] }
    }

    /// First segment index whose *inclusive* cumulative volume reaches
    /// `target` (binary search over the prefix sums); `len()` when the
    /// target is never reached. NaN prefixes never satisfy the predicate,
    /// matching a scan that skips unmeasurable values.
    #[must_use]
    pub fn first_reaching(&self, target: f64) -> usize {
        self.cum_volume.partition_point(|&p| !(p >= target))
    }

    /// Number of segments ending at or before `t` — equivalently, the
    /// index of the first segment whose interior could contain `t`.
    #[must_use]
    pub fn segments_ending_by(&self, t: f64) -> usize {
        self.ends.partition_point(|&e| e <= t)
    }

    /// Absolute time at which the cumulative volume reaches `v`, inverting
    /// within the crossing segment; `None` when `v` exceeds the total or
    /// the crossing segment cannot be inverted (idle).
    #[must_use]
    pub fn time_at_volume(&self, pl: PowerLaw, segments: &[Segment], v: f64) -> Option<f64> {
        if v <= 0.0 {
            return segments.first().map(|s| s.start);
        }
        let i = self.first_reaching(v);
        let seg = segments.get(i)?;
        seg.time_at_volume(pl, v - self.volume_before(i))
    }
}

/// Incremental builder used by the simulators.
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    law: PowerLaw,
    segments: Vec<Segment>,
}

impl ScheduleBuilder {
    /// New empty builder.
    #[must_use]
    pub fn new(law: PowerLaw) -> Self {
        Self { law, segments: Vec::new() }
    }

    /// Append a segment; it must start at or after the previous segment's
    /// end. Zero-duration segments are dropped.
    pub fn push(&mut self, seg: Segment) {
        if seg.duration() <= 0.0 {
            return;
        }
        debug_assert!(
            self.segments.last().is_none_or(|p| seg.start >= p.end - 1e-9),
            "segments pushed out of order"
        );
        self.segments.push(seg);
    }

    /// Finish and validate.
    pub fn build(self) -> SimResult<Schedule> {
        Schedule::new(self.law, self.segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numeric::approx_eq;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    #[test]
    fn rejects_overlap_and_reversed() {
        let law = pl(2.0);
        let a = Segment::new(0.0, 1.0, None, SpeedLaw::Idle);
        let b = Segment::new(0.5, 2.0, None, SpeedLaw::Idle);
        assert!(Schedule::new(law, vec![a, b]).is_err());
        let c = Segment::new(1.0, 1.0, None, SpeedLaw::Idle);
        assert!(Schedule::new(law, vec![c]).is_err());
        let d = Segment::new(0.0, 1.0, None, SpeedLaw::Idle).with_scale(0.0);
        assert!(Schedule::new(law, vec![d]).is_err());
    }

    #[test]
    fn gaps_read_as_idle() {
        let law = pl(2.0);
        let a = Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 2.0 });
        let b = Segment::new(3.0, 4.0, Some(1), SpeedLaw::Constant { speed: 1.0 });
        let s = Schedule::new(law, vec![a, b]).unwrap();
        assert_eq!(s.speed_at(0.5), 2.0);
        assert_eq!(s.speed_at(2.0), 0.0);
        assert_eq!(s.speed_at(3.5), 1.0);
        assert_eq!(s.speed_at(10.0), 0.0);
        assert!(approx_eq(s.energy(), 4.0 + 1.0, 1e-12));
        assert!(approx_eq(s.total_volume(), 3.0, 1e-12));
    }

    #[test]
    fn decay_segment_accounting() {
        let law = pl(3.0);
        let seg = Segment::new(1.0, 2.0, Some(0), SpeedLaw::Decay { w0: 8.0, rho: 1.0 });
        let s = Schedule::new(law, vec![seg]).unwrap();
        // Speed at start is 8^{1/3} = 2.
        assert!(approx_eq(s.speed_at(1.0), 2.0, 1e-12));
        assert!(s.speed_at(1.9) < 2.0);
        assert!(s.energy() > 0.0);
    }

    #[test]
    fn split_preserves_totals() {
        let law = pl(2.5);
        for seg_law in [
            SpeedLaw::Constant { speed: 1.7 },
            SpeedLaw::Decay { w0: 5.0, rho: 1.2 },
            SpeedLaw::Growth { u0: 0.6, rho: 0.8 },
        ] {
            let seg = Segment::new(0.5, 2.5, Some(3), seg_law).with_scale(1.3);
            let (l, r) = seg.split_at(law, 1.3);
            assert!(approx_eq(l.energy(law) + r.energy(law), seg.energy(law), 1e-10));
            assert!(approx_eq(l.volume(law) + r.volume(law), seg.volume(law), 1e-10));
            // Speed is continuous across the split point.
            assert!(approx_eq(l.speed_at(law, 1.3), r.speed_at(law, 1.3), 1e-10));
        }
    }

    #[test]
    fn time_at_volume_inverts_volume_to() {
        let law = pl(3.0);
        for seg_law in [
            SpeedLaw::Constant { speed: 2.0 },
            SpeedLaw::Decay { w0: 4.0, rho: 1.0 },
            SpeedLaw::Growth { u0: 0.0, rho: 1.0 },
        ] {
            let seg = Segment::new(2.0, 4.0, Some(0), seg_law).with_scale(1.5);
            let t = 3.1;
            let v = seg.volume_to(law, t);
            let back = seg.time_at_volume(law, v).unwrap();
            assert!(approx_eq(back, t, 1e-9), "{seg_law:?}");
        }
        let idle = Segment::new(0.0, 1.0, None, SpeedLaw::Idle);
        assert_eq!(idle.time_at_volume(law, 0.5), None);
        assert_eq!(idle.time_at_volume(law, 0.0), Some(0.0));
    }

    #[test]
    fn scaled_segment_quantities() {
        let law = pl(3.0);
        let base = Segment::new(0.0, 2.0, Some(0), SpeedLaw::Constant { speed: 1.0 });
        let scaled = base.with_scale(1.5);
        assert!(approx_eq(scaled.speed_at(law, 1.0), 1.5, 1e-12));
        // Energy scales by 1.5^3, volume by 1.5.
        assert!(approx_eq(scaled.energy(law), base.energy(law) * 1.5f64.powi(3), 1e-12));
        assert!(approx_eq(scaled.volume(law), base.volume(law) * 1.5, 1e-12));
        assert!(approx_eq(
            scaled.volume_integral_to(law, 2.0),
            base.volume_integral_to(law, 2.0) * 1.5,
            1e-12
        ));
        // Level sets shift by the scale.
        assert!(approx_eq(scaled.time_with_speed_at_least(law, 1.2), 2.0, 1e-12));
        assert_eq!(base.time_with_speed_at_least(law, 1.2), 0.0);
    }

    #[test]
    fn level_set_measure_sums_over_segments() {
        let law = pl(2.0);
        let a = Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 2.0 });
        let b = Segment::new(1.0, 3.0, Some(1), SpeedLaw::Constant { speed: 0.5 });
        let s = Schedule::new(law, vec![a, b]).unwrap();
        assert!(approx_eq(s.time_with_speed_at_least(1.0), 1.0, 1e-12));
        assert!(approx_eq(s.time_with_speed_at_least(0.4), 3.0, 1e-12));
        assert_eq!(s.time_with_speed_at_least(3.0), 0.0);
    }

    #[test]
    fn sampling_has_expected_shape() {
        let law = pl(2.0);
        let seg = Segment::new(0.0, 2.0, Some(0), SpeedLaw::Growth { u0: 0.0, rho: 1.0 });
        let s = Schedule::new(law, vec![seg]).unwrap();
        let pts = s.sample(10, 2.0);
        assert_eq!(pts.len(), 11);
        // Growth law: speed increases.
        assert!(pts.windows(2).all(|w| w[1].1 >= w[0].1));
        // power = speed^2 at each sample.
        for (_, sp, pw) in pts {
            assert!(approx_eq(pw, sp * sp, 1e-12));
        }
    }

    #[test]
    fn busy_idle_and_per_job_volumes() {
        let law = pl(2.0);
        let segs = vec![
            Segment::new(1.0, 2.0, Some(0), SpeedLaw::Constant { speed: 2.0 }),
            Segment::new(3.0, 4.0, Some(1), SpeedLaw::Constant { speed: 1.0 }),
            Segment::new(4.0, 5.0, None, SpeedLaw::Idle),
        ];
        let s = Schedule::new(law, segs).unwrap();
        assert!(approx_eq(s.busy_time(), 2.0, 1e-12));
        // Span [1, 5] minus 2 busy = 2 idle (1 gap + 1 explicit idle).
        assert!(approx_eq(s.idle_time(), 2.0, 1e-12));
        let v = s.volume_by_job(2);
        assert!(approx_eq(v[0], 2.0, 1e-12));
        assert!(approx_eq(v[1], 1.0, 1e-12));
    }

    #[test]
    fn builder_drops_empty_segments() {
        let law = pl(2.0);
        let mut b = ScheduleBuilder::new(law);
        b.push(Segment::new(0.0, 0.0, None, SpeedLaw::Idle));
        b.push(Segment::new(0.0, 1.0, Some(0), SpeedLaw::Constant { speed: 1.0 }));
        let s = b.build().unwrap();
        assert_eq!(s.segments().len(), 1);
    }
}
