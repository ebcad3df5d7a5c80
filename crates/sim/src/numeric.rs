//! Small numerical utilities shared across the workspace.
//!
//! Everything in the simulator is driven by closed forms, but root finding is
//! still needed in a few places (completion-crossing detection inside the
//! numerically-integrated non-uniform algorithm, horizon solving in the
//! offline optimum) and the tests lean heavily on tolerance helpers.

use crate::error::{SimError, SimResult};

/// Guard rail: pass `value` through unchanged when it is finite, otherwise
/// return [`SimError::Numeric`] naming the quantity.
///
/// This is the release-build replacement for the `debug_assert!`s that used
/// to protect kernel outputs: at extreme `α`/volume scales (1e±150 and
/// beyond) closed forms overflow to `inf` or collapse to NaN, and every
/// public run function funnels its outputs through this check so callers see
/// a structured error instead of a poisoned objective.
#[inline]
pub fn ensure_finite(what: &'static str, value: f64) -> SimResult<f64> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(SimError::Numeric { what, value })
    }
}

/// Like [`ensure_finite`] but additionally requires `value >= 0`.
///
/// Energies, flow-times, volumes, and elapsed durations are all
/// nonnegative-by-construction; a negative value signals catastrophic
/// cancellation upstream.
#[inline]
pub fn ensure_finite_nonneg(what: &'static str, value: f64) -> SimResult<f64> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(SimError::Numeric { what, value })
    }
}

/// Relative difference `|a - b| / max(|a|, |b|, 1)`.
///
/// The `1` floor makes the measure behave like an absolute difference near
/// zero, which is what the invariant tests want (energies and flow-times of
/// interest are O(1) or larger).
#[must_use]
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / (a.abs().max(b.abs())).max(1.0)
}

/// Tie slack for comparing times or weights at magnitude `x`: `1e-12`
/// absolute at or above 1, `1e-12` relative below it.
///
/// Rescaling an instance by an exact change of units then cannot flip a
/// comparison, while comparisons at magnitudes of 1 and above keep the
/// absolute slack they always had. The fleet dispatchers break ties with
/// it and [`crate::Schedule::new`] admits overlaps up to it.
///
/// ```
/// use ncss_sim::numeric::tie_slack;
/// assert_eq!(tie_slack(5.0), 1e-12);
/// assert_eq!(tie_slack(-5.0), 1e-12);
/// assert_eq!(tie_slack(1e-100), 1e-112);
/// ```
#[must_use]
pub fn tie_slack(x: f64) -> f64 {
    1e-12 * x.abs().min(1.0)
}

/// True when `a` and `b` agree to relative tolerance `rtol` (with the same
/// near-zero floor as [`rel_diff`]).
#[must_use]
pub fn approx_eq(a: f64, b: f64, rtol: f64) -> bool {
    rel_diff(a, b) <= rtol
}

/// Bisection root finder for a continuous function with a sign change on
/// `[lo, hi]`.
///
/// Returns the midpoint of the final bracket. Returns
/// [`SimError::Numeric`] when an endpoint evaluates to NaN and
/// [`SimError::NonConvergence`] when the initial bracket does not straddle a
/// root (both endpoints strictly the same sign). Call sites construct
/// brackets from monotonicity arguments, but under fault injection
/// (perturbed instances, extreme scales) those arguments can break in
/// floating point — a structured error keeps the failure diagnosable
/// without taking the process down.
pub fn bisect(mut f: impl FnMut(f64) -> f64, mut lo: f64, mut hi: f64, tol: f64) -> SimResult<f64> {
    let flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo.is_nan() {
        return Err(SimError::Numeric { what: "bisect: f(lo)", value: flo });
    }
    if fhi.is_nan() {
        return Err(SimError::Numeric { what: "bisect: f(hi)", value: fhi });
    }
    if flo.signum() == fhi.signum() {
        return Err(SimError::NonConvergence { what: "bisect: no sign change on bracket" });
    }
    // 200 iterations halve the bracket far past f64 resolution for any sane
    // initial bracket; the tol check below usually exits much earlier.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if hi - lo <= tol {
            return Ok(mid);
        }
        let fmid = f(mid);
        if fmid == 0.0 {
            return Ok(mid);
        }
        if fmid.is_nan() {
            return Err(SimError::Numeric { what: "bisect: f(mid)", value: fmid });
        }
        if fmid.signum() == flo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Monotone-increasing root finder: find `x >= lo` with `f(x) = target`,
/// where `f` is nondecreasing and unbounded. Expands the bracket
/// geometrically from `hint`, then bisects.
///
/// Returns [`SimError::NonConvergence`] if 200 doublings fail to bracket
/// `target` (e.g. `f` saturates at `inf` below the target after overflow)
/// and propagates [`SimError::Numeric`] from the bisection stage.
pub fn solve_increasing(
    mut f: impl FnMut(f64) -> f64,
    target: f64,
    lo: f64,
    hint: f64,
    tol: f64,
) -> SimResult<f64> {
    debug_assert!(hint > lo);
    let mut hi = hint;
    let mut guard = 0;
    while f(hi) < target {
        hi = lo + (hi - lo) * 2.0;
        guard += 1;
        if guard >= 200 {
            return Err(SimError::NonConvergence { what: "solve_increasing: bracket expansion" });
        }
    }
    bisect(|x| f(x) - target, lo, hi, tol)
}

/// Kahan compensated summation, used where many small accruals are summed
/// over long horizons (objective accumulation in the step-based integrator).
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    sum: f64,
    carry: f64,
}

impl KahanSum {
    /// A fresh zero accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term.
    pub fn add(&mut self, x: f64) {
        let y = x - self.carry;
        let t = self.sum + y;
        self.carry = (t - self.sum) - y;
        self.sum = t;
    }

    /// Current total.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_diff_basics() {
        assert_eq!(rel_diff(1.0, 1.0), 0.0);
        assert!(rel_diff(100.0, 101.0) < 0.011);
        // Near-zero floor: behaves like absolute difference.
        assert!(rel_diff(1e-12, 0.0) < 1e-11);
    }

    #[test]
    fn approx_eq_tolerances() {
        assert!(approx_eq(1.0, 1.0 + 1e-10, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-3));
    }

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_exact_endpoint() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap(), 1.0);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        let err = bisect(|x| x + 10.0, 0.0, 1.0, 1e-9).unwrap_err();
        assert!(matches!(err, SimError::NonConvergence { .. }), "{err}");
    }

    #[test]
    fn bisect_reports_nan_endpoint() {
        let err = bisect(|x| (x - 0.5).sqrt(), -1.0, 1.0, 1e-9).unwrap_err();
        assert!(matches!(err, SimError::Numeric { .. }), "{err}");
    }

    #[test]
    fn solve_increasing_expands_bracket() {
        // f(x) = x^3 on [0, inf); target far beyond the hint.
        let r = solve_increasing(|x| x * x * x, 1000.0, 0.0, 0.5, 1e-10).unwrap();
        assert!((r - 10.0).abs() < 1e-7);
    }

    #[test]
    fn solve_increasing_reports_saturated_bracket() {
        // f saturates below the target: expansion can never bracket it.
        let err = solve_increasing(|x| x.min(1.0), 2.0, 0.0, 0.5, 1e-10).unwrap_err();
        assert!(matches!(err, SimError::NonConvergence { .. }), "{err}");
    }

    #[test]
    fn ensure_finite_guards() {
        assert_eq!(ensure_finite("x", 2.5).unwrap(), 2.5);
        assert!(ensure_finite("x", f64::INFINITY).is_err());
        assert!(ensure_finite("x", f64::NAN).is_err());
        assert_eq!(ensure_finite_nonneg("x", 0.0).unwrap(), 0.0);
        assert!(ensure_finite_nonneg("x", -1.0).is_err());
        assert!(ensure_finite_nonneg("x", f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn kahan_beats_naive_on_small_terms() {
        let mut k = KahanSum::new();
        k.add(1.0);
        for _ in 0..10_000_000 {
            k.add(1e-16);
        }
        // Naive summation would stay at exactly 1.0.
        assert!((k.value() - (1.0 + 1e-9)).abs() < 1e-12);
    }
}
