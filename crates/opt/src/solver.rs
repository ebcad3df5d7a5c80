//! Exact offline optimum for the fractional objective on one machine,
//! solved through its Lagrangian dual.
//!
//! **The dual.** Give job `j` a multiplier `λ_j` and the line
//! `ℓ_j(t) = λ_j − ρ_j (t − r_j)` for `t ≥ r_j`, and let
//! `m(t) = max(0, max_{j: r_j ≤ t} ℓ_j(t))`. Weak duality against the
//! continuous-time problem gives, for *every* `λ`,
//!
//! ```text
//! OPT ≥ D(λ) = Σ_j λ_j V_j − ∫ P*(m(t)) dt,
//! ```
//!
//! where `P*` is the convex conjugate of the power function. `m` is
//! piecewise linear (an upper envelope of lines, jumping up at releases), and
//! `∫ P*((a − ρt)) dt` has a closed form, so one sweep over the releases
//! evaluates `D` exactly. The gradient is `V − Vol(λ)`, where `Vol_j` is the
//! volume `∫ s*(m)` over the windows in which `ℓ_j` is the envelope
//! (`s* = P*'` is the speed with marginal power `m`). The Hessian is `−J`:
//! a positive diagonal `∫ s*'(ℓ_j)` over each window plus a weighted
//! Laplacian with weight `s*(m(t_x)) / |ρ_j − ρ_k|` at each envelope
//! crossing `t_x` of `ℓ_j` and `ℓ_k`.
//!
//! **Ties.** Jobs of equal density have parallel lines, so `D` has kinks
//! there. Each density class is cut into consecutive FIFO *blocks* that
//! share one line; a block is live from its first release until the next
//! block of its class starts. Against a fixed background of the other
//! classes, a class's blocks have an exact pool-adjacent-violators (PAV)
//! solution with one monotone 1-D root per block.
//!
//! **Driver.** PAV sweeps over the classes run until the multipliers move by
//! less than 1% relative. Then Levenberg–Marquardt-damped Newton steps on
//! all block lines, with the partition fixed, accept a step when `D` rises —
//! or, once the worst relative volume residual is below `1e-6`, when that
//! residual falls (rounding in `D` stalls an ascent test near `1e-9`). A
//! block the envelope has buried has a zero row in `J`; before each step it
//! is lifted by its exact 1-D root against all other lines. A stalled solve,
//! or a partition whose blocks are not FIFO-feasible at every release or
//! whose lines are not non-decreasing within a class, gets another PAV
//! sweep and another Newton solve.
//!
//! **Primal.** Each envelope window becomes one exact [`SpeedLaw::Decay`]
//! segment (the Euler–Lagrange curve, as in
//! [`crate::SingleJobOpt::to_schedule`]). Each block's segments are scaled
//! by `V_b / Vol_b`, so every job gets exactly its volume, and split across
//! the block's jobs in FIFO order. The primal cost is [`evaluate`] of that
//! schedule against the instance. The certificate always uses the true
//! per-job lines, so the bracket is valid whether or not the solve
//! converged; whatever a stopped solve leaves a job short runs after the
//! horizon.
//!
//! **Scale.** The solve runs in units where the geometric means of the
//! volumes and the densities are 1 (time, volume and density rescale the
//! objective by one common factor), and densities equal within a few ulps
//! share a class for the solve only.

use crate::closed_form::single_job_opt;
use ncss_sim::kernel::DecayKernel;
use ncss_sim::{evaluate, Evaluated, Instance, PowerLaw, Schedule, Segment, SimError, SimResult, SpeedLaw};

/// Solver knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Cap on PAV sweeps plus Newton steps.
    pub max_iters: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self { max_iters: 1000 }
    }
}

/// Result of the fractional-OPT solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FracOpt {
    /// Cost of the feasible primal schedule found (upper bound on OPT).
    pub primal_cost: f64,
    /// Certified lower bound on the continuous-time OPT.
    pub dual_bound: f64,
    /// PAV sweeps plus Newton steps performed.
    pub iterations: usize,
    /// The last instant at which the dual envelope `m` is positive (the
    /// primal schedule's end).
    pub horizon: f64,
    /// Worst relative volume residual `max_j |Vol_j − V_j| / V_j` of the
    /// final multipliers, before the primal rescales each block.
    pub kkt_residual: f64,
}

impl FracOpt {
    /// Relative primal–dual gap.
    #[must_use]
    pub fn gap(&self) -> f64 {
        if self.primal_cost <= 0.0 {
            0.0
        } else {
            (self.primal_cost - self.dual_bound) / self.primal_cost
        }
    }
}

/// The primal side of a solve: the bracket, the schedule that attains its
/// upper bound, and that schedule's evaluation against the instance.
#[derive(Debug, Clone)]
pub struct OptSchedule {
    /// The certified bracket.
    pub bracket: FracOpt,
    /// The primal schedule: one exact decay segment per envelope window.
    pub schedule: Schedule,
    /// [`evaluate`] of `schedule`; its fractional objective is
    /// `bracket.primal_cost`.
    pub evaluated: Evaluated,
}

/// Solve the fractional-objective offline optimum on `instance`.
///
/// # Examples
///
/// ```
/// use ncss_opt::{solve_fractional_opt, single_job_opt, SolverOptions};
/// use ncss_sim::{Instance, Job, PowerLaw};
///
/// let law = PowerLaw::new(2.0).unwrap();
/// let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
/// let sol = solve_fractional_opt(&inst, law, SolverOptions::default()).unwrap();
/// let exact = single_job_opt(law, 1.0, 1.0).unwrap().cost();
/// // The certified bracket closes on the closed-form optimum.
/// assert!(sol.dual_bound <= exact * (1.0 + 1e-12));
/// assert!(sol.primal_cost >= exact * (1.0 - 1e-12));
/// assert!(sol.gap().abs() < 1e-9);
/// ```
pub fn solve_fractional_opt(instance: &Instance, law: PowerLaw, opts: SolverOptions) -> SimResult<FracOpt> {
    fractional_opt_schedule(instance, law, opts).map(|s| s.bracket)
}

/// [`solve_fractional_opt`], keeping the primal schedule and its
/// evaluation.
pub fn fractional_opt_schedule(instance: &Instance, law: PowerLaw, opts: SolverOptions) -> SimResult<OptSchedule> {
    if opts.max_iters == 0 {
        return Err(SimError::InvalidInstance { reason: "bad solver options" });
    }
    if instance.is_empty() {
        let schedule = Schedule::new(law, Vec::new())?;
        let evaluated = evaluate(&schedule, instance)?;
        let bracket = FracOpt { primal_cost: 0.0, dual_bound: 0.0, iterations: 0, horizon: 0.0, kkt_residual: 0.0 };
        return Ok(OptSchedule { bracket, schedule, evaluated });
    }
    let mut pb = Problem::new(instance, law)?;
    let cap = opts.max_iters;
    let mut iters = 0;
    loop {
        let moved = pb.pav_sweep()?;
        iters += 1;
        if moved <= PAV_MOVE || iters >= cap {
            break;
        }
    }
    // Newton with the partition fixed; a stalled solve or a partition that
    // fails its checks gets another PAV sweep first.
    loop {
        let converged = pb.newton(&mut iters, cap);
        if iters >= cap || (converged && pb.partition_ok()) {
            break;
        }
        pb.pav_sweep()?;
        iters += 1;
    }
    pb.finish(instance, iters)
}

/// PAV sweeps hand over to Newton once no multiplier moves by more than
/// this, relative.
const PAV_MOVE: f64 = 1e-2;
/// Newton stops once every block's volume is this close, relative.
const NEWTON_TOL: f64 = 1e-13;
/// A Newton solve that stops above this residual is retried after a PAV
/// sweep.
const CONVERGED: f64 = 1e-9;
/// Below this worst relative residual, Newton accepts steps that shrink the
/// residual instead of steps that raise `D`.
const RESIDUAL_PHASE: f64 = 1e-6;
/// A step that shrinks the residual is taken while `D` falls by no more than
/// this, relative: `D` is only known to its rounding.
const DUAL_NOISE: f64 = 1e-12;
/// Densities within this many ulps of a class's first share its line.
const DENSITY_ULPS: f64 = 32.0;
/// A job's last service below this share of its volume is moved into its
/// earlier windows (see [`settle_volumes`]).
const SLIVER: f64 = 1e-6;
/// Power share at which a draining segment stops (see [`decay_segment`]).
const DRAIN_TAIL: f64 = 1e-9;
/// The most a block's or a job's service is sped up to meet its volume.
const MAX_SCALE: f64 = 2.0;
/// Slack of the partition checks, relative.
const PARTITION_TOL: f64 = 1e-12;

/// The conjugate integrals of `P(s) = s^α` over one envelope window.
#[derive(Debug, Clone, Copy)]
struct Conj {
    law: PowerLaw,
    alpha: f64,
    /// `1/(α−1)`: `s*(y) = (y/α)^p`.
    p: f64,
    /// `α/(α−1)`: the exponent of `P*`.
    q: f64,
    /// `(2α−1)/(α−1)`: the exponent of `∫ P*`.
    e: f64,
}

impl Conj {
    fn new(law: PowerLaw) -> Self {
        let a = law.alpha();
        Self { law, alpha: a, p: 1.0 / (a - 1.0), q: a / (a - 1.0), e: (2.0 * a - 1.0) / (a - 1.0) }
    }

    /// `s*(y)`, the speed whose marginal power is `y`.
    fn speed(&self, y: f64) -> f64 {
        if y > 0.0 {
            self.law.root_alpha_m1(y / self.alpha)
        } else {
            0.0
        }
    }

    /// Over a window of length `dt` on a line falling from `y0` with slope
    /// `−rho`: `(∫ P*(y), ∫ s*(y), ∫ s*'(y))`.
    ///
    /// Each is `f(y0)·(1 − (1 − x)^k)` over `rho` with `x = rho·dt/y0`,
    /// phrased through `(1 − (1 − x)^k)/x` with `exp_m1`/`ln_1p`, so short
    /// windows and tiny slopes lose no digits.
    fn window(&self, y0: f64, rho: f64, dt: f64) -> (f64, f64, f64) {
        if !(y0 > 0.0 && dt > 0.0) {
            return (0.0, 0.0, 0.0);
        }
        let x = (rho * dt / y0).clamp(0.0, 1.0);
        let h = |k: f64| if x == 0.0 { k } else { -(k * (-x).ln_1p()).exp_m1() / x };
        let s0 = self.speed(y0);
        let conj = self.law.conjugate(y0) * dt * h(self.e) / self.e;
        let vol = s0 * dt * h(self.q) / self.q;
        let curv = s0 / y0 * dt * h(self.p);
        (conj, vol, curv)
    }

    /// Line value at which one job of volume `v` and density `rho` alone
    /// exactly fills its line's window.
    fn single_level(&self, v: f64, rho: f64) -> f64 {
        let horizon = (v * self.q * (self.alpha / rho).powf(self.p)).powf(1.0 / self.q);
        rho * horizon
    }
}

/// One envelope line: value `y0` at `start`, slope `−rho`.
#[derive(Debug, Clone, Copy)]
struct Line {
    y0: f64,
    rho: f64,
    start: f64,
}

impl Line {
    fn at(&self, t: f64) -> f64 {
        self.y0 - self.rho * (t - self.start)
    }
}

/// At `time`, line `add` becomes live and line `drop` (the previous block
/// of the same class), if any, stops.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    add: usize,
    drop: Option<usize>,
}

/// How an envelope window ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum End {
    /// Another line crosses over and takes the envelope.
    Cross(usize),
    /// The line reaches zero; the machine idles until the next release.
    Zero,
    /// A release (or a block change) at a fixed time.
    Event,
}

/// One envelope window: `line` is the envelope over `[t0, t1)`, starting at
/// value `y0`.
#[derive(Debug, Clone, Copy)]
struct Piece {
    line: usize,
    t0: f64,
    t1: f64,
    y0: f64,
    end: End,
}

/// The upper envelope of the live lines and zero, window by window in time
/// order. Idle stretches yield no window.
struct Sweep<'a> {
    lines: &'a [Line],
    events: &'a [Event],
    next: usize,
    t: f64,
    cur: Option<usize>,
    live: Vec<usize>,
}

impl<'a> Sweep<'a> {
    /// The envelope from its first event on.
    fn new(lines: &'a [Line], events: &'a [Event]) -> Self {
        Self::from(lines, events, events.first().map_or(0.0, |e| e.time))
    }

    /// The envelope from time `t` on, with every event up to `t` applied.
    fn from(lines: &'a [Line], events: &'a [Event], t: f64) -> Self {
        let mut s = Self { lines, events, next: 0, t, cur: None, live: Vec::new() };
        s.apply_events();
        s
    }

    /// Apply the events due by `self.t`, drop lines that are no longer
    /// positive (they only fall), and pick the envelope line: the highest,
    /// the shallowest on a tie.
    fn apply_events(&mut self) {
        while let Some(e) = self.events.get(self.next).filter(|e| e.time <= self.t) {
            if let Some(d) = e.drop {
                if let Some(i) = self.live.iter().position(|&k| k == d) {
                    self.live.swap_remove(i);
                }
            }
            self.live.push(e.add);
            self.next += 1;
        }
        let (t, lines) = (self.t, self.lines);
        self.live.retain(|&k| lines[k].at(t) > 0.0);
        self.cur = None;
        let (mut best, mut best_rho) = (0.0, f64::INFINITY);
        for &k in &self.live {
            let y = lines[k].at(t);
            if y > best || (y == best && lines[k].rho < best_rho) {
                (best, best_rho) = (y, lines[k].rho);
                self.cur = Some(k);
            }
        }
    }
}

impl Iterator for Sweep<'_> {
    type Item = Piece;

    fn next(&mut self) -> Option<Piece> {
        loop {
            let t_ev = self.events.get(self.next).map_or(f64::INFINITY, |e| e.time);
            let Some(c) = self.cur else {
                if t_ev == f64::INFINITY {
                    return None;
                }
                self.t = t_ev;
                self.apply_events();
                continue;
            };
            let lc = self.lines[c];
            let t0 = self.t;
            let y0 = lc.at(t0);
            // The envelope line changes at its zero, at the first crossing
            // by a shallower line, or at the next event. Each crossing moves
            // to a strictly shallower line, so the sweep terminates.
            let (mut t1, mut end, mut rho_next) = (t0 + y0 / lc.rho, End::Zero, f64::INFINITY);
            for &k in &self.live {
                let lk = self.lines[k];
                if lk.rho < lc.rho {
                    let tx = t0 + (y0 - lk.at(t0)).max(0.0) / (lc.rho - lk.rho);
                    if tx < t1 || (tx == t1 && lk.rho < rho_next) {
                        (t1, end, rho_next) = (tx, End::Cross(k), lk.rho);
                    }
                }
            }
            if t_ev <= t1 {
                (t1, end) = (t_ev, End::Event);
            }
            self.t = t1;
            match end {
                End::Cross(k) => self.cur = Some(k),
                End::Zero => {
                    self.cur = None;
                    self.live.clear();
                }
                End::Event => self.apply_events(),
            }
            return Some(Piece { line: c, t0, t1, y0, end });
        }
    }
}

/// A background envelope read lazily, for one class's PAV solve.
struct Background<'a> {
    sweep: Sweep<'a>,
    pieces: Vec<Piece>,
    done: bool,
}

impl Background<'_> {
    /// Extend the cached windows past `t` (or to the envelope's end).
    fn cover(&mut self, t: f64) {
        while !self.done && self.pieces.last().is_none_or(|p| p.t1 < t) {
            match self.sweep.next() {
                Some(p) => self.pieces.push(p),
                None => self.done = true,
            }
        }
    }

    /// Volume and its derivative in `u` of a line `(u, rho)` live over
    /// `[s, e)` where it lies above this background and zero.
    fn volume(&mut self, conj: &Conj, u: f64, rho: f64, s: f64, e: f64) -> (f64, f64) {
        if !(u > 0.0) {
            return (0.0, 0.0);
        }
        let t_hi = e.min(s + u / rho);
        self.cover(t_hi);
        let at = |x: f64| u - rho * (x - s);
        let (mut vol, mut dvol) = (0.0, 0.0);
        let alone = |x0: f64, x1: f64, vol: &mut f64, dvol: &mut f64| {
            if x1 > x0 {
                let (_, v, c) = conj.window(at(x0), rho, x1 - x0);
                *vol += v;
                *dvol += c;
            }
        };
        let lines = self.sweep.lines;
        let first = self.pieces.partition_point(|p| p.t1 <= s);
        let mut t = s;
        for p in &self.pieces[first..] {
            if p.t0 >= t_hi {
                break;
            }
            if p.t0 > t {
                alone(t, p.t0, &mut vol, &mut dvol);
            }
            let (x0, x1) = (t.max(p.t0), p.t1.min(t_hi));
            if x1 > x0 {
                let rho_k = lines[p.line].rho;
                let d0 = at(x0) - (p.y0 - rho_k * (x0 - p.t0));
                // `u`'s line minus the background, rising at `slope`.
                let slope = rho_k - rho;
                let (a, b, cross) = if d0 >= 0.0 {
                    let xc = if slope < 0.0 { x0 + d0 / -slope } else { f64::INFINITY };
                    if xc < x1 {
                        (x0, xc, Some(xc))
                    } else {
                        (x0, x1, None)
                    }
                } else if slope > 0.0 && x0 + -d0 / slope < x1 {
                    let xc = x0 + -d0 / slope;
                    (xc, x1, Some(xc))
                } else {
                    (x1, x1, None)
                };
                alone(a, b, &mut vol, &mut dvol);
                if let Some(xc) = cross {
                    dvol += conj.speed(at(xc)) / slope.abs();
                }
            }
            t = t.max(p.t1);
            if t >= t_hi {
                break;
            }
        }
        if t < t_hi {
            alone(t, t_hi, &mut vol, &mut dvol);
        }
        (vol, dvol)
    }
}

/// A run of a class's jobs (positions `lo..hi` in release order) sharing
/// one line, whose value at the block's first release is `u`.
#[derive(Debug, Clone, Copy)]
struct Block {
    lo: usize,
    hi: usize,
    u: f64,
}

/// Jobs whose densities agree within [`DENSITY_ULPS`].
#[derive(Debug, Clone)]
struct Class {
    rho: f64,
    /// Job indices in release order.
    jobs: Vec<usize>,
    blocks: Vec<Block>,
}

/// The flattened blocks of every class (but a skipped one), in order of
/// their first release.
struct Layout {
    lines: Vec<Line>,
    events: Vec<Event>,
    /// `(class, block)` of each line.
    owner: Vec<(usize, usize)>,
}

/// The block envelope at one set of block lines.
struct Eval {
    dual: f64,
    vol: Vec<f64>,
    curv: Vec<f64>,
    /// `(line, line, weight)` per envelope crossing.
    edges: Vec<(usize, usize, f64)>,
    pieces: Vec<Piece>,
    /// Worst relative block-volume residual.
    residual: f64,
}

/// The instance in solver units, with its classes and block lines.
struct Problem {
    conj: Conj,
    law: PowerLaw,
    /// Releases, volumes and true densities in solver units.
    t: Vec<f64>,
    v: Vec<f64>,
    rho: Vec<f64>,
    class_of: Vec<usize>,
    classes: Vec<Class>,
    /// Time, volume and cost-per-volume units: `t = r0 + T·t'`,
    /// `V = U·V'`, `λ = Λ·λ'`.
    r0: f64,
    unit_t: f64,
    unit_v: f64,
    unit_lambda: f64,
}

impl Problem {
    fn new(instance: &Instance, law: PowerLaw) -> SimResult<Self> {
        let jobs = instance.jobs();
        let n = jobs.len() as f64;
        let alpha = law.alpha();
        let lv = jobs.iter().map(|j| j.volume.ln()).sum::<f64>() / n;
        let lr = jobs.iter().map(|j| j.density.ln()).sum::<f64>() / n;
        let ln_t = ((alpha - 1.0) * lv - lr) / alpha;
        let ln_rho = alpha * ln_t - (alpha - 1.0) * lv;
        let ln_lambda = (alpha - 1.0) * (lv - ln_t);
        let (unit_t, unit_v, unit_lambda) = (ln_t.exp(), lv.exp(), ln_lambda.exp());
        for (what, value) in [
            ("solve_fractional_opt: time unit", unit_t),
            ("solve_fractional_opt: volume unit", unit_v),
            ("solve_fractional_opt: multiplier unit", unit_lambda),
            ("solve_fractional_opt: cost unit", unit_lambda * unit_v),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(SimError::Numeric { what, value });
            }
        }
        let r0 = jobs[0].release;
        let t: Vec<f64> = jobs.iter().map(|j| (j.release - r0) / unit_t).collect();
        let v: Vec<f64> = jobs.iter().map(|j| (j.volume.ln() - lv).exp()).collect();
        let rho: Vec<f64> = jobs.iter().map(|j| (j.density.ln() + ln_rho).exp()).collect();
        let bad = t.iter().find(|x| !x.is_finite());
        if let Some(&value) = bad.or_else(|| v.iter().chain(&rho).find(|x| !(x.is_finite() && **x > 0.0))) {
            return Err(SimError::Numeric { what: "solve_fractional_opt: scaled job", value });
        }
        // Classes: densities sorted descending, each within a few ulps of
        // its class's first.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| rho[b].total_cmp(&rho[a]).then(a.cmp(&b)));
        let mut classes: Vec<Class> = Vec::new();
        let mut class_of = vec![0; jobs.len()];
        for &j in &order {
            match classes.last_mut() {
                Some(c) if c.rho - rho[j] <= DENSITY_ULPS * f64::EPSILON * c.rho => c.jobs.push(j),
                _ => classes.push(Class { rho: rho[j], jobs: vec![j], blocks: Vec::new() }),
            }
            class_of[j] = classes.len() - 1;
        }
        let conj = Conj::new(law);
        for c in &mut classes {
            c.jobs.sort_unstable();
            c.blocks = c
                .jobs
                .iter()
                .enumerate()
                .map(|(i, &j)| Block { lo: i, hi: i + 1, u: conj.single_level(v[j], c.rho) })
                .collect();
        }
        Ok(Self { conj, law, t, v, rho, class_of, classes, r0, unit_t, unit_v, unit_lambda })
    }

    /// First release of a block.
    fn start(&self, c: usize, b: &Block) -> f64 {
        self.t[self.classes[c].jobs[b.lo]]
    }

    /// The multiplier of every job: its block line at its release.
    fn lambdas(&self) -> Vec<f64> {
        let mut lam = vec![0.0; self.t.len()];
        for (c, class) in self.classes.iter().enumerate() {
            for b in &class.blocks {
                let s = self.start(c, b);
                for &j in &class.jobs[b.lo..b.hi] {
                    lam[j] = b.u - class.rho * (self.t[j] - s);
                }
            }
        }
        lam
    }

    /// Every block but those of class `skip` as envelope lines, with one
    /// event per block start.
    fn layout(&self, skip: Option<usize>) -> Layout {
        let mut lay = Layout { lines: Vec::new(), events: Vec::new(), owner: Vec::new() };
        // Per class: next block to start, and the line of the live one.
        let mut next = vec![0usize; self.classes.len()];
        let mut live: Vec<Option<usize>> = vec![None; self.classes.len()];
        let mut pos = vec![0usize; self.classes.len()];
        for (j, &c) in self.class_of.iter().enumerate() {
            let i = pos[c];
            pos[c] += 1;
            if Some(c) == skip {
                continue;
            }
            let class = &self.classes[c];
            let Some(b) = class.blocks.get(next[c]).filter(|b| b.lo == i) else { continue };
            debug_assert_eq!(class.jobs[i], j);
            let id = lay.lines.len();
            lay.lines.push(Line { y0: b.u, rho: class.rho, start: self.t[j] });
            lay.owner.push((c, next[c]));
            lay.events.push(Event { time: self.t[j], add: id, drop: live[c] });
            live[c] = Some(id);
            next[c] += 1;
        }
        lay
    }

    /// The block envelope at block lines `u` (indexed like `lay.lines`).
    fn eval(&self, lay: &Layout, u: &[f64]) -> Eval {
        let lines: Vec<Line> = lay.lines.iter().zip(u).map(|(l, &y0)| Line { y0, ..*l }).collect();
        let nb = lines.len();
        let mut ev = Eval {
            dual: 0.0,
            vol: vec![0.0; nb],
            curv: vec![0.0; nb],
            edges: Vec::new(),
            pieces: Sweep::new(&lines, &lay.events).collect(),
            residual: 0.0,
        };
        let mut conj_sum = 0.0;
        for p in &ev.pieces {
            let l = lines[p.line];
            let (conj, vol, curv) = self.conj.window(p.y0, l.rho, p.t1 - p.t0);
            conj_sum += conj;
            ev.vol[p.line] += vol;
            ev.curv[p.line] += curv;
            if let End::Cross(k) = p.end {
                let y = p.y0 - l.rho * (p.t1 - p.t0);
                let w = self.conj.speed(y) / (l.rho - lines[k].rho);
                if w > 0.0 {
                    ev.edges.push((p.line, k, w));
                }
            }
        }
        let mut dual = 0.0;
        for (id, &(c, b)) in lay.owner.iter().enumerate() {
            let class = &self.classes[c];
            let blk = &class.blocks[b];
            let s = lines[id].start;
            let mut vb = 0.0;
            for &j in &class.jobs[blk.lo..blk.hi] {
                dual += (u[id] - class.rho * (self.t[j] - s)) * self.v[j];
                vb += self.v[j];
            }
            ev.residual = ev.residual.max((ev.vol[id] - vb).abs() / vb);
        }
        ev.dual = dual - conj_sum;
        if !ev.residual.is_finite() || !ev.dual.is_finite() {
            ev.residual = f64::INFINITY;
            ev.dual = f64::NEG_INFINITY;
        }
        ev
    }

    /// Block volumes `V_b`, indexed like `lay.lines`.
    fn block_volumes(&self, lay: &Layout) -> Vec<f64> {
        lay.owner
            .iter()
            .map(|&(c, b)| {
                let class = &self.classes[c];
                let blk = &class.blocks[b];
                class.jobs[blk.lo..blk.hi].iter().map(|&j| self.v[j]).sum()
            })
            .collect()
    }

    /// One Gauss–Seidel round of exact class solves, densest class first.
    /// Returns the largest relative move of any multiplier.
    fn pav_sweep(&mut self) -> SimResult<f64> {
        let before = self.lambdas();
        for c in 0..self.classes.len() {
            self.solve_class(c, &before)?;
        }
        let after = self.lambdas();
        Ok(before.iter().zip(&after).map(|(&b, &a)| (a - b).abs() / a.abs().max(f64::MIN_POSITIVE)).fold(0.0, f64::max))
    }

    /// Re-solve every block with no volume for its own line against all the
    /// other lines, in place. Each is an exact coordinate ascent step on
    /// `D`. Returns whether any line moved.
    fn lift_buried(&self, lay: &Layout, target: &[f64], end: &[f64], u: &mut [f64], vol: &[f64]) -> bool {
        let mut moved = false;
        for b in 0..u.len() {
            if vol[b] > 0.0 {
                continue;
            }
            // The other lines: this block's line pushed below zero.
            let lines: Vec<Line> = lay
                .lines
                .iter()
                .zip(u.iter())
                .enumerate()
                .map(|(k, (l, &y0))| Line { y0: if k == b { -1.0 } else { y0 }, ..*l })
                .collect();
            let l = lay.lines[b];
            let mut bg = Background { sweep: Sweep::from(&lines, &lay.events, l.start), pieces: Vec::new(), done: false };
            let guess = if u[b] > 0.0 { u[b] } else { self.conj.single_level(target[b], l.rho) };
            if let Ok(x) = solve_level(|x| bg.volume(&self.conj, x, l.rho, l.start, end[b]), target[b], guess) {
                if x.is_finite() && x != u[b] {
                    u[b] = x;
                    moved = true;
                }
            }
        }
        moved
    }

    /// Pool adjacent violators for class `c` against the other classes'
    /// current lines. `guess` holds each job's previous multiplier.
    fn solve_class(&mut self, c: usize, guess: &[f64]) -> SimResult<()> {
        let lay = self.layout(Some(c));
        let class = &self.classes[c];
        let (rho, jobs) = (class.rho, &class.jobs);
        let mut bg = Background { sweep: Sweep::from(&lay.lines, &lay.events, self.t[jobs[0]]), pieces: Vec::new(), done: false };
        let live_end = |hi: usize| jobs.get(hi).map_or(f64::INFINITY, |&j| self.t[j]);
        let level = |lo: usize, hi: usize, bg: &mut Background| -> SimResult<f64> {
            let (s, e) = (self.t[jobs[lo]], live_end(hi));
            if !(e > s) {
                return Ok(f64::INFINITY);
            }
            let volume: f64 = jobs[lo..hi].iter().map(|&j| self.v[j]).sum();
            let g = guess[jobs[lo]];
            let g = if g > 0.0 && g.is_finite() { g } else { self.conj.single_level(volume, rho) };
            solve_level(|u| bg.volume(&self.conj, u, rho, s, e), volume, g)
        };
        let mut pools: Vec<Block> = Vec::with_capacity(jobs.len());
        for i in 0..jobs.len() {
            pools.push(Block { lo: i, hi: i + 1, u: level(i, i + 1, &mut bg)? });
            while let [.., p, q] = pools[..] {
                let p_at_q = p.u - rho * (self.t[jobs[q.lo]] - self.t[jobs[p.lo]]);
                if p.u.is_finite() && !(p_at_q > q.u) {
                    break;
                }
                pools.truncate(pools.len() - 2);
                pools.push(Block { lo: p.lo, hi: q.hi, u: level(p.lo, q.hi, &mut bg)? });
            }
        }
        self.classes[c].blocks = pools;
        Ok(())
    }

    /// Damped Newton on every block line with the partition fixed. Returns
    /// whether the block volumes converged.
    fn newton(&mut self, iters: &mut usize, cap: usize) -> bool {
        let lay = self.layout(None);
        let nb = lay.lines.len();
        let target = self.block_volumes(&lay);
        let mut u: Vec<f64> = lay.lines.iter().map(|l| l.y0).collect();
        let mut cur = self.eval(&lay, &u);
        // Order the unknowns by the end of each block's last window, so that
        // a crossing couples nearby rows and the factor stays narrow.
        let mut last_end: Vec<f64> = lay.lines.iter().map(|l| l.start).collect();
        for p in &cur.pieces {
            last_end[p.line] = last_end[p.line].max(p.t1);
        }
        let mut perm: Vec<usize> = (0..nb).collect();
        perm.sort_by(|&a, &b| last_end[a].total_cmp(&last_end[b]).then(a.cmp(&b)));
        let mut row = vec![0usize; nb];
        for (i, &b) in perm.iter().enumerate() {
            row[b] = i;
        }
        // A block's line stops at the next block of its class.
        let mut end = vec![f64::INFINITY; nb];
        for e in &lay.events {
            if let Some(d) = e.drop {
                end[d] = e.time;
            }
        }
        let mut mu = 1e-3;
        let mut rejected = 0;
        let mut chol = Profile::new(nb);
        while *iters < cap && cur.residual > NEWTON_TOL {
            // A block the envelope has buried gets no Newton step worth the
            // name (its row of `J` is zero), so it is lifted exactly first:
            // its own volume root against every other line.
            if self.lift_buried(&lay, &target, &end, &mut u, &cur.vol) {
                cur = self.eval(&lay, &u);
            }
            chol.clear();
            // Marquardt damping on each diagonal entry of `J`. A block with
            // no window (or a sliver of one) has a (near-)zero row; it is
            // damped on the scale of its line's curvature if it ran alone.
            let mut diag = cur.curv.clone();
            for &(a, b, w) in &cur.edges {
                diag[a] += w;
                diag[b] += w;
            }
            let floor = 1e-12 * diag.iter().fold(0.0, |m: f64, &x| m.max(x)).max(f64::MIN_POSITIVE);
            for (b, &d) in diag.iter().enumerate() {
                let l = lay.lines[b];
                let span = (end[b] - l.start).min(u[b] / l.rho);
                let scale = d.max(self.conj.window(u[b], l.rho, span).2).max(floor);
                chol.add(row[b], row[b], cur.curv[b] + mu * scale);
            }
            for &(a, b, w) in &cur.edges {
                chol.add(row[a], row[a], w);
                chol.add(row[b], row[b], w);
                chol.add(row[a], row[b], -w);
            }
            let mut step = vec![0.0; nb];
            for (b, (&t, &v)) in target.iter().zip(&cur.vol).enumerate() {
                step[row[b]] = t - v;
            }
            *iters += 1;
            if !chol.solve(&mut step) {
                mu *= 10.0;
                if mu > 1e16 {
                    break;
                }
                continue;
            }
            let delta: Vec<f64> = row.iter().map(|&r| step[r]).collect();
            let trial: Vec<f64> = u.iter().zip(&delta).map(|(&x, &d)| x + d).collect();
            let next = self.eval(&lay, &trial);
            // The rise the quadratic model predicts: g·Δ − ½ Δ·JΔ.
            let mut curvature: f64 = cur.curv.iter().zip(&delta).map(|(&c, &d)| c * d * d).sum();
            for &(a, b, w) in &cur.edges {
                curvature += w * (delta[a] - delta[b]).powi(2);
            }
            let slope: f64 = target.iter().zip(&cur.vol).zip(&delta).map(|((&t, &v), &d)| (t - v) * d).sum();
            let ratio = (next.dual - cur.dual) / (slope - 0.5 * curvature);
            let accept = if cur.residual < RESIDUAL_PHASE {
                next.residual < cur.residual
            } else {
                next.dual > cur.dual
                    || (next.residual < cur.residual && next.dual >= cur.dual - DUAL_NOISE * cur.dual.abs())
            };
            if accept {
                (u, cur) = (trial, next);
                // Levenberg–Marquardt trust update: loosen when the model
                // predicted the rise well, tighten when it did not.
                if ratio > 0.75 {
                    mu = (mu / 3.0).max(1e-15);
                } else if ratio < 0.25 {
                    mu *= 2.0;
                }
                rejected = 0;
            } else {
                mu *= 4.0;
                rejected += 1;
                if (cur.residual < RESIDUAL_PHASE && rejected >= 3) || mu > 1e16 {
                    break;
                }
            }
        }
        if self.lift_buried(&lay, &target, &end, &mut u, &cur.vol) {
            cur = self.eval(&lay, &u);
        }
        for (&(c, b), &x) in lay.owner.iter().zip(&u) {
            self.classes[c].blocks[b].u = x;
        }
        cur.residual <= CONVERGED
    }

    /// Whether the block lines are non-decreasing within each class and
    /// every block is FIFO-feasible: before each of its later releases, the
    /// block has processed no more than the volume released before it.
    fn partition_ok(&self) -> bool {
        for (c, class) in self.classes.iter().enumerate() {
            for w in class.blocks.windows(2) {
                let gap = self.start(c, &w[1]) - self.start(c, &w[0]);
                if w[0].u - class.rho * gap > w[1].u + PARTITION_TOL * w[1].u.abs() {
                    return false;
                }
            }
        }
        let lay = self.layout(None);
        let u: Vec<f64> = lay.lines.iter().map(|l| l.y0).collect();
        let ev = self.eval(&lay, &u);
        let mut windows: Vec<Vec<Piece>> = vec![Vec::new(); lay.lines.len()];
        for p in &ev.pieces {
            windows[p.line].push(*p);
        }
        for (id, &(c, b)) in lay.owner.iter().enumerate() {
            let class = &self.classes[c];
            let blk = &class.blocks[b];
            let total: f64 = class.jobs[blk.lo..blk.hi].iter().map(|&j| self.v[j]).sum();
            let mut released = 0.0;
            for &j in &class.jobs[blk.lo..blk.hi] {
                let r = self.t[j];
                let done: f64 = windows[id]
                    .iter()
                    .filter(|p| p.t0 < r)
                    .map(|p| self.conj.window(p.y0, class.rho, p.t1.min(r) - p.t0).1)
                    .sum();
                if done > released + PARTITION_TOL * total {
                    return false;
                }
                released += self.v[j];
            }
        }
        true
    }

    /// Solver time back to instance time, exact at releases.
    fn time(&self, t: f64, instance: &Instance) -> f64 {
        match self.t.binary_search_by(|x| x.total_cmp(&t)) {
            Ok(j) => instance.job(j).release,
            Err(_) => self.r0 + self.unit_t * t,
        }
    }

    /// The certificate at the final multipliers, the primal schedule from
    /// the final block envelope, and the bracket.
    fn finish(&self, instance: &Instance, iterations: usize) -> SimResult<OptSchedule> {
        let lam = self.lambdas();
        // Certificate: every job's own line, at its true density.
        let lines: Vec<Line> =
            (0..self.t.len()).map(|j| Line { y0: lam[j], rho: self.rho[j], start: self.t[j] }).collect();
        let events: Vec<Event> = (0..lines.len()).map(|j| Event { time: self.t[j], add: j, drop: None }).collect();
        let mut dual = lam.iter().zip(&self.v).map(|(&l, &v)| l * v).sum::<f64>();
        for p in Sweep::new(&lines, &events) {
            dual -= self.conj.window(p.y0, lines[p.line].rho, p.t1 - p.t0).0;
        }
        let dual = dual * self.unit_lambda * self.unit_v;

        // Primal: the block envelope as decay segments, each block scaled to
        // its volume and split over its jobs in FIFO order.
        let lay = self.layout(None);
        let u: Vec<f64> = lay.lines.iter().map(|l| l.y0).collect();
        let ev = self.eval(&lay, &u);
        let law = self.law;
        let alpha = law.alpha();
        let mut per_block: Vec<Vec<Segment>> = vec![Vec::new(); lay.lines.len()];
        let mut prev_end = f64::NEG_INFINITY;
        let mut horizon = 0.0f64;
        for p in &ev.pieces {
            let (c, b) = lay.owner[p.line];
            let class = &self.classes[c];
            let first = instance.job(class.jobs[class.blocks[b].lo]);
            let t0 = self.time(p.t0, instance).max(prev_end);
            let t1 = self.time(p.t1, instance).max(t0);
            prev_end = t1;
            if t1 > t0 && p.y0 > 0.0 {
                let w0 = law.root_beta(p.y0 * self.unit_lambda / alpha);
                let rho = first.density / (alpha - 1.0);
                per_block[p.line].extend(decay_segment(law, t0, t1, w0, rho));
                horizon = horizon.max(t1);
            }
        }
        let mut segments = Vec::with_capacity(ev.pieces.len() + self.t.len());
        let mut kkt_residual = 0.0f64;
        for (id, segs) in per_block.into_iter().enumerate() {
            let (c, b) = lay.owner[id];
            let class = &self.classes[c];
            let jobs = &class.jobs[class.blocks[b].lo..class.blocks[b].hi];
            // Residual of each job under the FIFO split of the block volume.
            let mut before = 0.0;
            for (i, &j) in jobs.iter().enumerate() {
                let got = if i + 1 == jobs.len() { ev.vol[id] - before } else { (ev.vol[id] - before).clamp(0.0, self.v[j]) };
                kkt_residual = kkt_residual.max((got - self.v[j]).abs() / self.v[j]);
                before += self.v[j];
            }
            let volume: f64 = jobs.iter().map(|&j| instance.job(j).volume).sum();
            let got: f64 = segs.iter().map(|s| s.volume(law)).sum();
            // A block far short of its volume (a solve stopped at its cap)
            // is not sped up to make the difference: the energy of that
            // grows as the scale to the α. Its jobs' deficits run at the end.
            let scale = (volume / got).min(MAX_SCALE);
            if scale.is_finite() && scale > 0.0 {
                fifo_split(law, instance, jobs, segs.into_iter().map(|s| s.with_scale(scale)), &mut segments);
            }
        }
        settle_volumes(law, instance, &mut segments, &mut horizon)?;
        segments.sort_by(|a, b| a.start.total_cmp(&b.start));
        let schedule = Schedule::new(law, segments)?;
        let evaluated = evaluate(&schedule, instance)?;
        let primal = evaluated.objective.fractional();
        for (what, value) in [
            ("solve_fractional_opt: primal cost", primal),
            ("solve_fractional_opt: dual bound", dual),
            ("solve_fractional_opt: kkt residual", kkt_residual),
        ] {
            if !value.is_finite() {
                return Err(SimError::Numeric { what, value });
            }
        }
        Ok(OptSchedule {
            bracket: FracOpt { primal_cost: primal, dual_bound: dual.max(0.0), iterations, horizon, kkt_residual },
            schedule,
            evaluated,
        })
    }
}

/// Make every job's service add up to exactly its volume.
///
/// A job's final slivers of service — less than [`SLIVER`] of its volume,
/// which [`evaluate`] would count as done before they run — are dropped, and
/// the job's other segments are scaled to its volume. At the optimum a job
/// has the same marginal cost in every window, so moving a sliver between
/// its windows changes the cost only to second order. What a job still
/// lacks beyond [`MAX_SCALE`] (a solve stopped at its cap, or a volume below
/// the rounding of the times it would need) runs after everything else, at
/// constant speed over the horizon of its own single-job optimum. The
/// schedule stays feasible, so the bracket stays valid.
fn settle_volumes(law: PowerLaw, instance: &Instance, segments: &mut Vec<Segment>, horizon: &mut f64) -> SimResult<()> {
    let n = instance.len();
    let mut by_job: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, seg) in segments.iter().enumerate() {
        if let Some(j) = seg.job {
            by_job[j].push(i);
        }
    }
    let mut dropped = vec![false; segments.len()];
    let mut deficit = vec![0.0; n];
    for (j, idx) in by_job.iter_mut().enumerate() {
        let volume = instance.job(j).volume;
        idx.sort_by(|&a, &b| segments[a].start.total_cmp(&segments[b].start));
        let vols: Vec<f64> = idx.iter().map(|&i| segments[i].volume(law)).collect();
        let mut kept = vols.len();
        let mut tail = 0.0;
        while kept > 1 && tail + vols[kept - 1] < SLIVER * volume {
            kept -= 1;
            tail += vols[kept];
            dropped[idx[kept]] = true;
        }
        let got: f64 = vols[..kept].iter().sum();
        let factor = volume / got;
        if factor.is_finite() && factor > 0.0 && factor <= MAX_SCALE {
            for &i in &idx[..kept] {
                segments[i].scale *= factor;
            }
        } else if got.is_finite() && got < volume {
            deficit[j] = volume - got;
        } else {
            deficit[j] = volume;
            for &i in idx.iter() {
                dropped[i] = true;
            }
        }
    }
    let mut keep = dropped.iter().map(|d| !d);
    segments.retain(|_| keep.next().unwrap_or(true));
    for (j, &short) in deficit.iter().enumerate() {
        if !(short > 0.0) {
            continue;
        }
        let job = instance.job(j);
        let start = horizon.max(job.release);
        // Constant speed over the single-job optimum's horizon (at least a
        // few ulps of the start, so that the segment has a length).
        let dt = single_job_opt(law, job.density, short)?.horizon.max(16.0 * f64::EPSILON * start.abs());
        let seg = Segment::new(start, start + dt, Some(j), SpeedLaw::Constant { speed: short / dt });
        if !(seg.end > seg.start) {
            return Err(SimError::Numeric { what: "solve_fractional_opt: catch-up segment", value: dt });
        }
        segments.push(seg);
        *horizon = horizon.max(seg.end);
    }
    Ok(())
}

/// The decay segment from power `w0` over `[t0, t1]`, stopped where its
/// power falls to [`DRAIN_TAIL`] of `w0` if it gets that far, or `None` if
/// nothing is left. A decay's volume map inverts near its vanishing-speed
/// end with error `~ε^{1−1/α}` (about `1e-5` of the window at α = 1.5, and
/// a negative target weight past it), which would misplace [`evaluate`]'s
/// completions. Stopping short leaves a share `DRAIN_TAIL` of the window's
/// volume to the block scale, a second-order change in cost.
fn decay_segment(law: PowerLaw, t0: f64, t1: f64, w0: f64, rho: f64) -> Option<Segment> {
    let kernel = DecayKernel { law, w0, rho };
    let mut end = t1.min(t0 + kernel.time_to_empty() * (1.0 - DRAIN_TAIL.powf(law.beta())));
    // A window a few ulps long cannot place its end that finely.
    while end > t0 && kernel.weight_at(end - t0) < 0.5 * DRAIN_TAIL * w0 {
        end = end.next_down();
    }
    (end > t0).then(|| Segment::new(t0, end, None, SpeedLaw::Decay { w0, rho }))
}

/// Split a block's segments (in time order) over its jobs in FIFO order:
/// each job takes its volume, and the next starts no earlier than its
/// release. The last job takes whatever remains.
fn fifo_split(law: PowerLaw, instance: &Instance, jobs: &[usize], segs: impl Iterator<Item = Segment>, out: &mut Vec<Segment>) {
    let mut ji = 0;
    let mut rem = instance.job(jobs[0]).volume;
    for mut seg in segs {
        loop {
            let job = jobs[ji];
            if ji + 1 == jobs.len() {
                out.push(Segment { job: Some(job), ..seg });
                break;
            }
            let vol = seg.volume(law);
            if rem >= vol * (1.0 - 1e-12) {
                out.push(Segment { job: Some(job), ..seg });
                rem -= vol;
                break;
            }
            let next_release = instance.job(jobs[ji + 1]).release;
            let t = seg.time_at_volume(law, rem.max(0.0)).unwrap_or(seg.start).max(next_release);
            if t >= seg.end {
                out.push(Segment { job: Some(job), ..seg });
                ji += 1;
                rem = instance.job(jobs[ji]).volume;
                break;
            }
            if t > seg.start {
                let (left, right) = seg.split_at(law, t);
                out.push(Segment { job: Some(job), ..left });
                seg = right;
            }
            ji += 1;
            rem = instance.job(jobs[ji]).volume;
        }
    }
}

/// The line value `u` at which a non-decreasing, continuous volume
/// `f(u) = (volume, dvolume/du)` reaches `target`, by Newton steps kept
/// inside a bisection bracket. `f(0) = 0`; `guess > 0` seeds the bracket.
fn solve_level(mut f: impl FnMut(f64) -> (f64, f64), target: f64, guess: f64) -> SimResult<f64> {
    let (mut lo, mut hi) = (0.0f64, guess);
    let (mut x, mut fx) = loop {
        let (v, dv) = f(hi);
        if v >= target {
            break (hi, (v - target, dv));
        }
        lo = hi;
        hi *= 2.0;
        if !hi.is_finite() {
            return Err(SimError::Numeric { what: "solve_fractional_opt: block level", value: hi });
        }
    };
    for _ in 0..200 {
        let (r, dr) = fx;
        if r.abs() <= 4.0 * f64::EPSILON * target {
            break;
        }
        if r > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        if hi - lo <= 2.0 * f64::EPSILON * hi {
            break;
        }
        let newton = x - r / dr;
        x = if dr > 0.0 && newton > lo && newton < hi { newton } else { 0.5 * (lo + hi) };
        let (v, dv) = f(x);
        fx = (v - target, dv);
    }
    Ok(x)
}

/// A symmetric positive-definite matrix stored by rows from each row's
/// first nonzero column, factored in place (envelope Cholesky): the factor
/// keeps the same profile, so a narrow band stays cheap.
struct Profile {
    n: usize,
    first: Vec<usize>,
    a: Vec<f64>,
}

impl Profile {
    fn new(n: usize) -> Self {
        Self { n, first: (0..n).collect(), a: vec![0.0; n * n] }
    }

    fn clear(&mut self) {
        for i in 0..self.n {
            let f = self.first[i];
            self.a[i * self.n + f..=i * self.n + i].fill(0.0);
            self.first[i] = i;
        }
    }

    /// Add `x` at `(i, j)` and, by symmetry, `(j, i)`.
    fn add(&mut self, i: usize, j: usize, x: f64) {
        let (i, j) = if i >= j { (i, j) } else { (j, i) };
        if j < self.first[i] {
            self.first[i] = j;
        }
        self.a[i * self.n + j] += x;
    }

    /// Factor and solve in place; false when the matrix is not positive
    /// definite.
    fn solve(&mut self, b: &mut [f64]) -> bool {
        let n = self.n;
        for i in 0..n {
            let fi = self.first[i];
            for j in fi..=i {
                let k0 = fi.max(self.first[j]);
                let mut s = self.a[i * n + j];
                for k in k0..j {
                    s -= self.a[i * n + k] * self.a[j * n + k];
                }
                if i == j {
                    if !(s > 0.0) {
                        return false;
                    }
                    self.a[i * n + i] = s.sqrt();
                } else {
                    self.a[i * n + j] = s / self.a[j * n + j];
                }
            }
        }
        for i in 0..n {
            let f = self.first[i];
            let dot: f64 = self.a[i * n + f..i * n + i].iter().zip(&b[f..i]).map(|(l, x)| l * x).sum();
            b[i] = (b[i] - dot) / self.a[i * n + i];
        }
        for i in (0..n).rev() {
            b[i] /= self.a[i * n + i];
            let (bi, f) = (b[i], self.first[i]);
            for (x, l) in b[f..i].iter_mut().zip(&self.a[i * n + f..i * n + i]) {
                *x -= l * bi;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::single_job_opt;
    use ncss_sim::Job;

    fn pl(alpha: f64) -> PowerLaw {
        PowerLaw::new(alpha).unwrap()
    }

    fn exact() -> SolverOptions {
        SolverOptions::default()
    }

    #[test]
    fn single_job_closes_on_the_closed_form() {
        for alpha in [1.5, 2.0, 2.5, 3.0] {
            let inst = Instance::new(vec![Job::new(0.7, 1.3, 0.4)]).unwrap();
            let sol = solve_fractional_opt(&inst, pl(alpha), exact()).unwrap();
            let opt = single_job_opt(pl(alpha), 0.4, 1.3).unwrap();
            assert!((sol.dual_bound - opt.cost()).abs() <= 1e-12 * opt.cost(), "α={alpha}: {sol:?} vs {}", opt.cost());
            assert!((sol.primal_cost - opt.cost()).abs() <= 1e-12 * opt.cost(), "α={alpha}: {sol:?}");
            assert!((sol.horizon - 0.7 - opt.horizon).abs() <= 1e-12 * opt.horizon);
        }
    }

    #[test]
    fn batch_matches_merged_closed_form() {
        // Three unit-density jobs at t=0 == one job with the total volume.
        let inst = Instance::new(vec![
            Job::unit_density(0.0, 0.5),
            Job::unit_density(0.0, 1.0),
            Job::unit_density(0.0, 1.5),
        ])
        .unwrap();
        let sol = solve_fractional_opt(&inst, pl(2.0), exact()).unwrap();
        let cost = single_job_opt(pl(2.0), 1.0, 3.0).unwrap().cost();
        assert!((sol.dual_bound - cost).abs() <= 1e-12 * cost, "{sol:?} vs {cost}");
        assert!((sol.primal_cost - cost).abs() <= 1e-12 * cost, "{sol:?} vs {cost}");
    }

    #[test]
    fn mixed_densities_close_the_gap() {
        let inst = Instance::new(vec![
            Job::new(0.0, 1.0, 1.0),
            Job::new(0.3, 0.5, 4.0),
            Job::new(1.1, 2.0, 0.5),
            Job::new(1.1, 0.2, 4.0),
            Job::new(1.4, 0.7, 1.0),
        ])
        .unwrap();
        for alpha in [1.5, 2.0, 3.0] {
            let sol = solve_fractional_opt(&inst, pl(alpha), exact()).unwrap();
            assert!(sol.dual_bound <= sol.primal_cost * (1.0 + 1e-12), "α={alpha}: {sol:?}");
            assert!(sol.gap().abs() <= 1e-9, "α={alpha}: {sol:?}");
            assert!(sol.kkt_residual <= 1e-9, "α={alpha}: {sol:?}");
        }
    }

    #[test]
    fn theorem1_c_is_two_competitive_vs_solver() {
        // Algorithm C must sit between OPT and 2·OPT: dual ≤ C ≤ 2·primal.
        let instances = vec![
            Instance::new(vec![Job::unit_density(0.0, 1.0), Job::unit_density(0.2, 2.0)]).unwrap(),
            Instance::new(vec![Job::new(0.0, 1.0, 2.0), Job::new(0.5, 1.0, 0.5), Job::new(0.6, 0.3, 5.0)])
                .unwrap(),
        ];
        for inst in instances {
            for alpha in [2.0, 3.0] {
                let c = ncss_core::run_c(&inst, pl(alpha)).unwrap().objective.fractional();
                let sol = solve_fractional_opt(&inst, pl(alpha), exact()).unwrap();
                assert!(c >= sol.dual_bound * (1.0 - 1e-12));
                assert!(c <= 2.0 * sol.primal_cost * (1.0 + 1e-12), "c {c} vs 2x {}", sol.primal_cost);
            }
        }
    }

    #[test]
    fn fifo_blocks_split_at_releases() {
        // Equal densities: the first job is done before the second arrives,
        // so the two form separate blocks and each is its own single-job
        // optimum.
        let a = single_job_opt(pl(2.0), 1.0, 0.5).unwrap();
        let inst = Instance::new(vec![Job::unit_density(0.0, 0.5), Job::unit_density(a.horizon * 3.0, 1.0)]).unwrap();
        let sol = solve_fractional_opt(&inst, pl(2.0), exact()).unwrap();
        let cost = a.cost() + single_job_opt(pl(2.0), 1.0, 1.0).unwrap().cost();
        assert!((sol.primal_cost - cost).abs() <= 1e-12 * cost, "{sol:?} vs {cost}");
        assert!((sol.dual_bound - cost).abs() <= 1e-12 * cost, "{sol:?} vs {cost}");
    }

    #[test]
    fn schedule_evaluates_to_the_primal_cost() {
        let inst = Instance::new(vec![Job::new(0.0, 1.0, 2.0), Job::new(0.5, 1.0, 0.5), Job::new(0.6, 0.3, 5.0)]).unwrap();
        let out = fractional_opt_schedule(&inst, pl(2.5), exact()).unwrap();
        assert_eq!(out.evaluated.objective.fractional(), out.bracket.primal_cost);
        assert_eq!(evaluate(&out.schedule, &inst).unwrap(), out.evaluated);
        assert!(out.schedule.segments().iter().all(|s| matches!(s.law, SpeedLaw::Decay { .. })));
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![]).unwrap();
        let sol = solve_fractional_opt(&inst, pl(2.0), exact()).unwrap();
        assert_eq!(sol.primal_cost, 0.0);
        assert_eq!(sol.dual_bound, 0.0);
    }

    #[test]
    fn rejects_bad_options() {
        let inst = Instance::new(vec![Job::unit_density(0.0, 1.0)]).unwrap();
        assert!(solve_fractional_opt(&inst, pl(2.0), SolverOptions { max_iters: 0 }).is_err());
    }

    #[test]
    fn profile_cholesky_solves_a_laplacian_plus_diagonal() {
        let mut m = Profile::new(4);
        for (i, d) in [2.0, 1.0, 3.0, 0.5].into_iter().enumerate() {
            m.add(i, i, d);
        }
        for (i, j, w) in [(0, 2, 1.0), (1, 3, 2.0), (2, 3, 0.5)] {
            m.add(i, i, w);
            m.add(j, j, w);
            m.add(i, j, -w);
        }
        let dense = [[3.0, 0.0, -1.0, 0.0], [0.0, 3.0, 0.0, -2.0], [-1.0, 0.0, 4.5, -0.5], [0.0, -2.0, -0.5, 3.0]];
        let want = [1.0, -2.0, 0.5, 3.0];
        let mut b: Vec<f64> = dense.iter().map(|r| r.iter().zip(&want).map(|(a, x)| a * x).sum()).collect();
        assert!(m.solve(&mut b));
        for (x, w) in b.iter().zip(&want) {
            assert!((x - w).abs() < 1e-12, "{b:?}");
        }
    }
}
