//! The `stream` and `audited_record` workloads.
//!
//! Both feed seeded Poisson releases (exponential unit-mean volumes,
//! density 1, the source of `ncss-cli stream --synthetic N`) through
//! `CStream` and then `NcStream` in `StreamConfig::streaming` mode, one
//! thread, closed loop: each release is offered as soon as the previous
//! offer returns. Completions are buffered until `offer` returns and only
//! then handed to the auditor or recorder, so spans never nest across
//! layers.
//!
//! * `stream` (α = 3, the `cubic` kernel) drains the spill ring after every
//!   offer; no audit, no trace.
//! * `audited_record` (α = 2.75, the `general` kernel) attaches an
//!   `IncrementalAudit` to every release, segment and completion, and a
//!   `Recorder` writing the WAL to a file with a checkpoint every 64
//!   releases: `stream --audit incremental` plus `record` at their CLI
//!   defaults.

use crate::metrics::{self, Values};
use crate::span::{leaf, Off, Probe, Summary, Tracer};
use crate::{gate, objective_bits, same_as_first, subseed, Config, Report, Setup};
use ncss_audit::{AuditConfig, IncrementalAudit};
use ncss_core::streaming::{CCompletion, CStream, NcCompletion, NcStream, StreamConfig};
use ncss_core::{StreamStats, StreamSummary};
use ncss_rng::{dist, Pcg64};
use ncss_sim::{Job, PowerLaw, Segment, SimResult, SpillRing};
use ncss_trace::{Algo, Checkpoint, Event, Recorder, TraceHeader, TraceSummary};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Poisson arrival rate of the synthetic source.
pub const RATE: f64 = 4.0;

/// Spill-ring capacity (the CLI default).
const SPILL_CAP: usize = 4096;

/// Releases between WAL checkpoints (the `record` default).
const CHECKPOINT_EVERY: usize = 64;

/// `n` seeded Poisson releases: exponential unit-mean volumes, density 1.
#[must_use]
pub fn poisson_jobs(seed: u64, rate: f64, n: usize) -> Vec<Job> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut clock = 0.0;
    (0..n)
        .map(|_| {
            clock += dist::poisson_gap(&mut rng, rate);
            Job::unit_density(clock, dist::exponential(&mut rng, 1.0))
        })
        .collect()
}

/// The two streaming cores behind one interface, so each pass is written
/// once.
pub trait Core: Sized {
    /// A completion event.
    type Done: Copy;
    /// Span name of `offer`.
    const OFFER: &'static str;
    /// Span name of `finish`.
    const FINISH: &'static str;
    /// Trace header algorithm.
    const ALGO: Algo;
    /// A fresh stream.
    fn new(law: PowerLaw) -> Self;
    /// Offer a job, buffering its completions.
    ///
    /// # Errors
    /// The stream's own error.
    fn offer(&mut self, job: Job, done: &mut Vec<Self::Done>) -> SimResult<usize>;
    /// End the stream, buffering the last completions.
    ///
    /// # Errors
    /// The stream's own error.
    fn finish(&mut self, done: &mut Vec<Self::Done>) -> SimResult<StreamSummary>;
    /// The spill ring.
    fn spill(&mut self) -> &mut SpillRing;
    /// Resident-memory counters.
    fn stats(&self) -> StreamStats;
    /// A checkpoint of the stream state.
    fn checkpoint(&self) -> Checkpoint;
    /// The WAL event of a completion.
    fn event(done: &Self::Done) -> Event;
    /// `(id, completion, frac_flow, int_flow)` as the auditor takes it.
    fn reported(done: &Self::Done) -> (usize, f64, f64, f64);
}

impl Core for CStream {
    type Done = CCompletion;
    const OFFER: &'static str = "core.c_offer";
    const FINISH: &'static str = "core.c_finish";
    const ALGO: Algo = Algo::C;
    fn new(law: PowerLaw) -> Self {
        CStream::new(law, StreamConfig::streaming(SPILL_CAP))
    }
    fn offer(&mut self, job: Job, done: &mut Vec<CCompletion>) -> SimResult<usize> {
        CStream::offer(self, job, &mut |c| done.push(c))
    }
    fn finish(&mut self, done: &mut Vec<CCompletion>) -> SimResult<StreamSummary> {
        CStream::finish(self, &mut |c| done.push(c))
    }
    fn spill(&mut self) -> &mut SpillRing {
        self.spill_mut()
    }
    fn stats(&self) -> StreamStats {
        CStream::stats(self)
    }
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint::C(self.snapshot())
    }
    fn event(c: &CCompletion) -> Event {
        Event::CompleteC {
            id: c.id as u64,
            completion: c.completion,
            frac_flow: c.frac_flow,
            int_flow: c.int_flow,
        }
    }
    fn reported(c: &CCompletion) -> (usize, f64, f64, f64) {
        (c.id, c.completion, c.frac_flow, c.int_flow)
    }
}

impl Core for NcStream {
    type Done = NcCompletion;
    const OFFER: &'static str = "core.nc_offer";
    const FINISH: &'static str = "core.nc_finish";
    const ALGO: Algo = Algo::Nc;
    fn new(law: PowerLaw) -> Self {
        NcStream::new(law, StreamConfig::streaming(SPILL_CAP))
    }
    fn offer(&mut self, job: Job, done: &mut Vec<NcCompletion>) -> SimResult<usize> {
        NcStream::offer(self, job, &mut |c| done.push(c))
    }
    fn finish(&mut self, _done: &mut Vec<NcCompletion>) -> SimResult<StreamSummary> {
        NcStream::finish(self)
    }
    fn spill(&mut self) -> &mut SpillRing {
        self.spill_mut()
    }
    fn stats(&self) -> StreamStats {
        NcStream::stats(self)
    }
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint::Nc(self.snapshot())
    }
    fn event(c: &NcCompletion) -> Event {
        Event::CompleteNc {
            id: c.id as u64,
            base_power: c.base_power,
            start: c.start,
            completion: c.completion,
            frac_flow: c.frac_flow,
            int_flow: c.int_flow,
        }
    }
    fn reported(c: &NcCompletion) -> (usize, f64, f64, f64) {
        (c.id, c.completion, c.frac_flow, c.int_flow)
    }
}

/// What one pass of a core produced.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// The stream's summary.
    pub summary: StreamSummary,
    /// Its counters.
    pub stats: StreamStats,
    /// Completions handed out.
    pub emitted: usize,
    /// WAL bytes written (0 without a recorder).
    pub wal_bytes: u64,
    /// WAL frames written, summary included (0 without a recorder).
    pub wal_frames: u64,
    /// Largest active set the auditor held (0 without an auditor).
    pub audit_peak_active: usize,
}

/// The gates every pass of `n` releases must pass.
fn stream_gates(out: &PassOut, n: usize) -> Result<(), String> {
    let s = &out.stats;
    gate(
        s.ingested == n && s.completed == n && out.summary.completed == n && out.emitted == n,
        || {
            format!(
                "counts: ingested {} completed {} summary {} emitted {} of {n}",
                s.ingested, s.completed, out.summary.completed, out.emitted
            )
        },
    )?;
    gate(s.arena_slots == s.peak_active, || {
        format!(
            "arena slots {} != peak active {}",
            s.arena_slots, s.peak_active
        )
    })?;
    gate(s.spill_dropped == 0, || {
        format!("spill dropped {} segments", s.spill_dropped)
    })?;
    let o = &out.summary.objective;
    gate(
        o.energy.is_finite() && o.frac_flow.is_finite() && o.int_flow.is_finite(),
        || format!("objective not finite: {o:?}"),
    )
}

/// One plain streaming pass: offer, drain the spill ring, repeat.
///
/// # Errors
/// A stream error or a failed gate.
pub fn stream_pass<C: Core, P: Probe>(
    p: &mut P,
    law: PowerLaw,
    jobs: &[Job],
) -> Result<PassOut, String> {
    let mut core = C::new(law);
    let mut done: Vec<C::Done> = Vec::new();
    let mut emitted = 0usize;
    for job in jobs {
        leaf(p, C::OFFER, || core.offer(*job, &mut done)).map_err(|e| e.to_string())?;
        leaf(p, "sim.spill_drain", || core.spill().drain().for_each(drop));
        emitted += done.len();
        black_box(&done);
        done.clear();
    }
    let summary = leaf(p, C::FINISH, || core.finish(&mut done)).map_err(|e| e.to_string())?;
    leaf(p, "sim.spill_drain", || core.spill().drain().for_each(drop));
    emitted += done.len();
    let out = PassOut {
        summary,
        stats: core.stats(),
        emitted,
        wal_bytes: 0,
        wal_frames: 0,
        audit_peak_active: 0,
    };
    stream_gates(&out, jobs.len())?;
    Ok(out)
}

/// Hand the buffered completions and retired segments to the recorder
/// (completions first, as `record` writes them) and to the auditor, if any
/// (segments first, its feeding contract).
fn feed<C: Core, P: Probe, W: std::io::Write>(
    p: &mut P,
    rec: &mut Recorder<W>,
    audit: Option<&mut IncrementalAudit>,
    done: &mut Vec<C::Done>,
    segs: &mut Vec<Segment>,
) -> Result<(), String> {
    let wal = |e: ncss_trace::TraceError| format!("WAL append failed: {e}");
    for c in done.iter() {
        leaf(p, "trace.append", || rec.append(&C::event(c))).map_err(wal)?;
    }
    for seg in segs.iter() {
        leaf(p, "trace.append", || rec.append(&Event::Segment(*seg))).map_err(wal)?;
    }
    if let Some(audit) = audit {
        let trip =
            |t: ncss_audit::Trip| format!("incremental audit tripped {}: {}", t.check, t.detail);
        for seg in segs.iter() {
            if let Some(t) = leaf(p, "audit.on_segment", || audit.on_segment(*seg)) {
                return Err(trip(t));
            }
        }
        for c in done.iter() {
            let (id, completion, frac, int) = C::reported(c);
            if let Some(t) = leaf(p, "audit.on_complete", || {
                audit.on_complete(id, completion, frac, int)
            }) {
                return Err(trip(t));
            }
        }
    }
    done.clear();
    segs.clear();
    Ok(())
}

/// One recorded pass writing its WAL to `path` the way `ncss-cli record`
/// does: completions then segments after each offer, a checkpoint every 64
/// releases, a summary frame at the end. When `audited`, an
/// `IncrementalAudit` sees every release, segment and completion, as with
/// `stream --audit incremental`.
///
/// # Errors
/// A stream, WAL or audit failure.
pub fn recorded_pass<C: Core, P: Probe>(
    p: &mut P,
    law: PowerLaw,
    jobs: &[Job],
    path: &Path,
    seed: u64,
    audited: bool,
) -> Result<PassOut, String> {
    let sim = |e: ncss_sim::SimError| e.to_string();
    let wal = |e: ncss_trace::TraceError| format!("WAL failed: {e}");
    let header = TraceHeader::new(C::ALGO, law.alpha(), seed, "");
    let mut rec = leaf(p, "trace.create", || Recorder::create(path, &header)).map_err(wal)?;
    let mut audit = audited.then(|| IncrementalAudit::new(law, AuditConfig::default()));
    let mut core = C::new(law);
    let mut done: Vec<C::Done> = Vec::new();
    let mut segs: Vec<Segment> = Vec::new();
    let mut emitted = 0usize;
    let mut audit_peak_active = 0usize;
    for (i, job) in jobs.iter().enumerate() {
        let release = Event::Release {
            id: i as u64,
            job: *job,
        };
        leaf(p, "trace.append", || rec.append(&release)).map_err(wal)?;
        if let Some(a) = audit.as_mut() {
            leaf(p, "audit.on_release", || a.on_release(i, *job));
        }
        leaf(p, C::OFFER, || core.offer(*job, &mut done)).map_err(sim)?;
        leaf(p, "sim.spill_drain", || segs.extend(core.spill().drain()));
        emitted += done.len();
        feed::<C, P, _>(p, &mut rec, audit.as_mut(), &mut done, &mut segs)?;
        if let Some(a) = audit.as_ref() {
            audit_peak_active = audit_peak_active.max(a.active_jobs());
        }
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let id = p.enter("trace.checkpoint");
            let cp = leaf(p, "core.snapshot", || core.checkpoint());
            rec.append(&Event::Checkpoint(Box::new(cp))).map_err(wal)?;
            rec.flush().map_err(wal)?;
            p.exit(id);
        }
    }
    let summary = leaf(p, C::FINISH, || core.finish(&mut done)).map_err(sim)?;
    leaf(p, "sim.spill_drain", || segs.extend(core.spill().drain()));
    emitted += done.len();
    feed::<C, P, _>(p, &mut rec, audit.as_mut(), &mut done, &mut segs)?;
    if let Some(a) = audit {
        let report = leaf(p, "audit.finalize", || a.finalize(&summary.objective));
        gate(report.passed(), || {
            format!("incremental audit failed:\n{}", report.render())
        })?;
    }
    let tally = trace_summary(&summary, jobs.len());
    let wal_frames = rec.next_seq() + 1;
    leaf(p, "trace.finalize", || rec.finalize(&tally)).map_err(wal)?;
    let out = PassOut {
        summary,
        stats: core.stats(),
        emitted,
        wal_bytes: std::fs::metadata(path).map_err(|e| e.to_string())?.len(),
        wal_frames,
        audit_peak_active,
    };
    stream_gates(&out, jobs.len())?;
    Ok(out)
}

/// The WAL's terminal tally.
fn trace_summary(s: &StreamSummary, offered: usize) -> TraceSummary {
    TraceSummary {
        ingested: offered as u64,
        completed: s.completed as u64,
        makespan: s.makespan,
        energy: s.objective.energy,
        frac_flow: s.objective.frac_flow,
        int_flow: s.objective.int_flow,
    }
}

/// Record the deterministic outputs of a C and an NC pass.
fn outputs(report: &mut Report, c: &PassOut, nc: &PassOut) {
    for (tag, out) in [("c", c), ("nc", nc)] {
        let o = &out.summary.objective;
        report.output(
            format!("{tag}.objective"),
            format!(
                "energy={:?} frac_flow={:?} int_flow={:?}",
                o.energy, o.frac_flow, o.int_flow
            ),
        );
        let s = &out.stats;
        report.output(
            format!("{tag}.counts"),
            format!(
                "completed={} segments={} peak_active={} arena_slots={} spill_peak={}",
                out.summary.completed,
                s.spill_total,
                s.peak_active,
                s.arena_slots,
                s.spill_peak_resident
            ),
        );
    }
}

/// Per-layer values shared by both workloads: offer and audit latencies,
/// stream counters, busy shares.
fn layer_values(sum: &Summary, wall_ns: f64, c: &PassOut, nc: &PassOut, n: usize) -> Values {
    let mut v = Values::new();
    let pct = |name: &str, want: f64| metrics::tail(sum.durations(name), want).value;
    for (metric, span) in [
        ("core.c_offer_ns", "core.c_offer"),
        ("core.nc_offer_ns", "core.nc_offer"),
        ("audit.on_segment_ns", "audit.on_segment"),
        ("audit.on_complete_ns", "audit.on_complete"),
        ("trace.append_ns", "trace.append"),
    ] {
        v.insert(format!("{metric}.p50"), pct(span, 50.0));
        v.insert(format!("{metric}.p99"), pct(span, 99.0));
    }
    v.insert(
        "audit.on_release_ns.p50".into(),
        pct("audit.on_release", 50.0),
    );
    v.insert(
        "trace.checkpoint_ns.p50".into(),
        pct("trace.checkpoint", 50.0),
    );
    v.insert("core.busy_share".into(), sum.busy_share("core", wall_ns));
    v.insert("audit.busy_share".into(), sum.busy_share("audit", wall_ns));
    let events = (2 * n).max(1) as f64;
    v.insert(
        "core.segments_per_event".into(),
        (c.stats.spill_total + nc.stats.spill_total) as f64 / events,
    );
    v.insert(
        "core.peak_active".into(),
        c.stats.peak_active.max(nc.stats.peak_active) as f64,
    );
    v.insert(
        "sim.spill_drain_ns_per_event".into(),
        sum.total_ms("sim.spill_drain") * 1e6 / events,
    );
    v.insert(
        "sim.arena_slots".into(),
        c.stats.arena_slots.max(nc.stats.arena_slots) as f64,
    );
    v.insert(
        "sim.spill_peak_resident".into(),
        c.stats
            .spill_peak_resident
            .max(nc.stats.spill_peak_resident) as f64,
    );
    v.insert("audit.finalize_ms".into(), sum.total_ms("audit.finalize"));
    v.insert(
        "audit.peak_active".into(),
        c.audit_peak_active.max(nc.audit_peak_active) as f64,
    );
    v.insert(
        "trace.bytes_per_event".into(),
        (c.wal_bytes + nc.wal_bytes) as f64 / events,
    );
    v.insert("trace.frames".into(), (c.wal_frames + nc.wal_frames) as f64);
    v.insert(
        "bench.unattributed_share".into(),
        sum.unattributed_share(wall_ns),
    );
    v
}

/// Which pass a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `stream`: offer and drain.
    Plain,
    /// `audited_record`: auditor and recorder attached.
    Audited,
}

/// A pass of core `C`, timed; `Err` when it failed a gate.
fn timed<C: Core, P: Probe>(
    kind: Kind,
    p: &mut P,
    law: PowerLaw,
    jobs: &[Job],
    path: &Path,
    seed: u64,
) -> (Result<PassOut, String>, f64) {
    let t0 = Instant::now();
    let out = match kind {
        Kind::Plain => stream_pass::<C, P>(p, law, jobs),
        Kind::Audited => recorded_pass::<C, P>(p, law, jobs, path, seed, true),
    };
    (out, t0.elapsed().as_nanos() as f64)
}

/// The inputs and settings of one workload.
struct Workload<'a> {
    kind: Kind,
    law: PowerLaw,
    jobs: &'a [Job],
    seed: u64,
    names: [&'static str; 2],
}

/// The C pass then the NC pass: `[(out, wall_ns); 2]`.
fn both<P: Probe>(
    w: &Workload<'_>,
    config: &Config,
    p: &mut P,
) -> [(Result<PassOut, String>, f64); 2] {
    let c_path = config.work_dir.join("audited_c.nct");
    let nc_path = config.work_dir.join("audited_nc.nct");
    [
        timed::<CStream, P>(w.kind, p, w.law, w.jobs, &c_path, w.seed),
        timed::<NcStream, P>(w.kind, p, w.law, w.jobs, &nc_path, w.seed),
    ]
}

/// Objective bits of the C and NC passes, with their WAL digests.
type PassBits = ([[u64; 3]; 2], Option<[u64; 2]>);

/// Count both passes' offers, gate determinism, keep the first outputs.
/// Returns both outputs when both passed.
fn account<'r>(
    report: &mut Report,
    first: &mut Option<PassBits>,
    passes: &'r [(Result<PassOut, String>, f64); 2],
    n: usize,
    wal: Option<[u64; 2]>,
) -> Option<(&'r PassOut, &'r PassOut)> {
    for (r, _) in passes {
        report.ops(n as u64, r.as_ref().map(|_| ()).map_err(Clone::clone));
    }
    let (Ok(c), Ok(nc)) = (&passes[0].0, &passes[1].0) else {
        return None;
    };
    let bits = [
        objective_bits(&c.summary.objective),
        objective_bits(&nc.summary.objective),
    ];
    report.recheck(
        2 * n as u64,
        same_as_first(first, (bits, wal), "objective or WAL bytes"),
    );
    if report.outputs.is_empty() {
        outputs(report, c, nc);
        if let Some([c_digest, nc_digest]) = wal {
            report.output("c.wal_fnv64", format!("{c_digest:016x}"));
            report.output("nc.wal_fnv64", format!("{nc_digest:016x}"));
        }
    }
    Some((c, nc))
}

/// Digests of the two WAL files the audited passes wrote.
fn wal_digests(config: &Config) -> Option<[u64; 2]> {
    let digest = |name: &str| {
        std::fs::read(config.work_dir.join(name))
            .ok()
            .map(|b| crate::fnv64(&b))
    };
    Some([digest("audited_c.nct")?, digest("audited_nc.nct")?])
}

/// Shared by both workloads: untraced iterations give the two timed parts
/// (the C and the NC pass), traced ones (alternating with untraced ones for
/// the overhead) the per-layer values.
fn run(
    config: &Config,
    seed: u64,
    n: usize,
    kind: Kind,
    alpha: f64,
    names: [&'static str; 2],
) -> Result<Report, String> {
    let (jobs, mut setup) =
        Setup::run(config.sizes.setup_reps, || Ok(poisson_jobs(seed, RATE, n)))?;
    let source_ns = setup.seconds() * 1e9 / n.max(1) as f64;
    let w = Workload {
        kind,
        law: PowerLaw::new(alpha).map_err(|e| e.to_string())?,
        jobs: &jobs,
        seed,
        names,
    };
    let mut report = Report::default();
    let mut first = None;
    let digests = |config: &Config| {
        if kind == Kind::Audited {
            wal_digests(config)
        } else {
            None
        }
    };
    if !config.trace {
        let (mut c_ms, mut nc_ms) = (Vec::new(), Vec::new());
        crate::for_seconds(config.seconds, config.sizes.min_iters, || {
            let passes = both(&w, config, &mut Off);
            c_ms.push(passes[0].1 / 1e6);
            nc_ms.push(passes[1].1 / 1e6);
            account(&mut report, &mut first, &passes, n, digests(config));
            report.recheck(1, setup.again(&jobs));
        });
        report.part(w.names[0], &c_ms);
        report.part(w.names[1], &nc_ms);
        report.set("setup_s", setup.seconds());
        return Ok(report);
    }
    let mut per_pass: Vec<Values> = Vec::new();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    crate::for_seconds(config.seconds, 1, || {
        let passes = both(&w, config, &mut Off);
        plain_walls.push(passes[0].1 + passes[1].1);
        account(&mut report, &mut first, &passes, n, digests(config));
        // Calibrated next to each traced pass: the probe's cost drifts
        // with the host's speed.
        let probe = Tracer::calibrate(20_000);
        let mut tracer = Tracer::new();
        let passes = both(&w, config, &mut tracer);
        let wall = passes[0].1 + passes[1].1;
        traced_walls.push(wall);
        if let Some((c, nc)) = account(&mut report, &mut first, &passes, n, digests(config)) {
            let sum = Summary::of(tracer.spans(), probe);
            let mut v = layer_values(&sum, wall, c, nc, n);
            v.insert("bench.probe_ns".into(), probe.outer);
            per_pass.push(v);
        }
    });
    crate::finish_traced(
        &mut report,
        &per_pass,
        source_ns,
        &plain_walls,
        &traced_walls,
    );
    Ok(report)
}

/// The `stream` workload.
///
/// # Errors
/// When set-up fails.
pub fn run_stream(config: &Config) -> Result<Report, String> {
    let names = ["c_stream", "nc_stream"];
    run(
        config,
        subseed(config.seed, 1),
        config.sizes.stream_n,
        Kind::Plain,
        3.0,
        names,
    )
}

/// The `audited_record` workload.
///
/// # Errors
/// When set-up fails.
pub fn run_audited(config: &Config) -> Result<Report, String> {
    let names = ["c_audited", "nc_audited"];
    run(
        config,
        subseed(config.seed, 2),
        config.sizes.audited_n,
        Kind::Audited,
        2.75,
        names,
    )
}
