//! Per-machine state shared by the two serial dispatchers.
//!
//! Both C-PAR's greedy rule and NC-PAR's `K_j` read `W^{(C)}(r^-)`: the
//! remaining weight Algorithm C would have on one machine just before a
//! release, over the jobs already dispatched to that machine. A
//! [`MachineShadow`] answers it from one live [`CStream`] fed exactly
//! those jobs, in dispatch order, so every answer is the same bits as a
//! fresh `run_c` over the machine's history, without re-running it.

use ncss_core::streaming::CStream;
use ncss_sim::{Job, PowerLaw, SimResult};
use std::cmp::Ordering;

/// `Iterator::sum` of no weights. Tie weights are accumulated from it, one
/// job at a time, so they carry the bits of the `filter(..).sum()` the
/// serial reference computes.
pub(crate) fn empty_sum() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// One machine's shadow Algorithm C run.
#[derive(Debug, Clone)]
pub(crate) struct MachineShadow {
    pub(crate) stream: CStream,
    /// Release time of the machine's latest job.
    pub(crate) last_release: f64,
    /// `W^{(C)}(last_release^-)`.
    pub(crate) before: f64,
    /// Summed weight of the machine's jobs released at `last_release`.
    pub(crate) ties: f64,
}

impl MachineShadow {
    pub(crate) fn new(law: PowerLaw) -> Self {
        Self {
            stream: CStream::shadow(law),
            last_release: f64::NEG_INFINITY,
            before: 0.0,
            ties: empty_sum(),
        }
    }

    /// Dispatch `job` to this machine and return the weight it meets: the
    /// left limit `W^{(C)}(r^-)` over the machine's earlier jobs, plus the
    /// full weight of those released at the same instant (the
    /// distinct-release limit of `ncss_core::nc_uniform::base_power`).
    ///
    /// The job is offered *before* the weight is read, because `offer`
    /// already advances the stream to `r`. A separate `advance_to(r)` first
    /// would drain to the same bound twice, and on a busy machine the
    /// second, empty drain still counts as an event toward the stream's
    /// exact-weight resync, which can move later bits away from a fresh
    /// `run_c`. Reading after the offer is exact: the release only
    /// truncates the segment in service at `r`, and later offers at the
    /// same `r` close no segment.
    pub(crate) fn admit(&mut self, job: Job) -> SimResult<f64> {
        self.stream.offer(job, &mut |_| {})?;
        if job.release != self.last_release {
            self.last_release = job.release;
            self.ties = empty_sum();
        }
        self.before = self.stream.weight_before(job.release);
        let met = self.before + self.ties;
        self.ties += job.weight();
        Ok(met)
    }
}

/// A machine keyed by a time (its availability or the end of its C run)
/// for the dispatchers' min-heaps: earliest time first, then lowest index.
/// The times are finite and non-negative, where `total_cmp` is the
/// numeric order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ByTime {
    pub(crate) time: f64,
    pub(crate) machine: usize,
}

impl PartialEq for ByTime {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ByTime {}

impl PartialOrd for ByTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByTime {
    /// Reversed, so `BinaryHeap` pops the earliest time.
    fn cmp(&self, other: &Self) -> Ordering {
        other.time.total_cmp(&self.time).then(other.machine.cmp(&self.machine))
    }
}
