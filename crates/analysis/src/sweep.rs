//! Parallel parameter sweeps on the shared [`ncss_pool`] worker pool.
//!
//! Experiments evaluate many independent `(instance, α, parameter)` cells;
//! these helpers fan the cells out across cores while preserving input
//! order in the results, which keeps the experiment output deterministic:
//! `parallel_map(items, f)` equals `items.iter().map(f).collect()` for any
//! pure `f`, regardless of thread count or interleaving (the determinism
//! test below proves it against the workload generators).
//!
//! The scheduler itself lives in the `ncss-pool` crate — the same
//! atomic-cursor chunked pool that shards the fleet replays and the
//! fault/contract suites — and these functions re-export its auto-sized
//! policy. [`parallel_map`] balances dynamically via an atomic cursor —
//! right for uneven cells (OPT solves of different sizes).
//! [`parallel_map_chunked`] hands each worker fixed contiguous chunks —
//! lower coordination overhead for many cheap uniform cells (one atomic
//! fetch per *chunk* instead of per item, and adjacent items stay adjacent
//! in cache). The bench harness records both against the serial path
//! (`cargo bench -p ncss-bench --bench perf_sweep`).

pub use ncss_pool::{parallel_map, parallel_map_chunked, Pool};

/// Cartesian product helper for sweep grids.
#[must_use]
pub fn grid2<A: Clone, B: Clone>(xs: &[A], ys: &[B]) -> Vec<(A, B)> {
    let mut out = Vec::with_capacity(xs.len() * ys.len());
    for x in xs {
        for y in ys {
            out.push((x.clone(), y.clone()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_product() {
        let g = grid2(&[1, 2], &["a", "b", "c"]);
        assert_eq!(g.len(), 6);
        assert_eq!(g[0], (1, "a"));
        assert_eq!(g[5], (2, "c"));
    }

    /// Cross-thread determinism: generating workloads inside a parallel
    /// sweep yields exactly the instances the serial path produces — the
    /// RNG state lives per cell (seeded from the cell's own seed), so
    /// thread interleaving cannot leak into the draws. Forced worker
    /// counts make this meaningful even on a single-core runner.
    #[test]
    fn parallel_workload_generation_equals_serial() {
        use ncss_workloads::{VolumeDist, WorkloadSpec};
        let seeds: Vec<u64> = (0..96).collect();
        let gen = |&seed: &u64| {
            WorkloadSpec::uniform(20, 1.5, VolumeDist::Exponential { mean: 1.0 })
                .generate(seed)
                .expect("valid spec")
        };
        let serial: Vec<_> = seeds.iter().map(gen).collect();
        assert_eq!(parallel_map(&seeds, gen), serial);
        assert_eq!(parallel_map_chunked(&seeds, 5, gen), serial);
        for threads in [2, 8] {
            assert_eq!(Pool::with_threads(threads).map(&seeds, gen), serial);
        }
    }
}
