//! Named workload suites used by the experiment harness.
//!
//! Each suite is a deterministic function of a base seed, so every
//! experiment in EXPERIMENTS.md is exactly reproducible.

use crate::distributions::{DensityDist, VolumeDist};
use crate::generator::WorkloadSpec;
use ncss_sim::Instance;

/// Deterministically derive a per-instance seed.
fn derive(base: u64, idx: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(idx.wrapping_mul(0xBF58_476D_1CE4_E5B9)).wrapping_add(1)
}

/// Uniform-density suite for the Section 3 experiments: a spread of sizes,
/// arrival intensities, and volume distributions.
#[must_use]
pub fn uniform_suite(base_seed: u64) -> Vec<Instance> {
    let dists = [
        VolumeDist::Uniform { lo: 0.2, hi: 2.0 },
        VolumeDist::Exponential { mean: 1.0 },
        VolumeDist::Pareto { scale: 0.3, shape: 1.6 },
        VolumeDist::Bimodal { small: 0.05, large: 5.0, p_large: 0.15 },
    ];
    let mut out = Vec::new();
    let mut idx = 0u64;
    for &n in &[1usize, 3, 8, 20, 40] {
        for (d, dist) in dists.iter().enumerate() {
            for &rate in &[0.5, 2.0] {
                idx += 1;
                let spec = WorkloadSpec::uniform(n, rate, *dist);
                out.push(spec.generate(derive(base_seed, idx * 10 + d as u64)).expect("valid spec"));
            }
        }
    }
    out
}

/// Non-uniform-density suite for the Section 4 experiments.
#[must_use]
pub fn nonuniform_suite(base_seed: u64) -> Vec<Instance> {
    let densities = [
        DensityDist::LogUniform { lo: 0.2, hi: 20.0 },
        DensityDist::PowerLevels { base: 5.0, levels: 3 },
    ];
    let mut out = Vec::new();
    let mut idx = 0u64;
    for &n in &[2usize, 5, 10, 18] {
        for (d, dens) in densities.iter().enumerate() {
            idx += 1;
            let spec = WorkloadSpec {
                n_jobs: n,
                arrival_rate: 1.5,
                volumes: VolumeDist::Exponential { mean: 0.8 },
                densities: *dens,
            };
            out.push(spec.generate(derive(base_seed, idx * 100 + d as u64)).expect("valid spec"));
        }
    }
    out
}

/// Small instances for experiments that solve the offline optimum.
#[must_use]
pub fn tiny_suite(base_seed: u64, uniform: bool) -> Vec<Instance> {
    let mut out = Vec::new();
    for (i, &n) in [1usize, 2, 4, 8, 12].iter().enumerate() {
        let spec = WorkloadSpec {
            n_jobs: n,
            arrival_rate: 1.0,
            volumes: VolumeDist::Uniform { lo: 0.3, hi: 1.8 },
            densities: if uniform {
                DensityDist::Fixed(1.0)
            } else {
                DensityDist::LogUniform { lo: 0.5, hi: 8.0 }
            },
        };
        out.push(spec.generate(derive(base_seed, i as u64 + 7)).expect("valid spec"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_deterministic() {
        assert_eq!(uniform_suite(1), uniform_suite(1));
        assert_ne!(uniform_suite(1), uniform_suite(2));
        assert_eq!(nonuniform_suite(3), nonuniform_suite(3));
    }

    #[test]
    fn uniform_suite_is_uniform() {
        for inst in uniform_suite(5) {
            assert!(inst.is_uniform_density());
            assert!(!inst.is_empty());
        }
    }

    #[test]
    fn nonuniform_suite_has_spread() {
        let spread = nonuniform_suite(5).iter().filter(|i| !i.is_uniform_density()).count();
        assert!(spread >= 6, "most instances should be genuinely non-uniform");
    }

    #[test]
    fn tiny_suite_sizes() {
        let t = tiny_suite(9, true);
        assert_eq!(t.len(), 5);
        assert!(t.iter().all(|i| i.len() <= 12));
        assert!(t.iter().all(|i| i.is_uniform_density()));
        assert!(tiny_suite(9, false).iter().any(|i| !i.is_uniform_density()));
    }
}
