//! Seeded random application generation for stress and property tests.

use mcds_model::{
    Application, ApplicationBuilder, ClusterSchedule, Cycles, DataId, DataKind, KernelId,
    ModelError, Words,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of clusters to generate.
    pub clusters: usize,
    /// Kernels per cluster (inclusive range).
    pub kernels_per_cluster: (usize, usize),
    /// Data object size range in words.
    pub data_words: (u64, u64),
    /// Probability that a cluster consumes the set-wide shared table.
    pub share_probability: f64,
    /// Probability that a cluster's last result feeds the next same-set
    /// cluster.
    pub cross_probability: f64,
    /// Context words per kernel.
    pub contexts: u32,
    /// Execution cycles per kernel (inclusive range).
    pub exec_cycles: (u64, u64),
    /// Streaming iterations.
    pub iterations: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            clusters: 4,
            kernels_per_cluster: (1, 3),
            data_words: (32, 256),
            share_probability: 0.5,
            cross_probability: 0.3,
            contexts: 128,
            exec_cycles: (80, 400),
            iterations: 16,
        }
    }
}

/// Deterministic (seeded) generator of valid applications with
/// cluster schedules.
///
/// # Example
///
/// ```
/// use mcds_workloads::synthetic::{SyntheticConfig, SyntheticGenerator};
///
/// let (app, sched) = SyntheticGenerator::new(42)
///     .generate(&SyntheticConfig::default())
///     .expect("generator produces valid applications");
/// assert_eq!(sched.len(), 4);
/// let (app2, _) = SyntheticGenerator::new(42)
///     .generate(&SyntheticConfig::default())
///     .expect("valid");
/// assert_eq!(app, app2, "same seed, same application");
/// ```
#[derive(Debug)]
pub struct SyntheticGenerator {
    rng: StdRng,
}

impl SyntheticGenerator {
    /// A generator with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SyntheticGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates one application and its cluster schedule.
    ///
    /// # Errors
    ///
    /// Propagates model validation; the construction is valid for any
    /// config with non-zero sizes, so errors indicate a config with
    /// zero ranges.
    pub fn generate(
        &mut self,
        config: &SyntheticConfig,
    ) -> Result<(Application, ClusterSchedule), ModelError> {
        let rng = &mut self.rng;
        let mut b = ApplicationBuilder::new("synthetic");
        let size =
            |rng: &mut StdRng| Words::new(rng.gen_range(config.data_words.0..=config.data_words.1));
        let cycles = |rng: &mut StdRng| {
            Cycles::new(rng.gen_range(config.exec_cycles.0..=config.exec_cycles.1))
        };

        // One shared table per Frame Buffer set.
        let shared = [
            b.data("shared0", size(rng), DataKind::ExternalInput),
            b.data("shared1", size(rng), DataKind::ExternalInput),
        ];
        // Last cross-capable result per set.
        let mut cross_in: [Option<DataId>; 2] = [None, None];

        let mut partition: Vec<Vec<KernelId>> = Vec::new();
        for c in 0..config.clusters {
            let set = c % 2;
            let n_kernels =
                rng.gen_range(config.kernels_per_cluster.0..=config.kernels_per_cluster.1);
            let mut kernels = Vec::new();
            let mut carry = b.data(format!("in{c}"), size(rng), DataKind::ExternalInput);
            for k in 0..n_kernels {
                let mut inputs = vec![carry];
                if k == 0 {
                    if rng.gen_bool(config.share_probability) {
                        inputs.push(shared[set]);
                    }
                    if let Some(x) = cross_in[set].take() {
                        inputs.push(x);
                    }
                }
                let last = k + 1 == n_kernels;
                let mut outputs = Vec::new();
                if last {
                    let fin = b.data(format!("fin{c}"), size(rng), DataKind::FinalResult);
                    outputs.push(fin);
                    // Maybe feed a later same-set cluster.
                    if c + 2 < config.clusters && rng.gen_bool(config.cross_probability) {
                        let x = b.data(format!("x{c}"), size(rng), DataKind::Intermediate);
                        outputs.push(x);
                        cross_in[set] = Some(x);
                    }
                } else {
                    let mid = b.data(format!("m{c}_{k}"), size(rng), DataKind::Intermediate);
                    outputs.push(mid);
                    carry = mid;
                }
                kernels.push(b.kernel(
                    format!("k{c}_{k}"),
                    config.contexts,
                    cycles(rng),
                    &inputs,
                    &outputs,
                ));
            }
            partition.push(kernels);
        }
        // A dangling cross result would have no consumer; consume it in
        // a tail kernel if any remain.
        for x in cross_in.into_iter().flatten() {
            let fin = b.data(format!("tail{}", x), size(rng), DataKind::FinalResult);
            let k = b.kernel(
                format!("tail_k{x}"),
                config.contexts,
                cycles(rng),
                &[x],
                &[fin],
            );
            partition.push(vec![k]);
        }
        let app = b.iterations(config.iterations).build()?;
        let sched = ClusterSchedule::new(&app, partition)?;
        Ok((app, sched))
    }
}

/// A knapsack trap for the paper's greedy TF walk: clusters C0 and C4
/// (both on set 0) share three external inputs, `big` and `b1`/`b2` of
/// `shared` words each, while the set-0 cluster C2 between them holds a
/// private `bulk` input the retained copies must coexist with. The four
/// intermediates are `inter` words each. With `big` > `shared`, TF
/// ranks `big` first; at the right Frame Buffer size greedy retains it
/// and then rejects both smaller inputs, though the pair would avoid
/// more traffic (60/40/150/10 words: 60 avoided words against 80).
///
/// # Errors
///
/// Propagates model validation (never fails for non-zero sizes and
/// `iterations`).
pub fn knapsack_trap(
    big: u64,
    shared: u64,
    bulk: u64,
    inter: u64,
    iterations: u64,
) -> Result<(Application, ClusterSchedule), ModelError> {
    let mut b = ApplicationBuilder::new("trap");
    let big = b.data("big", Words::new(big), DataKind::ExternalInput);
    let b1 = b.data("b1", Words::new(shared), DataKind::ExternalInput);
    let b2 = b.data("b2", Words::new(shared), DataKind::ExternalInput);
    let bulk = b.data("bulk", Words::new(bulk), DataKind::ExternalInput);
    let m0 = b.data("m0", Words::new(inter), DataKind::Intermediate);
    let m1 = b.data("m1", Words::new(inter), DataKind::Intermediate);
    let m2 = b.data("m2", Words::new(inter), DataKind::Intermediate);
    let m3 = b.data("m3", Words::new(inter), DataKind::Intermediate);
    let f = b.data("f", Words::new(10), DataKind::FinalResult);
    let k0 = b.kernel("k0", 8, Cycles::new(100), &[big, b1, b2], &[m0]);
    let k1 = b.kernel("k1", 8, Cycles::new(100), &[m0], &[m1]);
    let k2 = b.kernel("k2", 8, Cycles::new(100), &[bulk, m1], &[m2]);
    let k3 = b.kernel("k3", 8, Cycles::new(100), &[m2], &[m3]);
    let k4 = b.kernel("k4", 8, Cycles::new(100), &[big, b1, b2, m3], &[f]);
    let app = b.iterations(iterations).build()?;
    let sched = ClusterSchedule::new(&app, vec![vec![k0], vec![k1], vec![k2], vec![k3], vec![k4]])?;
    Ok((app, sched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcds_core::Comparison;
    use mcds_model::ArchParams;

    #[test]
    fn deterministic_for_seed() {
        let cfg = SyntheticConfig::default();
        let (a1, s1) = SyntheticGenerator::new(7).generate(&cfg).expect("valid");
        let (a2, s2) = SyntheticGenerator::new(7).generate(&cfg).expect("valid");
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
        let (a3, _) = SyntheticGenerator::new(8).generate(&cfg).expect("valid");
        assert_ne!(a1, a3);
    }

    #[test]
    fn many_seeds_produce_valid_runnable_apps() {
        for seed in 0..20 {
            let cfg = SyntheticConfig::default();
            let (app, sched) = SyntheticGenerator::new(seed).generate(&cfg).expect("valid");
            let arch = ArchParams::m1_with_fb(Words::kilo(4));
            let cmp = Comparison::run(&app, &sched, &arch);
            let basic = cmp.basic.as_ref().expect("4K fits the default config");
            let cds = cmp.cds.as_ref().expect("cds runs");
            assert!(
                cds.report().total() <= basic.report().total(),
                "seed {seed}: dominance"
            );
        }
    }

    #[test]
    fn respects_cluster_count_plus_tails() {
        let cfg = SyntheticConfig {
            clusters: 6,
            cross_probability: 0.0,
            ..SyntheticConfig::default()
        };
        let (_, sched) = SyntheticGenerator::new(3).generate(&cfg).expect("valid");
        assert_eq!(sched.len(), 6);
    }
}
