//! JULE-lite: joint unsupervised learning of representations and image
//! clusters (Yang et al. 2016) in the reduced form this reproduction
//! supports.
//!
//! Full JULE runs agglomerative clustering *recurrently*, backpropagating
//! through the merge process with a weighted triplet loss on a convnet.
//! The lite variant keeps the alternation that shapes its behaviour:
//!
//! 1. **agglomerative step** — Ward clustering of the current embedding
//!    into a shrinking number of clusters (a merge schedule from
//!    `start_clusters` down to the target K);
//! 2. **representation step** — triplet training of the encoder: for each
//!    anchor, a positive from its cluster and a negative from another,
//!    minimizing `max(0, margin + ‖z_a − z_p‖² − ‖z_a − z_n‖²)`.
//!
//! Like published JULE, it is expensive (repeated agglomerative passes)
//! and shines on image data with clean local structure.

use crate::autoencoder::Autoencoder;
use crate::trace::{ClusterOutput, TraceConfig, TrainTrace};
use adec_classic::ward_agglomerative;
use adec_nn::{Optimizer, ParamId, ParamStore, Sgd, Tape};
use adec_tensor::kernels::FusedAct;
use adec_tensor::{Matrix, SeedRng};
use std::time::Instant;

/// JULE-lite configuration.
#[derive(Debug, Clone)]
pub struct JuleConfig {
    /// Target number of clusters K.
    pub k: usize,
    /// Number of clusters the first agglomerative pass produces; the merge
    /// schedule interpolates down to `k` over the rounds.
    pub start_clusters: usize,
    /// Alternation rounds (agglomerate → triplet-train).
    pub rounds: usize,
    /// Triplet gradient steps per round.
    pub steps_per_round: usize,
    /// Triplets per step.
    pub batch_triplets: usize,
    /// Triplet margin as a fraction of the batch's mean negative distance
    /// (scale-free; JULE's absolute margin would need retuning per latent
    /// scale).
    pub margin: f32,
    /// SGD learning rate.
    pub lr: f32,
    /// What to record.
    pub trace: TraceConfig,
}

impl JuleConfig {
    /// CPU-budget defaults.
    pub fn fast(k: usize) -> Self {
        JuleConfig {
            k,
            start_clusters: k * 4,
            rounds: 6,
            steps_per_round: 80,
            batch_triplets: 64,
            margin: 0.25,
            lr: 0.01,
            trace: TraceConfig::default(),
        }
    }
}

/// Samples `(anchor, positive, negative)` index triplets from a partition.
/// Clusters with fewer than two members cannot anchor a triplet.
fn sample_triplets(
    labels: &[usize],
    n_clusters: usize,
    count: usize,
    rng: &mut SeedRng,
) -> Vec<(usize, usize, usize)> {
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_clusters];
    for (i, &l) in labels.iter().enumerate() {
        members[l].push(i);
    }
    let usable: Vec<usize> = (0..n_clusters).filter(|&c| members[c].len() >= 2).collect();
    if usable.len() < 2 {
        return Vec::new();
    }
    let mut triplets = Vec::with_capacity(count);
    for _ in 0..count {
        let c_pos = usable[rng.below(usable.len())];
        let mut c_neg = usable[rng.below(usable.len())];
        while c_neg == c_pos {
            c_neg = usable[rng.below(usable.len())];
        }
        let anchor = members[c_pos][rng.below(members[c_pos].len())];
        let mut positive = members[c_pos][rng.below(members[c_pos].len())];
        while positive == anchor {
            positive = members[c_pos][rng.below(members[c_pos].len())];
        }
        let negative = members[c_neg][rng.below(members[c_neg].len())];
        triplets.push((anchor, positive, negative));
    }
    triplets
}

/// Runs JULE-lite on a pretrained autoencoder's encoder.
pub fn run(
    ae: &Autoencoder,
    store: &mut ParamStore,
    data: &Matrix,
    cfg: &JuleConfig,
    rng: &mut SeedRng,
) -> ClusterOutput {
    let start = Instant::now();
    assert!(cfg.k >= 2, "jule: k must be at least 2");
    let encoder_ids: std::collections::HashSet<ParamId> =
        ae.encoder.param_ids().into_iter().collect();
    let mut opt = Sgd::new(cfg.lr, 0.9).with_clip(5.0);
    let mut trace = TrainTrace::default();
    let start_clusters = cfg.start_clusters.max(cfg.k).min(data.rows());
    let mut labels: Vec<usize> = vec![0; data.rows()];

    for round in 0..cfg.rounds {
        // Merge schedule: geometric interpolation start → k.
        let t = round as f32 / (cfg.rounds.max(2) - 1) as f32;
        let n_clusters = ((start_clusters as f32).powf(1.0 - t) * (cfg.k as f32).powf(t))
            .round()
            .clamp(cfg.k as f32, start_clusters as f32) as usize;

        let z = ae.embed(store, data);
        labels = ward_agglomerative(&z, n_clusters);
        {
            // Evaluate at the target K for comparability.
            let eval_labels = if n_clusters == cfg.k {
                labels.clone()
            } else {
                ward_agglomerative(&z, cfg.k)
            };
            trace.push_scores(round * cfg.steps_per_round, &cfg.trace, &eval_labels);
        }

        for _ in 0..cfg.steps_per_round {
            let triplets = sample_triplets(&labels, n_clusters, cfg.batch_triplets, rng);
            if triplets.is_empty() {
                break;
            }
            let anchors: Vec<usize> = triplets.iter().map(|&(a, _, _)| a).collect();
            let positives: Vec<usize> = triplets.iter().map(|&(_, p, _)| p).collect();
            let negatives: Vec<usize> = triplets.iter().map(|&(_, _, n)| n).collect();

            let mut tape = Tape::new();
            let xa = tape.leaf(data.gather_rows(&anchors));
            let xp = tape.leaf(data.gather_rows(&positives));
            let xn = tape.leaf(data.gather_rows(&negatives));
            let za = ae.encoder.forward(&mut tape, store, xa);
            let zp = ae.encoder.forward(&mut tape, store, xp);
            let zn = ae.encoder.forward(&mut tape, store, xn);
            // d_pos, d_neg as n×1 row-sum of squared differences.
            let diff_p = tape.sub(za, zp);
            let sq_p = tape.square(diff_p);
            let d_pos = tape.row_sum(sq_p);
            let diff_n = tape.sub(za, zn);
            let sq_n = tape.square(diff_n);
            let d_neg = tape.row_sum(sq_n);
            // hinge = relu(margin·mean(d_neg) + d_pos − d_neg), mean over
            // triplets; the margin is relative to the current latent scale.
            let mean_neg = tape.value(d_neg).mean().max(1e-9);
            let gap = tape.sub(d_pos, d_neg);
            let margin = tape.leaf(Matrix::full(triplets.len(), 1, cfg.margin * mean_neg));
            let shifted = tape.add(gap, margin);
            let hinge = tape.act(shifted, FusedAct::Relu);
            let loss = tape.mean_all(hinge);
            tape.backward(loss);
            opt.step_filtered(&tape, store, |id| encoder_ids.contains(&id));
        }
    }

    // Final partition at the target K.
    let z = ae.embed(store, data);
    let final_labels = ward_agglomerative(&z, cfg.k);
    let mut q = Matrix::zeros(data.rows(), cfg.k);
    for (i, &l) in final_labels.iter().enumerate() {
        q.set(i, l, 1.0);
    }
    let _ = labels;
    ClusterOutput {
        labels: final_labels,
        q,
        iterations: cfg.rounds * cfg.steps_per_round,
        converged: false,
        trace,
        seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::autoencoder::ArchPreset;
    use crate::dec::tests::blob_manifold;
    use crate::pretrain::{pretrain_autoencoder, PretrainConfig};
    use adec_datagen::Modality;

    #[test]
    fn jule_lite_clusters_structured_data() {
        // Averaged over several seeds so the assertion checks a statistical
        // property of the pipeline rather than the luck of one RNG stream.
        let seeds = [71, 72, 73];
        let mut accs = Vec::with_capacity(seeds.len());
        for &seed in &seeds {
            let mut rng = SeedRng::new(seed);
            let (data, y) = blob_manifold(40, 3, 24, &mut rng);
            let mut store = ParamStore::new();
            let ae = Autoencoder::new(&mut store, 24, ArchPreset::Small, &mut rng);
            pretrain_autoencoder(
                &ae,
                &mut store,
                &data,
                Modality::Tabular,
                &PretrainConfig {
                    iterations: 400,
                    batch_size: 64,
                    lr: 1e-3,
                    ..PretrainConfig::vanilla(400)
                },
                &mut rng,
            )
            .unwrap();
            let mut cfg = JuleConfig::fast(3);
            cfg.rounds = 4;
            cfg.trace = TraceConfig::curves(&y);
            let out = run(&ae, &mut store, &data, &cfg, &mut rng);
            assert!(!out.trace.points.is_empty());
            accs.push(out.acc(&y));
        }
        let mean = accs.iter().sum::<f32>() / accs.len() as f32;
        assert!(mean > 0.65, "JULE-lite mean ACC {mean:.3} over seeds {seeds:?} ({accs:?})");
        let best = accs.iter().cloned().fold(f32::MIN, f32::max);
        assert!(best > 0.7, "JULE-lite best ACC {best:.3} over seeds {seeds:?} ({accs:?})");
    }

    #[test]
    fn triplet_sampling_respects_partition() {
        let mut rng = SeedRng::new(72);
        let labels = vec![0, 0, 0, 1, 1, 1, 2, 2];
        let triplets = sample_triplets(&labels, 3, 50, &mut rng);
        assert_eq!(triplets.len(), 50);
        for (a, p, n) in triplets {
            assert_eq!(labels[a], labels[p], "positive must share the anchor's cluster");
            assert_ne!(labels[a], labels[n], "negative must differ");
            assert_ne!(a, p, "anchor and positive must be distinct samples");
        }
    }

    #[test]
    fn degenerate_partitions_yield_no_triplets() {
        let mut rng = SeedRng::new(73);
        // Only one usable cluster (the other is a singleton).
        let labels = vec![0, 0, 0, 1];
        assert!(sample_triplets(&labels, 2, 10, &mut rng).is_empty());
    }

    #[test]
    fn triplet_training_tightens_clusters() {
        // Overlapping Gaussians through an untrained encoder: the triplet
        // hinge is active and training must shrink the within/between
        // latent distance ratio.
        let mut rng = SeedRng::new(74);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for c in 0..2usize {
            for _ in 0..30 {
                let center = if c == 0 { -0.6 } else { 0.6 };
                rows.push((0..16).map(|_| center + rng.normal(0.0, 1.0)).collect::<Vec<f32>>());
                y.push(c);
            }
        }
        let data = Matrix::from_rows(&rows);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 16, ArchPreset::Small, &mut rng);
        let ratio = |store: &ParamStore| -> f32 {
            let z = ae.embed(store, &data);
            let d2 = adec_tensor::pairwise_sq_dists(&z, &z);
            let mut within = 0.0f32;
            let mut between = 0.0f32;
            let (mut nw, mut nb) = (0usize, 0usize);
            for i in 0..z.rows() {
                for j in 0..z.rows() {
                    if i != j {
                        if y[i] == y[j] {
                            within += d2.get(i, j);
                            nw += 1;
                        } else {
                            between += d2.get(i, j);
                            nb += 1;
                        }
                    }
                }
            }
            (within / nw as f32) / (between / nb as f32).max(1e-9)
        };
        let before = ratio(&store);
        let encoder_ids: std::collections::HashSet<ParamId> =
            ae.encoder.param_ids().into_iter().collect();
        let mut opt = Sgd::new(0.01, 0.9);
        for _ in 0..150 {
            let triplets = sample_triplets(&y, 2, 32, &mut rng);
            let anchors: Vec<usize> = triplets.iter().map(|&(a, _, _)| a).collect();
            let positives: Vec<usize> = triplets.iter().map(|&(_, p, _)| p).collect();
            let negatives: Vec<usize> = triplets.iter().map(|&(_, _, n)| n).collect();
            let mut tape = Tape::new();
            let xa = tape.leaf(data.gather_rows(&anchors));
            let xp = tape.leaf(data.gather_rows(&positives));
            let xn = tape.leaf(data.gather_rows(&negatives));
            let za = ae.encoder.forward(&mut tape, &store, xa);
            let zp = ae.encoder.forward(&mut tape, &store, xp);
            let zn = ae.encoder.forward(&mut tape, &store, xn);
            let diff_p = tape.sub(za, zp);
            let sq_p = tape.square(diff_p);
            let d_pos = tape.row_sum(sq_p);
            let diff_n = tape.sub(za, zn);
            let sq_n = tape.square(diff_n);
            let d_neg = tape.row_sum(sq_n);
            let mean_neg = tape.value(d_neg).mean().max(1e-9);
            let gap = tape.sub(d_pos, d_neg);
            let margin = tape.leaf(Matrix::full(triplets.len(), 1, 0.25 * mean_neg));
            let shifted = tape.add(gap, margin);
            let hinge = tape.act(shifted, FusedAct::Relu);
            let loss = tape.mean_all(hinge);
            tape.backward(loss);
            opt.step_filtered(&tape, &mut store, |id| encoder_ids.contains(&id));
        }
        let after = ratio(&store);
        assert!(
            after < before * 0.95,
            "triplet training should tighten clusters: {before} -> {after}"
        );
    }
}
