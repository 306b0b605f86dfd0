//! Deep Clustering Network (Yang et al. 2017): joint reconstruction and
//! *latent k-means*, `L = L_r + (λ/2)·Σᵢ ‖zᵢ − M·sᵢ‖²` — the loss whose
//! clustering/reconstruction decomposition the paper's Theorem 1 analyzes.
//!
//! Follows the DCN paper's alternating scheme: network update by SGD on
//! the joint loss with assignments fixed, then hard reassignment and
//! count-weighted incremental centroid updates.

use crate::autoencoder::Autoencoder;
use crate::cluster_loop::{cluster_loop, ClusterTrainer, StepCheck};
use crate::dec::{init_centroids, minibatch};
use crate::guard::{
    faults::FaultPlan, push_labels, take_labels, DurabilityConfig, ExtraCursor, Fault,
    GuardConfig, TrainError, TrainGuard,
};
use crate::trace::{ClusterOutput, TraceConfig};
use adec_nn::{Optimizer, ParamId, ParamStore, Sgd, Tape, Var};
use adec_tensor::{linalg::pairwise_sq_dists, Matrix, SeedRng};

/// DCN configuration.
#[derive(Debug, Clone)]
pub struct DcnConfig {
    /// Number of clusters K.
    pub k: usize,
    /// Latent k-means weight λ.
    pub lambda: f32,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Maximum mini-batch iterations.
    pub max_iter: usize,
    /// Label-change convergence threshold.
    pub tol: f32,
    /// Assignment/metric refresh interval.
    pub update_interval: usize,
    /// What to record while training.
    pub trace: TraceConfig,
    /// Divergence detection and rollback-recovery policy. DCN's hard
    /// assignment legitimately leaves clusters transiently empty, so the
    /// guard only applies the finite/ceiling checks here (no collapse
    /// detection).
    pub guard: GuardConfig,
    /// Deterministic fault injections (tests / chaos harness).
    pub faults: FaultPlan,
    /// Checkpoint scheduling and resumption.
    pub durability: DurabilityConfig,
}

impl DcnConfig {
    /// CPU-budget configuration.
    pub fn fast(k: usize) -> Self {
        DcnConfig {
            k,
            lambda: 0.5,
            lr: 0.01,
            momentum: 0.9,
            batch_size: 128,
            max_iter: 1_200,
            tol: 0.001,
            update_interval: 140,
            trace: TraceConfig::default(),
            guard: GuardConfig::default(),
            faults: FaultPlan::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

/// DCN runner.
pub struct Dcn;

fn nearest_centroids(z: &Matrix, centroids: &Matrix) -> Vec<usize> {
    let d = pairwise_sq_dists(z, centroids);
    (0..z.rows())
        .map(|i| {
            let row = d.row(i);
            let mut best = 0usize;
            let mut best_v = f32::INFINITY;
            for (j, &v) in row.iter().enumerate() {
                if v < best_v {
                    best_v = v;
                    best = j;
                }
            }
            best
        })
        .collect()
}

impl Dcn {
    /// Runs DCN fine-tuning.
    ///
    /// Guarded and checkpointed like [`crate::Dec::run`]; the centroid
    /// matrix lives in the store (`"dcn.centroids"`) so rollback and
    /// checkpointing cover it, and the per-cluster assignment counts ride
    /// in the checkpoint's `extra` words.
    pub fn run(
        ae: &Autoencoder,
        store: &mut ParamStore,
        data: &Matrix,
        cfg: &DcnConfig,
        rng: &mut SeedRng,
    ) -> Result<ClusterOutput, TrainError> {
        let (_, out) = cluster_loop!("dcn", ae, data, cfg).run(store, rng, |store, rng| {
            let mu0 = init_centroids(ae, store, data, cfg.k, rng);
            let mu_id = store.register("dcn.centroids", mu0);
            crate::archspec::clustering_spec("dcn", ae, store, store.get(mu_id), "sgd+momentum").assert_valid();
            DcnTrainer {
                ae,
                data,
                cfg,
                mu_id,
                opt: Sgd::new(cfg.lr, cfg.momentum).with_clip(5.0),
                counts: vec![1; cfg.k],
                counts_good: vec![1; cfg.k],
            }
        })?;
        Ok(out)
    }
}

/// DCN's part of the shared clustering loop: hard nearest-centroid
/// targets, a network step on the joint loss, then the count-weighted
/// centroid update.
struct DcnTrainer<'a> {
    ae: &'a Autoencoder,
    data: &'a Matrix,
    cfg: &'a DcnConfig,
    mu_id: ParamId,
    opt: Sgd,
    /// Per-cluster assignment counts: the incremental centroid update's
    /// learning rate is 1/count.
    counts: Vec<usize>,
    /// The counts at the last clean refresh, restored on rollback.
    counts_good: Vec<usize>,
}

impl ClusterTrainer for DcnTrainer<'_> {
    fn centroids(&self) -> ParamId {
        self.mu_id
    }

    fn guarded(&self) -> Vec<ParamId> {
        let mut ids = self.ae.param_ids();
        ids.push(self.mu_id);
        ids
    }

    fn optimizers(&mut self) -> &mut [Sgd] {
        std::slice::from_mut(&mut self.opt)
    }

    /// DCN has no soft assignment of its own; the final profile's entropy
    /// and confidence use the Student-t assignment serve applies at its
    /// default alpha.
    fn alpha(&self) -> f32 {
        1.0
    }

    fn refresh(&mut self, store: &ParamStore, guard: &TrainGuard) -> Result<Vec<usize>, Fault> {
        guard.check_params(store)?;
        let z = self.ae.embed(store, self.data);
        Ok(nearest_centroids(&z, store.get(self.mu_id)))
    }

    fn step(
        &mut self,
        store: &mut ParamStore,
        rng: &mut SeedRng,
        check: &mut StepCheck<'_>,
    ) -> Result<(), Fault> {
        let (_, x_b) = minibatch(self.data, self.cfg.batch_size, None, rng);

        // Assignments with the current network (fixed during the step).
        let z_now = self.ae.embed(store, &x_b);
        let assign = nearest_centroids(&z_now, store.get(self.mu_id));
        let targets = store.get(self.mu_id).gather_rows(&assign);

        // Network update on L_r + (λ/2)‖z − M s‖².
        let _prof_tape = adec_nn::profiler::phase("dcn.step");
        let mut tape = Tape::new();
        let loss = step_graph(&mut tape, self.ae, store, &x_b, targets, self.cfg.lambda);
        check.loss(tape.scalar(loss))?;
        tape.backward(loss);
        let ae_ids = self.ae.param_ids();
        self.opt.step_filtered(&tape, store, |id| ae_ids.contains(&id));

        // Incremental centroid update (DCN eq. 8): per-sample step with
        // learning rate 1/count.
        let z_new = self.ae.embed(store, &x_b);
        let centroids = store.get_mut(self.mu_id);
        for (row, &c) in assign.iter().enumerate() {
            self.counts[c] += 1;
            let lr_c = 1.0 / self.counts[c] as f32;
            for t in 0..centroids.cols() {
                let cur = centroids.get(c, t);
                centroids.set(c, t, cur + lr_c * (z_new.get(row, t) - cur));
            }
        }
        Ok(())
    }

    fn commit(&mut self) {
        self.counts_good = self.counts.clone();
    }

    fn rollback(&mut self) {
        self.counts = self.counts_good.clone();
    }

    fn push_extra(&self, extra: &mut Vec<u64>) {
        push_labels(extra, Some(&self.counts));
    }

    fn take_extra(&mut self, cur: &mut ExtraCursor<'_>) -> Result<(), TrainError> {
        let counts = take_labels(cur)?
            .ok_or_else(|| TrainError::Resume("dcn checkpoint lacks counts".into()))?;
        if counts.len() != self.cfg.k {
            return Err(TrainError::Resume(format!(
                "dcn checkpoint has {} cluster counts, config wants {}",
                counts.len(),
                self.cfg.k
            )));
        }
        self.counts_good = counts.clone();
        self.counts = counts;
        Ok(())
    }

    /// DCN is hard-assignment: nearest-centroid labels and a one-hot Q
    /// for interface parity.
    fn output(&self, z: &Matrix, _q: Matrix, store: &ParamStore) -> (Vec<usize>, Matrix) {
        let labels = nearest_centroids(z, store.get(self.mu_id));
        let mut q = Matrix::zeros(z.rows(), self.cfg.k);
        for (i, &l) in labels.iter().enumerate() {
            q.set(i, l, 1.0);
        }
        (labels, q)
    }
}

/// The `dcn.step` graph: reconstruction plus (λ/2)‖z − M·s‖² against the
/// batch's assigned centroids `targets`, through encoder and decoder.
pub(crate) fn step_graph(
    tape: &mut Tape,
    ae: &Autoencoder,
    store: &ParamStore,
    x_b: &Matrix,
    targets: Matrix,
    lambda: f32,
) -> Var {
    let xv = tape.leaf(x_b.clone());
    let z = ae.encoder.forward(tape, store, xv);
    let xhat = ae.decoder.forward(tape, store, z);
    let x_target = tape.leaf(x_b.clone());
    let rec = tape.mse(xhat, x_target);
    let t = tape.leaf(targets);
    let km = tape.mse(z, t);
    let km_scaled = tape.scale(km, lambda / 2.0);
    tape.add(rec, km_scaled)
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::autoencoder::ArchPreset;
    use crate::dec::tests::blob_manifold;
    use crate::pretrain::{pretrain_autoencoder, PretrainConfig};
    use adec_datagen::Modality;

    #[test]
    fn dcn_clusters_structured_data() {
        let mut rng = SeedRng::new(31);
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
        let mut cfg = DcnConfig::fast(3);
        cfg.max_iter = 600;
        cfg.trace = TraceConfig::curves(&y);
        let out = Dcn::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        let acc = out.acc(&y);
        assert!(acc > 0.7, "DCN ACC {acc}");
    }

    #[test]
    fn dcn_q_is_one_hot() {
        let mut rng = SeedRng::new(32);
        let (data, _) = blob_manifold(15, 2, 12, &mut rng);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, 12, ArchPreset::Small, &mut rng);
        let mut cfg = DcnConfig::fast(2);
        cfg.max_iter = 100;
        let out = Dcn::run(&ae, &mut store, &data, &cfg, &mut rng).unwrap();
        for i in 0..out.q.rows() {
            let s: f32 = out.q.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(out.q.row(i).iter().all(|&v| v == 0.0 || v == 1.0));
        }
    }

    #[test]
    fn nearest_centroid_assignment() {
        let z = Matrix::from_vec(2, 1, vec![0.1, 4.9]);
        let c = Matrix::from_vec(2, 1, vec![0.0, 5.0]);
        assert_eq!(nearest_centroids(&z, &c), vec![0, 1]);
    }
}
