//! High-level experiment session: one dataset + one autoencoder, with a
//! pretrained-weight snapshot so that DEC*/IDEC*/ADEC comparisons (the
//! paper's Table 2) all fine-tune from identical weights.

use crate::adec::{Adec, AdecConfig};
use crate::autoencoder::{ArchPreset, Autoencoder};
use crate::dcn::{Dcn, DcnConfig};
use crate::dec::{Dec, DecConfig};
use crate::guard::TrainError;
use crate::idec::{Idec, IdecConfig};
use crate::pretrain::{pretrain_autoencoder, PretrainConfig, PretrainStats};
use crate::trace::ClusterOutput;
use adec_datagen::{Dataset, Modality};
use adec_nn::{ParamId, ParamStore};
use adec_tensor::{Matrix, SeedRng};

/// A reusable experiment context over one dataset.
///
/// Every `run_*` method first restores the pretrained snapshot (if one
/// exists), so successive runs are independent and fair.
pub struct Session {
    /// Dataset features.
    pub data: Matrix,
    /// Ground-truth labels (evaluation only).
    pub labels: Vec<usize>,
    /// Number of ground-truth classes.
    pub n_classes: usize,
    /// Feature modality (drives augmentation).
    pub modality: Modality,
    /// Parameter store holding autoencoder (and later model) weights.
    pub store: ParamStore,
    /// The shared autoencoder.
    pub ae: Autoencoder,
    rng: SeedRng,
    ae_ids: Vec<ParamId>,
    pretrained: Option<Vec<Matrix>>,
}

impl Session {
    /// Builds a session for a dataset with a fresh autoencoder.
    pub fn new(ds: &Dataset, preset: ArchPreset, seed: u64) -> Self {
        let mut rng = SeedRng::new(seed);
        let mut store = ParamStore::new();
        let ae = Autoencoder::new(&mut store, ds.dim(), preset, &mut rng);
        let ae_ids = ae.param_ids();
        Session {
            data: ds.data.clone(),
            labels: ds.labels.clone(),
            n_classes: ds.n_classes,
            modality: ds.modality,
            store,
            ae,
            rng,
            ae_ids,
            pretrained: None,
        }
    }

    /// Pretrains the autoencoder and snapshots the weights.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainError`] from the guarded pretraining loop; the
    /// snapshot is only taken on success.
    pub fn pretrain(&mut self, cfg: &PretrainConfig) -> Result<PretrainStats, TrainError> {
        let stats = pretrain_autoencoder(
            &self.ae,
            &mut self.store,
            &self.data,
            self.modality,
            cfg,
            &mut self.rng,
        )?;
        self.pretrained = Some(self.store.snapshot(&self.ae_ids));
        Ok(stats)
    }

    /// Restores the pretrained snapshot (no-op before [`Session::pretrain`]).
    pub fn restore_pretrained(&mut self) {
        if let Some(snap) = &self.pretrained {
            self.store.restore(&self.ae_ids, snap);
        }
    }

    /// Forks a deterministic per-run RNG stream.
    pub fn fork_rng(&mut self, stream: u64) -> SeedRng {
        self.rng.fork(stream)
    }

    /// Current embedding of the full dataset.
    pub fn embed(&self) -> Matrix {
        self.ae.embed(&self.store, &self.data)
    }

    /// Runs DEC from the pretrained snapshot. On image datasets the
    /// clustering phase trains on augmented views (the paper's `*`
    /// setting) unless the config already chose.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainError`] from the guarded training loop.
    pub fn run_dec(&mut self, cfg: &DecConfig) -> Result<ClusterOutput, TrainError> {
        self.restore_pretrained();
        let mut cfg = cfg.clone();
        if cfg.augment.is_none() {
            cfg.augment = self.modality.augment_shape();
        }
        let mut rng = self.rng.fork(0xDEC);
        Dec::run(&self.ae, &mut self.store, &self.data, &cfg, &mut rng)
    }

    /// Runs IDEC from the pretrained snapshot (augmented on images, like
    /// [`Session::run_dec`]).
    ///
    /// # Errors
    ///
    /// Propagates [`TrainError`] from the guarded training loop.
    pub fn run_idec(&mut self, cfg: &IdecConfig) -> Result<ClusterOutput, TrainError> {
        self.restore_pretrained();
        let mut cfg = cfg.clone();
        if cfg.augment.is_none() {
            cfg.augment = self.modality.augment_shape();
        }
        let mut rng = self.rng.fork(0x1DEC);
        Idec::run(&self.ae, &mut self.store, &self.data, &cfg, &mut rng)
    }

    /// Runs DCN from the pretrained snapshot.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainError`] from the guarded training loop.
    pub fn run_dcn(&mut self, cfg: &DcnConfig) -> Result<ClusterOutput, TrainError> {
        self.restore_pretrained();
        let mut rng = self.rng.fork(0xDC);
        Dcn::run(&self.ae, &mut self.store, &self.data, cfg, &mut rng)
    }

    /// Runs ADEC from the pretrained snapshot; returns the output and the
    /// trained discriminator wrapper.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainError`] from the guarded training loop.
    pub fn run_adec(&mut self, cfg: &AdecConfig) -> Result<ClusterOutput, TrainError> {
        Ok(self.run_adec_full(cfg)?.1)
    }

    /// Like [`Session::run_adec`] but also returns the model (trained
    /// discriminator) for inspection.
    ///
    /// # Errors
    ///
    /// Propagates [`TrainError`] from the guarded training loop.
    pub fn run_adec_full(&mut self, cfg: &AdecConfig) -> Result<(Adec, ClusterOutput), TrainError> {
        self.restore_pretrained();
        let mut cfg = cfg.clone();
        if cfg.augment.is_none() {
            cfg.augment = self.modality.augment_shape();
        }
        let mut rng = self.rng.fork(0xADEC);
        Adec::run(&self.ae, &mut self.store, &self.data, &cfg, &mut rng)
    }
}

#[cfg(test)]
// Test code: unwraps are the assertions themselves here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;
    use adec_datagen::{Benchmark, Size};

    #[test]
    fn snapshot_makes_runs_independent() {
        let ds = Benchmark::Protein.generate(Size::Small, 3);
        let mut session = Session::new(&ds, ArchPreset::Small, 3);
        session
            .pretrain(&PretrainConfig {
                iterations: 150,
                batch_size: 64,
                lr: 1e-3,
                ..PretrainConfig::vanilla(150)
            })
            .unwrap();
        let z_pre = session.embed();

        let mut cfg = DecConfig::fast(ds.n_classes);
        cfg.max_iter = 120;
        let _ = session.run_dec(&cfg).unwrap();
        // After restore, the embedding must match the snapshot exactly.
        session.restore_pretrained();
        let z_restored = session.embed();
        assert_eq!(z_pre, z_restored);
    }

    #[test]
    fn session_runs_each_model() {
        let ds = Benchmark::Protein.generate(Size::Small, 5);
        let mut session = Session::new(&ds, ArchPreset::Small, 5);
        session
            .pretrain(&PretrainConfig {
                iterations: 200,
                batch_size: 64,
                lr: 1e-3,
                ..PretrainConfig::vanilla(200)
            })
            .unwrap();
        let mut dec_cfg = DecConfig::fast(ds.n_classes);
        dec_cfg.max_iter = 120;
        dec_cfg.trace = TraceConfig::curves(&ds.labels);
        let dec = session.run_dec(&dec_cfg).unwrap();
        assert_eq!(dec.labels.len(), ds.len());

        let mut idec_cfg = IdecConfig::fast(ds.n_classes);
        idec_cfg.max_iter = 120;
        let idec = session.run_idec(&idec_cfg).unwrap();
        assert_eq!(idec.labels.len(), ds.len());

        let mut dcn_cfg = DcnConfig::fast(ds.n_classes);
        dcn_cfg.max_iter = 120;
        let dcn = session.run_dcn(&dcn_cfg).unwrap();
        assert_eq!(dcn.labels.len(), ds.len());

        let mut adec_cfg = AdecConfig::fast(ds.n_classes);
        adec_cfg.max_iter = 120;
        adec_cfg.disc_pretrain = 30;
        let adec = session.run_adec(&adec_cfg).unwrap();
        assert_eq!(adec.labels.len(), ds.len());
    }
}
