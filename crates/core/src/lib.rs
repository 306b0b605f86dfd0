//! # adec-core
//!
//! The paper's primary contribution and its deep-clustering baselines,
//! implemented on the `adec-nn` autodiff substrate:
//!
//! * [`autoencoder`] — the shared encoder/decoder pair (paper architecture
//!   n–500–500–2000–10 and CPU-scaled presets).
//! * [`pretrain`] — vanilla reconstruction pretraining and the paper's
//!   ACAI pretraining (adversarially constrained interpolation, eqs. 8–9)
//!   with optional image augmentation.
//! * [`dec`] — Deep Embedded Clustering (Xie et al. 2016; paper §2.2).
//! * [`idec`] — Improved DEC (Guo et al. 2017; paper §2.3, eq. 4) with the
//!   balancing coefficient γ.
//! * [`dcn`] — Deep Clustering Network (latent k-means + reconstruction).
//! * [`adec`] — the paper's ADEC (eqs. 10–12, Algorithm 1): encoder,
//!   decoder, and discriminator trained *separately*, with M auxiliary
//!   decoder catch-up iterations.
//!
//!   DEC, IDEC, DCN and ADEC share one guarded, checkpointed loop
//!   driver (`cluster_loop`); each supplies only its targets and step.
//! * [`lite`] — fully-connected "lite" variants of further Table-1 deep
//!   baselines (AE+k-means, AE+FINCH, DeepCluster, DEPICT, SR-k-means).
//! * [`jule`] / [`vade`] — reduced variants of JULE (agglomerative +
//!   triplet representation learning) and VaDE (variational embedding
//!   with a GMM latent).
//! * [`trace`] — per-interval ACC/NMI/Δ_FR/Δ_FD instrumentation behind the
//!   paper's Figures 7–12.
//! * [`theory`] — numeric verification machinery for Theorems 1–3.
//!
//! ## Quickstart
//!
//! ```no_run
//! use adec_core::prelude::*;
//! use adec_datagen::{Benchmark, Size};
//!
//! # fn main() -> Result<(), TrainError> {
//! let ds = Benchmark::DigitsTest.generate(Size::Small, 7);
//! let mut session = Session::new(&ds, ArchPreset::Small, 7);
//! session.pretrain(&PretrainConfig::acai_fast())?;
//! let out = session.run_adec(&AdecConfig::fast(ds.n_classes))?;
//! println!("ACC {:.3}", adec_metrics::accuracy(&ds.labels, &out.labels));
//! # Ok(())
//! # }
//! ```

// Numeric kernels index with explicit loop counters throughout; the
// iterator rewrites clippy suggests are less readable for the math here.
#![allow(clippy::needless_range_loop)]
// Indexing in these numeric routines is bounded by the shapes and
// counts established at the top of each function; checked access
// would obscure the math without adding safety.
#![allow(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod adec;
pub mod archspec;
pub mod autoencoder;
mod cluster_loop;
pub mod dcn;
pub mod dec;
pub mod guard;
pub mod idec;
pub mod jule;
pub mod lite;
pub mod phases;
pub mod pretrain;
pub mod profiling;
pub mod session;
pub mod theory;
pub mod vade;
pub mod trace;

pub use adec::{Adec, AdecConfig};
pub use autoencoder::{arch_dims, ArchPreset, Autoencoder};
pub use dcn::{Dcn, DcnConfig};
pub use dec::{Dec, DecConfig};
pub use guard::{DurabilityConfig, Fault, GuardConfig, TrainError, TrainGuard};
pub use idec::{Idec, IdecConfig};
pub use pretrain::{pretrain_autoencoder, pretrain_stacked_denoising, PretrainConfig, PretrainStats, SdaeConfig};
pub use session::Session;
pub use trace::{ClusterOutput, TraceConfig, TrainTrace};

/// Convenience prelude bundling the types most pipelines need.
pub mod prelude {
    pub use crate::adec::{Adec, AdecConfig};
    pub use crate::autoencoder::{ArchPreset, Autoencoder};
    pub use crate::dcn::DcnConfig;
    pub use crate::dec::DecConfig;
    pub use crate::guard::{DurabilityConfig, GuardConfig, TrainError};
    pub use crate::idec::IdecConfig;
    pub use crate::pretrain::PretrainConfig;
    pub use crate::session::Session;
    pub use crate::trace::{ClusterOutput, TraceConfig, TrainTrace};
}
