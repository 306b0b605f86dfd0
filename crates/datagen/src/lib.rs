//! # adec-datagen
//!
//! Deterministic synthetic simulators of the six benchmark datasets the
//! ADEC paper evaluates on. The real corpora (MNIST, USPS, Fashion-MNIST,
//! REUTERS-10K, Mice Protein) are not available in this environment, so
//! each is replaced by a generator that preserves the property the paper's
//! experiments exercise: cluster structure embedded in a high-dimensional,
//! nonlinearly entangled ambient space of the right modality. See
//! `DESIGN.md` §3 for the substitution rationale.
//!
//! All generators are pure functions of `(size, seed)` and normalize like
//! the paper: the dataset is rescaled so that `‖xᵢ‖²/n ≈ 1` on average.
//!
//! ```
//! use adec_datagen::{Benchmark, Size};
//!
//! let ds = Benchmark::DigitsTest.generate(Size::Small, 7);
//! assert_eq!(ds.n_classes, 10);
//! assert_eq!(ds.data.rows(), ds.labels.len());
//! ```

// Numeric kernels index with explicit loop counters throughout; the
// iterator rewrites clippy suggests are less readable for the math here.
#![allow(clippy::needless_range_loop)]
// Indexing in these numeric routines is bounded by the shapes and
// counts established at the top of each function; checked access
// would obscure the math without adding safety.
#![allow(clippy::indexing_slicing)]
#![warn(missing_docs)]

pub mod augment;
pub mod csv;
pub mod digits;
pub mod fashion;
pub mod render;
pub mod stream;
pub mod tabular;
pub mod text;

pub use stream::{ShiftEvent, ShiftKind, ShiftSchedule, StreamSim};

use adec_tensor::{Matrix, SeedRng};

/// How a dataset's features should be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modality {
    /// Row-major `h × w` grayscale image per sample; supports augmentation.
    Image {
        /// Image height in pixels.
        h: usize,
        /// Image width in pixels.
        w: usize,
    },
    /// Sparse non-negative text features (TF-IDF); no augmentation (the
    /// paper's ‡ mark).
    Text,
    /// Dense tabular features; no augmentation (the paper's † mark).
    Tabular,
}

impl Modality {
    /// The `(h, w)` of the rotation/translation augmentation, which applies
    /// to images only (the paper's ‡/† marks exempt text and tabular data).
    pub fn augment_shape(self) -> Option<(usize, usize)> {
        match self {
            Modality::Image { h, w } => Some((h, w)),
            _ => None,
        }
    }
}

/// A generated dataset: an `n × d` feature matrix plus ground-truth labels.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset identifier (paper benchmark name).
    pub name: &'static str,
    /// `n × d` features, normalized so the mean of `‖xᵢ‖²/d` is 1.
    pub data: Matrix,
    /// Ground-truth class per row (used only for evaluation, never training).
    pub labels: Vec<usize>,
    /// Number of ground-truth classes.
    pub n_classes: usize,
    /// Feature-space interpretation.
    pub modality: Modality,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.data.rows()
    }

    /// Whether the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.data.rows() == 0
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.data.cols()
    }

    /// Whether image augmentation applies to this dataset.
    pub fn supports_augmentation(&self) -> bool {
        self.modality.augment_shape().is_some()
    }
}

/// Scale presets controlling sample count and (for images) resolution.
///
/// The paper-scale preset reproduces the published sample counts; the
/// smaller presets keep the full experiment suite runnable on a laptop CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Fast unit-test scale: a few hundred samples, 12×12 images.
    Small,
    /// Experiment-harness scale: low thousands, 16×16 images.
    Medium,
    /// Published sample counts and resolutions (slow on CPU).
    Paper,
}

impl Size {
    /// Every preset, smallest first.
    pub const ALL: [Size; 3] = [Size::Small, Size::Medium, Size::Paper];

    /// Command-line name (`--size`, `ADEC_SIZE`).
    pub fn cli_name(self) -> &'static str {
        match self {
            Size::Small => "small",
            Size::Medium => "medium",
            Size::Paper => "paper",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Size> {
        Size::ALL.into_iter().find(|s| s.cli_name() == name)
    }
}

/// The six paper benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// MNIST-full analog: 10-class synthetic digits.
    DigitsFull,
    /// MNIST-test analog: disjoint smaller draw of the same simulator.
    DigitsTest,
    /// USPS analog: 16×16 digits with heavier blur/noise.
    DigitsUsps,
    /// Fashion-MNIST analog: 10 overlapping silhouette classes.
    Fashion,
    /// REUTERS-10K analog: 4-topic synthetic TF-IDF text.
    Tfidf,
    /// Mice Protein analog: 8-class 77-dim tabular data.
    Protein,
}

impl Benchmark {
    /// All six benchmarks in the paper's table order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::DigitsFull,
        Benchmark::DigitsTest,
        Benchmark::DigitsUsps,
        Benchmark::Fashion,
        Benchmark::Tfidf,
        Benchmark::Protein,
    ];

    /// Paper-table display name.
    pub fn name(&self) -> &'static str {
        match self {
            Benchmark::DigitsFull => "MNIST-full*",
            Benchmark::DigitsTest => "MNIST-test*",
            Benchmark::DigitsUsps => "USPS*",
            Benchmark::Fashion => "Fashion-MNIST*",
            Benchmark::Tfidf => "REUTERS-10K*",
            Benchmark::Protein => "Mice Protein*",
        }
    }

    /// Command-line name (`--dataset`).
    pub fn cli_name(self) -> &'static str {
        match self {
            Benchmark::DigitsFull => "digits-full",
            Benchmark::DigitsTest => "digits-test",
            Benchmark::DigitsUsps => "usps",
            Benchmark::Fashion => "fashion",
            Benchmark::Tfidf => "reuters",
            Benchmark::Protein => "protein",
        }
    }

    /// Parses a command-line name or one of the aliases `mnist-full`,
    /// `mnist-test`, `tfidf` and `mice`.
    pub fn parse(name: &str) -> Option<Benchmark> {
        let name = match name {
            "mnist-full" => "digits-full",
            "mnist-test" => "digits-test",
            "tfidf" => "reuters",
            "mice" => "protein",
            other => other,
        };
        Benchmark::ALL.into_iter().find(|b| b.cli_name() == name)
    }

    /// Generates the dataset at the given size with the given seed.
    pub fn generate(&self, size: Size, seed: u64) -> Dataset {
        let mut rng = SeedRng::new(seed ^ 0xADEC_0000);
        match self {
            Benchmark::DigitsFull => digits::generate_full(size, &mut rng),
            Benchmark::DigitsTest => digits::generate_test(size, &mut rng),
            Benchmark::DigitsUsps => digits::generate_usps(size, &mut rng),
            Benchmark::Fashion => fashion::generate(size, &mut rng),
            Benchmark::Tfidf => text::generate(size, &mut rng),
            Benchmark::Protein => tabular::generate(size, &mut rng),
        }
    }
}

/// Rescales `data` in place so the dataset-mean of `‖xᵢ‖²/d` equals 1
/// (the paper's normalization).
pub fn normalize_paper(data: &mut Matrix) {
    let n = data.rows();
    let d = data.cols();
    if n == 0 || d == 0 {
        return;
    }
    let mean_sq: f32 =
        (0..n).map(|i| data.row(i).iter().map(|v| v * v).sum::<f32>() / d as f32).sum::<f32>()
            / n as f32;
    if mean_sq > 0.0 {
        let s = 1.0 / mean_sq.sqrt();
        data.map_inplace(|v| v * s);
    }
}

/// Builds a [`Dataset`] from per-class sample generators, shuffles sample
/// order, and applies the paper normalization.
pub(crate) fn assemble(
    name: &'static str,
    modality: Modality,
    n_classes: usize,
    samples: Vec<(Vec<f32>, usize)>,
    rng: &mut SeedRng,
) -> Dataset {
    let mut order: Vec<usize> = (0..samples.len()).collect();
    rng.shuffle(&mut order);
    let rows: Vec<Vec<f32>> = order.iter().map(|&i| samples[i].0.clone()).collect();
    let labels: Vec<usize> = order.iter().map(|&i| samples[i].1).collect();
    let mut data = Matrix::from_rows(&rows);
    normalize_paper(&mut data);
    Dataset {
        name,
        data,
        labels,
        n_classes,
        modality,
    }
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_generate_consistent_shapes() {
        for b in Benchmark::ALL {
            let ds = b.generate(Size::Small, 3);
            assert_eq!(ds.data.rows(), ds.labels.len(), "{:?}", b);
            assert!(ds.len() > 50, "{:?} too small: {}", b, ds.len());
            assert!(ds.data.all_finite(), "{:?} has non-finite features", b);
            assert!(ds.labels.iter().all(|&l| l < ds.n_classes), "{:?}", b);
            // Every class is represented.
            let mut seen = vec![false; ds.n_classes];
            for &l in &ds.labels {
                seen[l] = true;
            }
            assert!(seen.iter().all(|&s| s), "{:?} missing a class", b);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Benchmark::Tfidf.generate(Size::Small, 42);
        let b = Benchmark::Tfidf.generate(Size::Small, 42);
        assert_eq!(a.data, b.data);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Benchmark::Protein.generate(Size::Small, 1);
        let b = Benchmark::Protein.generate(Size::Small, 2);
        assert_ne!(a.data, b.data);
    }

    #[test]
    fn paper_normalization_holds() {
        for b in Benchmark::ALL {
            let ds = b.generate(Size::Small, 5);
            let d = ds.dim() as f32;
            let mean_sq: f32 = (0..ds.len())
                .map(|i| ds.data.row(i).iter().map(|v| v * v).sum::<f32>() / d)
                .sum::<f32>()
                / ds.len() as f32;
            assert!((mean_sq - 1.0).abs() < 1e-3, "{:?}: mean sq norm {mean_sq}", b);
        }
    }

    #[test]
    fn cli_names_round_trip_with_aliases() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::parse(b.cli_name()), Some(b));
        }
        for (alias, b) in [
            ("mnist-full", Benchmark::DigitsFull),
            ("mnist-test", Benchmark::DigitsTest),
            ("tfidf", Benchmark::Tfidf),
            ("mice", Benchmark::Protein),
        ] {
            assert_eq!(Benchmark::parse(alias), Some(b));
        }
        assert_eq!(Benchmark::parse("mnist"), None);
        for s in Size::ALL {
            assert_eq!(Size::parse(s.cli_name()), Some(s));
        }
        assert_eq!(Size::parse("large"), None);
    }

    #[test]
    fn modality_flags() {
        assert_eq!(Modality::Image { h: 4, w: 5 }.augment_shape(), Some((4, 5)));
        assert_eq!(Modality::Text.augment_shape(), None);
        assert_eq!(Modality::Tabular.augment_shape(), None);
        assert!(Benchmark::DigitsFull.generate(Size::Small, 1).supports_augmentation());
        assert!(!Benchmark::Tfidf.generate(Size::Small, 1).supports_augmentation());
        assert!(!Benchmark::Protein.generate(Size::Small, 1).supports_augmentation());
    }

    #[test]
    fn normalize_handles_empty() {
        let mut m = Matrix::zeros(0, 0);
        normalize_paper(&mut m); // must not panic
        let mut z = Matrix::zeros(3, 2);
        normalize_paper(&mut z); // all-zero data stays zero
        assert_eq!(z.sum(), 0.0);
    }
}
