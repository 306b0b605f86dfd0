//! # adec-bench
//!
//! Shared harness machinery for the per-table/per-figure experiment
//! binaries under `benches/` (all `harness = false`, so
//! `cargo bench --workspace` regenerates every paper table and figure).
//!
//! Environment knobs:
//!
//! * `ADEC_SIZE` — `small` (default) / `medium` / `paper`: dataset scale.
//! * `ADEC_SEED` — experiment seed (default 7).
//! * `ADEC_BUDGET` — `fast` (default) / `full`: iteration budgets.

use adec_core::prelude::*;
use adec_core::pretrain::PretrainConfig;
use adec_core::ArchPreset;
use adec_datagen::{Benchmark, Dataset, Size};
use adec_metrics::{accuracy, nmi};
use std::time::Instant;

/// Scale/seed/budget configuration read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct HarnessCfg {
    /// Dataset scale preset.
    pub size: Size,
    /// Experiment seed.
    pub seed: u64,
    /// Whether to use the longer "full" iteration budgets.
    pub full_budget: bool,
}

impl HarnessCfg {
    /// Reads `ADEC_SIZE` / `ADEC_SEED` / `ADEC_BUDGET`.
    pub fn from_env() -> Self {
        let size = match std::env::var("ADEC_SIZE").as_deref() {
            Ok("medium") => Size::Medium,
            Ok("paper") => Size::Paper,
            _ => Size::Small,
        };
        let seed = std::env::var("ADEC_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        let full_budget = matches!(std::env::var("ADEC_BUDGET").as_deref(), Ok("full"));
        HarnessCfg {
            size,
            seed,
            full_budget,
        }
    }

    /// Architecture preset matched to the dataset scale. The smallest
    /// (unit-test) network underfits the noisy simulators, so even the
    /// Small harness uses the Medium encoder — capacity is what lets the
    /// embedding denoise and beat raw-space k-means (the Table-1 margin).
    pub fn arch(&self) -> ArchPreset {
        match self.size {
            Size::Small | Size::Medium => ArchPreset::Medium,
            Size::Paper => ArchPreset::Paper,
        }
    }

    /// Clustering-phase iteration budget.
    pub fn cluster_iters(&self) -> usize {
        if self.full_budget {
            8_000
        } else {
            1_800
        }
    }

    /// Pretraining iteration budget.
    pub fn pretrain_iters(&self) -> usize {
        if self.full_budget {
            6_000
        } else {
            1_200
        }
    }
}

/// `(ACC, NMI)` of a prediction.
pub fn eval(y_true: &[usize], y_pred: &[usize]) -> (f32, f32) {
    (accuracy(y_true, y_pred), nmi(y_true, y_pred))
}

/// One table cell: scored, annotated, or not reproduced.
#[derive(Debug, Clone)]
pub enum Cell {
    /// ACC/NMI pair.
    Score(f32, f32),
    /// Not run (paper's ⋄/−: unsuitable or out of memory).
    NotApplicable(&'static str),
    /// Not reproduced here; shows the paper's published value for context.
    NotReproduced {
        /// Paper-reported ACC.
        paper_acc: f32,
        /// Paper-reported NMI.
        paper_nmi: f32,
    },
}

impl Cell {
    fn fmt_acc(&self) -> String {
        match self {
            Cell::Score(a, _) => format!("{a:.3}"),
            Cell::NotApplicable(mark) => mark.to_string(),
            Cell::NotReproduced { paper_acc, .. } => format!("n/r({paper_acc:.2})"),
        }
    }

    fn fmt_nmi(&self) -> String {
        match self {
            Cell::Score(_, n) => format!("{n:.3}"),
            Cell::NotApplicable(mark) => mark.to_string(),
            Cell::NotReproduced { paper_nmi, .. } => format!("n/r({paper_nmi:.2})"),
        }
    }
}

/// One printed table row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Method name as it appears in the paper.
    pub method: String,
    /// One cell per dataset column.
    pub cells: Vec<Cell>,
}

/// Prints a paper-style ACC/NMI table.
pub fn print_table(title: &str, datasets: &[&str], rows: &[Row]) {
    println!("\n=== {title} ===");
    print!("{:<16}", "Method");
    for d in datasets {
        print!(" | {:^15}", d);
    }
    println!();
    print!("{:<16}", "");
    for _ in datasets {
        print!(" | {:>7} {:>7}", "ACC", "NMI");
    }
    println!();
    let width = 16 + datasets.len() * 18;
    println!("{}", "-".repeat(width));
    for row in rows {
        print!("{:<16}", row.method);
        for cell in &row.cells {
            print!(" | {:>7} {:>7}", cell.fmt_acc(), cell.fmt_nmi());
        }
        println!();
    }
}

/// Prints a timing table (seconds).
pub fn print_time_table(title: &str, datasets: &[&str], rows: &[(String, Vec<Option<f64>>)]) {
    println!("\n=== {title} ===");
    print!("{:<16}", "Method");
    for d in datasets {
        print!(" | {:>13}", d);
    }
    println!();
    println!("{}", "-".repeat(16 + datasets.len() * 16));
    for (method, times) in rows {
        print!("{method:<16}");
        for t in times {
            match t {
                Some(secs) => print!(" | {:>12.2}s", secs),
                None => print!(" | {:>13}", "-"),
            }
        }
        println!();
    }
}

/// A dataset paired with a pretrained session and the time pretraining
/// took. `star` selects the paper's ACAI+augmentation pretraining (the
/// `*` variants) versus the original vanilla pretraining.
pub struct DeepContext {
    /// Dataset generated for this context.
    pub ds: Dataset,
    /// Session holding the pretrained autoencoder.
    pub session: Session,
    /// Seconds spent pretraining.
    pub pretrain_seconds: f64,
}

/// Builds a pretrained session for a benchmark.
pub fn deep_context(benchmark: Benchmark, cfg: &HarnessCfg, star: bool) -> DeepContext {
    let ds = benchmark.generate(cfg.size, cfg.seed);
    let mut session = Session::new(&ds, cfg.arch(), cfg.seed ^ 0x5E55);
    let pre_cfg = if star {
        PretrainConfig {
            iterations: cfg.pretrain_iters(),
            ..PretrainConfig::acai_fast()
        }
    } else {
        PretrainConfig {
            iterations: cfg.pretrain_iters(),
            ..PretrainConfig::vanilla_fast()
        }
    };
    let t0 = Instant::now();
    // Experiment harness: a diverged pretraining run has no meaningful
    // benchmark result, so aborting the experiment binary is the right move.
    #[allow(clippy::expect_used)]
    session
        .pretrain(&pre_cfg)
        .expect("pretraining diverged");
    DeepContext {
        ds,
        session,
        pretrain_seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Fast deep-model configurations bound to the harness budget.
pub fn dec_cfg(cfg: &HarnessCfg, k: usize) -> DecConfig {
    let mut c = DecConfig::fast(k);
    c.max_iter = cfg.cluster_iters();
    c
}

/// IDEC configuration at the harness budget.
pub fn idec_cfg(cfg: &HarnessCfg, k: usize) -> IdecConfig {
    let mut c = IdecConfig::fast(k);
    c.max_iter = cfg.cluster_iters();
    c
}

/// DCN configuration at the harness budget.
pub fn dcn_cfg(cfg: &HarnessCfg, k: usize) -> DcnConfig {
    let mut c = DcnConfig::fast(k);
    c.max_iter = cfg.cluster_iters();
    c
}

/// ADEC configuration at the harness budget.
pub fn adec_cfg(cfg: &HarnessCfg, k: usize) -> AdecConfig {
    let mut c = AdecConfig::fast(k);
    c.max_iter = cfg.cluster_iters();
    c
}

/// Writes a CSV file under `target/experiments/`, creating the directory.
/// Returns the path written.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("experiments");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(name);
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    if let Err(e) = std::fs::write(&path, body) {
        adec_obs::emit(
            adec_obs::Event::new(adec_obs::Level::Warn, "bench.write")
                .field("msg", format!("could not write {}: {e}", path.display())),
        );
    }
    path
}

/// Renders a simple ASCII line chart of one or more named series over a
/// shared x axis (iterations). Used by the figure harnesses to show curve
/// *shapes* in terminal output.
// Grid indices are clamped with `.min(...)` and `% marks.len()` right at
// the use sites, so the indexing cannot go out of bounds.
#[allow(clippy::indexing_slicing)]
pub fn ascii_chart(title: &str, series: &[(&str, &[(usize, f32)])], height: usize) {
    println!("\n--- {title} ---");
    let all: Vec<(usize, f32)> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    if all.is_empty() {
        println!("(no data)");
        return;
    }
    let (min_y, max_y) = all.iter().fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &(_, v)| {
        (lo.min(v), hi.max(v))
    });
    let max_x = all.iter().map(|&(i, _)| i).max().unwrap_or(1).max(1);
    let span = (max_y - min_y).max(1e-6);
    let width = 64usize;
    let marks = ['*', 'o', '+', 'x', '#'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        for &(x, y) in s.iter() {
            let col = ((x as f32 / max_x as f32) * (width - 1) as f32).round() as usize;
            let row = (((max_y - y) / span) * (height - 1) as f32).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = marks[si % marks.len()];
        }
    }
    for (r, line) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{max_y:7.3}")
        } else if r == height - 1 {
            format!("{min_y:7.3}")
        } else {
            "       ".to_string()
        };
        println!("{label} |{}", line.iter().collect::<String>());
    }
    println!("        +{}", "-".repeat(width));
    print!("         0");
    println!("{:>width$}", format!("iter {max_x}"), width = width - 2);
    for (si, (name, _)) in series.iter().enumerate() {
        println!("  {} = {name}", marks[si % marks.len()]);
    }
}
