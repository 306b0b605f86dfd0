//! **Ablation A** — pretraining strategy: vanilla reconstruction vs ACAI
//! vs ACAI+augmentation, each followed by the same DEC fine-tuning.
//!
//! This is the mechanism behind the paper's Table 1 → Table 2 jump
//! (DEC → DEC*) and behind the ‡/† footnotes: augmentation cannot apply to
//! text/tabular data, so those datasets only get the ACAI part.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, a panic is an acceptable failure mode, and progress
// lines go to stderr so stdout stays the result table.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
use adec_bench::*;
use adec_core::pretrain::PretrainConfig;
use adec_core::Session;
use adec_datagen::Benchmark;

fn main() {
    let cfg = HarnessCfg::from_env();
    println!("Ablation A — pretraining strategy (DEC fine-tuning on top)");

    type MakeConfig = fn(usize) -> PretrainConfig;
    let variants: [(&str, MakeConfig); 3] = [
        ("vanilla", |iters| PretrainConfig {
            iterations: iters,
            ..PretrainConfig::vanilla_fast()
        }),
        ("ACAI", |iters| PretrainConfig {
            iterations: iters,
            augment: false,
            ..PretrainConfig::acai_fast()
        }),
        ("ACAI+augment", |iters| PretrainConfig {
            iterations: iters,
            ..PretrainConfig::acai_fast()
        }),
    ];

    let mut csv_rows = Vec::new();
    for benchmark in [Benchmark::DigitsFull, Benchmark::Tfidf] {
        let ds = benchmark.generate(cfg.size, cfg.seed);
        println!("\n### {} ###", ds.name);
        println!("{:<16} {:>8} {:>8} {:>12}", "pretraining", "ACC", "NMI", "recon MSE");
        for (name, make) in &variants {
            eprintln!("[ablation A] {} / {}", ds.name, name);
            let mut session = Session::new(&ds, cfg.arch(), cfg.seed);
            let stats = session.pretrain(&make(cfg.pretrain_iters())).unwrap();
            let out = session.run_dec(&dec_cfg(&cfg, ds.n_classes)).unwrap();
            let (a, n) = eval(&ds.labels, &out.labels);
            println!(
                "{:<16} {:>8.3} {:>8.3} {:>12.5}",
                name, a, n, stats.final_reconstruction_mse
            );
            csv_rows.push(format!("{},{name},{a:.4},{n:.4}", ds.name));
        }
        if !ds.supports_augmentation() {
            println!("(augmentation is a no-op on {} — the paper's ‡ mark)", ds.name);
        }
    }
    println!("\npaper expectation: ACAI(+augment) pretraining lifts DEC accuracy");
    println!("(the DEC → DEC* gap of Tables 1/2).");
    let path = write_csv("ablation_pretraining.csv", "dataset,pretraining,acc,nmi", &csv_rows);
    println!("CSV written to {}", path.display());
}
