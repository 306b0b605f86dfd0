//! **Ablation B** — ADEC design choices on the digits benchmark:
//!
//! * the adversarial encoder regularizer (`adversarial_weight` 1 vs 0);
//! * the auxiliary decoder catch-up block size M (`aux_iterations`);
//! * the target-distribution refresh interval T (`update_interval`).
//!
//! These are the components Algorithm 1 singles out; the paper argues the
//! adversarial term curbs Feature Randomness and the decoder catch-up is
//! needed for stability.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, a panic is an acceptable failure mode, and progress
// lines go to stderr so stdout stays the result table.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
use adec_bench::*;
use adec_core::trace::TraceConfig;
use adec_datagen::Benchmark;

fn main() {
    let cfg = HarnessCfg::from_env();
    println!("Ablation B — ADEC components (digits)");

    let mut ctx = deep_context(Benchmark::DigitsFull, &cfg, true);
    let k = ctx.ds.n_classes;
    let y = ctx.ds.labels.clone();
    let mut csv_rows = Vec::new();

    println!("\n{:<34} {:>8} {:>8} {:>10}", "variant", "ACC", "NMI", "fluct");
    let mut run = |label: &str, mutate: &dyn Fn(&mut adec_core::AdecConfig)| {
        eprintln!("[ablation B] {label}");
        let mut c = adec_cfg(&cfg, k);
        c.trace = TraceConfig::curves(&y);
        c.tol = 0.0;
        mutate(&mut c);
        let out = ctx.session.run_adec(&c).unwrap();
        let (a, n) = eval(&y, &out.labels);
        let fluct = out.trace.acc_fluctuation().unwrap_or(0.0);
        println!("{:<34} {:>8.3} {:>8.3} {:>10.4}", label, a, n, fluct);
        csv_rows.push(format!("{label},{a:.4},{n:.4},{fluct:.4}"));
        a
    };

    let full = run("ADEC (full, share 0.3)", &|_| {});
    let no_adv = run("− adversarial term (share 0)", &|c| c.adversarial_weight = 0.0);
    run("adversarial share 0.1", &|c| c.adversarial_weight = 0.1);
    run("adversarial share 0.5", &|c| c.adversarial_weight = 0.5);
    run("adversarial share 1.0", &|c| c.adversarial_weight = 1.0);
    run("saturating (literal eq. 10)", &|c| c.saturating_adversarial = true);
    run("M = 1 (minimal catch-up)", &|c| c.aux_iterations = 1);
    run("M = 20 (heavy catch-up)", &|c| c.aux_iterations = 20);
    run("T = update_interval / 3", &|c| c.update_interval /= 3);
    run("T = update_interval × 4", &|c| c.update_interval *= 4);
    run("no discriminator warm-up", &|c| c.disc_pretrain = 0);

    println!(
        "\nadversarial regularizer contribution: {:+.3} ACC",
        full - no_adv
    );
    let path = write_csv("ablation_adec.csv", "variant,acc,nmi,fluctuation", &csv_rows);
    println!("CSV written to {}", path.display());
}
