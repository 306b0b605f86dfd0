//! **Figure 10** — sensitivity of IDEC* to the balancing coefficient γ on
//! the digits benchmark, sweeping γ ∈ {10⁻³, 10⁻², 10⁻¹, 1, 10, 10², 10³}.
//!
//! Expected shape, matching the paper: only a narrow band of γ yields a
//! good learning curve; large γ lets the clustering term overwhelm the
//! features (Feature Randomness regime), tiny γ reduces to pure
//! reconstruction — while ADEC needs no such hyperparameter at all.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, a panic is an acceptable failure mode, and progress
// lines go to stderr so stdout stays the result table.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
use adec_bench::*;
use adec_core::trace::TraceConfig;
use adec_datagen::Benchmark;

fn main() {
    let cfg = HarnessCfg::from_env();
    println!("Figure 10 reproduction — IDEC* γ sensitivity (digits)");

    let mut ctx = deep_context(Benchmark::DigitsFull, &cfg, true);
    let k = ctx.ds.n_classes;
    let y = ctx.ds.labels.clone();

    let gammas = [1e-3f32, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0];
    let mut results = Vec::new();
    let mut rows = Vec::new();
    let mut series_store: Vec<(String, Vec<(usize, f32)>)> = Vec::new();

    for &gamma in &gammas {
        eprintln!("[fig10] gamma = {gamma}");
        let mut c = idec_cfg(&cfg, k);
        c.gamma = gamma;
        c.tol = 0.0;
        c.trace = TraceConfig::curves(&y);
        let out = ctx.session.run_idec(&c).unwrap();
        let acc = out.acc(&y);
        let series = out.trace.acc_series();
        for (i, v) in &series {
            rows.push(format!("{gamma},{i},{v:.5}"));
        }
        series_store.push((format!("γ={gamma}"), series));
        results.push((gamma, acc));
    }

    // ADEC reference: no balancing hyperparameter at all.
    let adec_out = ctx.session.run_adec(&adec_cfg(&cfg, k)).unwrap();
    let adec_acc = adec_out.acc(&y);

    println!("\nfinal ACC per γ (IDEC*):");
    for (gamma, acc) in &results {
        let bar = "#".repeat((acc * 50.0) as usize);
        println!("  γ = {gamma:>8}: {acc:.3} {bar}");
    }
    println!("  ADEC (no γ): {adec_acc:.3} {}", "#".repeat((adec_acc * 50.0) as usize));

    let best = results.iter().cloned().fold((0.0, 0.0f32), |b, r| if r.1 > b.1 { r } else { b });
    let good = results.iter().filter(|(_, a)| *a > best.1 - 0.05).count();
    println!("\nbest γ = {} (ACC {:.3}); {} of {} γ values within 0.05 of best", best.0, best.1, good, results.len());
    println!(
        "paper expectation: only a narrow γ band works for IDEC* — {}",
        if good <= results.len() / 2 { "REPRODUCED" } else { "NOT reproduced at this budget (sweep too flat)" }
    );

    // Show the two extreme curves plus the best one.
    let refs: Vec<(&str, &[(usize, f32)])> = series_store
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_slice()))
        .collect();
    if refs.len() >= 3 {
        ascii_chart(
            "IDEC* ACC curves across γ (subset)",
            &[refs[0], refs[3], refs[6]],
            12,
        );
    }

    let path = write_csv("fig10_gamma.csv", "gamma,iter,acc", &rows);
    println!("CSV written to {}", path.display());
}
