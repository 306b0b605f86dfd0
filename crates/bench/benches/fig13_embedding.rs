//! **Figure 13** — 2-D visualization of the ADEC embedding space per
//! dataset. We project the 10-D latent space to 2-D with PCA, report a
//! cluster-separation statistic (mean silhouette), and dump the projected
//! points to CSV for external plotting.
//!
//! Expected shape, matching the paper: well-separated groups (positive
//! silhouettes) on the digit datasets; weaker separation on Fashion.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, a panic is an acceptable failure mode, and progress
// lines go to stderr so stdout stays the result table.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
use adec_bench::*;
use adec_datagen::Benchmark;
use adec_metrics::mean_silhouette;
use adec_tensor::pca;

fn main() {
    let cfg = HarnessCfg::from_env();
    println!("Figure 13 reproduction — 2-D embedding visualization per dataset");

    let mut csv_rows = Vec::new();
    println!("\n{:<16} {:>12} {:>12} {:>10}", "dataset", "sil(latent)", "sil(2-D)", "ACC");
    for benchmark in Benchmark::ALL {
        eprintln!("[fig13] {}", benchmark.name());
        let mut ctx = deep_context(benchmark, &cfg, true);
        let k = ctx.ds.n_classes;
        let out = ctx.session.run_adec(&adec_cfg(&cfg, k)).unwrap();
        let z = ctx.session.embed();
        let proj = pca(&z, 2).expect("pca").transform(&z);
        let sil_latent = mean_silhouette(&z, &out.labels, k);
        let sil_2d = mean_silhouette(&proj, &out.labels, k);
        let acc = out.acc(&ctx.ds.labels);
        println!(
            "{:<16} {:>12.3} {:>12.3} {:>10.3}",
            ctx.ds.name, sil_latent, sil_2d, acc
        );
        for i in 0..proj.rows() {
            csv_rows.push(format!(
                "{},{:.5},{:.5},{},{}",
                ctx.ds.name,
                proj.get(i, 0),
                proj.get(i, 1),
                out.labels[i],
                ctx.ds.labels[i]
            ));
        }
    }
    println!("\npaper expectation: positive silhouettes (well-separated groups) on digit datasets.");
    let path = write_csv("fig13_embedding.csv", "dataset,pc1,pc2,cluster,true_class", &csv_rows);
    println!("CSV written to {} (plot pc1/pc2 colored by cluster)", path.display());
}
