//! **Table 3** — execution times of the deep clustering methods on every
//! dataset (pretraining + clustering wall-clock, seconds).
//!
//! The paper's absolute numbers come from a Tesla K80; ours from a CPU and
//! scaled datasets, so only the *ordering* is comparable: DEC/IDEC/DCN/
//! DeepCluster cheaper than ADEC, ADEC's adversarial training costing a
//! constant factor, and the `*` pretraining dominating on small datasets.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, a panic is an acceptable failure mode, and progress
// lines go to stderr so stdout stays the result table.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
use adec_bench::*;
use adec_core::lite::{deepcluster_lite, depict_lite, sr_kmeans_lite, LiteConfig};
use adec_datagen::Benchmark;
use std::time::Instant;

fn main() {
    let cfg = HarnessCfg::from_env();
    println!(
        "Table 3 reproduction — size {:?}, seed {}, budget {}",
        cfg.size,
        cfg.seed,
        if cfg.full_budget { "full" } else { "fast" }
    );

    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    let n_methods = 7;
    let mut times: Vec<Vec<Option<f64>>> = vec![Vec::new(); n_methods];
    let mut csv_rows = Vec::new();

    for benchmark in Benchmark::ALL {
        eprintln!("[table3] {}", benchmark.name());
        let mut ctx = deep_context(benchmark, &cfg, false);
        let k = ctx.ds.n_classes;
        let pre = ctx.pretrain_seconds;
        let mut mi = 0usize;

        let push = |times: &mut Vec<Vec<Option<f64>>>, mi: &mut usize, secs: f64| {
            times[*mi].push(Some(secs));
            *mi += 1;
        };

        // DeepCluster-lite.
        ctx.session.restore_pretrained();
        let mut lite = LiteConfig::fast(k);
        lite.rounds = (cfg.cluster_iters() / lite.steps_per_round).max(4);
        let mut lrng = ctx.session.fork_rng(0x77);
        let t0 = Instant::now();
        let _ = deepcluster_lite(&ctx.session.ae, &mut ctx.session.store, &ctx.session.data, &lite, &mut lrng);
        push(&mut times, &mut mi, pre + t0.elapsed().as_secs_f64());

        // DCN.
        let out = ctx.session.run_dcn(&dcn_cfg(&cfg, k)).unwrap();
        push(&mut times, &mut mi, pre + out.seconds);

        // DEC.
        let out = ctx.session.run_dec(&dec_cfg(&cfg, k)).unwrap();
        push(&mut times, &mut mi, pre + out.seconds);

        // IDEC.
        let out = ctx.session.run_idec(&idec_cfg(&cfg, k)).unwrap();
        push(&mut times, &mut mi, pre + out.seconds);

        // SR-k-means-lite.
        ctx.session.restore_pretrained();
        let mut lrng = ctx.session.fork_rng(0x51);
        let t0 = Instant::now();
        let _ = sr_kmeans_lite(&ctx.session.ae, &mut ctx.session.store, &ctx.session.data, &lite, &mut lrng);
        push(&mut times, &mut mi, pre + t0.elapsed().as_secs_f64());

        // DEPICT-lite.
        ctx.session.restore_pretrained();
        let mut lrng = ctx.session.fork_rng(0xDE);
        let t0 = Instant::now();
        let _ = depict_lite(&ctx.session.ae, &mut ctx.session.store, &ctx.session.data, &lite, &mut lrng);
        push(&mut times, &mut mi, pre + t0.elapsed().as_secs_f64());

        // ADEC (with its own ACAI pretraining, as in the paper).
        let mut star = deep_context(benchmark, &cfg, true);
        let out = star.session.run_adec(&adec_cfg(&cfg, k)).unwrap();
        push(&mut times, &mut mi, star.pretrain_seconds + out.seconds);

        assert_eq!(mi, n_methods);
    }

    let method_names = [
        "DeepCluster~",
        "DCN",
        "DEC",
        "IDEC",
        "SR-k-means~",
        "DEPICT~",
        "ADEC",
    ];
    let rows: Vec<(String, Vec<Option<f64>>)> = method_names
        .iter()
        .zip(times)
        .map(|(m, t)| (m.to_string(), t))
        .collect();
    for (m, t) in &rows {
        for (d, secs) in t.iter().enumerate() {
            if let Some(s) = secs {
                csv_rows.push(format!("{m},{},{s:.3}", names[d]));
            }
        }
    }
    print_time_table(
        "Table 3: execution time (pretraining + clustering, seconds)",
        &names,
        &rows,
    );
    println!("\nVaDE-lite and JULE-lite run in Table 1; time them individually via the CLI");
    println!("(`adec --method vade|jule`) — their lite variants are not directly comparable");
    println!("to the paper's Table-3 rows (VaDE 123 000 s on a K80, JULE recurrent merging).");
    let path = write_csv("table3.csv", "method,dataset,seconds", &csv_rows);
    println!("CSV written to {}", path.display());
}
