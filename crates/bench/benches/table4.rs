//! **Table 4** — execution times of DEC*, IDEC*, and ADEC under the shared
//! ACAI+augmentation pretraining (pretraining + clustering seconds).
//!
//! Expected shape, matching the paper: the three are close, with ADEC
//! slightly slower because of the per-iteration adversarial updates.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, a panic is an acceptable failure mode, and progress
// lines go to stderr so stdout stays the result table.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
use adec_bench::*;
use adec_datagen::Benchmark;

fn main() {
    let cfg = HarnessCfg::from_env();
    println!(
        "Table 4 reproduction — size {:?}, seed {}, budget {}",
        cfg.size,
        cfg.seed,
        if cfg.full_budget { "full" } else { "fast" }
    );

    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    let mut dec_t = Vec::new();
    let mut idec_t = Vec::new();
    let mut adec_t = Vec::new();
    let mut csv_rows = Vec::new();

    for benchmark in Benchmark::ALL {
        eprintln!("[table4] {}", benchmark.name());
        let mut ctx = deep_context(benchmark, &cfg, true);
        let k = ctx.ds.n_classes;
        let pre = ctx.pretrain_seconds;

        let out = ctx.session.run_dec(&dec_cfg(&cfg, k)).unwrap();
        csv_rows.push(format!("DEC*,{},{:.3}", ctx.ds.name, pre + out.seconds));
        dec_t.push(Some(pre + out.seconds));

        let out = ctx.session.run_idec(&idec_cfg(&cfg, k)).unwrap();
        csv_rows.push(format!("IDEC*,{},{:.3}", ctx.ds.name, pre + out.seconds));
        idec_t.push(Some(pre + out.seconds));

        let out = ctx.session.run_adec(&adec_cfg(&cfg, k)).unwrap();
        csv_rows.push(format!("ADEC,{},{:.3}", ctx.ds.name, pre + out.seconds));
        adec_t.push(Some(pre + out.seconds));
    }

    let rows = vec![
        ("DEC*".to_string(), dec_t),
        ("IDEC*".to_string(), idec_t),
        ("ADEC".to_string(), adec_t),
    ];
    print_time_table(
        "Table 4: execution time with shared pretraining (seconds)",
        &names,
        &rows,
    );
    let path = write_csv("table4.csv", "method,dataset,seconds", &csv_rows);
    println!("CSV written to {}", path.display());
}
