//! **Table 2** — DEC*, IDEC*, and ADEC with *identical* ACAI+augmentation
//! pretraining, architecture, learning dynamics, and clustering loss: the
//! paper's controlled comparison isolating the regularization strategy
//! (none vs reconstruction vs adversarial).

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, a panic is an acceptable failure mode, and progress
// lines go to stderr so stdout stays the result table.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
use adec_bench::*;
use adec_datagen::Benchmark;

fn main() {
    let cfg = HarnessCfg::from_env();
    println!(
        "Table 2 reproduction — size {:?}, seed {}, budget {}",
        cfg.size,
        cfg.seed,
        if cfg.full_budget { "full" } else { "fast" }
    );

    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    let mut dec_cells = Vec::new();
    let mut idec_cells = Vec::new();
    let mut adec_cells = Vec::new();
    let mut csv_rows = Vec::new();

    for benchmark in Benchmark::ALL {
        eprintln!("[table2] {} — shared ACAI pretraining", benchmark.name());
        let mut ctx = deep_context(benchmark, &cfg, true);
        let k = ctx.ds.n_classes;

        let out = ctx.session.run_dec(&dec_cfg(&cfg, k)).unwrap();
        let (a, n) = eval(&ctx.ds.labels, &out.labels);
        csv_rows.push(format!("DEC*,{},{a:.4},{n:.4}", ctx.ds.name));
        dec_cells.push(Cell::Score(a, n));

        let out = ctx.session.run_idec(&idec_cfg(&cfg, k)).unwrap();
        let (a, n) = eval(&ctx.ds.labels, &out.labels);
        csv_rows.push(format!("IDEC*,{},{a:.4},{n:.4}", ctx.ds.name));
        idec_cells.push(Cell::Score(a, n));

        let out = ctx.session.run_adec(&adec_cfg(&cfg, k)).unwrap();
        let (a, n) = eval(&ctx.ds.labels, &out.labels);
        csv_rows.push(format!("ADEC,{},{a:.4},{n:.4}", ctx.ds.name));
        adec_cells.push(Cell::Score(a, n));
    }

    let rows = vec![
        Row { method: "DEC*".into(), cells: dec_cells },
        Row { method: "IDEC*".into(), cells: idec_cells },
        Row { method: "ADEC".into(), cells: adec_cells },
    ];
    print_table(
        "Table 2: shared-pretraining comparison (ACC / NMI)",
        &names,
        &rows,
    );
    println!("\nAll three share ACAI+augmentation pretraining weights, architecture,");
    println!("learning dynamics, and the DEC clustering loss; only the regularizer differs.");
    let path = write_csv("table2.csv", "method,dataset,acc,nmi", &csv_rows);
    println!("CSV written to {}", path.display());
}
