//! Running the library on your own data: write a CSV, load it, and
//! cluster it with ADEC. This example generates a small CSV on the fly
//! (so it runs out of the box), but the pipeline is exactly what you
//! would use for a real file.
//!
//! ```sh
//! cargo run --release --example custom_csv
//! cargo run --release --example custom_csv -- path/to/your.csv <label-column>
//! ```

// Example code: a panic with a clear message is the right failure mode for
// a demo script, the indices are bounded by the checks right above, and
// usage errors go to stderr.
#![allow(clippy::expect_used, clippy::indexing_slicing, clippy::print_stderr)]

use adec_core::prelude::*;
use adec_core::pretrain::PretrainConfig;
use adec_core::ArchPreset;
use adec_datagen::csv::{load_csv, CsvOptions};
use adec_metrics::{accuracy, nmi};
use adec_tensor::SeedRng;

fn write_demo_csv(path: &std::path::Path) {
    // Three noisy 6-D clusters with a string label column.
    let mut rng = SeedRng::new(42);
    let mut body = String::from("f0,f1,f2,f3,f4,f5,label\n");
    for (name, center) in [("alpha", -2.0f32), ("beta", 0.0), ("gamma", 2.0)] {
        for _ in 0..60 {
            let feats: Vec<String> = (0..6)
                .map(|_| format!("{:.4}", center + rng.normal(0.0, 0.6)))
                .collect();
            body.push_str(&feats.join(","));
            body.push(',');
            body.push_str(name);
            body.push('\n');
        }
    }
    std::fs::write(path, body).expect("write demo csv");
}

fn main() -> Result<(), TrainError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (path, label_column) = if args.is_empty() {
        let path = std::env::temp_dir().join("adec_demo.csv");
        write_demo_csv(&path);
        println!("no CSV given; wrote a demo file to {}", path.display());
        (path, Some(6))
    } else {
        let label_column = args.get(1).and_then(|s| s.parse().ok());
        (std::path::PathBuf::from(&args[0]), label_column)
    };

    let ds = load_csv(
        &path,
        &CsvOptions {
            label_column,
            ..CsvOptions::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("failed to load {}: {e}", path.display());
        std::process::exit(1);
    });
    println!(
        "loaded {} samples × {} features, {} classes",
        ds.len(),
        ds.dim(),
        ds.n_classes
    );

    let k = ds.n_classes.max(2);
    let mut session = Session::new(&ds, ArchPreset::Small, 42);
    session.pretrain(&PretrainConfig {
        iterations: 600,
        ..PretrainConfig::acai_fast()
    })?;
    let mut cfg = AdecConfig::fast(k);
    cfg.max_iter = 900;
    let out = session.run_adec(&cfg)?;

    if ds.n_classes > 1 {
        println!(
            "ADEC: ACC {:.3}  NMI {:.3}",
            accuracy(&ds.labels, &out.labels),
            nmi(&ds.labels, &out.labels)
        );
    }
    let mut sizes = vec![0usize; k];
    for &l in &out.labels {
        sizes[l] += 1;
    }
    println!("cluster sizes: {sizes:?}");
    Ok(())
}
