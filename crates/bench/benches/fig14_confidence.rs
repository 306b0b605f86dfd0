//! **Figure 14** — the top-10 highest-confidence samples of each ADEC
//! cluster on the digits and fashion benchmarks, rendered as ASCII strips
//! (one row per cluster, confidence decreasing left to right).
//!
//! Expected shape, matching the paper: each row shows visually consistent
//! samples of a single class, with cluster purity of the top-10 sets far
//! above the dataset-level ACC.

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, a panic is an acceptable failure mode, and progress
// lines go to stderr so stdout stays the result table.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
use adec_bench::*;
use adec_datagen::render::ascii_strip;
use adec_datagen::{Benchmark, Modality};

fn main() {
    let cfg = HarnessCfg::from_env();
    println!("Figure 14 reproduction — top-10 high-confidence samples per cluster");

    for benchmark in [Benchmark::DigitsFull, Benchmark::Fashion] {
        eprintln!("[fig14] {}", benchmark.name());
        let mut ctx = deep_context(benchmark, &cfg, true);
        let k = ctx.ds.n_classes;
        let (h, w) = match ctx.ds.modality {
            Modality::Image { h, w } => (h, w),
            _ => unreachable!("image benchmarks only"),
        };
        let out = ctx.session.run_adec(&adec_cfg(&cfg, k)).unwrap();

        println!("\n### {} ###", ctx.ds.name);
        let mut purity_sum = 0.0f32;
        let mut cluster_count = 0usize;
        for cluster in 0..k {
            // Rank members of this cluster by q confidence.
            let mut members: Vec<(usize, f32)> = (0..ctx.ds.len())
                .filter(|&i| out.labels[i] == cluster)
                .map(|i| (i, out.q.get(i, cluster)))
                .collect();
            members.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            members.truncate(10);
            if members.is_empty() {
                println!("cluster {cluster}: empty");
                continue;
            }
            let idx: Vec<usize> = members.iter().map(|&(i, _)| i).collect();
            // Top-10 purity: fraction agreeing with the majority true class.
            let mut counts = vec![0usize; k];
            for &i in &idx {
                counts[ctx.ds.labels[i]] += 1;
            }
            let purity = *counts.iter().max().unwrap() as f32 / idx.len() as f32;
            purity_sum += purity;
            cluster_count += 1;
            println!(
                "cluster {cluster} (top-10 purity {purity:.2}, confidences {:.2}..{:.2}):",
                members.first().unwrap().1,
                members.last().unwrap().1
            );
            print!("{}", ascii_strip(&ctx.ds.data, h, w, &idx));
        }
        let acc = out.acc(&ctx.ds.labels);
        let mean_purity = purity_sum / cluster_count.max(1) as f32;
        println!(
            "\n{}: dataset ACC {acc:.3}, mean top-10 purity {mean_purity:.3} — {}",
            ctx.ds.name,
            if mean_purity >= acc {
                "high-confidence samples are cleaner than average (as in the paper)"
            } else {
                "top-10 purity below ACC (unexpected)"
            }
        );
    }
}
