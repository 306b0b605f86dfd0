//! **Table 1** — ACC/NMI of classical, subspace, manifold, and deep
//! clustering methods on all six benchmark simulators.
//!
//! Rows follow the paper. DEC/IDEC/DCN/AE+* use the original vanilla
//! pretraining; ADEC uses its ACAI+augmentation pretraining. DeepCluster,
//! DEPICT, SR-k-means, JULE, and VaDE run as fully-connected "lite"
//! variants (JULE only on the image datasets, mirroring the paper's ⋄
//! marks for one-dimensional data).

// Experiment-harness code: indices range over the experiment's own
// fixed dimensions, a panic is an acceptable failure mode, and progress
// lines go to stderr so stdout stays the result table.
#![allow(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used, clippy::print_stderr)]
use adec_bench::*;
use adec_classic::{
    ensc, kmeans, lsnmf_cluster, rbf_kernel_kmeans, spectral_clustering, ssc_omp,
    ward_agglomerative, EnscConfig, GmmConfig, KMeansConfig, SpectralConfig, SscOmpConfig,
};
use adec_core::jule::{self, JuleConfig};
use adec_core::lite::{ae_finch, ae_kmeans, deepcluster_lite, depict_lite, sr_kmeans_lite, LiteConfig};
use adec_core::vade::{self, VadeConfig};
use adec_datagen::Benchmark;
use adec_tensor::SeedRng;

fn main() {
    let cfg = HarnessCfg::from_env();
    println!("Table 1 reproduction — size {:?}, seed {}, budget {}", cfg.size, cfg.seed, if cfg.full_budget { "full" } else { "fast" });

    let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
    let mut rows: Vec<Row> = Vec::new();
    let n_methods = 19;
    let mut cells: Vec<Vec<Cell>> = vec![Vec::new(); n_methods];
    let mut csv_rows: Vec<String> = Vec::new();

    for benchmark in Benchmark::ALL {
        let ds = benchmark.generate(cfg.size, cfg.seed);
        let k = ds.n_classes;
        let mut rng = SeedRng::new(cfg.seed ^ 0xC1A5);
        let mut mi = 0usize;
        let push = |cells: &mut Vec<Vec<Cell>>, mi: &mut usize, cell: Cell| {
            cells[*mi].push(cell);
            *mi += 1;
        };

        eprintln!("[table1] {} — classical methods", ds.name);
        let km = kmeans(&ds.data, &KMeansConfig::new(k), &mut rng);
        let (a, n) = eval(&ds.labels, &km.labels);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let gm = adec_classic::gmm::fit(&ds.data, &GmmConfig::new(k), &mut rng);
        let (a, n) = eval(&ds.labels, &gm.labels);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let pred = lsnmf_cluster(&ds.data, k, &mut rng);
        let (a, n) = eval(&ds.labels, &pred);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let pred = ward_agglomerative(&ds.data, k);
        let (a, n) = eval(&ds.labels, &pred);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        eprintln!("[table1] {} — subspace/manifold methods", ds.name);
        let pred = ssc_omp(&ds.data, &SscOmpConfig::new(k), &mut rng);
        let (a, n) = eval(&ds.labels, &pred);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let pred = ensc(&ds.data, &EnscConfig::new(k), &mut rng);
        let (a, n) = eval(&ds.labels, &pred);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let pred = spectral_clustering(&ds.data, &SpectralConfig::new(k), &mut rng);
        let (a, n) = eval(&ds.labels, &pred);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let pred = rbf_kernel_kmeans(&ds.data, k, &mut rng);
        let (a, n) = eval(&ds.labels, &pred);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        eprintln!("[table1] {} — deep methods (vanilla pretraining)", ds.name);
        let mut ctx = deep_context(benchmark, &cfg, false);

        let pred = ae_kmeans(&ctx.session.ae, &ctx.session.store, &ctx.session.data, k, &mut rng);
        let (a, n) = eval(&ds.labels, &pred);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let pred = ae_finch(&ctx.session.ae, &ctx.session.store, &ctx.session.data, k);
        let (a, n) = eval(&ds.labels, &pred);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        ctx.session.restore_pretrained();
        let mut lite = LiteConfig::fast(k);
        lite.rounds = (cfg.cluster_iters() / lite.steps_per_round).max(4);
        let mut lrng = ctx.session.fork_rng(0xDC11);
        let out = deepcluster_lite(&ctx.session.ae, &mut ctx.session.store, &ctx.session.data, &lite, &mut lrng);
        let (a, n) = eval(&ds.labels, &out.labels);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let out = ctx.session.run_dcn(&dcn_cfg(&cfg, k)).unwrap();
        let (a, n) = eval(&ds.labels, &out.labels);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let out = ctx.session.run_dec(&dec_cfg(&cfg, k)).unwrap();
        let (a, n) = eval(&ds.labels, &out.labels);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        let out = ctx.session.run_idec(&idec_cfg(&cfg, k)).unwrap();
        let (a, n) = eval(&ds.labels, &out.labels);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        ctx.session.restore_pretrained();
        let mut lrng = ctx.session.fork_rng(0x5123);
        let out = sr_kmeans_lite(&ctx.session.ae, &mut ctx.session.store, &ctx.session.data, &lite, &mut lrng);
        let (a, n) = eval(&ds.labels, &out.labels);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        ctx.session.restore_pretrained();
        let mut lrng = ctx.session.fork_rng(0xDE91);
        let out = depict_lite(&ctx.session.ae, &mut ctx.session.store, &ctx.session.data, &lite, &mut lrng);
        let (a, n) = eval(&ds.labels, &out.labels);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        // JULE-lite only on image data (the paper's ⋄ marks).
        if ds.supports_augmentation() {
            eprintln!("[table1] {} — JULE-lite", ds.name);
            ctx.session.restore_pretrained();
            let mut lrng = ctx.session.fork_rng(0x3B1E);
            let mut jcfg = JuleConfig::fast(k);
            jcfg.rounds = 5;
            let out = jule::run(&ctx.session.ae, &mut ctx.session.store, &ctx.session.data, &jcfg, &mut lrng);
            let (a, n) = eval(&ds.labels, &out.labels);
            push(&mut cells, &mut mi, Cell::Score(a, n));
        } else {
            push(&mut cells, &mut mi, Cell::NotApplicable("⋄"));
        }

        // VaDE-lite (own networks, not the shared AE).
        eprintln!("[table1] {} — VaDE-lite", ds.name);
        {
            let mut store = adec_nn::ParamStore::new();
            let mut vcfg = VadeConfig::fast(k);
            vcfg.vae_iterations = cfg.pretrain_iters();
            vcfg.cluster_iterations = cfg.cluster_iters() / 2;
            let mut vrng = SeedRng::new(cfg.seed ^ 0x4ADE);
            let out = vade::run(&mut store, &ds.data, cfg.arch(), &vcfg, &mut vrng);
            let (a, n) = eval(&ds.labels, &out.labels);
            push(&mut cells, &mut mi, Cell::Score(a, n));
        }

        eprintln!("[table1] {} — ADEC (ACAI+augmentation pretraining)", ds.name);
        let mut star = deep_context(benchmark, &cfg, true);
        let out = star.session.run_adec(&adec_cfg(&cfg, k)).unwrap();
        let (a, n) = eval(&ds.labels, &out.labels);
        push(&mut cells, &mut mi, Cell::Score(a, n));

        assert_eq!(mi, n_methods);
    }

    let method_names = [
        "k-means",
        "GMM",
        "LSNMF",
        "AC",
        "SSC-OMP",
        "EnSC",
        "SC",
        "RBF k-means",
        "AE + k-means",
        "AE + FINCH",
        "DeepCluster~",
        "DCN",
        "DEC",
        "IDEC",
        "SR-k-means~",
        "DEPICT~",
        "JULE~",
        "VaDE~",
        "ADEC",
    ];
    for (name, method_cells) in method_names.iter().zip(cells) {
        for (d, cell) in method_cells.iter().enumerate() {
            if let Cell::Score(a, n) = cell {
                csv_rows.push(format!("{name},{},{a:.4},{n:.4}", names[d]));
            }
        }
        rows.push(Row {
            method: name.to_string(),
            cells: method_cells,
        });
    }
    print_table("Table 1: clustering performance (ACC / NMI)", &names, &rows);
    println!("\n~ = fully-connected lite variant; ⋄ = unsuitable for one-dimensional data (as in the paper).");
    println!("‡/† pretraining notes: REUTERS-10K has no augmentation (text), Mice Protein has no augmentation (tabular).");
    let path = write_csv("table1.csv", "method,dataset,acc,nmi", &csv_rows);
    println!("CSV written to {}", path.display());
}
