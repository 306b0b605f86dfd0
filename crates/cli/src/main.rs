//! The `adec` command-line tool. See `adec --help`.

// The binary entry point reports usage and run errors on stderr.
#![allow(clippy::print_stderr)]

use adec_cli::args::{parse, usage, Method};
use adec_cli::runner::{check, run};
use adec_datagen::Benchmark;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        let rest = argv.get(1..).unwrap_or(&[]);
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", adec_cli::args::serve_usage());
            return;
        }
        let serve_args = match adec_cli::args::parse_serve(rest) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}\n");
                eprint!("{}", adec_cli::args::serve_usage());
                std::process::exit(2);
            }
        };
        if let Err(e) = adec_cli::runner::serve(&serve_args) {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
        return;
    }
    if argv.first().map(String::as_str) == Some("load") {
        let rest = argv.get(1..).unwrap_or(&[]);
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", adec_cli::args::load_usage());
            return;
        }
        let load_args = match adec_cli::args::parse_load(rest) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}\n");
                eprint!("{}", adec_cli::args::load_usage());
                std::process::exit(2);
            }
        };
        if let Err(e) = adec_cli::runner::load(&load_args) {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
        return;
    }
    if argv.first().map(String::as_str) == Some("prof") {
        let rest = argv.get(1..).unwrap_or(&[]);
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", adec_cli::args::prof_usage());
            return;
        }
        let prof_args = match adec_cli::args::parse_prof(rest) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}\n");
                eprint!("{}", adec_cli::args::prof_usage());
                std::process::exit(2);
            }
        };
        match adec_cli::runner::prof(&prof_args) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(e.exit_code());
            }
        }
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    if argv.iter().any(|a| a == "--list") {
        println!("methods:");
        for (name, method) in Method::ALL {
            println!(
                "  {name:<12} {}",
                if method.is_deep() { "(deep, uses shared pretrained autoencoder)" } else { "" }
            );
        }
        println!("\ndatasets: {}", Benchmark::ALL.map(Benchmark::cli_name).join(" "));
        return;
    }

    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", usage());
            std::process::exit(2);
        }
    };

    if args.check {
        let report = check(&args);
        if report.is_empty() {
            if args.deep {
                let levels: Vec<String> = adec_tensor::kernels::Isa::available()
                    .iter()
                    .map(ToString::to_string)
                    .collect();
                println!(
                    "check: architectures, trainer phase tapes, and kernel determinism (isa levels: {}) all audit cleanly",
                    levels.join(", ")
                );
            } else {
                println!("check: all model architectures validate cleanly");
            }
        } else {
            print!("{report}");
        }
        if report.is_pass() {
            return;
        }
        std::process::exit(1);
    }

    eprintln!(
        "running {:?} on {:?} (size {:?}, seed {})…",
        args.method, args.dataset, args.size, args.seed
    );
    match run(&args) {
        Ok(report) => {
            println!(
                "{} / {}: ACC {:.4}  NMI {:.4}  ARI {:.4}  purity {:.4}  ({:.2}s)",
                report.dataset, report.method, report.acc, report.nmi, report.ari, report.purity,
                report.seconds
            );
            if let Some(path) = &args.labels_out {
                let mut body = String::from("index,label\n");
                for (i, l) in report.labels.iter().enumerate() {
                    body.push_str(&format!("{i},{l}\n"));
                }
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("error writing {path}: {e}");
                    std::process::exit(5);
                }
                eprintln!("labels written to {path}");
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
