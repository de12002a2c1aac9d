//! `repro` — regenerates every table and figure of the reproduced
//! evaluation.
//!
//! ```sh
//! cargo run --release -p bench --bin repro                      # everything
//! cargo run --release -p bench --bin repro e2 e7 t1             # selected ids
//! cargo run --release -p bench --bin repro e18 --trace e18.json # + timeline
//! cargo run --release -p bench --bin repro e19 --json           # machine-readable
//! ```

use bench::experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = if let Some(pos) = args.iter().position(|a| a == "--json") {
        args.remove(pos);
        true
    } else {
        false
    };
    // --trace FILE: export the Chrome trace_event timeline of the E18
    // Gram run (the traced experiment) alongside the tables.
    let trace_path = if let Some(pos) = args.iter().position(|a| a == "--trace") {
        args.remove(pos);
        if pos >= args.len() {
            eprintln!("--trace needs a file path");
            std::process::exit(2);
        }
        Some(args.remove(pos))
    } else {
        None
    };
    let series = if args.is_empty() || args.iter().any(|a| a == "all") {
        experiments::all()
    } else {
        let mut out = Vec::new();
        for id in &args {
            match experiments::by_id(id) {
                Some(s) => out.push(s),
                None => {
                    eprintln!(
                        "unknown experiment '{id}' (valid: e1..e22, t1..t4, all; add --json for machine-readable output)"
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    };
    if json {
        let items: Vec<String> = series.iter().map(experiments::Series::to_json).collect();
        println!("[{}]", items.join(","));
    } else {
        for s in series {
            println!("{}", s.render());
        }
    }
    if let Some(path) = trace_path {
        let (_, log) = experiments::e18_with_log();
        if let Err(e) = std::fs::write(&path, log.to_chrome_json()) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "trace: {} spans -> {path} (load in Perfetto or chrome://tracing)",
            log.tasks.len()
        );
    }
}
