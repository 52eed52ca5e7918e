//! Regenerates the paper's tables and figures: every driver in
//! `faasnap_bench::DRIVERS`, or only those named on the command line
//! (`cargo bench -p faasnap-bench -- fig6_exec_time tbl_merge`).
//! `FAASNAP_QUICK=1` runs them at `Effort::Quick`. An unknown name exits
//! with status 2 before any driver runs.

use faasnap_bench::{Effort, DRIVERS};

fn main() {
    // Cargo appends `--bench` to a bench target's arguments.
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let drivers: Vec<_> = if names.is_empty() {
        DRIVERS.iter().collect()
    } else {
        names
            .iter()
            .map(|name| {
                DRIVERS.iter().find(|(d, _)| d == name).unwrap_or_else(|| {
                    eprintln!("figures: unknown figure {name:?}");
                    std::process::exit(2)
                })
            })
            .collect()
    };
    let effort = if std::env::var_os("FAASNAP_QUICK").is_some() {
        Effort::Quick
    } else {
        Effort::Full
    };
    for (_, driver) in drivers {
        for table in driver(effort) {
            println!("{table}");
        }
    }
}
