//! Regenerates the paper's **Table 2**: runtimes of the basic approaches.
//!
//! Columns as in the paper: circuit, p, m; COV's "CNF" (instance build,
//! including BSIM), "One" (first solution) and "All" (complete
//! enumeration); the same three for BSAT. BSIM's single column is its
//! total wall time. At p = 1 COV builds no covering instance (its
//! size-one covers are the gates common to every candidate set), so its
//! "CNF" is the BSIM phase plus ~0, and "One" and "All" add ~0 to it.
//!
//! ```text
//! cargo run --release -p gatediag-bench --bin table2 -- [--scale quick|full] [--seed N]
//! ```

use gatediag_bench::harness::{
    configured_workloads_with_source, parse_config, run_cell, secs, write_artifact, WorkloadSource,
    TEST_COUNTS,
};
use std::fmt::Write as _;

fn main() {
    let config = parse_config();
    let (seed, limits) = (config.seed, config.limits);
    // Resolve the workloads before printing the header: an empty
    // --bench-dir falls back to the synthetics, and the header must say
    // which circuits the numbers were actually measured on.
    let (workloads, source) = configured_workloads_with_source(&config);
    println!("Table 2: runtime of the basic approaches (seconds)");
    match (source, &config.bench_dir) {
        (WorkloadSource::BenchDir, Some(dir)) => {
            println!("(.bench circuits from {dir}, seed {seed})\n")
        }
        _ => println!("(profile-matched synthetic ISCAS89 stand-ins, seed {seed})\n"),
    }
    println!(
        "{:<12} {:>2} {:>3} | {:>8} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "circuit",
        "p",
        "m",
        "BSIM",
        "COV:CNF",
        "COV:One",
        "COV:All",
        "SAT:CNF",
        "SAT:One",
        "SAT:All"
    );
    println!("{}", "-".repeat(96));
    let mut csv = String::from(
        "circuit,p,m,bsim_s,cov_cnf_s,cov_one_s,cov_all_s,bsat_cnf_s,bsat_one_s,bsat_all_s,cov_complete,bsat_complete\n",
    );
    for workload in workloads {
        for m in TEST_COUNTS {
            if workload.tests.len() < m {
                println!(
                    "{:<12} {:>2} {:>3} | (only {} failing tests exposed; skipped)",
                    workload.name,
                    workload.p,
                    m,
                    workload.tests.len()
                );
                continue;
            }
            let cell = run_cell(&workload, m, limits);
            let note = match (cell.cov.complete, cell.bsat.complete) {
                (true, true) => "",
                (false, true) => "  [COV truncated]",
                (true, false) => "  [BSAT truncated]",
                (false, false) => "  [both truncated]",
            };
            println!(
                "{:<12} {:>2} {:>3} | {:>8} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}{}",
                cell.name,
                cell.p,
                cell.m,
                secs(cell.bsim_time),
                secs(cell.cov.build_time),
                secs(cell.cov.first_solution_time),
                secs(cell.cov.total_time),
                secs(cell.bsat.build_time),
                secs(cell.bsat.first_solution_time),
                secs(cell.bsat.total_time),
                note,
            );
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                cell.name,
                cell.p,
                cell.m,
                cell.bsim_time.as_secs_f64(),
                cell.cov.build_time.as_secs_f64(),
                cell.cov.first_solution_time.as_secs_f64(),
                cell.cov.total_time.as_secs_f64(),
                cell.bsat.build_time.as_secs_f64(),
                cell.bsat.first_solution_time.as_secs_f64(),
                cell.bsat.total_time.as_secs_f64(),
                cell.cov.complete,
                cell.bsat.complete,
            );
        }
    }
    println!(
        "\nExpected shape (paper): BSIM < COV << BSAT; BSAT pays for the\n\
         effect analysis that makes its solutions guaranteed valid corrections."
    );
    write_artifact("table2.csv", &csv);
}
