//! Regenerates the paper's **Table 3**: quality of the basic approaches.
//!
//! BSIM columns: `|∪Ci|` (gates marked), `avgA` (mean distance of marked
//! gates to the nearest real error), `Gmax` (gates with maximal mark
//! count) and the min/max/avg distance within `Gmax`. COV and BSAT
//! columns: solution count and min/max/avg of the per-solution average
//! distance.
//!
//! ```text
//! cargo run --release -p gatediag-bench --bin table3 -- [--scale quick|full] [--seed N]
//! ```

use gatediag_bench::harness::{
    configured_workloads_with_source, parse_config, run_cell, write_artifact, TEST_COUNTS,
};
use std::fmt::Write as _;

fn main() {
    let config = parse_config();
    let (seed, limits) = (config.seed, config.limits);
    println!("Table 3: quality of the basic approaches");
    println!("(distances in gates to the nearest injected error; seed {seed})\n");
    println!(
        "{:<12} {:>2} {:>3} | {:>6} {:>6} {:>5} {:>4} {:>4} {:>6} | {:>7} {:>5} {:>5} {:>6} | {:>7} {:>5} {:>5} {:>6}",
        "circuit", "p", "m", "|uCi|", "avgA", "Gmax", "min", "max", "avgG",
        "COV#sol", "min", "max", "avg",
        "SAT#sol", "min", "max", "avg"
    );
    println!("{}", "-".repeat(132));
    let mut csv = String::from(
        "circuit,p,m,union,avg_all,gmax,gmax_min,gmax_max,gmax_avg,cov_sols,cov_min,cov_max,cov_avg,bsat_sols,bsat_min,bsat_max,bsat_avg\n",
    );
    for workload in configured_workloads_with_source(&config).0 {
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
            let b = &cell.bsim_quality;
            let c = &cell.cov_quality;
            let s = &cell.bsat_quality;
            println!(
                "{:<12} {:>2} {:>3} | {:>6} {:>6.2} {:>5} {:>4} {:>4} {:>6.2} | {:>7} {:>5.2} {:>5.2} {:>6.2} | {:>7} {:>5.2} {:>5.2} {:>6.2}",
                cell.name, cell.p, cell.m,
                b.union_size, b.avg_all, b.gmax_size, b.gmax_min, b.gmax_max, b.gmax_avg,
                c.num_solutions, c.min, c.max, c.avg,
                s.num_solutions, s.min, s.max, s.avg,
            );
            let _ = writeln!(
                csv,
                "{},{},{},{},{:.4},{},{},{},{:.4},{},{:.4},{:.4},{:.4},{},{:.4},{:.4},{:.4}",
                cell.name,
                cell.p,
                cell.m,
                b.union_size,
                b.avg_all,
                b.gmax_size,
                b.gmax_min,
                b.gmax_max,
                b.gmax_avg,
                c.num_solutions,
                c.min,
                c.max,
                c.avg,
                s.num_solutions,
                s.min,
                s.max,
                s.avg,
            );
        }
    }
    println!(
        "\nExpected shape (paper): BSAT returns fewer solutions of better (smaller)\n\
         average distance than COV in nearly all configurations; BSIM's Gmax often\n\
         contains a real error site (min = 0) but cannot guarantee it."
    );
    write_artifact("table3.csv", &csv);
}
