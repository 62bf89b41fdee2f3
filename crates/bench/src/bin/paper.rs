//! Regenerates the paper's **Table 2** (runtimes), **Table 3** (quality)
//! and **Figure 6** (BSAT vs COV scatter) from one run of each
//! `(workload, m)` cell.
//!
//! Table 2, as in the paper: circuit, p, m; COV's "CNF" (instance build,
//! including BSIM), "One" (first solution) and "All" (complete
//! enumeration); the same three for BSAT. BSIM's single column is its
//! total wall time. At p = 1 COV builds no covering instance (its
//! size-one covers are the gates common to every candidate set), so its
//! "CNF" is the BSIM phase plus ~0, and "One" and "All" add ~0 to it.
//!
//! Table 3: BSIM's `|∪Ci|` (gates marked), `avgA` (mean distance of
//! marked gates to the nearest real error), `Gmax` (gates with maximal
//! mark count) and the min/max/avg distance within `Gmax`; for COV and
//! BSAT the solution count and min/max/avg of the per-solution average
//! distance.
//!
//! Figure 6: (a) per-configuration average solution distance, BSAT (y)
//! against COV (x) — points below the diagonal mean BSAT's solutions are
//! closer to the real errors; (b) the number of solutions on log-log
//! axes — points below the diagonal mean BSAT returns fewer (more
//! focused) solutions.
//!
//! Each of these three sections writes its CSV under
//! `target/experiments/`.
//!
//! Two sections of deterministic counters follow, on fixed generated
//! circuits (see `gatediag_bench::counter_tables`): Table 1's complexity
//! shapes, and the ablations of the explicit mux with `c = 0` pinning
//! (Sec. 2.3) and BSIM-seeded SAT (Sec. 6). Their rows are the same on every run apart from the wall time, which is
//! the last column.
//!
//! Bad options and an unusable `--bench-dir` print a one-line error and
//! exit with status 2.
//!
//! ```text
//! cargo run --release -p gatediag-bench --bin paper -- [--scale quick|full] [--seed N]
//! ```

use gatediag_bench::counter_tables::{ablations, format_row, header, table1_shapes, CounterRow};
use gatediag_bench::harness::{
    configured_workloads_with_source, parse_config, run_cell, secs, write_artifact, CellMetrics,
    WorkloadSource, TEST_COUNTS,
};
use std::fmt::Write as _;

/// One `(workload, m)` entry of the tables, in workload then `m` order:
/// the cell, or the notice that the workload exposed fewer than `m`
/// failing tests.
type Row = Result<CellMetrics, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = parse_config(&args).unwrap_or_else(|message| fail(&message));
    let seed = config.seed;
    // Resolve the workloads before printing the header: an empty
    // --bench-dir falls back to the synthetics, and the header must say
    // which circuits the numbers were actually measured on.
    let (workloads, source) =
        configured_workloads_with_source(&config).unwrap_or_else(|message| fail(&message));
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
    // Table 2's rows print as their cells finish; Tables 3 and Fig. 6
    // reuse the same cells.
    let mut rows: Vec<Row> = Vec::new();
    for workload in &workloads {
        for m in TEST_COUNTS {
            let row = if workload.tests.len() < m {
                Err(format!(
                    "{:<12} {:>2} {:>3} | (only {} failing tests exposed; skipped)",
                    workload.name,
                    workload.p,
                    m,
                    workload.tests.len()
                ))
            } else {
                Ok(run_cell(workload, m, config.limits))
            };
            match &row {
                Ok(cell) => println!("{}", table2_line(cell)),
                Err(skipped) => println!("{skipped}"),
            }
            rows.push(row);
        }
    }
    println!(
        "\nExpected shape (paper): BSIM < COV << BSAT; BSAT pays for the\n\
         effect analysis that makes its solutions guaranteed valid corrections."
    );
    write_artifact("table2.csv", &table2_csv(&rows));
    println!();
    table3(&rows, seed);
    println!();
    fig6(&rows, seed);
    println!();
    counter_table(
        "Table 1 shapes: growth of each approach's work (one run per point)",
        "Expected shape (paper Table 1): BSIM's sweep grows linearly in circuit size\n\
         (one packed sweep carries up to 64 tests, so m adds only path-trace work);\n\
         COV's covering search grows with k; BSAT's instance (clauses, vars) grows\n\
         linearly in m.",
        &table1_shapes(),
    );
    println!();
    counter_table(
        "Ablations: mux encodings and BSIM-seeded SAT (one run each)",
        "Expected (Secs. 2.3 and 6): pinning c = 0 removes most of the explicit mux's\n\
         decisions; BSIM seeding steers only BSAT's decision order.",
        &ablations(),
    );
}

/// Prints a section of deterministic counter rows; every column but the
/// last (wall time) is the same on every run.
fn counter_table(title: &str, expected: &str, rows: &[CounterRow]) {
    println!("{title}");
    println!("(fixed generated circuits; counters are deterministic, wall time is last)\n");
    let header = header();
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for row in rows {
        println!("{}", format_row(row));
    }
    println!("\n{expected}");
}

/// Reports bad input in one line on stderr and exits with status 2.
fn fail(message: &str) -> ! {
    eprintln!("paper: {message}");
    std::process::exit(2)
}

fn cells(rows: &[Row]) -> impl Iterator<Item = &CellMetrics> {
    rows.iter().filter_map(|row| row.as_ref().ok())
}

fn table2_line(cell: &CellMetrics) -> String {
    let note = match (cell.cov.complete, cell.bsat.complete) {
        (true, true) => "",
        (false, true) => "  [COV truncated]",
        (true, false) => "  [BSAT truncated]",
        (false, false) => "  [both truncated]",
    };
    format!(
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
    )
}

fn table2_csv(rows: &[Row]) -> String {
    let mut csv = String::from(
        "circuit,p,m,bsim_s,cov_cnf_s,cov_one_s,cov_all_s,bsat_cnf_s,bsat_one_s,bsat_all_s,cov_complete,bsat_complete\n",
    );
    for cell in cells(rows) {
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
    csv
}

fn table3(rows: &[Row], seed: u64) {
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
    for row in rows {
        let cell = match row {
            Ok(cell) => cell,
            Err(skipped) => {
                println!("{skipped}");
                continue;
            }
        };
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
    println!(
        "\nExpected shape (paper): BSAT returns fewer solutions of better (smaller)\n\
         average distance than COV in nearly all configurations; BSIM's Gmax often\n\
         contains a real error site (min = 0) but cannot guarantee it."
    );
    write_artifact("table3.csv", &csv);
}

fn ascii_scatter(points: &[(f64, f64)], title: &str, log: bool) -> String {
    const W: usize = 46;
    const H: usize = 18;
    let transform = |v: f64| if log { (v.max(1.0)).log10() } else { v };
    let xs: Vec<f64> = points.iter().map(|p| transform(p.0)).collect();
    let ys: Vec<f64> = points.iter().map(|p| transform(p.1)).collect();
    let max = xs
        .iter()
        .chain(&ys)
        .fold(1e-9f64, |a, &b| a.max(b))
        .max(1e-9);
    let mut grid = vec![vec![' '; W]; H];
    // Diagonal y = x across the full plot width.
    for (i, r) in (0..W).map(|i| (i, i * (H - 1) / (W - 1))) {
        grid[H - 1 - r][i] = '.';
    }
    for (&x, &y) in xs.iter().zip(&ys) {
        let col = ((x / max) * (W - 1) as f64).round() as usize;
        let row = ((y / max) * (H - 1) as f64).round() as usize;
        grid[H - 1 - row.min(H - 1)][col.min(W - 1)] = '*';
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}  (x: COV, y: BSAT, '.' = diagonal)");
    for row in grid {
        let _ = writeln!(out, "  |{}", row.into_iter().collect::<String>());
    }
    let _ = writeln!(out, "  +{}", "-".repeat(W));
    out
}

fn fig6(rows: &[Row], seed: u64) {
    println!("Figure 6: quality of BSAT vs COV (seed {seed})\n");
    let points: Vec<&CellMetrics> = cells(rows).collect();
    println!(
        "{:<20} {:>8} {:>8} {:>9} {:>9}",
        "config", "COV:avg", "SAT:avg", "COV:#sol", "SAT:#sol"
    );
    let label = |cell: &CellMetrics| format!("{} m={}", cell.name, cell.m);
    for cell in &points {
        println!(
            "{:<20} {:>8.2} {:>8.2} {:>9} {:>9}",
            label(cell),
            cell.cov_quality.avg,
            cell.bsat_quality.avg,
            cell.cov_quality.num_solutions,
            cell.bsat_quality.num_solutions
        );
    }

    let avg_points: Vec<(f64, f64)> = points
        .iter()
        .map(|c| (c.cov_quality.avg, c.bsat_quality.avg))
        .collect();
    let sol_points: Vec<(f64, f64)> = points
        .iter()
        .map(|c| {
            (
                c.cov_quality.num_solutions as f64,
                c.bsat_quality.num_solutions as f64,
            )
        })
        .collect();
    println!(
        "\n{}",
        ascii_scatter(&avg_points, "Fig. 6(a): avg distance", false)
    );
    println!(
        "{}",
        ascii_scatter(&sol_points, "Fig. 6(b): #solutions (log10)", true)
    );

    let below_avg = points
        .iter()
        .filter(|c| c.bsat_quality.avg <= c.cov_quality.avg)
        .count();
    let below_sol = points
        .iter()
        .filter(|c| c.bsat_quality.num_solutions <= c.cov_quality.num_solutions)
        .count();
    println!(
        "BSAT at or below the diagonal: quality {}/{} configs, #solutions {}/{} configs",
        below_avg,
        points.len(),
        below_sol,
        points.len()
    );
    println!(
        "(paper: BSAT usually returns fewer solutions of better quality; the one\n\
         exception in the paper was s38417 with only 4 tests)"
    );

    let mut csv = String::from("config,cov_avg,bsat_avg,cov_sols,bsat_sols\n");
    for cell in &points {
        let _ = writeln!(
            csv,
            "{},{:.4},{:.4},{},{}",
            label(cell),
            cell.cov_quality.avg,
            cell.bsat_quality.avg,
            cell.cov_quality.num_solutions,
            cell.bsat_quality.num_solutions
        );
    }
    write_artifact("fig6.csv", &csv);
}
