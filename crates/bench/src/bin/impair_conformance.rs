//! Records every decoder's delivery-ratio curves under the channel
//! impairment layer.
//!
//! ```text
//! cargo run --release -p palc_bench --bin impair_conformance \
//!     [-- [--smoke] [--check] [--verbose] [out.json [seeds]]]
//! ```
//!
//! Writes `BENCH_impair.json` (or the given path) and prints a summary.
//! `--smoke` is the CI guard: 2 seeds per cell, results printed but
//! written only when a path is given explicitly — a smoke run never
//! clobbers the recorded curves. `--verbose` prints every matrix cell
//! instead of the per-scenario digest. `--check` asserts the delivery
//! floors ([`palc_bench::conformance::check_conformance`]): clean cells
//! at 100 %, exact monotonicity (clean ≥ every impaired cell — the
//! matrix is deterministic, so equality-tight gates are safe), the
//! mild-severity floors, full matrix coverage, and the two-tag
//! contention verdicts. Exits non-zero on any violation. An unknown flag
//! or a count that is not a positive integer prints the usage and exits
//! 2.

fn main() {
    let args = palc_bench::parse_args(
        "usage: impair_conformance [--smoke] [--check] [--verbose] [out.json [seeds]]",
    );
    let (smoke, check, verbose) = (args.smoke, args.check, args.verbose);
    let path = args.out.as_deref();
    let seeds = args.count.map_or(if smoke { 2 } else { 6 }, |n| n as usize);

    let report = palc_bench::conformance::conformance_report(seeds);

    if verbose {
        for c in &report.cells {
            println!(
                "{:<18} {:<20} {:<13} sev {:>4} | {:>2}/{:<2} delivered ({:>5.1}%)",
                c.scenario,
                c.decoder,
                c.impairment,
                c.severity,
                c.delivered,
                c.seeds,
                c.delivery_ratio() * 100.0,
            );
        }
    } else {
        // Digest: one line per scenario/decoder — the clean ratio and the
        // worst cell of each impairment kind.
        let mut pairs: Vec<(String, String)> =
            report.cells.iter().map(|c| (c.scenario.clone(), c.decoder.clone())).collect();
        pairs.sort();
        pairs.dedup();
        for (sc, dec) in &pairs {
            let of = |kind: &str| -> String {
                report
                    .cells
                    .iter()
                    .filter(|c| &c.scenario == sc && &c.decoder == dec && c.impairment == kind)
                    .map(|c| c.delivery_ratio())
                    .fold(f64::INFINITY, f64::min)
                    .pipe_fmt()
            };
            println!(
                "{sc:<18} {dec:<20} clean {} | burst {} | interf {} | dropout {} | jitter {}",
                of("clean"),
                of("burst_noise"),
                of("interference"),
                of("dropout"),
                of("jitter"),
            );
        }
    }
    for c in &report.contention {
        println!(
            "contention/{:<11} lane {:>5.2} m | {}/{} delivered | verdicts {:?}",
            c.case, c.rival_lane_y_m, c.delivered, c.seeds, c.verdicts,
        );
    }

    let json = palc_bench::conformance::to_json(&report);
    // A smoke run only writes when a path was given explicitly, so it can
    // never clobber the recorded curves.
    match path.or(if smoke { None } else { Some("BENCH_impair.json") }) {
        Some(p) => {
            std::fs::write(p, &json).unwrap_or_else(|e| panic!("writing {p}: {e}"));
            println!("\nwrote {p}");
        }
        None => println!("\nsmoke run: nothing written"),
    }

    if check {
        let violations = palc_bench::conformance::check_conformance(&report);
        if violations.is_empty() {
            println!("all delivery floors hold");
        } else {
            for v in &violations {
                eprintln!("FLOOR VIOLATED: {v}");
            }
            std::process::exit(1);
        }
    }
}

/// Formats a worst-of-kind delivery ratio as a fixed-width percentage.
trait PipeFmt {
    fn pipe_fmt(self) -> String;
}

impl PipeFmt for f64 {
    fn pipe_fmt(self) -> String {
        if self.is_finite() {
            format!("{:>5.1}%", self * 100.0)
        } else {
            "    —".into()
        }
    }
}
