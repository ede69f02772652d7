//! Records the channel sampler's samples/sec baseline.
//!
//! ```text
//! cargo run --release -p palc_bench --bin channel_throughput \
//!     [-- [--smoke] [--check] [--verbose] [out.json [reps]]]
//! ```
//!
//! Writes `BENCH_channel.json` (or the given path) and prints it.
//! `--smoke` is the CI bit-rot guard: one rep per scenario, results
//! printed but written only when a path is given explicitly — a smoke
//! run never clobbers the recorded baseline. `--verbose` prints the
//! kernel build statistics (tables built vs interned, pool bytes, the
//! culled/parked/mover split) for every fleet scaling point. `--check`
//! asserts the ROADMAP performance floors on the freshly measured
//! numbers (indoor staged/full ≥ 5×, the footprint-kernel floors
//! `ceiling_office` kernel/staged ≥ 2.5× and outdoor kernel/staged
//! ≥ 3.6×, and the fleet sublinearity floor: the
//! 1000-object per-tick cost within 3× of the 100-object cost) and
//! exits non-zero on any violation, so CI fails on a perf regression
//! instead of letting the ledger erode silently. A violation seen on a
//! single-rep smoke measurement is re-measured at the full rep count
//! before failing: floor ratios wobble ~10 % on a noisy runner, and
//! only a regression that survives the confirmation run is real.
//! An unknown flag or a count that is not a positive integer prints the
//! usage and exits 2.

fn main() {
    let args = palc_bench::parse_args(
        "usage: channel_throughput [--smoke] [--check] [--verbose] [out.json [reps]]",
    );
    let (smoke, check, verbose) = (args.smoke, args.check, args.verbose);
    let path = args.out.as_deref();
    let reps = args.count.unwrap_or(if smoke { 1 } else { 5 });

    let results = palc_bench::throughput::channel_throughput(reps);
    for r in &results {
        println!(
            "{:<18} kernel {:>10.0}/s | staged {:>10.0}/s | full {:>10.0}/s | staged/full {:>5.2}x | kernel/staged {:>5.2}x | array×{} {:>10.0}/s | run_batch {:>4.2}x on {} threads",
            r.scenario,
            r.kernel_samples_per_s,
            r.staged_samples_per_s,
            r.full_samples_per_s,
            r.speedup,
            r.kernel_speedup,
            r.array_receivers,
            r.array_samples_per_s,
            r.batch_parallel_speedup,
            r.batch_threads,
        );
    }
    let scaling = palc_bench::throughput::scaling_sweep(reps);
    for p in &scaling {
        println!(
            "{:<18} {:>4} objects ({} movers) | {:>8.0} ns/tick over {} samples",
            p.scenario, p.objects, p.movers, p.per_tick_ns, p.trace_samples,
        );
        if verbose {
            println!(
                "{:<18} tables: {} built, {} interned, {} bytes | objects: {} culled, {} parked, {} movers",
                "",
                p.stats.tables_built,
                p.stats.tables_interned,
                p.stats.table_bytes,
                p.stats.objects_culled,
                p.stats.objects_parked,
                p.stats.objects_movers,
            );
        }
    }
    let json = palc_bench::throughput::to_json(&results, &scaling);
    // A smoke run only writes when a path was given explicitly, so it can
    // never clobber the recorded baseline.
    match path.or(if smoke { None } else { Some("BENCH_channel.json") }) {
        Some(p) => {
            std::fs::write(p, &json).unwrap_or_else(|e| panic!("writing {p}: {e}"));
            println!("\nwrote {p}");
        }
        None => println!("\nsmoke run: nothing written"),
    }
    if check {
        let mut violations = palc_bench::throughput::check_floors(&results);
        violations.extend(palc_bench::throughput::check_scaling_floors(&scaling));
        if !violations.is_empty() && reps < 5 {
            // Low-rep measurements (the CI smoke run) can wobble a
            // ratio a few percent below its floor; confirm the
            // regression on a fresh 5-rep measurement before failing.
            eprintln!("floor violation at {reps} rep(s); re-measuring at 5 reps to confirm:");
            for v in &violations {
                eprintln!("  {v}");
            }
            violations = palc_bench::throughput::check_floors(
                &palc_bench::throughput::channel_throughput(5),
            );
            violations.extend(palc_bench::throughput::check_scaling_floors(
                &palc_bench::throughput::scaling_sweep(5),
            ));
        }
        if violations.is_empty() {
            println!("all performance floors hold");
        } else {
            for v in &violations {
                eprintln!("FLOOR VIOLATED: {v}");
            }
            std::process::exit(1);
        }
    }
}
