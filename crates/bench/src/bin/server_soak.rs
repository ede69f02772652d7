//! Soaks the multi-session decode server under injected faults.
//!
//! ```text
//! cargo run --release -p palc_bench --bin server_soak \
//!     [-- [--smoke] [--check] [--verbose] [out.json [sessions]]]
//! ```
//!
//! Drives ≥ 1000 concurrent sessions (64 in `--smoke`) through a
//! supervised [`palc::server::DecodeServer`] while injecting panicking
//! decoders, stalled feeders, `ShedOldest` burst overload, and
//! mid-stream closes, then writes throughput, p50/p99/max
//! feed-to-visibility latency, and fault/reap/shed accounting to
//! `BENCH_server.json` (or the given path). A smoke run never writes
//! unless a path is given explicitly. `--check` gates the run
//! ([`palc_bench::soak::check_soak`]): zero packet loss on non-faulted
//! sessions, every injected panic quarantined into `SessionFault`,
//! every stalled session reaped, and shed counters nonzero only on the
//! overloaded `ShedOldest` population. Exits non-zero on any violation.
//! An unknown flag or a count that is not a positive integer prints the
//! usage and exits 2.

use palc_bench::soak::{check_soak, run_soak, to_json, SoakConfig};

fn main() {
    let args = palc_bench::parse_args(
        "usage: server_soak [--smoke] [--check] [--verbose] [out.json [sessions]]",
    );
    let (smoke, check, verbose) = (args.smoke, args.check, args.verbose);
    let path = args.out.as_deref();
    let mut cfg = if smoke { SoakConfig::smoke() } else { SoakConfig::full() };
    if let Some(n) = args.count {
        cfg.sessions = n as usize;
    }

    println!("soaking {} sessions over {} feeders (workers auto)...", cfg.sessions, cfg.feeders);
    let report = run_soak(cfg);

    println!(
        "{} sessions / {} workers: {:.2} Msamples/s over {:.2} s wall",
        report.sessions,
        report.workers,
        report.throughput_sps / 1.0e6,
        report.wall_s,
    );
    println!(
        "latency  p50 {} µs | p99 {} µs | max {} µs ({} feeds)",
        report.p50_us, report.p99_us, report.max_us, report.latency_count,
    );
    println!(
        "normal   {}/{} sessions delivered all {} packets",
        report.normal_sessions - report.normal_losses,
        report.normal_sessions,
        report.packets_expected_each,
    );
    println!(
        "faults   {}/{} quarantined | reaps {}/{} | midclose {}/{} clean",
        report.faults_observed,
        report.faults_expected,
        report.reaps_observed,
        report.reaps_expected,
        report.midcloses_clean,
        report.midcloses_expected,
    );
    println!(
        "overload {}/{} sessions shed ({} samples; {} elsewhere)",
        report.overloads_shedding,
        report.overloads_expected,
        report.shed_total,
        report.shed_elsewhere,
    );
    if verbose {
        println!(
            "decoded {} samples, emitted {} events, respawned {} workers",
            report.samples_decoded, report.events_emitted, report.workers_respawned,
        );
    }

    let json = to_json(&report);
    // A smoke run only writes when a path was given explicitly, so it
    // can never clobber the recorded baseline.
    match path.or(if smoke { None } else { Some("BENCH_server.json") }) {
        Some(p) => {
            std::fs::write(p, &json).unwrap_or_else(|e| panic!("writing {p}: {e}"));
            println!("\nwrote {p}");
        }
        None => println!("\nsmoke run: nothing written"),
    }

    if check {
        let violations = check_soak(&report);
        if violations.is_empty() {
            println!("all soak gates hold");
        } else {
            for v in &violations {
                eprintln!("SOAK GATE VIOLATED: {v}");
            }
            std::process::exit(1);
        }
    }
}
