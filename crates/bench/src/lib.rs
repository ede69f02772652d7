//! palc-bench: the workspace's benchmark harness and kernels.
//!
//! The build environment is offline (no `criterion`), so a small
//! wall-clock harness lives here instead: [`bench()`] calibrates a batch
//! size, samples batched iterations, and reports median ns/iter. The
//! bench targets in `benches/` (run with `cargo bench --workspace`) use
//! it, and the `channel_throughput` binary records the channel sampler's
//! samples/sec baseline to `BENCH_channel.json` so future changes have a
//! perf trajectory to compare against. The `impair_conformance` binary
//! ([`conformance`]) records every decoder's delivery-ratio curves under
//! the channel impairment layer to `BENCH_impair.json` and gates CI on
//! their floors. The `server_soak` binary ([`soak`]) drives the decode
//! server with ~1000 concurrent sessions under injected faults and
//! records throughput and event-latency percentiles to
//! `BENCH_server.json`.

#![forbid(unsafe_code)]

pub mod conformance;
pub mod soak;
pub mod throughput;

pub use std::hint::black_box;

use std::time::Instant;

/// The command line the bench binaries share:
/// `[--smoke] [--check] [--verbose] [--help] [out.json [count]]`.
#[derive(Debug, Default, PartialEq)]
pub struct BenchArgs {
    /// `--smoke`: the short CI run, written only to an explicit path.
    pub smoke: bool,
    /// `--check`: gate the run on its floors.
    pub check: bool,
    /// `--verbose`: print per-cell or per-point detail.
    pub verbose: bool,
    /// The output JSON path.
    pub out: Option<String>,
    /// The binary's repetition knob (reps, seeds or sessions), ≥ 1.
    pub count: Option<u64>,
}

/// [`parse_args`] over explicit arguments (program name excluded);
/// `Ok(None)` means `--help`.
fn parse_args_from(args: &[&str]) -> Result<Option<BenchArgs>, String> {
    let mut parsed = BenchArgs::default();
    let mut positional = Vec::new();
    for &arg in args {
        match arg {
            "--smoke" => parsed.smoke = true,
            "--check" => parsed.check = true,
            "--verbose" => parsed.verbose = true,
            "--help" => return Ok(None),
            _ if arg.starts_with('-') => return Err(format!("unknown flag `{arg}`")),
            _ => positional.push(arg),
        }
    }
    if positional.len() > 2 {
        return Err(format!("unexpected argument `{}`", positional[2]));
    }
    parsed.out = positional.first().map(|s| s.to_string());
    if let Some(count) = positional.get(1) {
        let n = count.parse().ok().filter(|&n: &u64| n > 0);
        parsed.count = Some(n.ok_or(format!("count `{count}` is not a positive integer"))?);
    }
    Ok(Some(parsed))
}

/// Parses the process arguments. `--help` prints `usage` and exits 0.
/// An unknown flag, a count that is not a positive integer, or a third
/// positional argument prints the error and `usage` and exits 2, so a
/// mistyped flag can never be taken for the output path.
pub fn parse_args(usage: &str) -> BenchArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args_from(&args.iter().map(String::as_str).collect::<Vec<_>>()) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{usage}");
            std::process::exit(0)
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{usage}");
            std::process::exit(2)
        }
    }
}

/// One benchmark's measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id, e.g. `fft/power_spectrum/1024`.
    pub name: String,
    /// Median time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Mean time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Total iterations measured (excluding warm-up).
    pub iters: u64,
}

/// Times `f`, printing and returning the measurement.
///
/// Strategy: one warm-up call sizes a batch targeting ~2 ms, then 15
/// batches are timed and per-iteration times derived — batching keeps
/// clock-read overhead negligible even for nanosecond kernels.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> BenchResult {
    // Warm-up + calibration.
    let t0 = Instant::now();
    black_box(f());
    let once_ns = t0.elapsed().as_nanos().max(1) as f64;
    let batch = (2.0e6 / once_ns).clamp(1.0, 1.0e6) as u64;
    let samples = 15usize;

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    let mut iters = 0u64;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        per_iter.push(t.elapsed().as_nanos() as f64 / batch as f64);
        iters += batch;
    }
    per_iter.sort_by(f64::total_cmp);
    let median_ns = per_iter[per_iter.len() / 2];
    let mean_ns = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
    let result = BenchResult { name: name.to_string(), median_ns, mean_ns, iters };
    println!(
        "{:<52} {:>14}/iter (mean {:>14})",
        result.name,
        format_ns(median_ns),
        format_ns(mean_ns)
    );
    result
}

fn format_ns(ns: f64) -> String {
    if ns >= 1.0e9 {
        format!("{:.3} s", ns / 1.0e9)
    } else if ns >= 1.0e6 {
        format!("{:.3} ms", ns / 1.0e6)
    } else if ns >= 1.0e3 {
        format!("{:.2} µs", ns / 1.0e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Prints a section header for a benchmark group.
pub fn group(title: &str) {
    println!();
    println!("### {title}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something_positive() {
        let r = bench("selftest/sum", || (0..1000u64).sum::<u64>());
        assert!(r.median_ns > 0.0);
        assert!(r.iters > 0);
    }

    #[test]
    fn parse_args_reads_flags_and_positionals() {
        assert_eq!(parse_args_from(&[]), Ok(Some(BenchArgs::default())));
        let want = BenchArgs {
            smoke: true,
            check: true,
            verbose: true,
            out: Some("out.json".into()),
            count: Some(7),
        };
        let args = ["--check", "out.json", "--smoke", "7", "--verbose"];
        assert_eq!(parse_args_from(&args), Ok(Some(want)));
        assert_eq!(parse_args_from(&["--smoke", "--help"]), Ok(None));
        // A mistyped flag must never become the output path.
        for bad in [&["--chek"][..], &["a.json", "two"], &["a.json", "0"], &["a.json", "2", "x"]] {
            assert!(parse_args_from(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn format_ns_picks_sane_units() {
        assert_eq!(format_ns(12.3), "12.3 ns");
        assert_eq!(format_ns(4.2e3), "4.20 µs");
        assert_eq!(format_ns(7.7e6), "7.700 ms");
        assert_eq!(format_ns(2.0e9), "2.000 s");
    }
}
