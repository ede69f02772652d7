//! The palc benchmark: one command per workload, every end-to-end metric
//! with its unit (`--trace 0`) or every per-layer metric (`--trace 1`),
//! outputs checked, and one JSON result as the last line of stdout.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload indoor_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads, metrics and the per-layer → end-to-end map are described in
//! `perfbench/README.md`.

#![forbid(unsafe_code)]

mod common;
mod indoor;
mod server;
mod vehicular;

use std::process::ExitCode;

/// Every end-to-end metric, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("passes_per_s", "1/s"),
    ("pass_ms.p50", "ms"),
    ("pass_ms.p95", "ms"),
    ("delivery_ratio", "ratio"),
    ("fused_ratio", "ratio"),
    ("decoded_samples_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric, printed by every workload with `--trace 1`. A
/// layer that does no work on a workload reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("channel.scenario_build_ms", "ms"),
    ("channel.sampler_build_us", "us"),
    ("channel.field_build_us", "us"),
    ("channel.kernel_build_us", "us"),
    ("channel.kernel_tick_ns", "ns"),
    ("channel.kernel_ticks", "count"),
    ("channel.kernel_table_bytes", "bytes"),
    ("frontend.step_ns", "ns"),
    ("impair.sample_ns", "ns"),
    ("impair.samples_altered", "count"),
    ("stream.adaptive_push_ns", "ns"),
    ("stream.twophase_push_ns", "ns"),
    ("stream.packets_per_pass", "count"),
    ("stream.rejects_per_pass", "count"),
    ("sweep.shard_busy_ms", "ms"),
    ("sweep.parallel_efficiency", "ratio"),
    ("sweep.slowest_shard_share", "ratio"),
    ("fusion.push_ns", "ns"),
    ("fusion.events_per_pass", "count"),
    ("server.feed_us.p50", "us"),
    ("server.feed_us.p99", "us"),
    ("server.poll_us.p50", "us"),
    ("server.create_close_us", "us"),
    ("server.visible_after_feed_ms.p50", "ms"),
    ("server.visible_after_feed_ms.p99", "ms"),
    ("server.samples_decoded", "count"),
    ("server.packets_emitted", "count"),
    ("server.samples_shed", "count"),
    ("server.sessions_faulted", "count"),
    ("cpu_ns_per_sample", "ns"),
    ("packet_latency_ms.p50", "ms"),
    ("packet_latency_ms.p99", "ms"),
    ("generator_lag_ms.p99", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

const WORKLOADS: &[&str] = &["indoor_sweep", "vehicular_array", "server_open_loop"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <indoor_sweep|vehicular_array|server_open_loop> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "indoor_sweep" => indoor::run(args.seed, args.seconds, args.trace),
        "vehicular_array" => vehicular::run(args.seed, args.seconds, args.trace),
        _ => match server::run(args.seed, args.seconds, args.trace) {
            Some(r) => r,
            None => {
                eprintln!("every attempt was invalid: the load generator fell behind its schedule");
                return ExitCode::from(3);
            }
        },
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads available {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    report.print(if args.trace { PER_LAYER } else { END_TO_END });
    ExitCode::SUCCESS
}
