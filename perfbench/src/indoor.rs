//! `indoor_sweep`: the Sec. 4.1 dark-room bench over a paper grid, closed
//! loop on one thread. Each pass streams `Scenario::sampler(seed)` into a
//! `StreamingDecoder` and checks the payload. The kernel tick dominates.

use crate::common::{
    drain, median, mix, ms, peak_rss_mib, percentile, replay_channel, run_cycles, stream_hash,
    timed_setup, Counters, Ledger, PassLog, Report,
};
use palc::channel::{Scenario, StaticField};
use palc::decode::AdaptiveDecoder;
use palc::stream::StreamingDecoder;
use palc_phy::Packet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PACKETS: [&str; 3] = ["10", "0110", "10110010"];
const HEIGHTS_M: [f64; 4] = [0.10, 0.15, 0.20, 0.30];
const WIDTHS_M: [f64; 3] = [0.02, 0.03, 0.04];
/// Noise seeds per grid cell: the pool is 36 cells × this many passes.
const SEEDS_PER_CELL: u64 = 4;
const SETUP_REPS: usize = 5;

struct Cell {
    bits: &'static str,
    scenario: Scenario,
}

impl Cell {
    fn fs(&self) -> f64 {
        self.scenario.channel().frontend.sample_rate_hz()
    }

    fn decoder(&self) -> StreamingDecoder {
        let cfg = AdaptiveDecoder::default().with_expected_bits(self.bits.len());
        StreamingDecoder::new(cfg, self.fs())
    }
}

/// The 36 `Scenario::indoor_bench` builds, with each build's wall time.
fn build_grid(build_ms: &mut Vec<f64>) -> Vec<Cell> {
    build_ms.clear();
    let mut cells = Vec::new();
    for bits in PACKETS {
        for h in HEIGHTS_M {
            for w in WIDTHS_M {
                let t = Instant::now();
                let packet = Packet::from_bits(bits).expect("binary payload");
                let scenario = Scenario::indoor_bench(packet, w, h);
                build_ms.push(ms(t.elapsed()));
                cells.push(Cell { bits, scenario });
            }
        }
    }
    cells
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut build_ms = Vec::new();
    let (cells, setup_s) = timed_setup(SETUP_REPS, || build_grid(&mut build_ms));
    // Pool entry `i`: grid cell `i mod 36`, noise seed from the workload seed.
    let pool: Vec<(usize, u64)> = (0..cells.len() as u64 * SEEDS_PER_CELL)
        .map(|i| (i as usize % cells.len(), mix(seed, i)))
        .collect();
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });

    // Untraced closed loop. The first cycle checks payloads and records
    // each pass's events; every later cycle must reproduce them.
    let (mut walls_ms, mut to_packet_ms) = (Vec::new(), Vec::new());
    let (mut samples, mut delivered) = (0u64, 0u64);
    let mut logs: Vec<PassLog> = Vec::new();
    let closed = run_cycles(pool.len(), 1, budget, |cycle, i| {
        let (c, seed) = pool[i];
        let cell = &cells[c];
        let t0 = Instant::now();
        let log = drain(&mut cell.decoder(), cell.fs(), cell.scenario.sampler(seed), t0);
        walls_ms.push(ms(t0.elapsed()));
        to_packet_ms.extend(log.first_packet.map(ms));
        samples += log.samples;
        if cycle == 0 {
            delivered += u64::from(log.delivers(cell.bits));
            let wrong = log.wrong(cell.bits);
            report.check(!wrong, || format!("pass {i}: sent {} got {:?}", cell.bits, log.packets));
            logs.push(log);
        } else {
            let same = log == PassLog { first_packet: log.first_packet, ..logs[i].clone() };
            report.check(same, || format!("pass {i}: events differ between cycles"));
        }
    });
    let delivery = delivered as f64 / pool.len() as f64;
    if !trace {
        let secs = closed.wall.as_secs_f64();
        report.set("setup_s", setup_s);
        report.set("passes_per_s", walls_ms.len() as f64 / secs);
        report.set("pass_ms.p50", median(&walls_ms));
        report.set("pass_ms.p95", percentile(&walls_ms, 0.95));
        report.set("delivery_ratio", delivery);
        // One receiver: its own answer is the fused answer.
        report.set("fused_ratio", delivery);
        report.set("decoded_samples_per_s", samples as f64 / secs);
        report.set("peak_rss_mib", peak_rss_mib());
        return report;
    }

    // Traced: replay each pass one layer at a time, each layer on the
    // recorded output of the one before it.
    let fields: Vec<Arc<StaticField>> = cells
        .iter()
        .map(|c| Arc::new(c.scenario.channel().static_field().expect("the bench lamp is static")))
        .collect();
    let mut ledger = Ledger::default();
    let mut traced_wall = Duration::ZERO;
    let mut counters: Vec<Counters> = Vec::new();
    let traced = run_cycles(pool.len(), 2, budget, |cycle, i| {
        let (c, seed) = pool[i];
        let cell = &cells[c];
        if counters.len() == cycle {
            counters.push(Counters::new());
        }
        let count = &mut counters[cycle];

        // Reference, outside the traced time: the fused sampler path.
        let t = Instant::now();
        let sampler = cell.scenario.sampler(seed);
        ledger.add("channel.sampler_build", t.elapsed(), 1);
        let reference: Vec<f64> = sampler.collect();
        let n = reference.len();

        let t_pass = Instant::now();
        let (rss, table_bytes) =
            replay_channel(&mut ledger, cell.scenario.channel(), fields[c].clone(), n, seed);
        let log = ledger.span("stream.adaptive_push", n as u64, || {
            drain(&mut cell.decoder(), cell.fs(), rss.iter().copied(), t_pass)
        });
        traced_wall += t_pass.elapsed();

        let same_stream = stream_hash(&rss) == stream_hash(&reference);
        let same_events = log.fingerprint == logs[i].fingerprint;
        report.check(same_stream && same_events, || {
            format!("pass {i}: replay differs (stream {same_stream}, events {same_events})")
        });
        *count.entry("channel.kernel_ticks").or_default() += n as u64;
        *count.entry("channel.kernel_table_bytes").or_default() += table_bytes;
        *count.entry("stream.packets").or_default() += log.packets.len() as u64;
        *count.entry("stream.rejects").or_default() += log.rejects;
    });
    let repeat = counters.windows(2).all(|w| w[0] == w[1]);
    report.check(repeat, || "work counters differ between traced cycles".into());

    let c = &counters[0];
    let passes = pool.len() as f64;
    let untraced_cycle = closed.wall.as_secs_f64() / closed.count as f64;
    let traced_cycle = traced_wall.as_secs_f64() / traced.count as f64;
    report.set("channel.scenario_build_ms", build_ms.iter().sum::<f64>() / build_ms.len() as f64);
    report.set("channel.sampler_build_us", ledger.ns_per("channel.sampler_build") / 1e3);
    report.set("channel.kernel_build_us", ledger.ns_per("channel.kernel_build") / 1e3);
    report.set("channel.kernel_tick_ns", ledger.ns_per("channel.kernel_tick"));
    report.set("channel.kernel_ticks", c["channel.kernel_ticks"] as f64);
    report.set("channel.kernel_table_bytes", c["channel.kernel_table_bytes"] as f64);
    report.set("frontend.step_ns", ledger.ns_per("frontend.step"));
    report.set("stream.adaptive_push_ns", ledger.ns_per("stream.adaptive_push"));
    report.set("stream.packets_per_pass", c["stream.packets"] as f64 / passes);
    report.set("stream.rejects_per_pass", c["stream.rejects"] as f64 / passes);
    report.set("cpu_ns_per_sample", closed.cpu_s * 1e9 / samples as f64);
    report.set("packet_latency_ms.p50", median(&to_packet_ms));
    report.set("packet_latency_ms.p99", percentile(&to_packet_ms, 0.99));
    report.set("trace.overhead_share", traced_cycle / untraced_cycle - 1.0);
    report.set("trace.unattributed_share", ledger.unattributed(traced_wall));
    report
}
