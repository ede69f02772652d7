//! `vehicular_array`: the Sec. 5 application, closed loop. Each pass
//! shards one car pass across a 3-pose RX-LED array on a one-thread
//! `SweepRunner` (the online fusion collector runs on its own thread),
//! runs a mild impairment stack and a `StreamingTwoPhase` decoder per
//! shard, and fuses the detections online. The fused answer is checked.

use crate::common::{
    answer, drain, fold_event, median, mix, ms, peak_rss_mib, percentile, replay_channel,
    run_cycles, stream_hash, timed_setup, Counters, Fnv, Ledger, Report,
};
use palc::channel::{ReceiverPose, Scenario};
use palc::fusion::{FusedEvent, FusionCenter, FusionStream};
use palc::impair::{BurstNoise, Dropout, ImpairmentStack};
use palc::stream::{DecodeEvent, PushDecoder, StreamingTwoPhase};
use palc::sweep::{ArrayReceiver, ArrayRun, SweepRunner};
use palc::vehicle::TwoPhaseDecoder;
use palc_optics::source::Sun;
use palc_phy::Packet;
use palc_scene::{CarModel, Trajectory};
use std::hash::Hasher;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SENT: &str = "00";
/// Along-track receiver offsets of the array, metres.
const POSES_X_M: [f64; 3] = [-0.5, 0.0, 0.5];
/// Passes in the pool: three 18 km/h passes to one crawl, so the median
/// pass is a car pass and the 95th percentile a crawl pass.
const POOL_PASSES: u64 = 1024;
/// Shard threads of the timed loop. One, not two: on a 2-core machine
/// shared with other work, two shard threads made identical runs differ
/// by 12 % in passes per second and 30 % in tail pass time; one thread
/// keeps them within a few percent. The traced run measures the sweep
/// layer on `SWEEP_THREADS`.
const THREADS: usize = 1;
const SWEEP_THREADS: usize = 2;
const SETUP_REPS: usize = 9;

struct Scene {
    scenario: Scenario,
    poses: [ReceiverPose; 3],
    stack: ImpairmentStack,
    /// Samples one pass pushes through the three shards.
    samples: u64,
}

impl Scene {
    fn fs(&self) -> f64 {
        self.scenario.channel().frontend.sample_rate_hz()
    }

    fn decoder(&self) -> StreamingTwoPhase {
        StreamingTwoPhase::new(
            TwoPhaseDecoder::new(CarModel::volvo_v40(), 0.10, SENT.len()),
            self.fs(),
        )
    }

    fn receivers(&self, seeds: [u64; 3]) -> Vec<ArrayReceiver> {
        (0..3)
            .map(|k| ArrayReceiver { id: k as u32, pose: self.poses[k], seed: seeds[k] })
            .collect()
    }
}

/// The 18 km/h car and the 5 km/h crawl, each with its array poses and
/// an impairment stack scaled to its clean RSS swing.
fn build(build_ms: &mut Vec<f64>) -> Vec<Scene> {
    build_ms.clear();
    let scenarios = [Trajectory::car_18kmh(), Trajectory::Constant { speed_mps: 1.4 }];
    scenarios
        .into_iter()
        .map(|trajectory| {
            let t = Instant::now();
            let packet = Packet::from_bits(SENT).expect("binary payload");
            let scenario = Scenario::outdoor_car_pass(
                CarModel::volvo_v40(),
                Some(packet),
                0.75,
                Sun::cloudy_noon(1),
                trajectory,
                1.0,
            );
            build_ms.push(ms(t.elapsed()));
            let z = scenario.channel().receiver_z_m;
            let poses = POSES_X_M.map(|x| ReceiverPose::new(x, 0.0, z));
            // Impairment amplitudes are RSS codes, so scale them to the
            // clean pass's code swing.
            let (lo, hi) = scenario.run(0).minmax();
            let stack = ImpairmentStack::clean()
                .with(BurstNoise::with_severity(0.25, hi - lo))
                .with(Dropout::with_severity(0.25))
                .with_rails(0.0, 1023.0);
            let fs = scenario.channel().frontend.sample_rate_hz();
            let samples =
                poses.iter().map(|&p| (scenario.shard_duration_for(p) * fs).ceil() as u64).sum();
            Scene { scenario, poses, stack, samples }
        })
        .collect()
}

type Entry = (usize, [u64; 3]);

fn pool(seed: u64) -> Vec<Entry> {
    (0..POOL_PASSES)
        .map(|i| (usize::from(i % 4 == 3), [0, 1, 2].map(|k| mix(seed, 3 * i + k))))
        .collect()
}

/// Per-shard timings a pass's decoders report.
#[derive(Debug, Clone, Copy, Default)]
struct ShardProbe {
    /// From decoder creation (just before the shard's sampler is built)
    /// to the end of its stream.
    busy: Duration,
    first_packet: Option<Duration>,
}

/// A `PushDecoder` wrapper that times its shard: two clock reads per
/// shard plus one per decoded packet, none per sample.
struct Probed<'a> {
    inner: StreamingTwoPhase,
    id: usize,
    created: Instant,
    pass_t0: Instant,
    probes: &'a Mutex<[ShardProbe; 3]>,
}

impl Probed<'_> {
    fn saw(&self, ev: Option<&DecodeEvent>) {
        if matches!(ev, Some(DecodeEvent::Packet(_))) {
            let at = self.pass_t0.elapsed();
            let mut p = self.probes.lock().expect("probe lock poisoned by a panicking shard");
            p[self.id].first_packet.get_or_insert(at);
        }
    }
}

impl PushDecoder for Probed<'_> {
    fn push_sample(&mut self, sample: f64) -> Option<DecodeEvent> {
        let ev = self.inner.push_sample(sample);
        self.saw(ev.as_ref());
        ev
    }
    fn poll_event(&mut self) -> Option<DecodeEvent> {
        let ev = self.inner.poll_event();
        self.saw(ev.as_ref());
        ev
    }
    fn finish_stream(&mut self) -> Vec<DecodeEvent> {
        let evs = self.inner.finish_stream();
        for ev in &evs {
            self.saw(Some(ev));
        }
        let busy = self.created.elapsed();
        self.probes.lock().expect("probe lock poisoned by a panicking shard")[self.id].busy = busy;
        evs
    }
}

struct Pass {
    run: ArrayRun,
    wall: Duration,
    probes: [ShardProbe; 3],
}

fn pass(scene: &Scene, seeds: [u64; 3], runner: &SweepRunner) -> Pass {
    let receivers = scene.receivers(seeds);
    let probes = Mutex::new([ShardProbe::default(); 3]);
    let t0 = Instant::now();
    let run = scene.scenario.run_array_streaming_impaired_on(
        runner,
        &receivers,
        FusionCenter::default(),
        &scene.stack,
        |rx| Probed {
            inner: scene.decoder(),
            id: rx.id as usize,
            created: Instant::now(),
            pass_t0: t0,
            probes: &probes,
        },
    );
    let wall = t0.elapsed();
    let probes = probes.into_inner().expect("probe lock poisoned by a panicking shard");
    Pass { run, wall, probes }
}

/// Fingerprint of one shard's event log, in the same form `drain` gives.
fn shard_fingerprint(events: &[palc::sweep::TimedEvent], fs: f64) -> u64 {
    let mut h = Fnv::default();
    for te in events {
        fold_event(&mut h, (te.time_s * fs).round() as usize, &te.event);
    }
    h.finish()
}

/// The sweep layer on `SWEEP_THREADS` shard threads over one cycle of
/// the pool: the median shard busy time (ms), Σ shard busy / (threads ×
/// Σ pass wall), and the median share of a pass's shard time its
/// slowest shard took.
fn sharding(scenes: &[Scene], pool: &[Entry]) -> (f64, f64, f64) {
    let runner = SweepRunner::with_threads(SWEEP_THREADS);
    let (mut busy_ms, mut slowest) = (Vec::new(), Vec::new());
    let (mut busy_sum, mut wall_sum) = (Duration::ZERO, Duration::ZERO);
    for &(s, seeds) in pool {
        let p = pass(&scenes[s], seeds, &runner);
        let busy = p.probes.map(|s| s.busy);
        let sum: Duration = busy.iter().sum();
        busy_sum += sum;
        wall_sum += p.wall;
        busy_ms.extend(busy.map(ms));
        let max = busy.iter().max().copied().unwrap_or_default();
        slowest.push(max.as_secs_f64() / sum.as_secs_f64().max(1e-12));
    }
    let efficiency = busy_sum.as_secs_f64() / (SWEEP_THREADS as f64 * wall_sum.as_secs_f64());
    (median(&busy_ms), efficiency, median(&slowest))
}

/// The checked part of a fused verdict (its mean time depends on the
/// order detections arrived from the shard threads).
fn verdict(fused: &[FusedEvent]) -> Vec<(String, usize, usize)> {
    fused.iter().map(|e| (e.payload.to_string(), e.receivers, e.agreeing)).collect()
}

/// What the first cycle recorded for one pool entry.
struct Recorded {
    shards: [u64; 3],
    verdict: Vec<(String, usize, usize)>,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut build_ms = Vec::new();
    let (scenes, setup_s) = timed_setup(SETUP_REPS, || build(&mut build_ms));
    let pool = pool(seed);
    let budget = Duration::from_secs_f64(if trace { seconds / 2.0 } else { seconds });

    // Untraced closed loop. The first cycle checks each fused answer and
    // records the shards' events; every later cycle must reproduce them.
    let runner = SweepRunner::with_threads(THREADS);
    let (mut walls_ms, mut to_packet_ms) = (Vec::new(), Vec::new());
    let (mut samples, mut delivered) = (0u64, 0u64);
    let mut busy_sum = Duration::ZERO;
    let mut recorded: Vec<Recorded> = Vec::new();
    let closed = run_cycles(pool.len(), 1, budget, |cycle, i| {
        let (s, seeds) = pool[i];
        let scene = &scenes[s];
        let p = pass(scene, seeds, &runner);
        walls_ms.push(ms(p.wall));
        to_packet_ms.extend(p.probes.iter().filter_map(|s| s.first_packet).min().map(ms));
        busy_sum += p.probes.iter().map(|s| s.busy).sum::<Duration>();
        samples += scene.samples;
        let fs = scene.fs();
        let shards = [0, 1, 2].map(|k| shard_fingerprint(&p.run.outcomes[k].events, fs));
        let v = verdict(&p.run.fused);
        if cycle == 0 {
            // A wrong answer fails the pass; no answer is a miss.
            let answer = answer(&p.run.fused);
            delivered += u64::from(answer.as_deref() == Some(SENT));
            let wrong = answer.is_some_and(|a| a != SENT);
            report.check(!wrong, || format!("pass {i}: sent {SENT}, fused {v:?}"));
            recorded.push(Recorded { shards, verdict: v });
        } else {
            let r = &recorded[i];
            let same = r.shards == shards && r.verdict == v;
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
        // An attempt is a pass; it delivers when its fused answer does.
        report.set("delivery_ratio", delivery);
        report.set("fused_ratio", delivery);
        report.set("decoded_samples_per_s", samples as f64 / secs);
        report.set("peak_rss_mib", peak_rss_mib());
        return report;
    }

    // Traced: replay every shard one layer at a time, then fuse.
    let mut ledger = Ledger::default();
    let mut traced_wall = Duration::ZERO;
    let mut counters: Vec<Counters> = Vec::new();
    let traced = run_cycles(pool.len(), 2, budget, |cycle, i| {
        let (s, seeds) = pool[i];
        let scene = &scenes[s];
        let ch = scene.scenario.channel();
        if counters.len() == cycle {
            counters.push(Counters::new());
        }
        let count = &mut counters[cycle];
        let mut detections = Vec::new();
        for (k, rx) in scene.receivers(seeds).into_iter().enumerate() {
            // Reference, outside the traced time: the shard's sampler.
            let duration = scene.scenario.shard_duration_for(rx.pose);
            let t = Instant::now();
            let sampler = ch.sampler_at_pose(duration, rx.seed, rx.pose);
            ledger.add("channel.sampler_build", t.elapsed(), 1);
            let reference: Vec<f64> = sampler.collect();
            let n = reference.len();

            let t_shard = Instant::now();
            let field = ledger.span("channel.field_build", 1, || {
                Arc::new(ch.static_field_at(rx.pose).expect("sunlight is envelope-separable"))
            });
            let (rss, table_bytes) = replay_channel(&mut ledger, ch, field, n, rx.seed);
            let impaired: Vec<f64> = ledger.span("impair.sample", n as u64, || {
                scene.stack.apply(rx.seed, rss.iter().copied()).collect()
            });
            let log = ledger.span("stream.twophase_push", n as u64, || {
                drain(&mut scene.decoder(), scene.fs(), impaired.iter().copied(), t_shard)
            });
            traced_wall += t_shard.elapsed();

            let same_stream = stream_hash(&rss) == stream_hash(&reference);
            let same_events = log.fingerprint == recorded[i].shards[k];
            report.check(same_stream && same_events, || {
                format!("pass {i} shard {k}: replay differs (stream {same_stream}, events {same_events})")
            });
            let altered = rss.iter().zip(&impaired).filter(|(a, b)| a.to_bits() != b.to_bits());
            *count.entry("impair.samples_altered").or_default() += altered.count() as u64;
            *count.entry("channel.kernel_ticks").or_default() += n as u64;
            *count.entry("channel.kernel_table_bytes").or_default() += table_bytes;
            *count.entry("stream.packets").or_default() += log.packets.len() as u64;
            *count.entry("stream.rejects").or_default() += log.rejects;
            detections.extend(log.packets.into_iter().map(|mut d| {
                d.receiver_id = k as u32;
                d
            }));
        }
        let t_fuse = Instant::now();
        let fused = ledger.span("fusion.push", detections.len() as u64, || {
            detections.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
            let mut stream = FusionStream::new(FusionCenter::default());
            let mut fused: Vec<FusedEvent> =
                detections.into_iter().filter_map(|d| stream.push(d)).collect();
            fused.extend(stream.flush());
            fused
        });
        traced_wall += t_fuse.elapsed();
        let same = verdict(&fused) == recorded[i].verdict;
        report.check(same, || format!("pass {i}: replayed fusion verdict differs"));
        *count.entry("fusion.events").or_default() += fused.len() as u64;
    });
    let repeat = counters.windows(2).all(|w| w[0] == w[1]);
    report.check(repeat, || "work counters differ between traced cycles".into());

    let c = &counters[0];
    let passes = pool.len() as f64;
    // The untraced comparison is the shards' summed busy time: what a
    // serial run of the same passes takes.
    let untraced_cycle = busy_sum.as_secs_f64() / closed.count as f64;
    let traced_cycle = traced_wall.as_secs_f64() / traced.count as f64;
    report.set("channel.scenario_build_ms", build_ms.iter().sum::<f64>() / build_ms.len() as f64);
    report.set("channel.sampler_build_us", ledger.ns_per("channel.sampler_build") / 1e3);
    report.set("channel.field_build_us", ledger.ns_per("channel.field_build") / 1e3);
    report.set("channel.kernel_build_us", ledger.ns_per("channel.kernel_build") / 1e3);
    report.set("channel.kernel_tick_ns", ledger.ns_per("channel.kernel_tick"));
    report.set("channel.kernel_ticks", c["channel.kernel_ticks"] as f64);
    report.set("channel.kernel_table_bytes", c["channel.kernel_table_bytes"] as f64);
    report.set("frontend.step_ns", ledger.ns_per("frontend.step"));
    report.set("impair.sample_ns", ledger.ns_per("impair.sample"));
    report.set("impair.samples_altered", c["impair.samples_altered"] as f64);
    report.set("stream.twophase_push_ns", ledger.ns_per("stream.twophase_push"));
    report.set("stream.packets_per_pass", c["stream.packets"] as f64 / passes);
    report.set("stream.rejects_per_pass", c["stream.rejects"] as f64 / passes);
    let (shard_busy_ms, efficiency, slowest_share) = sharding(&scenes, &pool);
    report.set("sweep.shard_busy_ms", shard_busy_ms);
    report.set("sweep.parallel_efficiency", efficiency);
    report.set("sweep.slowest_shard_share", slowest_share);
    report.set("fusion.push_ns", ledger.ns_per("fusion.push"));
    report.set("fusion.events_per_pass", c["fusion.events"] as f64 / passes);
    report.set("cpu_ns_per_sample", closed.cpu_s * 1e9 / samples as f64);
    report.set("packet_latency_ms.p50", median(&to_packet_ms));
    report.set("packet_latency_ms.p99", percentile(&to_packet_ms, 0.99));
    report.set("trace.overhead_share", traced_cycle / untraced_cycle - 1.0);
    report.set("trace.unattributed_share", ledger.unattributed(traced_wall));
    report
}
