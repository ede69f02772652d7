//! `server_open_loop`: pre-rendered 3-pose array passes replayed into a
//! one-worker `DecodeServer` on a fixed schedule by one generator thread.
//! Each pass is three fresh sessions in one fusion group; chunks are fed
//! when due whether or not the server has kept up.

use crate::common::{
    answer, cpu_s, drain, median, mix, ms, peak_rss_mib, percentile, timed_setup, Counters, Hist,
    Ledger, Report,
};
use palc::channel::{ReceiverPose, Scenario};
use palc::decode::AdaptiveDecoder;
use palc::fusion::{FusedEvent, FusionCenter, FusionStream};
use palc::server::{DecodeServer, GroupId, ServerConfig, SessionConfig, SessionEvent, SessionId};
use palc::stream::{DecodeEvent, StreamingDecoder, StreamingTwoPhase};
use palc::sweep::TimedEvent;
use palc::vehicle::TwoPhaseDecoder;
use palc_optics::source::Sun;
use palc_phy::Packet;
use palc_scene::CarModel;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Concurrent passes; three sessions each, so 255 session slots.
const LANES: usize = 85;
const CHUNK: usize = 32;
/// Offered load, samples per second across all sessions.
const RATE_SPS: f64 = 8e6;
/// Pre-rendered passes per workload seed: three indoor passes to one car
/// pass, so the median pass is an indoor pass and the 95th percentile a
/// car pass.
const POOL_PASSES: u64 = 64;
/// A closed session is polled every this many ops until it ends.
const POLL_DELAY_OPS: u64 = 16;
const SETUP_REPS: usize = 3;
/// A run whose generator was later than this at p99 while the server
/// kept up measured the generator, not the server: it is discarded.
const LAG_LIMIT_MS: f64 = 5.0;
/// Queued-but-undecoded samples at the end of the schedule above which
/// the server, not the generator, fell behind.
const BACKLOG_LIMIT: u64 = 40_000;
const ATTEMPTS: usize = 4;

#[derive(Clone, Copy)]
enum Family {
    Indoor,
    Car,
}

impl Family {
    fn sent(self) -> &'static str {
        match self {
            Family::Indoor => "10",
            Family::Car => "00",
        }
    }
}

/// One pre-rendered pass: three pose traces of one family.
struct PassTrace {
    family: Family,
    fs: f64,
    traces: [Vec<f64>; 3],
    /// Chunks the three sessions take.
    chunks: u64,
}

fn indoor_decoder(fs: f64) -> StreamingDecoder {
    StreamingDecoder::new(AdaptiveDecoder::default().with_expected_bits(2), fs)
}

fn car_decoder(fs: f64) -> StreamingTwoPhase {
    StreamingTwoPhase::new(TwoPhaseDecoder::new(CarModel::volvo_v40(), 0.10, 2), fs)
}

/// Builds both scenes and renders the pool through each pose's sampler.
fn prerender(seed: u64, build_ms: &mut Vec<f64>) -> Vec<PassTrace> {
    build_ms.clear();
    let mut scenes = Vec::new();
    for family in [Family::Indoor, Family::Car] {
        let t = Instant::now();
        let packet = Packet::from_bits(family.sent()).expect("binary payload");
        let (scenario, dx) = match family {
            Family::Indoor => (Scenario::indoor_bench(packet, 0.03, 0.20), 0.02),
            Family::Car => (
                Scenario::outdoor_car(
                    CarModel::volvo_v40(),
                    Some(packet),
                    0.75,
                    Sun::cloudy_noon(1),
                ),
                0.5,
            ),
        };
        build_ms.push(ms(t.elapsed()));
        scenes.push((family, scenario, dx));
    }
    (0..POOL_PASSES)
        .map(|i| {
            let (family, scenario, dx) = &scenes[usize::from(i % 4 == 3)];
            let ch = scenario.channel();
            let z = ch.receiver_z_m;
            let traces = [0u64, 1, 2].map(|k| {
                let pose = ReceiverPose::new(dx * (k as f64 - 1.0), 0.0, z);
                let duration = scenario.shard_duration_for(pose);
                ch.sampler_at_pose(duration, mix(seed, 3 * i + k), pose).collect::<Vec<f64>>()
            });
            let chunks = traces.iter().map(|t| t.len().div_ceil(CHUNK) as u64).sum();
            PassTrace { family: *family, fs: ch.frontend.sample_rate_hz(), traces, chunks }
        })
        .collect()
}

/// Packets as `(payload, stream time bits)`: what a session must match.
type Packets = Vec<(String, u64)>;

/// A session in flight: where its chunks were due, what it decoded.
struct Track {
    id: SessionId,
    pass: usize,
    pose: usize,
    /// Per fed chunk: end sample (exclusive), due time, feed return.
    chunks: Vec<(usize, f64, Option<Instant>)>,
    packets: Packets,
    /// Where the direct decode emitted the packets still to come, as
    /// samples pushed; while the first is fed, the session is polled on
    /// every op, so visibility is timed to one op.
    expected: VecDeque<usize>,
    hot: bool,
    closed: bool,
}

/// A pass in flight: its group and how many of its sessions are open.
struct Live {
    entry: usize,
    group: GroupId,
    first_due: f64,
    open: u8,
}

/// One lane's pass being fed: session slots and offsets per pose.
struct Feeding {
    pass: usize,
    slots: [usize; 3],
    offsets: [usize; 3],
    next_pose: usize,
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    /// Time the last scheduled chunk went out, and the part of it the
    /// generator spent feeding and polling rather than waiting.
    wall: f64,
    busy: f64,
    passes: u64,
    pass_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    lag: Hist,
    decoded_per_s: f64,
    /// CPU time of the server's worker per sample it decoded.
    cpu_ns_per_sample: f64,
    backlog: u64,
    samples_decoded: u64,
    packets_emitted: u64,
    samples_shed: u64,
    sessions_faulted: u64,
    /// Ended sessions and those that decoded the sent payload.
    sessions: u64,
    delivered: u64,
    /// Ended passes and those whose fused answer is the sent payload.
    groups: u64,
    fused_correct: u64,
    /// Sessions whose packets differ from the direct decode, and passes
    /// whose fused answer is a wrong payload.
    failed: u64,
    notes: Vec<String>,
    /// Traced phase only: server call times and visibility after feed.
    feed: Hist,
    poll: Hist,
    calls_s: f64,
    create_close_s: f64,
    visible_ms: Vec<f64>,
}

impl Phase {
    fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note());
        }
    }
}

/// The generator state of one phase.
struct Generator<'a> {
    server: DecodeServer,
    pool: &'a [PassTrace],
    refs: &'a [[Packets; 3]],
    traced: bool,
    t0: Instant,
    tracks: Vec<Option<Track>>,
    free: Vec<usize>,
    live: Vec<Option<Live>>,
    polls: VecDeque<(u64, usize, SessionId)>,
    hot: Vec<usize>,
    open_sessions: usize,
    out: Phase,
}

impl Generator<'_> {
    /// Opens pass `p`: one fusion group and a session per pose.
    fn open_pass(&mut self, p: usize, due: f64) -> [usize; 3] {
        let entry = p % self.pool.len();
        let trace = &self.pool[entry];
        let t = Instant::now();
        let group = self.server.create_group(FusionCenter::default());
        let ids = [0u32, 1, 2].map(|pose| {
            let cfg = SessionConfig::new(trace.fs).with_group(group, pose);
            match trace.family {
                Family::Indoor => self.server.create_session(indoor_decoder(trace.fs), cfg),
                Family::Car => self.server.create_session(car_decoder(trace.fs), cfg),
            }
        });
        if self.traced {
            let took = t.elapsed().as_secs_f64();
            self.out.calls_s += took;
            self.out.create_close_s += took;
        }
        self.live[p] = Some(Live { entry, group, first_due: due, open: 3 });
        self.open_sessions += 3;
        let mut pose = 0;
        ids.map(|id| {
            let expected = self.refs[entry][pose]
                .iter()
                .map(|(_, t)| (f64::from_bits(*t) * trace.fs).round() as usize)
                .collect();
            let track = Track {
                id,
                pass: p,
                pose,
                chunks: Vec::new(),
                packets: Vec::new(),
                expected,
                hot: false,
                closed: false,
            };
            pose += 1;
            match self.free.pop() {
                Some(s) => {
                    self.tracks[s] = Some(track);
                    s
                }
                None => {
                    self.tracks.push(Some(track));
                    self.tracks.len() - 1
                }
            }
        })
    }

    /// Feeds one chunk to session `slot`, closing it after its last one.
    fn feed(&mut self, slot: usize, samples: &[f64], end: usize, k: u64, due: f64) {
        let track = self.tracks[slot].as_mut().expect("a fed session is tracked");
        let t = Instant::now();
        let fed = self.server.feed_samples(track.id, samples);
        let fed_at = self.traced.then(|| {
            let now = Instant::now();
            self.out.feed.record(now - t);
            self.out.calls_s += (now - t).as_secs_f64();
            now
        });
        assert!(fed.is_ok(), "feeding a live session failed: {fed:?}");
        track.chunks.push((end, due, fed_at));
        if !track.hot && track.expected.front().is_some_and(|&x| x <= end) {
            track.hot = true;
            self.hot.push(slot);
        }
        if end == self.pool[track.pass % self.pool.len()].traces[track.pose].len() {
            let t = Instant::now();
            let _ = self.server.close(track.id);
            if self.traced {
                let took = t.elapsed().as_secs_f64();
                self.out.calls_s += took;
                self.out.create_close_s += took;
            }
            track.closed = true;
            self.polls.push_back((k + POLL_DELAY_OPS, slot, track.id));
        }
    }

    /// Polls the hot sessions, and the closed sessions due at op `k`.
    fn poll_due(&mut self, k: u64) {
        for slot in std::mem::take(&mut self.hot) {
            if self.poll(slot) {
                continue;
            }
            if let Some(track) = self.tracks[slot].as_mut() {
                let fed = track.chunks.last().map_or(0, |c| c.0);
                track.hot = track.expected.front().is_some_and(|&x| x <= fed);
                if track.hot {
                    self.hot.push(slot);
                }
            }
        }
        while self.polls.front().is_some_and(|&(at, _, _)| at <= k) {
            let (_, slot, id) = self.polls.pop_front().expect("front was checked");
            if self.tracks[slot].as_ref().is_some_and(|t| t.id == id) && !self.poll(slot) {
                self.polls.push_back((k + POLL_DELAY_OPS, slot, id));
            }
        }
    }

    /// Polls session `slot`, records packet latencies, and ends the
    /// session (and its pass, with the last session) when it finished.
    /// Returns whether it ended.
    fn poll(&mut self, slot: usize) -> bool {
        {
            let track = self.tracks[slot].as_mut().expect("a polled session is tracked");
            let t = Instant::now();
            let events =
                self.server.poll_events(track.id).expect("a tracked session is registered");
            let returned = Instant::now();
            if self.traced {
                self.out.poll.record(returned - t);
                self.out.calls_s += (returned - t).as_secs_f64();
            }
            let fs = self.pool[track.pass % self.pool.len()].fs;
            let mut terminal = false;
            for ev in &events {
                terminal |= ev.is_terminal();
                if let SessionEvent::Decode(TimedEvent { time_s, event: DecodeEvent::Packet(p) }) =
                    ev
                {
                    track.packets.push((p.payload.to_string(), time_s.to_bits()));
                    track.expected.pop_front();
                    // The chunk that carried the packet's last sample.
                    let pushed = (time_s * fs).round() as usize;
                    let c = track.chunks.partition_point(|&(end, _, _)| end < pushed);
                    let (_, due, fed_at) = track.chunks[c.min(track.chunks.len() - 1)];
                    self.out.latency_ms.push(((returned - self.t0).as_secs_f64() - due) * 1e3);
                    self.out.visible_ms.extend(fed_at.map(|f| ms(returned - f)));
                }
            }
            if !terminal {
                return false;
            }
        }
        {
            let track = self.tracks[slot].take().expect("checked above");
            self.free.push(slot);
            self.hot.retain(|&s| s != slot);
            self.open_sessions -= 1;
            let live = self.live[track.pass].as_mut().expect("a session's pass is live");
            live.open -= 1;
            let entry = live.entry;
            let sent = self.pool[entry].family.sent();
            let want = &self.refs[entry][track.pose];
            self.out.sessions += 1;
            self.out.delivered += u64::from(track.packets.iter().any(|(p, _)| p == sent));
            if track.packets != *want {
                let got = track.packets;
                let pose = track.pose;
                self.out.fail(|| {
                    format!("pool pass {entry} pose {pose}: decoded {got:?}, direct {want:?}")
                });
            }
            if live.open == 0 {
                let live = self.live[track.pass].take().expect("checked above");
                let fused = self.server.flush_group(live.group).expect("the pass's group exists");
                let done = self.t0.elapsed().as_secs_f64();
                self.out.pass_ms.push((done - live.first_due) * 1e3);
                self.out.passes += 1;
                self.out.groups += 1;
                // A wrong answer fails the pass; no answer is a miss.
                let answer = answer(&fused);
                self.out.fused_correct += u64::from(answer.as_deref() == Some(sent));
                if answer.is_some_and(|a| a != sent) {
                    self.out.fail(|| format!("pool pass {entry}: fused {fused:?}, sent {sent}"));
                }
            }
        }
        true
    }
}

/// One open-loop phase of `ops` scheduled chunks: whole passes dealt
/// round-robin to the lanes, one chunk every `CHUNK / RATE_SPS` seconds.
fn open_loop(pool: &[PassTrace], refs: &[[Packets; 3]], ops: u64, traced: bool) -> Phase {
    let mut lanes: Vec<VecDeque<usize>> = vec![VecDeque::new(); LANES];
    let (mut total_ops, mut passes) = (0u64, 0usize);
    while total_ops < ops {
        lanes[passes % LANES].push_back(passes);
        total_ops += pool[passes % pool.len()].chunks;
        passes += 1;
    }
    let mut g = Generator {
        server: DecodeServer::new(ServerConfig::default().with_workers(1)),
        pool,
        refs,
        traced,
        t0: Instant::now(),
        tracks: Vec::new(),
        free: Vec::new(),
        live: (0..passes).map(|_| None).collect(),
        polls: VecDeque::new(),
        hot: Vec::new(),
        open_sessions: 0,
        out: Phase::default(),
    };
    let mut ring: VecDeque<usize> = (0..LANES).filter(|&l| !lanes[l].is_empty()).collect();
    let mut feeding: Vec<Option<Feeding>> = (0..LANES).map(|_| None).collect();
    let dt = CHUNK as f64 / RATE_SPS;
    // Everything but this (generator) thread is the server's worker.
    let worker_cpu = || cpu_s(false) - cpu_s(true);
    let cpu0 = worker_cpu();
    g.t0 = Instant::now();
    let mut k = 0u64;
    while k < total_ops {
        // Wait for op k's due time, then feed it however late it is.
        let due = k as f64 * dt;
        let mut now = g.t0.elapsed().as_secs_f64();
        if now < due {
            std::thread::sleep(Duration::from_secs_f64(due - now));
            now = g.t0.elapsed().as_secs_f64();
        }
        g.out.lag.record(Duration::from_secs_f64(now - due));
        let op_start = Instant::now();

        let lane = ring.pop_front().expect("a lane is active while ops remain");
        if feeding[lane].is_none() {
            let p = lanes[lane].pop_front().expect("an active lane has a pass");
            let slots = g.open_pass(p, due);
            feeding[lane] = Some(Feeding { pass: p, slots, offsets: [0; 3], next_pose: 0 });
        }
        let f = feeding[lane].as_mut().expect("the lane's pass is set");
        let trace = &pool[f.pass % pool.len()];
        // Round-robin over the poses that still have samples.
        let pose = (0..3)
            .map(|j| (f.next_pose + j) % 3)
            .find(|&j| f.offsets[j] < trace.traces[j].len())
            .expect("a pass being fed has samples left");
        f.next_pose = (pose + 1) % 3;
        let (lo, hi) = (f.offsets[pose], (f.offsets[pose] + CHUNK).min(trace.traces[pose].len()));
        f.offsets[pose] = hi;
        let (slot, fed_all) =
            (f.slots[pose], f.offsets.iter().zip(&trace.traces).all(|(&o, t)| o == t.len()));
        g.feed(slot, &trace.traces[pose][lo..hi], hi, k, due);
        if fed_all {
            feeding[lane] = None;
        }
        if !(fed_all && lanes[lane].is_empty()) {
            ring.push_back(lane);
        }
        k += 1;
        g.poll_due(k);
        g.out.busy += op_start.elapsed().as_secs_f64();
    }
    let stats = g.server.stats();
    g.out.wall = g.t0.elapsed().as_secs_f64();
    g.out.decoded_per_s = stats.samples_decoded as f64 / g.out.wall;
    g.out.cpu_ns_per_sample = (worker_cpu() - cpu0) * 1e9 / stats.samples_decoded as f64;
    g.out.backlog = stats.samples_ingested - stats.samples_decoded;
    // Schedule done: poll the stragglers until every session has ended.
    while g.open_sessions > 0 {
        std::thread::sleep(Duration::from_micros(100));
        k += POLL_DELAY_OPS;
        g.poll_due(k);
    }
    let stats = g.server.stats();
    g.out.samples_decoded = stats.samples_decoded;
    g.out.packets_emitted = stats.packets_emitted;
    g.out.samples_shed = stats.samples_shed;
    g.out.sessions_faulted = stats.sessions_faulted;
    g.out
}

/// Runs a phase until one is valid: a run whose generator fell behind
/// its own schedule while the server kept up measured the generator.
fn valid_phase(pool: &[PassTrace], refs: &[[Packets; 3]], ops: u64, traced: bool) -> Option<Phase> {
    for attempt in 1..=ATTEMPTS {
        let phase = open_loop(pool, refs, ops, traced);
        let lag = phase.lag.percentile_ms(0.99);
        if lag <= LAG_LIMIT_MS || phase.backlog > BACKLOG_LIMIT {
            return Some(phase);
        }
        eprintln!(
            "attempt {attempt} invalid: generator lag p99 {lag:.3} ms with the server keeping up"
        );
    }
    None
}

/// Decodes every pool trace directly and fuses each pass: the reference
/// each session must reproduce, timed per layer.
fn replay(pool: &[PassTrace], ledger: &mut Ledger, counters: &mut Counters) -> Vec<[Packets; 3]> {
    pool.iter()
        .map(|p| {
            let logs = [0, 1, 2].map(|k| {
                let samples = p.traces[k].iter().copied();
                let n = p.traces[k].len() as u64;
                let t0 = Instant::now();
                match p.family {
                    Family::Indoor => ledger.span("stream.adaptive_push", n, || {
                        drain(&mut indoor_decoder(p.fs), p.fs, samples, t0)
                    }),
                    Family::Car => ledger.span("stream.twophase_push", n, || {
                        drain(&mut car_decoder(p.fs), p.fs, samples, t0)
                    }),
                }
            });
            let mut detections: Vec<_> = (0..3)
                .flat_map(|k| {
                    logs[k].packets.iter().cloned().map(move |mut d| {
                        d.receiver_id = k as u32;
                        d
                    })
                })
                .collect();
            detections.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
            let fused = ledger.span("fusion.push", detections.len() as u64, || {
                let mut stream = FusionStream::new(FusionCenter::default());
                let mut fused: Vec<FusedEvent> =
                    detections.into_iter().filter_map(|d| stream.push(d)).collect();
                fused.extend(stream.flush());
                fused
            });
            *counters.entry("fusion.events").or_default() += fused.len() as u64;
            for log in &logs {
                *counters.entry("stream.packets").or_default() += log.packets.len() as u64;
                *counters.entry("stream.rejects").or_default() += log.rejects;
            }
            logs.map(|log| {
                log.packets.iter().map(|d| (d.payload.to_string(), d.time_s.to_bits())).collect()
            })
        })
        .collect()
}

/// Adds a phase's checks to the report.
fn check(phase: &Phase, planned: u64, report: &mut Report) {
    report.attempted += phase.sessions + phase.groups;
    report.failed += phase.failed;
    report.notes.extend(phase.notes.iter().cloned());
    report.check(phase.passes == planned, || format!("{} of {planned} passes ended", phase.passes));
    report.check(phase.samples_shed == 0, || format!("{} samples shed", phase.samples_shed));
    report.check(phase.sessions_faulted == 0, || {
        format!("{} sessions faulted", phase.sessions_faulted)
    });
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Option<Report> {
    let mut report = Report::default();
    let mut build_ms = Vec::new();
    let (pool, setup_s) = timed_setup(SETUP_REPS, || prerender(seed, &mut build_ms));
    // The direct decode every session must reproduce, outside set-up.
    let mut ledger = Ledger::default();
    let mut counters = Counters::new();
    let refs = replay(&pool, &mut ledger, &mut counters);
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let ops = (RATE_SPS * phase_s / CHUNK as f64).round() as u64;
    let planned = {
        let (mut total, mut n) = (0u64, 0u64);
        while total < ops {
            total += pool[n as usize % pool.len()].chunks;
            n += 1;
        }
        n
    };
    let untraced = valid_phase(&pool, &refs, ops, false)?;
    check(&untraced, planned, &mut report);
    if !trace {
        report.set("setup_s", setup_s);
        report.set("passes_per_s", untraced.passes as f64 / untraced.wall);
        report.set("pass_ms.p50", median(&untraced.pass_ms));
        report.set("pass_ms.p95", percentile(&untraced.pass_ms, 0.95));
        report.set("delivery_ratio", untraced.delivered as f64 / untraced.sessions as f64);
        report.set("fused_ratio", untraced.fused_correct as f64 / untraced.groups as f64);
        report.set("decoded_samples_per_s", untraced.decoded_per_s);
        report.set("peak_rss_mib", peak_rss_mib());
        return Some(report);
    }

    let traced = valid_phase(&pool, &refs, ops, true)?;
    check(&traced, planned, &mut report);
    let same = (untraced.samples_decoded, untraced.packets_emitted)
        == (traced.samples_decoded, traced.packets_emitted);
    report.check(same, || "server work counters differ between the two phases".into());

    let busy = |p: &Phase| p.busy;
    let passes = pool.len() as f64;
    report.set("channel.scenario_build_ms", build_ms.iter().sum::<f64>() / build_ms.len() as f64);
    report.set("stream.adaptive_push_ns", ledger.ns_per("stream.adaptive_push"));
    report.set("stream.twophase_push_ns", ledger.ns_per("stream.twophase_push"));
    report.set("stream.packets_per_pass", counters["stream.packets"] as f64 / passes);
    report.set("stream.rejects_per_pass", counters["stream.rejects"] as f64 / passes);
    report.set("fusion.push_ns", ledger.ns_per("fusion.push"));
    report.set("fusion.events_per_pass", counters["fusion.events"] as f64 / passes);
    report.set("server.feed_us.p50", traced.feed.percentile_ms(0.5) * 1e3);
    report.set("server.feed_us.p99", traced.feed.percentile_ms(0.99) * 1e3);
    report.set("server.poll_us.p50", traced.poll.percentile_ms(0.5) * 1e3);
    report.set("server.create_close_us", traced.create_close_s * 1e6 / traced.sessions as f64);
    report.set("server.visible_after_feed_ms.p50", median(&traced.visible_ms));
    report.set("server.visible_after_feed_ms.p99", percentile(&traced.visible_ms, 0.99));
    report.set("server.samples_decoded", traced.samples_decoded as f64);
    report.set("server.packets_emitted", traced.packets_emitted as f64);
    report.set("server.samples_shed", traced.samples_shed as f64);
    report.set("server.sessions_faulted", traced.sessions_faulted as f64);
    report.set("cpu_ns_per_sample", untraced.cpu_ns_per_sample);
    report.set("packet_latency_ms.p50", median(&untraced.latency_ms));
    report.set("packet_latency_ms.p99", percentile(&untraced.latency_ms, 0.99));
    report.set("generator_lag_ms.p99", untraced.lag.percentile_ms(0.99));
    report.set("trace.overhead_share", busy(&traced) / busy(&untraced) - 1.0);
    report.set("trace.unattributed_share", 1.0 - traced.calls_s / busy(&traced));
    Some(report)
}
