//! Shared pieces of every workload: seed derivation, order statistics,
//! event fingerprints, the span ledger of traced runs, and the report the
//! command prints.

use palc::channel::{PassiveChannel, StaticField};
use palc::fusion::{Detection, FusedEvent};
use palc::stream::{DecodeEvent, PushDecoder};
use palc_frontend::Frontend;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SplitMix64: derives every input of a run from the one workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) of this process, or of the calling thread
/// with `thread = true`, in seconds at the kernel's 100 Hz tick.
pub fn cpu_s(thread: bool) -> f64 {
    let path = if thread { "/proc/thread-self/stat" } else { "/proc/self/stat" };
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: u64 =
        rest.split_whitespace().skip(11).take(2).filter_map(|v| v.parse::<u64>().ok()).sum();
    ticks as f64 / 100.0
}

/// Whole cycles over a pool of passes: how many ran, their wall time and
/// the process's CPU time over them.
pub struct Cycles {
    pub count: usize,
    pub wall: Duration,
    pub cpu_s: f64,
}

/// Runs whole cycles over a pool of `len` passes until `budget` has
/// passed and at least `min` cycles ran, so every pass of the pool weighs
/// the same. `pass(cycle, i)` runs pass `i` of the pool.
pub fn run_cycles(
    len: usize,
    min: usize,
    budget: Duration,
    mut pass: impl FnMut(usize, usize),
) -> Cycles {
    let (start, cpu0) = (Instant::now(), cpu_s(false));
    let mut count = 0;
    while count < min || start.elapsed() < budget {
        for i in 0..len {
            pass(count, i);
        }
        count += 1;
    }
    Cycles { count, wall: start.elapsed(), cpu_s: cpu_s(false) - cpu0 }
}

/// Replays the channel and frontend layers of one pass of `n` samples,
/// one span each: the kernel writes a lux buffer through
/// `footprint_kernel` + `FootprintKernel::illuminance`, then a frontend
/// built as the sampler builds it (noise `seed`, the calibrated
/// amplifier) turns it into RSS codes. Returns the codes and the
/// kernel's table bytes.
pub fn replay_channel(
    ledger: &mut Ledger,
    ch: &PassiveChannel,
    field: Arc<StaticField>,
    n: usize,
    seed: u64,
) -> (Vec<f64>, u64) {
    let fs = ch.frontend.sample_rate_hz();
    let mut kernel = ledger.span("channel.kernel_build", 1, || {
        ch.footprint_kernel(field).expect("bench and car scenes build a kernel")
    });
    let lux: Vec<f64> = ledger.span("channel.kernel_tick", n as u64, || {
        (0..n).map(|k| kernel.illuminance(ch, k as f64 / fs)).collect()
    });
    let rss = ledger.span("frontend.step", n as u64, || {
        let mut fe = Frontend::new(ch.frontend.receiver.clone(), ch.frontend.adc, seed);
        fe.amplifier = ch.frontend.amplifier;
        let mut state = fe.streamer(ch.source.spectrum());
        lux.iter().map(|&l| state.step_f64(l)).collect()
    });
    (rss, kernel.stats().table_bytes as u64)
}

/// Runs `setup` `reps` times and returns the last result with the median
/// wall time of one set-up, seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        out = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (out.expect("at least one set-up ran"), median(&times))
}

/// Log-linear histogram of durations: 64 buckets per octave, so a
/// percentile reads within 1.6 % in fixed memory however many values a
/// run records.
pub struct Hist(Vec<u64>);

impl Default for Hist {
    fn default() -> Self {
        Hist(vec![0; 64 * 40])
    }
}

impl Hist {
    pub fn record(&mut self, d: Duration) {
        let ns = (d.as_nanos() as u64).min((1 << 45) - 1);
        let i = if ns < 64 {
            ns as usize
        } else {
            let e = 63 - ns.leading_zeros() as usize;
            (e - 5) * 64 + ((ns >> (e - 6)) & 63) as usize
        };
        self.0[i] += 1;
    }

    /// Nearest-rank percentile, as the lower edge of its bucket, ms.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        let total: u64 = self.0.iter().sum();
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let ns = if i < 64 { i as u64 } else { (64 + (i as u64 % 64)) << (i / 64 - 1) };
                return ns as f64 / 1e6;
            }
        }
        0.0
    }
}

/// FNV-1a: a fixed hash, so fingerprints compare across runs and builds.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Folds one decode event, stamped with the samples pushed when it was
/// emitted, into a fingerprint. Floats are hashed by their bits, so two
/// fingerprints agree only when the event streams are bit-identical.
pub fn fold_event(h: &mut Fnv, pushed: usize, ev: &DecodeEvent) {
    pushed.hash(h);
    match ev {
        DecodeEvent::PreambleLocked(l) => {
            0u8.hash(h);
            for x in [l.tau_r, l.tau_t, l.threshold_level] {
                x.to_bits().hash(h);
            }
        }
        DecodeEvent::CarPreamble(p) => {
            1u8.hash(h);
            for x in [p.hood_t, p.windshield_t, p.speed_mps, p.roof_start_t, p.roof_end_t] {
                x.to_bits().hash(h);
            }
        }
        DecodeEvent::Symbol { index, symbol } => {
            2u8.hash(h);
            index.hash(h);
            symbol.hash(h);
        }
        DecodeEvent::Packet(p) => {
            3u8.hash(h);
            p.payload.hash(h);
            p.tau_r.to_bits().hash(h);
            p.tau_t.to_bits().hash(h);
        }
        DecodeEvent::Reject(e) => {
            4u8.hash(h);
            format!("{e:?}").hash(h);
        }
    }
}

/// What one decoder emitted over one stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassLog {
    /// [`fold_event`] over every event, in emission order.
    pub fingerprint: u64,
    /// The decoded packets as receiver-0 detections, in emission order.
    pub packets: Vec<Detection>,
    pub rejects: u64,
    pub samples: u64,
    /// Wall time from the pass start to the first decoded packet.
    pub first_packet: Option<Duration>,
}

impl PassLog {
    /// The pass decoded the sent payload. A false packet beside it (a
    /// lock on the start-up transient) shows in the per-layer packet
    /// count, not here.
    pub fn delivers(&self, sent: &str) -> bool {
        self.packets.iter().any(|p| p.payload.to_string() == sent)
    }

    /// The pass decoded packets but never the sent payload: a wrong
    /// output. A pass that decodes nothing is a miss.
    pub fn wrong(&self, sent: &str) -> bool {
        !self.packets.is_empty() && !self.delivers(sent)
    }
}

/// A 3-receiver array's answer for one pass: the payload of the fused
/// event a majority (2 of 3) of the receivers agreed on. Without a
/// majority the array gives no answer, so one receiver's spurious or
/// noise-corrupted packet can never be the pass's output.
pub fn answer(fused: &[FusedEvent]) -> Option<String> {
    fused
        .iter()
        .filter(|e| e.agreeing >= 2)
        .max_by_key(|e| e.agreeing)
        .map(|e| e.payload.to_string())
}

/// The push/poll/finish drain every workload runs, with event times
/// stamped as samples pushed / rate (the convention of the array shards
/// and the decode server).
pub fn drain<D: PushDecoder>(
    decoder: &mut D,
    fs: f64,
    samples: impl Iterator<Item = f64>,
    t0: Instant,
) -> PassLog {
    let mut log = PassLog::default();
    let mut h = Fnv::default();
    let mut pushed = 0usize;
    let mut record = |pushed: usize, ev: DecodeEvent, log: &mut PassLog| {
        fold_event(&mut h, pushed, &ev);
        match ev {
            DecodeEvent::Packet(p) => {
                log.first_packet.get_or_insert_with(|| t0.elapsed());
                log.packets.push(Detection::from_packet(0, pushed as f64 / fs, &p));
            }
            DecodeEvent::Reject(_) => log.rejects += 1,
            _ => {}
        }
    };
    for x in samples {
        let ev = decoder.push_sample(x);
        pushed += 1;
        if let Some(ev) = ev {
            record(pushed, ev, &mut log);
        }
        while let Some(ev) = decoder.poll_event() {
            record(pushed, ev, &mut log);
        }
    }
    for ev in decoder.finish_stream() {
        record(pushed, ev, &mut log);
    }
    log.samples = pushed as u64;
    log.fingerprint = h.finish();
    log
}

/// Hash of a sample stream's exact bits.
pub fn stream_hash(samples: &[f64]) -> u64 {
    let mut h = Fnv::default();
    for x in samples {
        x.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Busy time and work done per layer in a traced run. One span per pass
/// per layer, never one per sample.
#[derive(Default)]
pub struct Ledger {
    layers: BTreeMap<&'static str, (Duration, u64)>,
}

impl Ledger {
    /// Times `f` as one span of `layer` that did `work` units.
    pub fn span<T>(&mut self, layer: &'static str, work: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed(), work);
        out
    }

    pub fn add(&mut self, layer: &'static str, busy: Duration, work: u64) {
        let e = self.layers.entry(layer).or_default();
        e.0 += busy;
        e.1 += work;
    }

    /// Mean busy nanoseconds per unit of work (0 when the layer did none).
    pub fn ns_per(&self, layer: &str) -> f64 {
        match self.layers.get(layer) {
            Some((busy, work)) if *work > 0 => busy.as_secs_f64() * 1e9 / *work as f64,
            _ => 0.0,
        }
    }

    /// Share of the `traced` replay time no layer span covers. The
    /// reference sampler build is timed outside the replay, so it is left
    /// out of the sum.
    pub fn unattributed(&self, traced: Duration) -> f64 {
        let spans: Duration = self
            .layers
            .iter()
            .filter(|(layer, _)| **layer != "channel.sampler_build")
            .map(|(_, (busy, _))| *busy)
            .sum();
        1.0 - spans.as_secs_f64() / traced.as_secs_f64()
    }
}

/// Deterministic work counters of one traced cycle; two cycles of the
/// same pool must produce identical counters.
pub type Counters = BTreeMap<&'static str, u64>;

/// What one run prints: the correctness tally and its metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one checked operation; `ok == false` counts it as failed and
    /// keeps `what` as a note for the human-readable lines.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The human-readable lines, then the one-line JSON result last, with
    /// every metric of `schema` (a layer that did no work reads 0).
    pub fn print(&self, schema: &[(&str, &str)]) {
        for note in &self.notes {
            println!("check failed: {note}");
        }
        let rows: Vec<(&str, f64, &str)> = schema
            .iter()
            .map(|&(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                (name, if value.is_finite() { value } else { 0.0 }, unit)
            })
            .collect();
        for (name, value, unit) in &rows {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = rows
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
