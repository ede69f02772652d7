//! Parallel sweep runner: fan independent scenario runs across threads.
//!
//! Every figure in the paper is a *sweep* — heights × symbol widths
//! (Fig. 6), receivers × ambient levels (Fig. 11), seeds × scenarios
//! (every delivery-ratio estimate). The runs are independent, so they
//! parallelise perfectly; [`SweepRunner`] is the one place in the
//! workspace that owns that fan-out. The repro harness, the capacity
//! analyzer, and the bench kernels all route their grids through it.
//!
//! The build environment is offline (no `rayon`), so the runner is built
//! directly on [`std::thread::scope`]: workers pull item indices from a
//! shared atomic counter (work-stealing, so uneven per-item cost — e.g.
//! tall scenarios that simulate longer traces — still balances), a shared
//! poisoned flag cancels siblings promptly when one worker panics, and
//! results are reassembled in input order. The API is deliberately
//! `rayon::par_iter`-shaped so a later swap is mechanical.
//!
//! This module also hosts the sweep-flavoured [`Scenario`] entry points:
//! [`Scenario::run_streaming`] pipes each seed's channel sampler straight
//! into a push-based [`StreamingDecoder`] (one live receiver per worker,
//! no trace ever materialised), [`Scenario::run_array_streaming`] shards
//! one scene across an array of receiver *poses* (one worker per
//! [`ArrayReceiver`], each owning its pose-relative static field and
//! kernel tables,
//! detections fused online), and [`Scenario::delivery_count`] is the
//! shared "run a seed batch → decode → count accepted payloads" loop
//! behind every delivery-ratio figure and test.
//!
//! ```
//! use palc::channel::Scenario;
//! use palc::decode::AdaptiveDecoder;
//! use palc_phy::Packet;
//!
//! let scenario = Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20);
//! let outcomes = scenario.run_streaming(&[1, 2, 3], &AdaptiveDecoder::default()
//!     .with_expected_bits(2));
//! // Three live receivers decoded in parallel, mid-pass, in O(1) memory.
//! assert_eq!(outcomes.len(), 3);
//! assert!(outcomes.iter().all(|o| o.packets().any(|p| p.payload.to_string() == "10")));
//! ```

use crate::channel::{ReceiverPose, Scenario};
use crate::decode::{AdaptiveDecoder, DecodedPacket};
use crate::fusion::{Detection, FusedEvent, FusionCenter, FusionStream};
use crate::impair::ImpairmentStack;
use crate::stream::{DecodeEvent, PushDecoder, StreamingDecoder};
use crate::trace::Trace;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Sets the shared poisoned flag when its worker unwinds, so sibling
/// workers stop pulling new items instead of running the sweep to
/// completion under a doomed scope.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// A thread-pool-shaped runner for embarrassingly parallel sweeps.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A runner sized to the machine (one worker per available core).
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        SweepRunner { threads }
    }

    /// A runner with an explicit worker count (clamped to at least 1).
    /// `with_threads(1)` runs inline on the calling thread — useful for
    /// deterministic profiling and for measuring parallel speedup.
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner { threads: threads.max(1) }
    }

    /// The number of worker threads this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning the results in
    /// input order. `f` only needs `Sync` (shared by reference across
    /// workers); panics in `f` propagate to the caller.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// Like [`SweepRunner::map`] but `f` also receives the item's index —
    /// the usual way to derive per-run seeds.
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }

        let next = AtomicUsize::new(0);
        let poisoned = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let next = &next;
                let poisoned = &poisoned;
                let f = &f;
                scope.spawn(move || {
                    let guard = PoisonOnPanic(poisoned);
                    loop {
                        // A sibling panicked: the scope will re-raise its
                        // panic anyway, so stop burning CPU on items whose
                        // results can never be observed.
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        // A panic in `f` poisons the sweep via `guard` and
                        // drops `tx`; the collector below then comes up
                        // short and the scope re-raises the panic.
                        // invariant: `i < items.len()` is checked above.
                        let r = f(i, &items[i]);
                        if tx.send((i, r)).is_err() {
                            break;
                        }
                    }
                    drop(guard);
                });
            }
            drop(tx);
            let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
            for (i, r) in rx {
                // invariant: workers only send `i < items.len()` (the
                // fetch_add claim is bounds-checked before `f` runs),
                // and `slots` has exactly `items.len()` entries.
                slots[i] = Some(r);
            }
            slots
        })
        .into_iter()
        // invariant: every index below `items.len()` is claimed by
        // exactly one worker (the atomic fetch_add hands them out
        // uniquely), and a worker either sends its `(i, r)` pair or
        // panics — in which case `thread::scope` re-raises that panic
        // at the closing brace above and this line is never reached. A
        // missing slot is therefore unreachable; the expect is a
        // backstop, not a reachable failure mode, and converting it to
        // a recovery path would silently hide a lost result.
        .map(|s| s.expect("worker dropped a sweep item"))
        .collect()
    }
}

/// A [`DecodeEvent`] stamped with the stream time it was emitted at.
#[derive(Debug, Clone)]
pub struct TimedEvent {
    /// Stream time of emission, seconds (samples pushed so far / rate).
    pub time_s: f64,
    /// The decoder's observation.
    pub event: DecodeEvent,
}

/// One live receiver's event log from [`Scenario::run_streaming`].
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The noise seed this receiver ran with.
    pub seed: u64,
    /// Everything the push-based decoder emitted, in stream order.
    pub events: Vec<TimedEvent>,
}

impl StreamOutcome {
    /// The packets this receiver decoded, in stream order.
    pub fn packets(&self) -> impl Iterator<Item = &DecodedPacket> {
        self.events.iter().filter_map(|e| match &e.event {
            DecodeEvent::Packet(p) => Some(p),
            _ => None,
        })
    }

    /// The packets as [`Detection`]s from receiver `receiver_id`, ready
    /// for [`crate::fusion::FusionStream`] ingestion: detection time is
    /// the emission time, confidence the packet's normalised swing τr.
    pub fn detections(&self, receiver_id: u32) -> impl Iterator<Item = Detection> + '_ {
        self.events.iter().filter_map(move |e| match &e.event {
            DecodeEvent::Packet(p) => Some(Detection::from_packet(receiver_id, e.time_s, p)),
            _ => None,
        })
    }
}

/// One receiver of a shared-scene array: its identity for fusion, its
/// [`ReceiverPose`] in the scene, and its private noise seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayReceiver {
    /// Receiver identity, stamped onto every [`Detection`] this shard
    /// emits (fusion dedupes voters by it).
    pub id: u32,
    /// Where this receiver sits over the shared scene.
    pub pose: ReceiverPose,
    /// Frontend noise seed for this receiver's shard.
    pub seed: u64,
}

/// One shard's event log from [`Scenario::run_array_streaming`] /
/// [`Scenario::run_shard`].
#[derive(Debug, Clone)]
pub struct ArrayOutcome {
    /// The receiver this shard simulated.
    pub receiver: ArrayReceiver,
    /// Everything its push-based decoder emitted, in stream order.
    pub events: Vec<TimedEvent>,
}

impl ArrayOutcome {
    /// The packets this receiver decoded, in stream order.
    pub fn packets(&self) -> impl Iterator<Item = &DecodedPacket> {
        self.events.iter().filter_map(|e| match &e.event {
            DecodeEvent::Packet(p) => Some(p),
            _ => None,
        })
    }

    /// The packets as [`Detection`]s stamped with this shard's receiver
    /// id — the same values the online fusion feed saw.
    pub fn detections(&self) -> impl Iterator<Item = Detection> + '_ {
        self.events.iter().filter_map(|e| match &e.event {
            DecodeEvent::Packet(p) => Some(Detection::from_packet(self.receiver.id, e.time_s, p)),
            _ => None,
        })
    }
}

/// The result of one receiver-array run: the online-fused events plus
/// every shard's raw event log (input order).
#[derive(Debug, Clone)]
pub struct ArrayRun {
    /// Fused events, in the order the online [`FusionStream`] emitted
    /// them as detections arrived from the shards.
    pub fused: Vec<FusedEvent>,
    /// Per-receiver event logs, in `receivers` input order.
    pub outcomes: Vec<ArrayOutcome>,
}

/// The one timed push/poll/finish drain: feeds `sampler` into `decoder`
/// sample by sample, stamping every emitted event with the stream time
/// (samples pushed so far / rate) and surfacing decoded packets to
/// `on_packet` the moment they appear. The per-seed streaming runs and
/// the receiver-array shards both ride this loop, so their timestamps
/// can never diverge.
fn drain_timed<D: PushDecoder>(
    sampler: impl Iterator<Item = f64>,
    fs: f64,
    mut decoder: D,
    mut on_packet: impl FnMut(f64, &DecodedPacket),
) -> Vec<TimedEvent> {
    let mut events: Vec<TimedEvent> = Vec::new();
    let mut pushed = 0usize;
    let mut record = |time_s: f64, event: DecodeEvent, events: &mut Vec<TimedEvent>| {
        if let DecodeEvent::Packet(p) = &event {
            on_packet(time_s, p);
        }
        events.push(TimedEvent { time_s, event });
    };
    for sample in sampler {
        let ev = decoder.push_sample(sample);
        pushed += 1;
        let time_s = pushed as f64 / fs;
        if let Some(event) = ev {
            record(time_s, event, &mut events);
        }
        while let Some(event) = decoder.poll_event() {
            record(time_s, event, &mut events);
        }
    }
    let time_s = pushed as f64 / fs;
    for event in decoder.finish_stream() {
        record(time_s, event, &mut events);
    }
    events
}

/// Sends one detection into the array run's shared fusion sink,
/// tolerating a poisoned mutex.
///
/// Regression guard for the poisoning cascade: if any worker unwinds
/// while holding this lock, `.expect("detection sink poisoned")` in
/// every *other* worker's packet callback would convert one panic into
/// a panic per sibling shard — and the scope would then re-raise an
/// arbitrary sibling's secondary panic instead of the original. The
/// mutex only guards an [`mpsc::Sender`] clone, which a panicked
/// critical section cannot leave half-updated (`send` either enqueued
/// the detection or didn't; the sender itself stays valid either way),
/// so recovering the inner value is sound and lets the original panic
/// propagate alone.
fn send_detection(sink: &Mutex<mpsc::Sender<Detection>>, det: Detection) {
    let _ = sink.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).send(det);
}

impl Scenario {
    /// Streams this scenario once per seed — each seed a live receiver:
    /// [`crate::channel::ChannelSampler`] feeding a self-scaling
    /// [`StreamingDecoder`] sample by sample — fanned across the workspace
    /// default [`SweepRunner`]. No trace is materialised; each receiver
    /// runs in memory bounded by the decoder's history caps, which is what
    /// makes arbitrarily long runs and live deployments possible. Each
    /// worker's sampler carries its own
    /// [`crate::channel::FootprintKernel`] geometry tables (the staged
    /// walk where the scene rules the kernel out), so long passes cost
    /// transcendental-free table lookups per tick — the per-receiver state a future multi-receiver sharding
    /// layer will distribute.
    pub fn run_streaming(&self, seeds: &[u64], decoder: &AdaptiveDecoder) -> Vec<StreamOutcome> {
        self.run_streaming_on(&SweepRunner::new(), seeds, decoder)
    }

    /// Like [`Scenario::run_streaming`] with an explicit runner.
    pub fn run_streaming_on(
        &self,
        runner: &SweepRunner,
        seeds: &[u64],
        decoder: &AdaptiveDecoder,
    ) -> Vec<StreamOutcome> {
        self.run_streaming_impaired_on(runner, seeds, decoder, &ImpairmentStack::clean())
    }

    /// [`Scenario::run_streaming`] with an [`ImpairmentStack`] between
    /// each receiver's sampler and its decoder: every seed's stream is
    /// wrapped by the stack (seeded with that same seed) before a single
    /// sample reaches the push decoder — the live-receiver counterpart
    /// of [`Scenario::run_impaired`]. An empty stack reproduces
    /// [`Scenario::run_streaming`] byte for byte.
    pub fn run_streaming_impaired(
        &self,
        seeds: &[u64],
        decoder: &AdaptiveDecoder,
        stack: &ImpairmentStack,
    ) -> Vec<StreamOutcome> {
        self.run_streaming_impaired_on(&SweepRunner::new(), seeds, decoder, stack)
    }

    /// Like [`Scenario::run_streaming_impaired`] with an explicit runner.
    pub fn run_streaming_impaired_on(
        &self,
        runner: &SweepRunner,
        seeds: &[u64],
        decoder: &AdaptiveDecoder,
        stack: &ImpairmentStack,
    ) -> Vec<StreamOutcome> {
        let fs = self.channel().frontend.sample_rate_hz();
        runner.map(seeds, |&seed| {
            let dec = StreamingDecoder::new(decoder.clone(), fs);
            let sampler = stack.apply(seed, self.sampler(seed));
            StreamOutcome { seed, events: drain_timed(sampler, fs, dec, |_, _| {}) }
        })
    }

    /// How long the shard for a receiver at `pose` must run so the pass
    /// clears its staggered footprint: the scenario's base duration plus
    /// the slowest object's travel time to the pose's along-track offset
    /// ([`palc_scene::MobileObject::pass_delay_to`]; upstream poses add
    /// nothing).
    pub fn shard_duration_for(&self, pose: ReceiverPose) -> f64 {
        let extra =
            self.channel().objects.iter().map(|o| o.pass_delay_to(pose.x_m)).fold(0.0, f64::max);
        self.duration_s() + extra
    }

    /// One receiver shard, serially: a pose-relative sampler (its own
    /// `StaticField` + `FootprintKernel` tables over the shared scene
    /// objects) piped into `decoder`, packets surfaced to
    /// `on_detection` the moment they are emitted. This is the exact
    /// loop every array worker runs.
    fn shard_events<D: PushDecoder>(
        &self,
        receiver: ArrayReceiver,
        decoder: D,
        stack: &ImpairmentStack,
        mut on_detection: impl FnMut(Detection),
    ) -> Vec<TimedEvent> {
        let fs = self.channel().frontend.sample_rate_hz();
        let duration = self.shard_duration_for(receiver.pose);
        let sampler = self.channel().sampler_at_pose(duration, receiver.seed, receiver.pose);
        // Each shard's impairments are seeded with its private noise
        // seed, so receivers of one array degrade independently.
        let sampler = stack.apply(receiver.seed, sampler);
        drain_timed(sampler, fs, decoder, |time_s, p| {
            on_detection(Detection::from_packet(receiver.id, time_s, p))
        })
    }

    /// Runs one receiver of an array serially — the per-pose reference
    /// the sharded run is property-tested against, and a convenient way
    /// to replay a single receiver's view of the scene.
    pub fn run_shard<D: PushDecoder>(&self, receiver: ArrayReceiver, decoder: D) -> ArrayOutcome {
        self.run_shard_impaired(receiver, decoder, &ImpairmentStack::clean())
    }

    /// [`Scenario::run_shard`] with an [`ImpairmentStack`] between the
    /// shard's pose-relative sampler and its decoder, seeded with the
    /// shard's noise seed.
    pub fn run_shard_impaired<D: PushDecoder>(
        &self,
        receiver: ArrayReceiver,
        decoder: D,
        stack: &ImpairmentStack,
    ) -> ArrayOutcome {
        let events = self.shard_events(receiver, decoder, stack, |_| {});
        ArrayOutcome { receiver, events }
    }

    /// The multi-receiver sharding layer: one scene, its objects shared,
    /// sharded across the workspace default [`SweepRunner`] with one
    /// worker per receiver pose. Each worker owns its own pose-relative
    /// `StaticField` + `FootprintKernel` geometry tables and a self-scaling
    /// [`StreamingDecoder`], and every decoded packet is pushed into an
    /// online [`FusionStream`] *as the workers emit it* — the fused
    /// verdicts are available without waiting for slower shards to
    /// finish. Receiver `i` gets id `i` and noise seed `i`.
    ///
    /// `center.window_s` must cover the pass's stagger across the poses
    /// (downstream receivers detect the same pass later). This is a hard
    /// requirement, not a tuning knob: detections reach the fusion
    /// stream in cross-thread *arrival* order, so with a window smaller
    /// than the stagger an early detection landing after a late one
    /// would be treated as a straggler and one pass could fragment into
    /// several events depending on worker scheduling.
    pub fn run_array_streaming(
        &self,
        poses: &[ReceiverPose],
        decoder: &AdaptiveDecoder,
        center: FusionCenter,
    ) -> ArrayRun {
        self.run_array_streaming_impaired(poses, decoder, center, &ImpairmentStack::clean())
    }

    /// [`Scenario::run_array_streaming`] with an [`ImpairmentStack`]
    /// applied inside every shard (between its pose-relative sampler and
    /// its push decoder, seeded with the shard's noise seed) — the whole
    /// array degrades the way a fleet of real receivers does, each
    /// independently, while fusion still consumes the detections online.
    pub fn run_array_streaming_impaired(
        &self,
        poses: &[ReceiverPose],
        decoder: &AdaptiveDecoder,
        center: FusionCenter,
        stack: &ImpairmentStack,
    ) -> ArrayRun {
        let fs = self.channel().frontend.sample_rate_hz();
        let receivers: Vec<ArrayReceiver> = poses
            .iter()
            .enumerate()
            .map(|(i, &pose)| ArrayReceiver { id: i as u32, pose, seed: i as u64 })
            .collect();
        self.run_array_streaming_impaired_on(&SweepRunner::new(), &receivers, center, stack, |_| {
            StreamingDecoder::new(decoder.clone(), fs)
        })
    }

    /// Like [`Scenario::run_array_streaming`] with an explicit runner,
    /// explicit receiver identities/seeds, and a per-receiver decoder
    /// factory — generic over [`PushDecoder`], so vehicular arrays run
    /// [`crate::stream::StreamingTwoPhase`] shards with the same
    /// machinery.
    pub fn run_array_streaming_on<D, F>(
        &self,
        runner: &SweepRunner,
        receivers: &[ArrayReceiver],
        center: FusionCenter,
        make_decoder: F,
    ) -> ArrayRun
    where
        D: PushDecoder,
        F: Fn(&ArrayReceiver) -> D + Sync,
    {
        self.run_array_streaming_impaired_on(
            runner,
            receivers,
            center,
            &ImpairmentStack::clean(),
            make_decoder,
        )
    }

    /// Like [`Scenario::run_array_streaming_impaired`] with an explicit
    /// runner, explicit receiver identities/seeds, and a per-receiver
    /// decoder factory — the fully general array entry point every other
    /// array variant delegates to.
    pub fn run_array_streaming_impaired_on<D, F>(
        &self,
        runner: &SweepRunner,
        receivers: &[ArrayReceiver],
        center: FusionCenter,
        stack: &ImpairmentStack,
        make_decoder: F,
    ) -> ArrayRun
    where
        D: PushDecoder,
        F: Fn(&ArrayReceiver) -> D + Sync,
    {
        let (tx, detections) = mpsc::channel::<Detection>();
        // Workers share one sender behind a mutex; detections are rare
        // (a handful per pass per receiver), so contention is nil.
        let tx = Mutex::new(tx);
        std::thread::scope(|scope| {
            // The fusion collector drains detections online, concurrent
            // with the shard workers: fused events are resolved the
            // moment their clusters close, not after the sweep.
            let fuser = scope.spawn(move || {
                let mut stream = FusionStream::new(center);
                let mut fused = Vec::new();
                for det in detections {
                    fused.extend(stream.push(det));
                }
                fused.extend(stream.flush());
                fused
            });
            let outcomes = runner.map(receivers, |&receiver| {
                let decoder = make_decoder(&receiver);
                let events = self.shard_events(receiver, decoder, stack, |det| {
                    // The collector only disconnects after every sender
                    // is gone, so this send cannot fail mid-sweep.
                    send_detection(&tx, det);
                });
                ArrayOutcome { receiver, events }
            });
            drop(tx); // last sender gone: the collector's loop ends
                      // `runner.map` re-raises any shard worker's panic before we
                      // get here, so on the success path the collector is healthy;
                      // if the *collector* itself panicked, re-raise its original
                      // payload instead of masking it behind a fresh expect panic.
            let fused = fuser.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            ArrayRun { fused, outcomes }
        })
    }

    /// The delivery-ratio loop every outdoor figure shares: run one trace
    /// per seed (in parallel, reusing the cached static field), test each
    /// with `accept`, and return how many were accepted along with the
    /// traces themselves (figures plot the first one).
    pub fn delivery_count(
        &self,
        seeds: &[u64],
        accept: impl Fn(&Trace) -> bool + Sync,
    ) -> (usize, Vec<Trace>) {
        let traces = self.run_batch(seeds);
        let ok = traces.iter().filter(|t| accept(t)).count();
        (ok, traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn array_shards_pick_up_pose_relative_kernels() {
        // Every worker of a receiver array owns its own pose-relative
        // FootprintKernel: the exact sampler `shard_events` builds must
        // ride the kernel tier at offset poses, not just at the origin.
        let sc = crate::channel::Scenario::outdoor_car(
            palc_scene::CarModel::volvo_v40(),
            Some(palc_phy::Packet::from_bits("00").unwrap()),
            0.75,
            palc_optics::source::Sun::cloudy_noon(1),
        );
        let z = sc.channel().receiver_z_m;
        for pose in [ReceiverPose::origin(z), ReceiverPose::new(0.5, 0.1, z)] {
            let sampler = sc.channel().sampler_at_pose(sc.shard_duration_for(pose), 0, pose);
            assert!(sampler.is_kernel(), "shard at {pose:?} must ride the kernel tier");
            assert_eq!(sampler.pose(), pose);
        }
    }

    #[test]
    fn send_detection_survives_a_poisoned_sink() {
        // Regression: the array-run fusion sink used to be sent through
        // `.expect("detection sink poisoned")`, so one shard's panic
        // (poisoning the sink mutex mid-send) re-panicked every sibling
        // shard and the scope aborted with a cascade of secondary
        // panics instead of the original one.
        let (tx, rx) = mpsc::channel::<Detection>();
        let sink = Mutex::new(tx);
        // Poison the sink the way a panicking shard would: unwind while
        // holding the guard.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = sink.lock().unwrap();
            panic!("shard decoder blew up");
        }));
        assert!(sink.is_poisoned());
        let det = Detection {
            receiver_id: 3,
            time_s: 1.5,
            payload: palc_phy::Bits::parse("10").unwrap(),
            confidence: 0.8,
        };
        send_detection(&sink, det);
        let got = rx.try_recv().expect("sibling's detection must still arrive");
        assert_eq!(got.receiver_id, 3);
    }

    #[test]
    fn sibling_shards_outlive_a_panicking_shard() {
        // The scoped-thread shape of `run_array_streaming_impaired_on`
        // in miniature: one shard panics while siblings keep sending.
        // The siblings' detections must all land and the scope must
        // re-raise the *original* panic payload, not a poison cascade.
        let (tx, rx) = mpsc::channel::<Detection>();
        let sink = Mutex::new(tx);
        let det = |id: u32| Detection {
            receiver_id: id,
            time_s: 0.1,
            payload: palc_phy::Bits::parse("10").unwrap(),
            confidence: 1.0,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                for id in 0..4u32 {
                    let sink = &sink;
                    let det = det(id);
                    scope.spawn(move || {
                        if id == 2 {
                            // Poison first so the siblings' sends all see
                            // a poisoned mutex, then unwind the shard.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let _guard = sink.lock().unwrap();
                                panic!("poison the sink");
                            }));
                            panic!("original shard panic");
                        }
                        // Give the poisoner a chance to run first; the
                        // send must succeed either way.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        send_detection(sink, det);
                    });
                }
            });
        }));
        // The faulted shard's panic propagates out of the scope; the
        // siblings must NOT have panicked on the poisoned sink — every
        // one of their detections arrives. (Before the fix, the
        // `.expect("detection sink poisoned")` send turned this into
        // four panics and zero or partial sibling detections.)
        assert!(outcome.is_err(), "the shard panic must propagate");
        drop(sink);
        assert_eq!(rx.iter().count(), 3, "every sibling detection must arrive");
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = SweepRunner::new().map(&items, |&x| x * x);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_indexed_passes_matching_indices() {
        let items = vec!["a", "b", "c", "d"];
        let out = SweepRunner::with_threads(3).map_indexed(&items, |i, &s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn single_thread_runs_inline() {
        let out = SweepRunner::with_threads(1).map(&[1, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(SweepRunner::new().map(&empty, |&x| x).is_empty());
        assert_eq!(SweepRunner::new().map(&[7], |&x| x * 2), vec![14]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = SweepRunner::new().map(&items, |&x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out, items);
    }

    #[test]
    fn parallel_and_serial_agree_on_float_work() {
        let items: Vec<f64> = (0..64).map(|i| i as f64 * 0.37).collect();
        let work = |&x: &f64| (0..100).fold(x, |acc, _| (acc.sin() + 1.0).sqrt());
        let serial = SweepRunner::with_threads(1).map(&items, work);
        let parallel = SweepRunner::new().map(&items, work);
        assert_eq!(serial, parallel); // bitwise: same code, same inputs
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        SweepRunner::with_threads(4).map(&items, |&x| {
            assert!(x != 13, "sweep item 13");
            x
        });
    }

    #[test]
    fn origin_shard_replays_the_single_receiver_stream() {
        use crate::channel::ReceiverPose;
        use palc_phy::Packet;

        // A shard at the origin pose is exactly the historical
        // single-receiver streaming run: same sampler, same decoder,
        // same event log.
        let sc = Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20);
        let decoder = AdaptiveDecoder::default().with_expected_bits(2);
        let fs = sc.channel().frontend.sample_rate_hz();
        let seed = 7u64;
        let single = &sc.run_streaming(&[seed], &decoder)[0];
        let shard = sc.run_shard(
            ArrayReceiver { id: 0, pose: ReceiverPose::origin(sc.channel().receiver_z_m), seed },
            StreamingDecoder::new(decoder, fs),
        );
        assert_eq!(shard.events.len(), single.events.len());
        for (a, b) in shard.events.iter().zip(&single.events) {
            assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
            assert_eq!(format!("{:?}", a.event), format!("{:?}", b.event));
        }
    }

    #[test]
    fn shard_duration_tolerates_parked_objects() {
        use crate::channel::ReceiverPose;
        use palc_phy::Packet;
        use palc_scene::{MobileObject, Tag, Trajectory};

        // Regression: a parked object (a first-class scene family, folded
        // into the kernel's parked aggregate) plus a downstream pose used to
        // panic inside the trajectory's displacement search.
        let mut sc = Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.25);
        let parked = MobileObject::cart(
            Tag::from_packet(&Packet::from_bits("0").unwrap(), 0.05),
            Trajectory::Constant { speed_mps: 0.0 },
        )
        .starting_at(0.1)
        .in_lane(0.31);
        sc.channel_mut().objects.push(parked);
        sc.calibrate_gain();
        let z = sc.channel().receiver_z_m;
        let base = sc.duration_s();
        let stretched = sc.shard_duration_for(ReceiverPose::new(0.08, 0.0, z));
        // The moving cart (8 cm/s) pays 1 s of stagger; the parked one
        // contributes nothing.
        assert!((stretched - base - 1.0).abs() < 1e-6, "{stretched} vs {base}");
        assert_eq!(sc.shard_duration_for(ReceiverPose::new(-0.5, 0.0, z)), base);
    }

    #[test]
    fn poisoned_sweep_cancels_siblings_promptly() {
        // Item 0 panics immediately; the remaining items each sleep. With
        // the shared poisoned flag, workers stop pulling new items as soon
        // as the panic lands instead of draining all 64 — only the items
        // already in flight (at most one per worker) may still run.
        let executed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            SweepRunner::with_threads(4).map(&items, |&x| {
                if x == 0 {
                    panic!("sweep item 0");
                }
                executed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(5));
                x
            });
        }));
        assert!(result.is_err(), "the panic must still propagate");
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < items.len() / 2, "siblings kept sweeping after the panic: {ran} items ran");
    }
}
