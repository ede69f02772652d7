//! Property-based tests on the workspace's core invariants.
//!
//! The build environment is offline (no `proptest`), so these run on a
//! small deterministic harness: [`cases`] derives one seeded RNG per
//! case, generators draw structured inputs from it, and every failure
//! message carries the case index so a run is exactly reproducible.

use palc_lab::dsp;
use palc_lab::phy::{manchester_decode, manchester_encode, Bits, Codebook, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` over `n` deterministic cases, each with its own seeded RNG.
fn cases(n: usize, seed: u64, mut f: impl FnMut(&mut StdRng, usize)) {
    for i in 0..n {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        f(&mut rng, i);
    }
}

fn vec_bool(rng: &mut StdRng, min_len: usize, max_len: usize) -> Vec<bool> {
    let len = rng.gen_range(min_len..max_len + 1);
    (0..len).map(|_| rng.gen::<bool>()).collect()
}

fn vec_f64(rng: &mut StdRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let len = rng.gen_range(min_len..max_len + 1);
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

// ---------------- PHY ----------------------------------------------------

#[test]
fn manchester_roundtrips_any_payload() {
    cases(64, 0xA1, |rng, i| {
        let bits = vec_bool(rng, 0, 63);
        let payload = Bits::from_bools(&bits);
        let symbols = manchester_encode(&payload);
        assert_eq!(symbols.len(), 2 * payload.len(), "case {i}");
        assert_eq!(manchester_decode(&symbols).unwrap(), payload, "case {i}");
    });
}

#[test]
fn packet_symbols_roundtrip() {
    cases(64, 0xA2, |rng, i| {
        let bits = vec_bool(rng, 0, 31);
        let packet = Packet::new(Bits::from_bools(&bits));
        let back = Packet::from_symbols(&packet.to_symbols()).unwrap();
        assert_eq!(back, packet, "case {i}");
    });
}

#[test]
fn bits_u64_roundtrip() {
    cases(128, 0xA3, |rng, i| {
        let value = rng.gen::<u64>();
        let width = rng.gen_range(1usize..65);
        let masked = if width == 64 { value } else { value & ((1u64 << width) - 1) };
        let bits = Bits::from_u64(masked, width);
        assert_eq!(bits.len(), width, "case {i}");
        assert_eq!(bits.to_u64(), masked, "case {i}");
    });
}

#[test]
fn hamming_distance_is_a_metric() {
    cases(64, 0xA4, |rng, i| {
        let a_bools = vec_bool(rng, 1, 31);
        let flips = vec_bool(rng, 1, 31);
        let n = a_bools.len().min(flips.len());
        let a = Bits::from_bools(&a_bools[..n]);
        let b: Bits = a.iter().zip(flips.iter()).map(|(x, &f)| x ^ f).collect();
        let d = a.hamming_distance(&b);
        assert_eq!(d, flips[..n].iter().filter(|&&f| f).count(), "case {i}");
        assert_eq!(b.hamming_distance(&a), d, "case {i}: symmetry");
        assert_eq!(a.hamming_distance(&a), 0, "case {i}: identity");
    });
}

#[test]
fn codebook_nearest_corrects_within_budget() {
    cases(48, 0xA5, |rng, i| {
        let n_bits = rng.gen_range(3usize..9);
        let count = rng.gen_range(2usize..5);
        let book = Codebook::max_min_hamming(count, n_bits);
        let idx = rng.gen_range(0usize..4) % book.len();
        let budget = book.correctable_errors();
        // Flip up to `budget` distinct bits.
        let mut word: Vec<bool> = book.codes()[idx].iter().collect();
        let mut flipped = std::collections::HashSet::new();
        for _ in 0..budget {
            let pos = rng.gen_range(0usize..n_bits);
            if flipped.insert(pos) {
                word[pos] = !word[pos];
            }
        }
        let (found, dist) = book.nearest(&Bits::from_bools(&word));
        assert_eq!(found, idx, "case {i}: flips {flipped:?}");
        assert!(dist <= budget, "case {i}");
    });
}

// ---------------- DSP ----------------------------------------------------

#[test]
fn fft_parseval() {
    cases(48, 0xB1, |rng, i| {
        let signal = vec_f64(rng, -100.0, 100.0, 1, 127);
        let spec = dsp::fft(&signal);
        let time: f64 = signal.iter().map(|v| v * v).sum();
        let freq: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / spec.len() as f64;
        assert!((time - freq).abs() <= 1e-6 * time.max(1.0), "case {i}: {time} vs {freq}");
    });
}

#[test]
fn fft_inverse_roundtrip() {
    cases(48, 0xB2, |rng, i| {
        let signal = vec_f64(rng, -10.0, 10.0, 1, 99);
        let spec = dsp::fft(&signal);
        let back = dsp::fft_inverse(&spec);
        for (j, x) in signal.iter().enumerate() {
            assert!((back[j].re - x).abs() < 1e-8, "case {i} sample {j}");
            assert!(back[j].im.abs() < 1e-8, "case {i} sample {j}");
        }
    });
}

#[test]
fn dtw_identity_and_symmetry() {
    cases(32, 0xB3, |rng, i| {
        let a = vec_f64(rng, 0.0, 1.0, 1, 39);
        let b = vec_f64(rng, 0.0, 1.0, 1, 39);
        assert_eq!(dsp::dtw(&a, &a).distance, 0.0, "case {i}");
        let ab = dsp::dtw(&a, &b).distance;
        let ba = dsp::dtw(&b, &a).distance;
        assert!((ab - ba).abs() < 1e-9, "case {i}");
        assert!(ab >= 0.0, "case {i}");
    });
}

#[test]
fn dtw_banded_never_below_full() {
    cases(32, 0xB4, |rng, i| {
        let a = vec_f64(rng, 0.0, 1.0, 2, 29);
        let b = vec_f64(rng, 0.0, 1.0, 2, 29);
        let band = rng.gen_range(1usize..10);
        let full = dsp::dtw(&a, &b).distance;
        let banded = dsp::dtw_banded(&a, &b, band).distance;
        assert!(banded >= full - 1e-9, "case {i}");
    });
}

#[test]
fn normalize_minmax_bounds() {
    cases(32, 0xB5, |rng, i| {
        let signal = vec_f64(rng, -1e6, 1e6, 1, 199);
        let norm = dsp::normalize_minmax(&signal);
        assert_eq!(norm.len(), signal.len(), "case {i}");
        for v in &norm {
            assert!((0.0..=1.0).contains(v), "case {i}");
        }
        // Order preservation.
        for a in 0..signal.len() {
            for b in 0..signal.len() {
                if signal[a] < signal[b] {
                    assert!(norm[a] <= norm[b], "case {i}: order broken at ({a}, {b})");
                }
            }
        }
    });
}

#[test]
fn resample_preserves_range() {
    cases(48, 0xB6, |rng, i| {
        let signal = vec_f64(rng, 0.0, 1.0, 2, 99);
        let len = rng.gen_range(2usize..200);
        let out = dsp::resample_to_len(&signal, len);
        assert_eq!(out.len(), len, "case {i}");
        let (lo, hi) = dsp::minmax(&signal);
        for v in &out {
            assert!(*v >= lo - 1e-12 && *v <= hi + 1e-12, "case {i}: interpolation overshoot");
        }
    });
}

#[test]
fn moving_average_is_bounded_by_input() {
    cases(48, 0xB7, |rng, i| {
        let signal = vec_f64(rng, -50.0, 50.0, 1, 99);
        let window = rng.gen_range(1usize..15);
        let out = dsp::moving_average(&signal, window);
        let (lo, hi) = dsp::minmax(&signal);
        for v in &out {
            assert!(*v >= lo - 1e-9 && *v <= hi + 1e-9, "case {i}");
        }
    });
}

#[test]
fn peaks_sorted_and_in_range() {
    cases(48, 0xB8, |rng, i| {
        let signal = vec_f64(rng, 0.0, 1.0, 3, 149);
        let peaks = dsp::find_peaks(&signal, &dsp::PeakConfig::default());
        for w in peaks.windows(2) {
            assert!(w[0].index < w[1].index, "case {i}");
        }
        for p in &peaks {
            assert!(p.index < signal.len(), "case {i}");
            assert_eq!(p.value, signal[p.index], "case {i}");
            assert!(p.prominence >= 0.0, "case {i}");
        }
    });
}

#[test]
fn persistence_peaks_subset_of_looser_threshold() {
    cases(48, 0xB9, |rng, i| {
        use palc_lab::dsp::peaks::find_peaks_persistence;
        let signal = vec_f64(rng, 0.0, 1.0, 3, 149);
        let t = rng.gen_range(0.05..0.5);
        let strict = find_peaks_persistence(&signal, t);
        let loose = find_peaks_persistence(&signal, t / 2.0);
        for p in &strict {
            assert!(
                loose.iter().any(|q| q.index == p.index),
                "case {i}: strict peak at {} missing at looser threshold",
                p.index
            );
        }
    });
}

// ---------------- Frontend -----------------------------------------------

#[test]
fn adc_quantization_monotone() {
    cases(128, 0xC1, |rng, i| {
        let adc = palc_lab::frontend::Mcp3008::openvlc_outdoor();
        let a = rng.gen_range(0.0..5.0);
        let b = rng.gen_range(0.0..5.0);
        if a <= b {
            assert!(adc.quantize(a) <= adc.quantize(b), "case {i}");
        } else {
            assert!(adc.quantize(a) >= adc.quantize(b), "case {i}");
        }
    });
}

#[test]
fn receiver_response_monotone_and_saturating() {
    use palc_lab::frontend::{OpticalReceiver, PdGain};
    cases(64, 0xC2, |rng, i| {
        let lux_a = rng.gen_range(0.0..50_000.0);
        let lux_b = rng.gen_range(0.0..50_000.0);
        for rx in [
            OpticalReceiver::opt101(PdGain::G1),
            OpticalReceiver::opt101(PdGain::G3),
            OpticalReceiver::rx_led(),
        ] {
            let (lo, hi) = if lux_a <= lux_b { (lux_a, lux_b) } else { (lux_b, lux_a) };
            assert!(rx.respond(lo) <= rx.respond(hi) + 1e-12, "case {i}");
            assert!(rx.respond(hi) <= rx.respond(rx.saturation_lux()) + 1e-12, "case {i}");
        }
    });
}

#[test]
fn frontend_streaming_equals_batch_on_random_series() {
    use palc_lab::frontend::{Frontend, OpticalReceiver, PdGain};
    use palc_lab::optics::spectrum::Spectrum;
    cases(16, 0xC3, |rng, i| {
        let seed = rng.gen::<u64>();
        let lux = vec_f64(rng, 0.0, 8000.0, 1, 400);
        let fe = Frontend::outdoor(OpticalReceiver::opt101(PdGain::G2), seed);
        let batch = fe.capture(&lux, &Spectrum::daylight());
        let mut state = fe.streamer(&Spectrum::daylight());
        let streamed: Vec<u16> = lux.iter().map(|&e| state.step(e)).collect();
        assert_eq!(batch, streamed, "case {i}");
    });
}

// ---------------- Scene --------------------------------------------------

#[test]
fn trajectories_are_monotone() {
    use palc_lab::scene::Trajectory;
    cases(32, 0xD1, |rng, i| {
        let speed = rng.gen_range(0.01..10.0);
        let factor = rng.gen_range(0.5..3.0);
        let switch = rng.gen_range(0.05..2.0);
        let trajectories = [
            Trajectory::Constant { speed_mps: speed },
            Trajectory::StepChange { speed_mps: speed, switch_after_m: switch, factor },
            Trajectory::Jittered { speed_mps: speed, jitter: 0.3, segment_m: 0.05, seed: 1 },
        ];
        let mut ts = vec_f64(rng, 0.0, 20.0, 2, 9);
        ts.sort_by(f64::total_cmp);
        for tr in &trajectories {
            let mut prev = -1e-12;
            for &t in &ts {
                let d = tr.displacement(t);
                assert!(d >= prev - 1e-9, "case {i}: {tr:?} not monotone at t={t}");
                prev = d;
            }
        }
    });
}

#[test]
fn tag_material_lookup_total_coverage() {
    use palc_lab::scene::Tag;
    cases(64, 0xD2, |rng, i| {
        let bits = vec_bool(rng, 1, 7);
        let width = rng.gen_range(0.01..0.2);
        let x_frac = rng.gen_range(0.0..1.0);
        let packet = Packet::new(Bits::from_bools(&bits));
        let tag = Tag::from_packet(&packet, width);
        let x = x_frac * tag.length_m() * 0.999;
        assert!(tag.material_at(x).is_some(), "case {i}: gap inside the tag at {x}");
        assert!(tag.material_at(tag.length_m() + 0.01).is_none(), "case {i}");
        assert!(tag.material_at(-0.01).is_none(), "case {i}");
    });
}

// ---------------- Decode: streaming == batch ------------------------------

mod decode_equivalence {
    use super::cases;
    use palc_lab::core::channel::Scenario;
    use palc_lab::core::decode::{AdaptiveDecoder, DecodeError, DecodedPacket};
    use palc_lab::core::stream::{DecodeEvent, StreamingDecoder, StreamingTwoPhase};
    use palc_lab::core::vehicle::TwoPhaseDecoder;
    use palc_lab::core::Trace;
    use palc_lab::optics::source::Sun;
    use palc_lab::phy::Packet;
    use palc_lab::scene::CarModel;
    use rand::Rng;

    /// Collects a streaming run's first terminal event into the same
    /// `Result` shape the batch facade returns.
    fn first_terminal(
        events: impl IntoIterator<Item = DecodeEvent>,
    ) -> Option<Result<DecodedPacket, DecodeError>> {
        for ev in events {
            match ev {
                DecodeEvent::Packet(p) => return Some(Ok(p)),
                DecodeEvent::Reject(e) => return Some(Err(e)),
                _ => {}
            }
        }
        None
    }

    /// Feeds `trace` sample by sample into a span-hinted adaptive
    /// streaming decoder, exactly as a live receiver would.
    fn stream_adaptive(cfg: &AdaptiveDecoder, trace: &Trace) -> Result<DecodedPacket, DecodeError> {
        let (lo, hi) = trace.minmax();
        let mut dec = StreamingDecoder::with_scale(cfg.clone(), trace.sample_rate_hz(), lo, hi);
        let mut events = Vec::new();
        for &x in trace.samples() {
            if let Some(ev) = dec.push(x) {
                events.push(ev);
            }
            while let Some(ev) = dec.poll() {
                events.push(ev);
            }
        }
        events.extend(dec.finish());
        first_terminal(events).expect("a finished stream always resolves")
    }

    /// Same for the vehicular two-phase core.
    fn stream_two_phase(
        cfg: &TwoPhaseDecoder,
        trace: &Trace,
    ) -> Result<DecodedPacket, DecodeError> {
        let (lo, hi) = trace.minmax();
        let mut dec = StreamingTwoPhase::with_scale(cfg.clone(), trace.sample_rate_hz(), lo, hi);
        let mut events = Vec::new();
        for &x in trace.samples() {
            if let Some(ev) = dec.push(x) {
                events.push(ev);
            }
            while let Some(ev) = dec.poll() {
                events.push(ev);
            }
        }
        events.extend(dec.finish());
        first_terminal(events).expect("a finished stream always resolves")
    }

    /// Byte-level packet equality: identical symbols, payload bits, and
    /// bit-for-bit identical derived calibration.
    fn assert_identical(
        a: &Result<DecodedPacket, DecodeError>,
        b: &Result<DecodedPacket, DecodeError>,
        label: &str,
    ) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.symbols, y.symbols, "{label}: symbols");
                assert_eq!(x.payload, y.payload, "{label}: payload");
                for (u, v, field) in [
                    (x.tau_r, y.tau_r, "tau_r"),
                    (x.tau_t, y.tau_t, "tau_t"),
                    (x.threshold_level, y.threshold_level, "threshold_level"),
                    (x.point_a.t, y.point_a.t, "point_a.t"),
                    (x.point_a.r, y.point_a.r, "point_a.r"),
                    (x.point_b.t, y.point_b.t, "point_b.t"),
                    (x.point_b.r, y.point_b.r, "point_b.r"),
                    (x.point_c.t, y.point_c.t, "point_c.t"),
                    (x.point_c.r, y.point_c.r, "point_c.r"),
                ] {
                    assert_eq!(u.to_bits(), v.to_bits(), "{label}: {field}: {u} vs {v}");
                }
            }
            (Err(x), Err(y)) => assert_eq!(x, y, "{label}: errors differ"),
            _ => panic!("{label}: outcome mismatch: batch {a:?} vs streaming {b:?}"),
        }
    }

    fn indoor_cfg() -> AdaptiveDecoder {
        AdaptiveDecoder::default().with_expected_bits(2)
    }

    fn ceiling_cfg() -> AdaptiveDecoder {
        AdaptiveDecoder { smooth_window_s: 0.012, ..AdaptiveDecoder::default() }
            .with_expected_bits(2)
    }

    fn outdoor_cfg() -> TwoPhaseDecoder {
        TwoPhaseDecoder::new(CarModel::volvo_v40(), 0.10, 2)
    }

    /// The tentpole acceptance invariant: on every scenario family, for
    /// any seed, a `StreamingDecoder` fed sample by sample produces a
    /// byte-identical packet (or the identical error) to the trace-based
    /// `decode()` — which is itself a drain over the same state machine,
    /// so this pins the push-path against the drain-path forever.
    #[test]
    fn streaming_decode_equals_batch_decode_across_scenarios() {
        let indoor = Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20);
        let ceiling = Scenario::ceiling_office(Packet::from_bits("10").unwrap(), 0.03, 500.0);
        let outdoor = Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(Packet::from_bits("00").unwrap()),
            0.75,
            Sun::cloudy_noon(4),
        );
        cases(4, 0xF1, |rng, i| {
            let seed = rng.gen::<u64>();
            for (name, sc, cfg) in [
                ("indoor_bench", &indoor, indoor_cfg()),
                ("ceiling_office", &ceiling, ceiling_cfg()),
            ] {
                let trace = sc.run(seed);
                let batch = cfg.decode(&trace);
                let streamed = stream_adaptive(&cfg, &trace);
                assert_identical(&batch, &streamed, &format!("case {i} ({name}, seed {seed})"));
            }
            let trace = outdoor.run(seed);
            let cfg = outdoor_cfg();
            let batch = cfg.decode(&trace);
            let streamed = stream_two_phase(&cfg, &trace);
            assert_identical(&batch, &streamed, &format!("case {i} (outdoor_car, seed {seed})"));
        });
    }

    /// Truncated streams: cutting the trace anywhere — mid lead-in, mid
    /// preamble, mid payload — must leave streaming and batch in byte
    /// agreement (both see the same shortened world).
    #[test]
    fn streaming_equals_batch_on_truncated_streams() {
        let indoor = Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20);
        let outdoor = Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(Packet::from_bits("00").unwrap()),
            0.75,
            Sun::cloudy_noon(4),
        );
        cases(3, 0xF2, |rng, i| {
            let seed = rng.gen::<u64>();
            let full = indoor.run(seed);
            let out_full = outdoor.run(seed);
            for frac in [0.12, 0.35, 0.6, 0.85] {
                let cut = (full.len() as f64 * frac) as usize;
                let trace = Trace::new(full.samples()[..cut].to_vec(), full.sample_rate_hz());
                let cfg = indoor_cfg();
                assert_identical(
                    &cfg.decode(&trace),
                    &stream_adaptive(&cfg, &trace),
                    &format!("case {i} (indoor truncated at {frac}, seed {seed})"),
                );
                let cut = (out_full.len() as f64 * frac) as usize;
                let trace =
                    Trace::new(out_full.samples()[..cut].to_vec(), out_full.sample_rate_hz());
                let cfg = outdoor_cfg();
                assert_identical(
                    &cfg.decode(&trace),
                    &stream_two_phase(&cfg, &trace),
                    &format!("case {i} (outdoor truncated at {frac}, seed {seed})"),
                );
            }
        });
    }

    /// Mid-preamble starts: a receiver switched on while the object is
    /// already passing sees a stream whose first samples sit inside the
    /// preamble. Streaming and batch must again agree byte for byte.
    #[test]
    fn streaming_equals_batch_on_mid_preamble_starts() {
        let indoor = Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20);
        cases(3, 0xF3, |rng, i| {
            let seed = rng.gen::<u64>();
            let full = indoor.run(seed);
            // The indoor preamble occupies roughly the second quarter of
            // the trace; start anywhere in the first half.
            for frac in [0.18, 0.28, 0.4] {
                let skip = (full.len() as f64 * frac) as usize + (rng.gen::<u64>() % 32) as usize;
                let trace = Trace::new(full.samples()[skip..].to_vec(), full.sample_rate_hz());
                let cfg = indoor_cfg();
                assert_identical(
                    &cfg.decode(&trace),
                    &stream_adaptive(&cfg, &trace),
                    &format!("case {i} (mid-preamble start at {frac}, seed {seed})"),
                );
            }
        });
    }

    /// The honest live path: a *self-scaling* streaming decoder (no span
    /// hint, running min–max + noise gate) decodes the same payloads the
    /// batch decoder reads from the completed traces.
    #[test]
    fn self_scaling_live_decode_agrees_with_batch_payloads() {
        let indoor = Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20);
        for seed in [1u64, 7, 42, 99] {
            let trace = indoor.run(seed);
            let batch = indoor_cfg().decode(&trace).expect("indoor bench decodes");
            let mut dec = StreamingDecoder::new(indoor_cfg(), trace.sample_rate_hz());
            let mut payloads = Vec::new();
            for &x in trace.samples() {
                if let Some(DecodeEvent::Packet(p)) = dec.push(x) {
                    payloads.push(p.payload.to_string());
                }
                while let Some(ev) = dec.poll() {
                    if let DecodeEvent::Packet(p) = ev {
                        payloads.push(p.payload.to_string());
                    }
                }
            }
            for ev in dec.finish() {
                if let DecodeEvent::Packet(p) = ev {
                    payloads.push(p.payload.to_string());
                }
            }
            assert_eq!(
                payloads,
                vec![batch.payload.to_string()],
                "seed {seed}: live decode must yield exactly the batch payload"
            );
        }
    }
}

// ---------------- Channel: kernel == staged == full ----------------------

/// The tiered integrator invariant: at every tick, the table-driven
/// [`FootprintKernel`], the staged integral, and the full per-tick
/// integral agree to ≤ 1e-9 (relative), on every scenario family
/// (including the long outdoor crawl) and on the adversarial scenes
/// (overlapping objects, direction reversals, parked objects, offset
/// receiver poses) where the kernel must fall back or freeze its
/// parked aggregate. The module name predates the removal of a fourth,
/// incremental tier; it is kept so the test ids stay stable.
mod four_tier_equivalence {
    use palc_lab::core::channel::{PassiveChannel, ReceiverPose, Resolution, Scenario};
    use palc_lab::optics::source::{PointLamp, Sun};
    use palc_lab::optics::Vec3;
    use palc_lab::phy::Packet;
    use palc_lab::scene::{CarModel, Environment, MobileObject, Tag, Trajectory};
    use std::sync::Arc;

    fn packet(bits: &str) -> Packet {
        Packet::from_bits(bits).unwrap()
    }

    /// Walks every ADC tick of `sc` at `pose`, comparing all three tiers
    /// patchwise.
    fn assert_tiers_agree_at(sc: &Scenario, pose: ReceiverPose, label: &str) {
        let ch = sc.channel();
        let field =
            Arc::new(ch.static_field_at(pose).unwrap_or_else(|| panic!("{label}: separable")));
        let mut kernel = ch
            .footprint_kernel(field.clone())
            .unwrap_or_else(|| panic!("{label}: kernel-representable"));
        let fs = ch.frontend.sample_rate_hz();
        let n = (sc.duration_s() * fs).ceil() as usize;
        for i in 0..n {
            let t = i as f64 / fs;
            let tabled = kernel.illuminance(ch, t);
            let staged = ch.illuminance_staged(&field, t);
            let full = ch.illuminance_at_pose(pose, t);
            let tol = 1e-9 * full.abs().max(1.0);
            assert!(
                (tabled - staged).abs() <= tol,
                "{label}: t={t}: kernel {tabled} vs staged {staged}"
            );
            assert!((staged - full).abs() <= tol, "{label}: t={t}: staged {staged} vs full {full}");
        }
    }

    /// [`assert_tiers_agree_at`] at the channel's own origin pose.
    fn assert_origin_tiers_agree(sc: &Scenario, label: &str) {
        assert_tiers_agree_at(sc, sc.channel().pose(), label);
    }

    #[test]
    fn agrees_on_indoor_bench() {
        assert_origin_tiers_agree(&Scenario::indoor_bench(packet("10"), 0.03, 0.20), "indoor");
    }

    #[test]
    fn agrees_on_ceiling_office() {
        assert_origin_tiers_agree(&Scenario::ceiling_office(packet("10"), 0.03, 500.0), "ceiling");
    }

    #[test]
    fn agrees_on_outdoor_car() {
        let sc = Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(packet("00")),
            0.75,
            Sun::cloudy_noon(3),
        );
        assert_origin_tiers_agree(&sc, "outdoor");
    }

    #[test]
    fn agrees_on_outdoor_car_long_crawl() {
        // The 5 km/h traffic-jam crawl: the car sits inside the footprint
        // for most of the run, so nearly every tick exercises the kernel's
        // covered-column lookups rather than entry/exit edges.
        let sc = Scenario::outdoor_car_pass(
            CarModel::volvo_v40(),
            Some(packet("00")),
            0.75,
            Sun::cloudy_noon(5),
            Trajectory::Constant { speed_mps: 1.4 },
            1.0,
        );
        assert_origin_tiers_agree(&sc, "outdoor long crawl");
    }

    #[test]
    fn agrees_at_offset_receiver_poses() {
        // A receiver displaced along and across the track: pose-relative
        // geometry tables (column mappings shifted by the pose offset,
        // mirror geometry off-axis) must stay exact too.
        let sc = Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(packet("00")),
            0.75,
            Sun::cloudy_noon(4),
        );
        let z = sc.channel().receiver_z_m;
        assert_tiers_agree_at(&sc, ReceiverPose::new(1.3, 0.4, z), "offset outdoor");
        let office = Scenario::ceiling_office(packet("10"), 0.03, 500.0);
        let z = office.channel().receiver_z_m;
        assert_tiers_agree_at(&office, ReceiverPose::new(-0.28, 0.07, z), "offset ceiling");
    }

    #[test]
    fn agrees_with_same_lane_overlap() {
        // A faster cart catches up with and overtakes a slower one in the
        // same lane: apart → occluding → apart, exercising the fallback
        // ticks and the exact cache resume.
        let mut sc = Scenario::indoor_bench(packet("10"), 0.03, 0.25);
        let chaser = MobileObject::cart(
            Tag::from_packet(&packet("0"), 0.04),
            Trajectory::Constant { speed_mps: 0.18 },
        )
        .starting_at(-0.34);
        sc.channel_mut().objects.push(chaser);
        sc.calibrate_gain();
        assert_origin_tiers_agree(&sc, "same-lane overlap");
    }

    #[test]
    fn agrees_with_disjoint_lane_neighbours() {
        // Column ranges overlap but lane bands are disjoint: both objects
        // stay on the kernel tier throughout.
        let mut sc = Scenario::indoor_bench(packet("10"), 0.03, 0.25);
        let neighbour =
            MobileObject::cart(Tag::from_packet(&packet("0"), 0.05), Trajectory::indoor_bench())
                .starting_at(-0.12)
                .in_lane(0.31);
        sc.channel_mut().objects.push(neighbour);
        sc.calibrate_gain();
        assert_origin_tiers_agree(&sc, "disjoint lanes");
    }

    #[test]
    fn agrees_on_direction_reversing_shuttle() {
        let object = MobileObject::cart(
            Tag::from_packet(&packet("10"), 0.03),
            Trajectory::Shuttle { speed_mps: 0.12, span_m: 0.35 },
        )
        .starting_at(-0.20);
        let order = palc_lab::optics::photometry::lambertian_order_from_half_angle(6.0);
        let lamp = PointLamp::new(Vec3::new(0.0, 0.0, 0.25), 10.0).with_order(order);
        let receiver = palc_lab::frontend::OpticalReceiver::opt101(palc_lab::frontend::PdGain::G1);
        let sc = Scenario::custom(
            PassiveChannel {
                environment: Environment::dark_room(),
                source: Box::new(lamp),
                objects: vec![object],
                receiver_z_m: 0.25,
                frontend: palc_lab::frontend::Frontend::indoor(receiver, 0),
                resolution: Resolution { along_m: 0.004, lateral_slices: 3 },
            },
            7.0, // > one full shuttle period
        );
        assert_origin_tiers_agree(&sc, "shuttle");
    }

    #[test]
    fn agrees_on_parked_car_scene() {
        // A parked car under a drifting overcast sky: the staged tier
        // re-integrates the whole (fully covered) footprint every tick,
        // the kernel folds it into its parked aggregate once — and both must
        // match the full integral for the entire run.
        let parked =
            MobileObject::car(CarModel::bmw_3(), None, Trajectory::Constant { speed_mps: 0.0 })
                .starting_at(2.3); // centred over the receiver nadir
        let receiver_z = CarModel::bmw_3().max_height_m() + 0.75;
        let sc = Scenario::custom(
            PassiveChannel {
                environment: Environment::parking_lot(),
                source: Box::new(Sun::cloudy_noon(8)),
                objects: vec![parked],
                receiver_z_m: receiver_z,
                frontend: palc_lab::frontend::Frontend::outdoor(
                    palc_lab::frontend::OpticalReceiver::rx_led(),
                    0,
                ),
                resolution: Resolution { along_m: 0.02, lateral_slices: 5 },
            },
            1.5,
        );
        assert_origin_tiers_agree(&sc, "parked car");
    }
}

// ---------------- Fleet scaling: indexed vs unindexed tiers ---------------

/// The scaling layer's exactness contract: the kernel's build-time
/// culling, parked aggregate, event queue and interned tables are pure
/// work-avoidance — on thousand-object fleets and on adversarial
/// geometries (everything in one lane band, objects straddling the index
/// window boundary, movers crossing a frozen cluster) every tick must
/// match the unindexed tiers to ≤ 1e-9.
mod fleet_scaling {
    use palc_lab::core::channel::{ReceiverPose, Scenario};
    use palc_lab::phy::Packet;
    use palc_lab::scene::{CarModel, MobileObject, Tag, Trajectory};
    use std::sync::Arc;

    fn packet(bits: &str) -> Packet {
        Packet::from_bits(bits).unwrap()
    }

    /// Three-tier agreement on every `stride`-th ADC tick at `pose` —
    /// fleet scenes are too large to walk the full per-tick reference
    /// densely, and the kernel's event cursor only needs monotone time.
    fn assert_tiers_agree_sparse_at(sc: &Scenario, pose: ReceiverPose, stride: usize, label: &str) {
        let ch = sc.channel();
        let field =
            Arc::new(ch.static_field_at(pose).unwrap_or_else(|| panic!("{label}: separable")));
        let mut kernel = ch
            .footprint_kernel(field.clone())
            .unwrap_or_else(|| panic!("{label}: kernel-representable"));
        let fs = ch.frontend.sample_rate_hz();
        let n = (sc.duration_s() * fs).ceil() as usize;
        for i in (0..n).step_by(stride) {
            let t = i as f64 / fs;
            let tabled = kernel.illuminance(ch, t);
            let staged = ch.illuminance_staged(&field, t);
            let full = ch.illuminance_at_pose(pose, t);
            let tol = 1e-9 * full.abs().max(1.0);
            assert!(
                (tabled - staged).abs() <= tol,
                "{label}: t={t}: kernel {tabled} vs staged {staged}"
            );
            assert!((staged - full).abs() <= tol, "{label}: t={t}: staged {staged} vs full {full}");
        }
    }

    fn assert_tiers_agree_sparse(sc: &Scenario, stride: usize, label: &str) {
        assert_tiers_agree_sparse_at(sc, sc.channel().pose(), stride, label);
    }

    #[test]
    fn parking_structure_1000_objects_indexed_matches_unindexed() {
        let sc = Scenario::parking_structure(1000, 3, Some(packet("10")));
        let stats = sc.sampler(0).kernel_stats().expect("kernel stats");
        assert!(stats.objects_culled > 900, "index must prune the far rows: {stats:?}");
        assert_tiers_agree_sparse(&sc, 457, "parking 1000");
    }

    #[test]
    fn highway_multilane_indexed_matches_unindexed() {
        // Every object transits the footprint: the event queue (not
        // culling) carries the whole scaling load here.
        let sc = Scenario::highway_multilane(300, Some(packet("10")));
        let stats = sc.sampler(0).kernel_stats().expect("kernel stats");
        assert_eq!(stats.objects_culled, 0, "{stats:?}");
        assert!(stats.tables_interned > stats.tables_built, "{stats:?}");
        assert_tiers_agree_sparse(&sc, 457, "highway 300");
    }

    #[test]
    fn fleet_agrees_at_offset_receiver_pose() {
        // The index is built per pose: a displaced receiver culls a
        // *different* neighbourhood and must stay exact there.
        let sc = Scenario::parking_structure(120, 2, Some(packet("10")));
        let z = sc.channel().receiver_z_m;
        assert_tiers_agree_sparse_at(&sc, ReceiverPose::new(2.6, 0.3, z), 229, "offset fleet");
    }

    #[test]
    fn mover_crossing_a_frozen_single_lane_cluster() {
        // Adversarial: every object in ONE lane band. Parked tags spaced
        // along lane 0 form a frozen cluster; a mover drives straight
        // through, so its span enters and leaves each parked object's
        // columns in turn — the mover–parked overlap fallback must fire
        // exactly while they overlap and hand back to the fast path in
        // between, bit-exact throughout.
        let mut sc = Scenario::indoor_bench(packet("10"), 0.03, 0.25);
        for k in 0..4 {
            let parked = MobileObject::cart(
                Tag::from_packet(&packet("0"), 0.04),
                Trajectory::Constant { speed_mps: 0.0 },
            )
            .starting_at(-0.15 + 0.16 * k as f64)
            .at_height(0.015);
            sc.channel_mut().objects.push(parked);
        }
        sc.calibrate_gain();
        let stats = sc.sampler(0).kernel_stats().expect("kernel stats");
        assert_eq!(stats.objects_parked + stats.objects_movers + stats.objects_culled, 5);
        assert_tiers_agree_sparse(&sc, 1, "single-lane cluster");
    }

    #[test]
    fn overlapping_parked_cluster_serves_every_tick_staged() {
        // Adversarial: two parked tags overlap in both columns and lane
        // band, a conflict that never clears — the kernel must detect it
        // at build time and serve the whole run from the staged tier,
        // still within tolerance of every other tier.
        let mut sc = Scenario::indoor_bench(packet("10"), 0.03, 0.25);
        for start in [0.05, 0.09] {
            let parked = MobileObject::cart(
                Tag::from_packet(&packet("0"), 0.04),
                Trajectory::Constant { speed_mps: 0.0 },
            )
            .starting_at(start)
            .at_height(0.015);
            sc.channel_mut().objects.push(parked);
        }
        sc.calibrate_gain();
        assert_tiers_agree_sparse(&sc, 1, "overlapping parked cluster");
    }

    #[test]
    fn objects_straddling_the_index_window_boundary() {
        // Adversarial: parked cars placed right at the footprint
        // window's edges — just inside (kept, near-zero tables) and
        // clearly outside (culled) — plus the culled-count bookkeeping.
        let mut sc = Scenario::parking_structure(5, 1, Some(packet("10")));
        let z = sc.channel().receiver_z_m;
        let r = sc.channel().frontend.receiver.fov().footprint_radius(z);
        let len = CarModel::volvo_v40().length_m();
        let lane = 1.95;
        let edge = r + 2.0 * 0.05; // grid r_max + the build-time margin
        let straddlers = [
            // Leading edge a hair inside the near boundary.
            (-(edge) + 0.01, lane),
            // Trailing edge a hair inside the far boundary.
            (edge + len - 0.01, lane),
            // Fully beyond the far boundary: must be culled.
            (edge + len + 0.5, -lane),
        ];
        for (start, y) in straddlers {
            let car = MobileObject::car(
                CarModel::volvo_v40(),
                None,
                Trajectory::Constant { speed_mps: 0.0 },
            )
            .starting_at(start)
            .in_lane(y);
            sc.channel_mut().objects.push(car);
        }
        sc.calibrate_gain();
        let stats = sc.sampler(0).kernel_stats().expect("kernel stats");
        assert!(stats.objects_culled >= 1, "the fully-outside car must be culled: {stats:?}");
        assert_tiers_agree_sparse(&sc, 23, "window straddlers");
    }
}

// ---------------- Receiver arrays: shards == serial, fusion ---------------

/// The sharding invariants: a multi-receiver array run fans one scene's
/// shared objects across workers, and each shard's decode is
/// byte-identical to the same receiver simulated serially; staggered
/// poses see the pass at different times, and the online fusion layer
/// still resolves one event with one *distinct* vote per receiver.
mod receiver_arrays {
    use palc_lab::core::channel::{PassiveChannel, ReceiverPose, Resolution, Scenario};
    use palc_lab::core::decode::AdaptiveDecoder;
    use palc_lab::core::fusion::FusionCenter;
    use palc_lab::core::stream::{DecodeEvent, StreamingTwoPhase};
    use palc_lab::core::sweep::{ArrayOutcome, ArrayReceiver, SweepRunner};
    use palc_lab::core::vehicle::TwoPhaseDecoder;
    use palc_lab::optics::source::Sun;
    use palc_lab::phy::Packet;
    use palc_lab::scene::{CarModel, Environment, MobileObject, Tag, Trajectory};

    /// The Sec. 5 vehicular link: one car pass shared by a gantry of
    /// receivers running two-phase shards.
    fn outdoor() -> Scenario {
        Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(Packet::from_bits("00").unwrap()),
            0.75,
            Sun::cloudy_noon(5),
        )
    }

    /// Distinct staggered gantry poses over the car lane: one across the
    /// lane, one on-axis, two downstream (the last well past the base
    /// scenario's duration, so shard-duration stretching is exercised).
    fn gantry(z: f64) -> [ReceiverPose; 4] {
        [
            ReceiverPose::new(0.0, -0.35, z),
            ReceiverPose::origin(z),
            ReceiverPose::new(1.2, 0.35, z),
            ReceiverPose::new(2.5, 0.0, z),
        ]
    }

    /// An RX-LED line of sky-lit readers (the paper's Fig. 17 receiver,
    /// outdoors under a uniform overcast sky): a tag cart rolls past
    /// three staggered narrow-FoV receivers, each seeing the pass
    /// seconds apart — the adaptive-decoder convenience path.
    fn sky_readers() -> Scenario {
        let tag = Tag::from_packet(&Packet::from_bits("10").unwrap(), 0.04);
        let len = tag.length_m();
        let object =
            MobileObject::cart(tag, Trajectory::Constant { speed_mps: 0.25 }).starting_at(-0.15);
        let duration = (len + 0.9) / 0.25 + 0.2;
        let receiver = palc_lab::frontend::OpticalReceiver::rx_led();
        let frontend = palc_lab::frontend::Frontend::indoor(receiver, 0);
        Scenario::custom(
            PassiveChannel {
                environment: Environment::parking_lot(),
                source: Box::new(Sun::cloudy_noon(6)),
                objects: vec![object],
                receiver_z_m: 0.35,
                frontend,
                resolution: Resolution { along_m: 0.005, lateral_slices: 3 },
            },
            duration,
        )
    }

    /// Byte-level equality of two shard event logs: same events at the
    /// same stream times, packets identical down to the calibration bits.
    fn assert_events_identical(a: &ArrayOutcome, b: &ArrayOutcome, label: &str) {
        assert_eq!(a.events.len(), b.events.len(), "{label}: event count");
        for (i, (x, y)) in a.events.iter().zip(&b.events).enumerate() {
            assert_eq!(x.time_s.to_bits(), y.time_s.to_bits(), "{label}: event {i} time");
            match (&x.event, &y.event) {
                (DecodeEvent::Packet(p), DecodeEvent::Packet(q)) => {
                    assert_eq!(p.symbols, q.symbols, "{label}: event {i} symbols");
                    assert_eq!(p.payload, q.payload, "{label}: event {i} payload");
                    for (u, v, f) in [
                        (p.tau_r, q.tau_r, "tau_r"),
                        (p.tau_t, q.tau_t, "tau_t"),
                        (p.threshold_level, q.threshold_level, "threshold_level"),
                    ] {
                        assert_eq!(u.to_bits(), v.to_bits(), "{label}: event {i} {f}");
                    }
                }
                (ev_a, ev_b) => {
                    assert_eq!(format!("{ev_a:?}"), format!("{ev_b:?}"), "{label}: event {i} kind");
                }
            }
        }
    }

    #[test]
    fn sharded_array_equals_per_receiver_serial_runs() {
        let sc = outdoor();
        let z = sc.channel().receiver_z_m;
        let receivers: Vec<ArrayReceiver> = gantry(z)
            .iter()
            .enumerate()
            .map(|(i, &pose)| ArrayReceiver { id: i as u32, pose, seed: i as u64 })
            .collect();
        let fs = sc.channel().frontend.sample_rate_hz();
        let mk = |_: &ArrayReceiver| {
            StreamingTwoPhase::new(TwoPhaseDecoder::new(CarModel::volvo_v40(), 0.10, 2), fs)
        };
        let run =
            sc.run_array_streaming_on(&SweepRunner::new(), &receivers, FusionCenter::default(), mk);
        assert_eq!(run.outcomes.len(), receivers.len());
        for (rx, outcome) in receivers.iter().zip(&run.outcomes) {
            assert_eq!(outcome.receiver, *rx, "outcomes keep input order");
            let serial = sc.run_shard(*rx, mk(rx));
            assert_events_identical(outcome, &serial, &format!("receiver {}", rx.id));
            let n: usize = outcome.packets().count();
            assert!(n >= 1, "receiver {} at {:?} must decode the pass", rx.id, rx.pose);
            assert!(
                outcome.packets().all(|p| p.payload.to_string() == "00"),
                "receiver {} payload",
                rx.id
            );
        }
        // Downstream receivers see the pass later, in pose order.
        let first_detection =
            |o: &ArrayOutcome| o.detections().next().map(|d| d.time_s).expect("decoded");
        let t_origin = first_detection(&run.outcomes[1]);
        let t_mid = first_detection(&run.outcomes[2]);
        let t_far = first_detection(&run.outcomes[3]);
        assert!(
            t_origin < t_mid && t_mid < t_far,
            "stagger must order detections: {t_origin} {t_mid} {t_far}"
        );
        // One pass, one fused event, one vote per distinct receiver.
        assert_eq!(run.fused.len(), 1);
        assert_eq!(run.fused[0].payload.to_string(), "00");
        assert_eq!(run.fused[0].receivers, 4);
    }

    #[test]
    fn staggered_array_fuses_one_event_with_distinct_receivers() {
        let sc = sky_readers();
        let z = sc.channel().receiver_z_m;
        let poses = [
            ReceiverPose::new(0.0, -0.05, z),
            ReceiverPose::new(0.3, 0.0, z),
            ReceiverPose::new(0.62, 0.06, z),
        ];
        let cfg = AdaptiveDecoder::default().with_expected_bits(2);
        // The window must cover the pass's full ~2.5 s stagger across
        // the poses (the documented contract): detections reach the
        // online fusion stream in cross-thread arrival order, so a
        // window smaller than the stagger could fragment the pass
        // depending on worker scheduling.
        let run = sc.run_array_streaming(
            &poses,
            &cfg,
            FusionCenter { window_s: 4.0, ..FusionCenter::default() },
        );
        assert_eq!(
            run.fused.len(),
            1,
            "one pass, one fused event (got {:?})",
            run.fused.iter().map(|e| (e.payload.to_string(), e.time_s)).collect::<Vec<_>>()
        );
        let event = &run.fused[0];
        assert_eq!(event.payload.to_string(), "10");
        assert_eq!(event.receivers, 3, "distinct receivers, not detection count");
        assert_eq!(event.agreeing, 3);
        // The stagger is real: 0.62 m at 0.25 m/s is ~2.5 s of spread
        // between the first and last receiver's view of the same pass.
        let times: Vec<f64> = run
            .outcomes
            .iter()
            .flat_map(|o| o.detections().map(|d| d.time_s).collect::<Vec<_>>())
            .collect();
        let (lo, hi) = times.iter().fold((f64::MAX, f64::MIN), |(l, h), &t| (l.min(t), h.max(t)));
        assert!(
            hi - lo > 2.0,
            "staggered poses must detect the pass at different times: spread {}",
            hi - lo
        );
    }
}

// ---------------- Channel: streaming == batch ----------------------------

/// The tentpole invariant: for any seed, the streaming `ChannelSampler`
/// produces the batch `Scenario::run` output sample for sample, across
/// all three paper scenario families (static lamp, mains-flicker ceiling
/// panel, drifting overcast sun).
#[test]
fn streamed_output_equals_batch_run_across_scenarios() {
    use palc_lab::core::channel::Scenario;
    use palc_lab::optics::source::Sun;
    use palc_lab::phy::Packet;
    use palc_lab::scene::CarModel;

    let scenarios: Vec<(&str, Scenario)> = vec![
        ("indoor_bench", Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20)),
        ("ceiling_office", Scenario::ceiling_office(Packet::from_bits("10").unwrap(), 0.03, 500.0)),
        (
            "outdoor_car",
            Scenario::outdoor_car(
                CarModel::volvo_v40(),
                Some(Packet::from_bits("00").unwrap()),
                0.75,
                Sun::cloudy_noon(1),
            ),
        ),
    ];
    cases(4, 0xE1, |rng, i| {
        let seed = rng.gen::<u64>();
        for (name, sc) in &scenarios {
            let batch = sc.run(seed);
            let streamed: Vec<f64> = sc.sampler(seed).collect();
            assert_eq!(
                batch.samples(),
                &streamed[..],
                "case {i} ({name}, seed {seed}): streamed != batch"
            );
        }
    });
}

// ---------------- Impairments: structure, determinism, conformance --------

mod impairments {
    use super::cases;
    use palc_lab::core::channel::Scenario;
    use palc_lab::core::decode::AdaptiveDecoder;
    use palc_lab::core::impair::{BurstNoise, Dropout, ImpairmentStack, Interference, Jitter};
    use palc_lab::core::stream::{DecodeEvent, StreamingDecoder, StreamingTwoPhase};
    use palc_lab::core::vehicle::TwoPhaseDecoder;
    use palc_lab::optics::source::Sun;
    use palc_lab::phy::Packet;
    use palc_lab::scene::CarModel;
    use rand::Rng;

    fn indoor() -> Scenario {
        Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20)
    }

    fn outdoor() -> Scenario {
        Scenario::outdoor_car(
            CarModel::volvo_v40(),
            Some(Packet::from_bits("00").unwrap()),
            0.75,
            Sun::cloudy_noon(1),
        )
    }

    /// A representative non-trivial stack: one layer of every kind, on
    /// top of the scenario's own clean swing.
    fn full_stack(sc: &Scenario) -> ImpairmentStack {
        let (lo, hi) = sc.run_clean().minmax();
        let swing = hi - lo;
        let rival = Scenario::indoor_bench(Packet::from_bits("01").unwrap(), 0.05, 0.20);
        ImpairmentStack::clean()
            .with(Interference::from_scenario(&rival, 0.1 * swing))
            .with(BurstNoise::with_severity(0.5, swing))
            .with(Dropout::with_severity(0.5))
            .with(Jitter::with_severity(0.5, 94.0))
    }

    /// The identity stack leaves a real channel stream byte-identical:
    /// `run_impaired` with no layers IS `run` — same noise draws, same
    /// order, no resampling.
    #[test]
    fn identity_stack_is_byte_identical_on_the_real_channel() {
        let sc = indoor();
        cases(4, 0xA70, |rng, i| {
            let seed = rng.gen::<u64>();
            let plain = sc.run(seed);
            let stacked = sc.run_impaired(seed, &ImpairmentStack::clean());
            assert_eq!(plain.samples(), stacked.samples(), "case {i} seed {seed}");
        });
    }

    /// Severity 0 of every layer is a structural no-op, so a stack of
    /// them is still the identity — not merely "small" perturbations.
    #[test]
    fn severity_zero_stack_is_a_noop_on_the_real_channel() {
        let sc = indoor();
        let stack = ImpairmentStack::clean()
            .with(BurstNoise::with_severity(0.0, 100.0))
            .with(Dropout::with_severity(0.0))
            .with(Jitter::with_severity(0.0, 94.0));
        assert!(stack.is_noop());
        cases(3, 0xA71, |rng, i| {
            let seed = rng.gen::<u64>();
            assert_eq!(
                sc.run(seed).samples(),
                sc.run_impaired(seed, &stack).samples(),
                "case {i} seed {seed}"
            );
        });
    }

    /// One seed, one output: the full stack re-applied to the same
    /// scenario and seed reproduces itself bit for bit, and a different
    /// seed diverges (the layers actually draw from their RNGs).
    #[test]
    fn same_seed_reproduces_different_seed_diverges() {
        let sc = indoor();
        let stack = full_stack(&sc);
        cases(3, 0xA72, |rng, i| {
            let seed = rng.gen::<u64>();
            let a = sc.run_impaired(seed, &stack);
            let b = sc.run_impaired(seed, &stack);
            assert_eq!(a.samples(), b.samples(), "case {i} seed {seed}: not reproducible");
            let c = sc.run_impaired(seed ^ 1, &stack);
            assert_ne!(a.samples(), c.samples(), "case {i} seed {seed}: seed ignored");
        });
    }

    /// Dropout on a strictly increasing probe stream never reorders:
    /// hold-last erasures repeat values but the output stays
    /// non-decreasing, and every output value appeared in the input.
    #[test]
    fn dropout_never_reorders_a_monotone_stream() {
        cases(4, 0xA73, |rng, i| {
            let n = 4000usize;
            let probe: Vec<f64> = (0..n).map(|k| k as f64).collect();
            let stack =
                ImpairmentStack::clean().with(Dropout::with_severity(rng.gen_range(0.1..1.0)));
            let out = stack.apply_slice(rng.gen::<u64>(), &probe);
            assert_eq!(out.len(), n, "case {i}: length changed");
            for w in out.windows(2) {
                assert!(w[1] >= w[0], "case {i}: reordered: {} then {}", w[0], w[1]);
            }
            assert!(out.iter().all(|v| v.fract() == 0.0 && *v >= 0.0 && *v < n as f64));
        });
    }

    /// Jitter displaces every sample strictly less than its window, and
    /// the output is a permutation of the input (an index probe makes
    /// both checks exact).
    #[test]
    fn jitter_displacement_is_bounded_by_the_window() {
        cases(4, 0xA74, |rng, i| {
            let n = 3000usize;
            let window = rng.gen_range(2..80usize);
            let probe: Vec<f64> = (0..n).map(|k| k as f64).collect();
            let stack = ImpairmentStack::clean().with(Jitter { window });
            let out = stack.apply_slice(rng.gen::<u64>(), &probe);
            assert_eq!(out.len(), n, "case {i}: length changed");
            let mut seen = vec![false; n];
            for (pos, v) in out.iter().enumerate() {
                let orig = *v as usize;
                assert!(
                    pos.abs_diff(orig) < window,
                    "case {i}: sample {orig} moved to {pos}, window {window}"
                );
                assert!(!seen[orig], "case {i}: sample {orig} duplicated");
                seen[orig] = true;
            }
        });
    }

    /// Satellite conformance: under every impairment kind, the streaming
    /// decoders still agree with their batch twins event for event —
    /// same packets, same payloads, in the same order. The impairment
    /// layer sits before the decoder, so both paths see identical
    /// samples and must stay bit-compatible no matter how mangled the
    /// stream is.
    #[test]
    fn streaming_equals_batch_under_every_impairment_kind() {
        let indoor = indoor();
        let outdoor = outdoor();
        let indoor_swing = {
            let (lo, hi) = indoor.run_clean().minmax();
            hi - lo
        };
        let outdoor_swing = {
            let (lo, hi) = outdoor.run_clean().minmax();
            hi - lo
        };
        let rival = Scenario::indoor_bench(Packet::from_bits("01").unwrap(), 0.05, 0.20);
        type MakeStack = fn(f64, f64, &Scenario) -> ImpairmentStack;
        let kinds: Vec<(&str, f64, MakeStack)> = vec![
            ("burst_noise", indoor_swing, |sev, swing, _| {
                ImpairmentStack::clean().with(BurstNoise::with_severity(sev, swing))
            }),
            ("interference", indoor_swing, |sev, swing, rival| {
                ImpairmentStack::clean().with(Interference::from_scenario(rival, sev * swing))
            }),
            ("dropout", indoor_swing, |sev, _, _| {
                ImpairmentStack::clean().with(Dropout::with_severity(sev))
            }),
            ("jitter", indoor_swing, |sev, _, _| {
                ImpairmentStack::clean().with(Jitter::with_severity(sev, 94.0))
            }),
        ];
        cases(2, 0xA75, |rng, i| {
            let seed = rng.gen::<u64>();
            let sev = rng.gen_range(0.2..1.0);
            for (kind, _, make) in &kinds {
                // Indoor: adaptive batch vs streaming, full event parity.
                let stack = make(sev, indoor_swing, &rival);
                let trace = indoor.run_impaired(seed, &stack);
                let cfg = AdaptiveDecoder::default().with_expected_bits(2);
                let batch = cfg.decode(&trace);
                let (lo, hi) = trace.minmax();
                let mut dec =
                    StreamingDecoder::with_scale(cfg.clone(), trace.sample_rate_hz(), lo, hi);
                let events =
                    palc_lab::core::stream::drain_events(&mut dec, trace.samples(), |_| false);
                let streamed: Vec<_> = events
                    .iter()
                    .filter_map(|ev| match ev {
                        DecodeEvent::Packet(p) => Some(Ok(p.clone())),
                        DecodeEvent::Reject(e) => Some(Err(e.clone())),
                        _ => None,
                    })
                    .collect();
                match (&batch, streamed.first()) {
                    (Ok(b), Some(Ok(s))) => {
                        assert_eq!(b.symbols, s.symbols, "case {i} {kind} seed {seed}");
                        assert_eq!(b.payload, s.payload, "case {i} {kind} seed {seed}");
                        assert_eq!(
                            b.tau_t.to_bits(),
                            s.tau_t.to_bits(),
                            "case {i} {kind} seed {seed}"
                        );
                    }
                    (Err(b), Some(Err(s))) => {
                        assert_eq!(b, s, "case {i} {kind} seed {seed}: errors differ")
                    }
                    (b, s) => {
                        panic!("case {i} {kind} seed {seed}: batch {b:?} vs streamed {s:?}")
                    }
                }

                // Outdoor: the two-phase pair, first terminal event.
                let stack = make(sev, outdoor_swing, &rival);
                let trace = outdoor.run_impaired(seed, &stack);
                let cfg = TwoPhaseDecoder::new(CarModel::volvo_v40(), 0.10, 2);
                let batch = cfg.decode(&trace);
                let (lo, hi) = trace.minmax();
                let mut dec =
                    StreamingTwoPhase::with_scale(cfg.clone(), trace.sample_rate_hz(), lo, hi);
                let events =
                    palc_lab::core::stream::drain_events(&mut dec, trace.samples(), |_| false);
                let streamed = events.iter().find_map(|ev| match ev {
                    DecodeEvent::Packet(p) => Some(Ok(p.clone())),
                    DecodeEvent::Reject(e) => Some(Err(e.clone())),
                    _ => None,
                });
                match (&batch, &streamed) {
                    (Ok(b), Some(Ok(s))) => {
                        assert_eq!(b.symbols, s.symbols, "case {i} {kind} outdoor seed {seed}");
                        assert_eq!(b.payload, s.payload, "case {i} {kind} outdoor seed {seed}");
                    }
                    (Err(b), Some(Err(s))) => {
                        assert_eq!(b, s, "case {i} {kind} outdoor seed {seed}")
                    }
                    (b, s) => {
                        panic!("case {i} {kind} outdoor seed {seed}: batch {b:?} vs streamed {s:?}")
                    }
                }
            }
        });
    }

    /// The erasure-run crash regression: a dropout-stretched τt used to
    /// put the first post-lock symbol window before the smoothed
    /// history's retained base, panicking `SmoothBuf::get`. The exact
    /// trace that found it must decode (to anything) without panicking.
    #[test]
    fn streaming_decoder_survives_long_erasure_runs() {
        let sc = Scenario::ceiling_office(Packet::from_bits("10").unwrap(), 0.03, 500.0);
        let stack = ImpairmentStack::clean().with(Dropout::with_severity(0.5));
        let cfg = AdaptiveDecoder { smooth_window_s: 0.012, ..AdaptiveDecoder::default() }
            .with_expected_bits(2);
        for seed in 0..4u64 {
            let trace = sc.run_impaired(seed, &stack);
            let mut dec = StreamingDecoder::new(cfg.clone(), trace.sample_rate_hz());
            let events = palc_lab::core::stream::drain_events(&mut dec, trace.samples(), |_| false);
            assert!(!events.is_empty(), "seed {seed}: stream produced no events at all");
        }
    }
}

// ---------------- Decode server: replay, determinism, quarantine ----------

mod decode_server {
    use super::*;
    use palc_lab::core::channel::Scenario;
    use palc_lab::core::decode::AdaptiveDecoder;
    use palc_lab::core::server::{DecodeServer, ServerConfig, SessionConfig, SessionEvent};
    use palc_lab::core::stream::{DecodeEvent, PushDecoder, StreamingDecoder};

    fn indoor() -> Scenario {
        Scenario::indoor_bench(Packet::from_bits("10").unwrap(), 0.03, 0.20)
    }

    fn decoder() -> AdaptiveDecoder {
        AdaptiveDecoder::default().with_expected_bits(2)
    }

    /// An event stream collapsed to comparable atoms: the timestamp's
    /// exact bit pattern plus the event's full debug rendering — if two
    /// streams agree on this they agree byte-identically.
    fn fingerprint(events: &[SessionEvent]) -> Vec<(u64, String)> {
        events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Decode(te) => Some((te.time_s.to_bits(), format!("{:?}", te.event))),
                _ => None,
            })
            .collect()
    }

    /// Feeds one session in rng-sized chunks and drains it.
    fn feed_in_chunks(
        server: &DecodeServer,
        id: palc_lab::core::server::SessionId,
        samples: &[f64],
        rng: &mut StdRng,
    ) -> Vec<SessionEvent> {
        let mut offset = 0;
        while offset < samples.len() {
            let take = rng.gen_range(1..700).min(samples.len() - offset);
            server.feed_samples(id, &samples[offset..offset + take]).unwrap();
            offset += take;
        }
        server.close_and_drain(id).unwrap()
    }

    /// A single-session server replays `run_streaming` byte-identically:
    /// the same events with the same `f64` timestamps, regardless of how
    /// the samples were chunked across feed calls.
    #[test]
    fn single_session_replays_run_streaming_byte_identically() {
        let sc = indoor();
        let fs = sc.channel().frontend.sample_rate_hz();
        let seed = 7u64;
        let trace = sc.run(seed);
        let reference: Vec<(u64, String)> = sc.run_streaming(&[seed], &decoder())[0]
            .events
            .iter()
            .map(|te| (te.time_s.to_bits(), format!("{:?}", te.event)))
            .collect();
        assert!(
            reference.iter().any(|(_, e)| e.starts_with("Packet")),
            "reference stream must decode a packet"
        );
        cases(4, 0xD1, |rng, i| {
            let server = DecodeServer::new(ServerConfig::default().with_workers(2));
            let id =
                server.create_session(StreamingDecoder::new(decoder(), fs), SessionConfig::new(fs));
            let events = feed_in_chunks(&server, id, trace.samples(), rng);
            assert_eq!(fingerprint(&events), reference, "case {i}: replay diverged");
        });
    }

    /// N sessions fed the same samples produce identical per-session
    /// event streams no matter how the feeds interleave or how many
    /// workers serve them.
    #[test]
    fn session_streams_deterministic_under_interleaving() {
        let sc = indoor();
        let fs = sc.channel().frontend.sample_rate_hz();
        let trace = sc.run(3);
        let reference = {
            let server = DecodeServer::new(ServerConfig::default().with_workers(1));
            let id =
                server.create_session(StreamingDecoder::new(decoder(), fs), SessionConfig::new(fs));
            server.feed_samples(id, trace.samples()).unwrap();
            fingerprint(&server.close_and_drain(id).unwrap())
        };
        cases(3, 0xD2, |rng, i| {
            let workers = rng.gen_range(1..5);
            let server = DecodeServer::new(ServerConfig::default().with_workers(workers));
            let ids: Vec<_> = (0..4)
                .map(|_| {
                    server.create_session(
                        StreamingDecoder::new(decoder(), fs),
                        SessionConfig::new(fs),
                    )
                })
                .collect();
            // Interleave: walk the trace in chunks, feeding the sessions
            // in a shuffled order each round.
            let mut offset = 0;
            while offset < trace.samples().len() {
                let take = rng.gen_range(1..600).min(trace.samples().len() - offset);
                let mut order: Vec<usize> = (0..ids.len()).collect();
                for k in (1..order.len()).rev() {
                    order.swap(k, rng.gen_range(0..k + 1));
                }
                for &s in &order {
                    server.feed_samples(ids[s], &trace.samples()[offset..offset + take]).unwrap();
                }
                offset += take;
            }
            for (s, &id) in ids.iter().enumerate() {
                let events = server.close_and_drain(id).unwrap();
                assert_eq!(
                    fingerprint(&events),
                    reference,
                    "case {i}: session {s} of {workers}-worker server diverged"
                );
            }
        });
    }

    /// A decoder that panics partway through the stream.
    struct PanicAt {
        inner: StreamingDecoder,
        left: usize,
    }

    impl PushDecoder for PanicAt {
        fn push_sample(&mut self, sample: f64) -> Option<DecodeEvent> {
            assert!(self.left > 0, "property-injected decoder panic");
            self.left -= 1;
            self.inner.push_sample(sample)
        }
        fn poll_event(&mut self) -> Option<DecodeEvent> {
            self.inner.poll_event()
        }
        fn finish_stream(&mut self) -> Vec<DecodeEvent> {
            self.inner.finish_stream()
        }
    }

    /// A quarantined session's fault never perturbs its siblings: their
    /// streams stay byte-identical to a solo run, wherever the panic
    /// lands in the stream.
    #[test]
    fn quarantined_faults_never_perturb_siblings() {
        let sc = indoor();
        let fs = sc.channel().frontend.sample_rate_hz();
        let trace = sc.run(5);
        let reference = {
            let server = DecodeServer::new(ServerConfig::default().with_workers(1));
            let id =
                server.create_session(StreamingDecoder::new(decoder(), fs), SessionConfig::new(fs));
            server.feed_samples(id, trace.samples()).unwrap();
            fingerprint(&server.close_and_drain(id).unwrap())
        };
        cases(4, 0xD3, |rng, i| {
            let server = DecodeServer::new(ServerConfig::default().with_workers(2));
            let bad = server.create_session(
                PanicAt {
                    inner: StreamingDecoder::new(decoder(), fs),
                    left: rng.gen_range(1..trace.samples().len()),
                },
                SessionConfig::new(fs),
            );
            let good: Vec<_> = (0..3)
                .map(|_| {
                    server.create_session(
                        StreamingDecoder::new(decoder(), fs),
                        SessionConfig::new(fs),
                    )
                })
                .collect();
            let mut offset = 0;
            while offset < trace.samples().len() {
                let take = rng.gen_range(1..500).min(trace.samples().len() - offset);
                let chunk = &trace.samples()[offset..offset + take];
                let _ = server.feed_samples(bad, chunk); // rejected once faulted
                for &id in &good {
                    server.feed_samples(id, chunk).unwrap();
                }
                offset += take;
            }
            for (s, &id) in good.iter().enumerate() {
                let events = server.close_and_drain(id).unwrap();
                assert_eq!(fingerprint(&events), reference, "case {i}: sibling {s} perturbed");
            }
            let fault = server.close_and_drain(bad).unwrap();
            assert!(
                matches!(fault.last(), Some(SessionEvent::SessionFault { .. })),
                "case {i}: faulted session must end in SessionFault, got {:?}",
                fault.last()
            );
        });
    }
}
