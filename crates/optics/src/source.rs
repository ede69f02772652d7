//! Ambient light sources.
//!
//! The paper evaluates with three emitters (Sec. 4): an LED lamp (dark-room
//! experiments, Figs. 5–6), office ceiling lights on mains power (Fig. 7,
//! whose AC ripple shows as "thicker lines"), and the sun (Sec. 5). A
//! source answers two questions:
//!
//! 1. **How much light lands on a ground point at time t?** —
//!    [`LightSource::illuminance_at`], in lux. Time matters: mains ripple
//!    at 100 Hz, cloud drift over seconds.
//! 2. **From which direction?** — [`LightSource::direction_from`], used by
//!    the specular term of the material model (an aluminium strip under an
//!    off-axis lamp does not bounce the lobe into the receiver).
//!
//! All sources also expose their spectral power distribution, which the
//! frontend folds with the receiver's spectral response (Sec. 4.4).

use crate::geometry::Vec3;
use crate::photometry::lambertian_illuminance;
use crate::spectrum::Spectrum;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An unmodulated ambient light source.
pub trait LightSource {
    /// Illuminance (lux) this source produces on a horizontal surface at
    /// `point` at time `t` seconds.
    fn illuminance_at(&self, point: Vec3, t: f64) -> f64;

    /// Unit direction *from `point` towards* the (dominant) source, or
    /// `None` for fully diffuse skylight. Drives specular reflection.
    fn direction_from(&self, point: Vec3) -> Option<Vec3>;

    /// Relative spectral power distribution of the emitted light.
    fn spectrum(&self) -> &Spectrum;

    /// A short human-readable label for logs and repro output.
    fn label(&self) -> &str;

    /// Whether [`LightSource::illuminance_at`] is independent of `t`
    /// (a DC lamp, a clear-sky sun). Time-invariant sources let the
    /// channel simulator integrate their entire ground footprint **once**
    /// per scene instead of once per ADC tick.
    fn is_time_invariant(&self) -> bool {
        false
    }

    /// The source's multiplicative flicker/drift envelope at time `t`,
    /// when its field factorises as
    /// `illuminance_at(p, t) = profile(p) × envelope(t)`
    /// with a purely spatial `profile` — mains ripple on a ceiling panel,
    /// cloud drift under an overcast sky. Returns `None` when no such
    /// factorisation exists (e.g. a composite of sources flickering out of
    /// phase), which forces consumers back onto the full per-tick
    /// integral.
    ///
    /// Contract: for any two times `t`, `u` and any point `p`,
    /// `illuminance_at(p, t) · envelope(u) == illuminance_at(p, u) · envelope(t)`
    /// (up to float rounding), and the envelope is strictly positive.
    fn flicker_envelope(&self, t: f64) -> Option<f64> {
        let _ = t;
        if self.is_time_invariant() {
            Some(1.0)
        } else {
            None
        }
    }
}

/// A Lambertian point source: the paper's LED lamp.
///
/// DC-driven (the paper's lamp shows no ripple in Fig. 5), placed close to
/// the workplane (20–55 cm in the Fig. 6 sweep).
#[derive(Debug, Clone)]
pub struct PointLamp {
    /// Lamp position; emits downward.
    pub position: Vec3,
    /// On-axis luminous intensity, candela.
    pub intensity_cd: f64,
    /// Lambertian mode number (1 = 60° half-power angle).
    pub order: f64,
    spectrum: Spectrum,
}

impl PointLamp {
    /// A lamp at `position` with the given intensity and a typical wide
    /// beam (m = 1), white-LED spectrum.
    pub fn new(position: Vec3, intensity_cd: f64) -> Self {
        PointLamp { position, intensity_cd, order: 1.0, spectrum: Spectrum::white_led() }
    }

    /// Overrides the Lambertian order (beam width).
    pub fn with_order(mut self, order: f64) -> Self {
        self.order = order.max(0.1);
        self
    }

    /// The paper's bench lamp: enough intensity that a 20 cm-high setup
    /// sees a few hundred lux on the workplane.
    pub fn bench_lamp(height_m: f64) -> Self {
        PointLamp::new(Vec3::new(0.0, 0.0, height_m), 25.0)
    }
}

impl LightSource for PointLamp {
    fn illuminance_at(&self, point: Vec3, _t: f64) -> f64 {
        lambertian_illuminance(self.position, self.intensity_cd, self.order, point)
    }

    fn direction_from(&self, point: Vec3) -> Option<Vec3> {
        (self.position - point).normalized()
    }

    fn spectrum(&self) -> &Spectrum {
        &self.spectrum
    }

    fn label(&self) -> &str {
        "led-lamp"
    }

    fn is_time_invariant(&self) -> bool {
        true // DC-driven: no ripple (Fig. 5 shows none)
    }
}

/// Mains-powered ceiling lighting: a wide fluorescent (or incandescent)
/// panel that produces near-uniform illuminance with a 100 Hz
/// rectified-sine ripple — the cause of the “larger variance in the
/// signal, ‘thicker lines’” of Fig. 7 (the paper cites the AC power
/// supply \[7\]).
#[derive(Debug, Clone)]
pub struct CeilingPanel {
    /// Panel height above the ground plane, metres (2.3 m in Fig. 7).
    pub height_m: f64,
    /// Mean illuminance on the ground directly below, lux.
    pub mean_lux: f64,
    /// Mains frequency in Hz (EU: 50 Hz → 100 Hz optical ripple).
    pub mains_hz: f64,
    /// Peak-to-mean ripple depth in `[0, 1]`. Tri-phosphor tubes retain
    /// some output through the zero crossing (phosphor persistence), so
    /// realistic depths are 0.2–0.4.
    pub ripple_depth: f64,
    /// How fast illuminance falls off with lateral distance (the panel is
    /// extended, so the falloff is gentle). Scale length in metres.
    pub falloff_m: f64,
    spectrum: Spectrum,
}

impl CeilingPanel {
    /// Office fluorescent lighting at `height_m` producing `mean_lux` on
    /// the floor below the fixture.
    pub fn fluorescent(height_m: f64, mean_lux: f64) -> Self {
        CeilingPanel {
            height_m,
            mean_lux,
            mains_hz: 50.0,
            ripple_depth: 0.3,
            falloff_m: 3.0,
            spectrum: Spectrum::fluorescent(),
        }
    }

    /// Incandescent fixture (Fig. 7's caption says “incandescent bulb”):
    /// same mains ripple mechanism, warmer spectrum, deeper thermal ripple
    /// smoothing (filament inertia) so a shallower depth.
    pub fn incandescent(height_m: f64, mean_lux: f64) -> Self {
        CeilingPanel {
            height_m,
            mean_lux,
            mains_hz: 50.0,
            ripple_depth: 0.12,
            falloff_m: 2.0,
            spectrum: Spectrum::incandescent(),
        }
    }

    /// Instantaneous ripple factor at time `t` (mean 1.0).
    fn ripple(&self, t: f64) -> f64 {
        // Rectified sine has mean 2/π; normalise so the long-run mean is 1.
        let rect = (2.0 * std::f64::consts::PI * self.mains_hz * t).sin().abs();
        (1.0 - self.ripple_depth) + self.ripple_depth * rect * std::f64::consts::FRAC_PI_2
    }
}

impl LightSource for CeilingPanel {
    fn illuminance_at(&self, point: Vec3, t: f64) -> f64 {
        let lateral = (point.x * point.x + point.y * point.y).sqrt();
        let falloff = 1.0 / (1.0 + (lateral / self.falloff_m).powi(2));
        self.mean_lux * falloff * self.ripple(t)
    }

    fn direction_from(&self, point: Vec3) -> Option<Vec3> {
        (Vec3::new(0.0, 0.0, self.height_m) - point).normalized()
    }

    fn spectrum(&self) -> &Spectrum {
        &self.spectrum
    }

    fn label(&self) -> &str {
        "ceiling-panel"
    }

    fn flicker_envelope(&self, t: f64) -> Option<f64> {
        // The lateral falloff is purely spatial and the ripple purely
        // temporal, so the field factorises exactly. The envelope stays
        // positive for any ripple depth < 1 (phosphor persistence).
        Some(self.ripple(t))
    }
}

/// Sky condition for the [`Sun`] model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SkyCondition {
    /// Clear sky: strong direct beam, small diffuse fraction, no drift.
    Clear,
    /// Overcast: all-diffuse light with slow cloud-driven drift of the
    /// given relative amplitude (the paper's outdoor runs are on “cloudy
    /// days at noon and late afternoon”).
    Cloudy {
        /// Relative amplitude of the slow illuminance drift, `[0, 1)`.
        drift: f64,
    },
}

/// The sun (plus sky): the paper's outdoor emitter.
///
/// Illuminance is spatially uniform over the few metres of a parking-lot
/// scene; temporal variation comes from clouds. The drift is a seeded sum
/// of low-frequency sinusoids, so traces are reproducible.
#[derive(Debug, Clone)]
pub struct Sun {
    /// Mean ground illuminance, lux (the paper's “noise floor”).
    pub mean_lux: f64,
    /// Solar elevation above the horizon, degrees.
    pub elevation_deg: f64,
    /// Sky condition.
    pub condition: SkyCondition,
    drift_components: Vec<(f64, f64, f64)>, // (amplitude, freq_hz, phase)
    spectrum: Spectrum,
}

impl Sun {
    /// A sun producing `mean_lux` at ground level, at `elevation_deg`,
    /// with cloud drift generated from `seed`.
    pub fn new(mean_lux: f64, elevation_deg: f64, condition: SkyCondition, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let drift_components = match condition {
            SkyCondition::Clear => Vec::new(),
            SkyCondition::Cloudy { drift } => {
                // A handful of slow sinusoids (periods 10 s – 120 s)
                // emulating cloud passage; total amplitude = `drift`.
                let n = 5;
                (0..n)
                    .map(|_| {
                        let amp = drift.clamp(0.0, 0.99) / n as f64;
                        let freq = rng.gen_range(1.0 / 120.0..1.0 / 10.0);
                        let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                        (amp, freq, phase)
                    })
                    .collect()
            }
        };
        Sun { mean_lux, elevation_deg, condition, drift_components, spectrum: Spectrum::daylight() }
    }

    /// Cloudy noon, ~6200 lux: the Fig. 17(a) condition.
    pub fn cloudy_noon(seed: u64) -> Self {
        Sun::new(6200.0, 60.0, SkyCondition::Cloudy { drift: 0.05 }, seed)
    }

    /// Cloudy late afternoon, ~3700 lux: the Fig. 17(b) condition.
    pub fn cloudy_afternoon(seed: u64) -> Self {
        Sun::new(3700.0, 25.0, SkyCondition::Cloudy { drift: 0.05 }, seed)
    }

    /// Heavily overcast dusk, ~100 lux: the Fig. 15(b)/Fig. 16 condition.
    pub fn overcast_dusk(seed: u64) -> Self {
        Sun::new(100.0, 10.0, SkyCondition::Cloudy { drift: 0.08 }, seed)
    }

    fn drift_factor(&self, t: f64) -> f64 {
        1.0 + self
            .drift_components
            .iter()
            .map(|&(a, f, p)| a * (std::f64::consts::TAU * f * t + p).sin())
            .sum::<f64>()
    }
}

impl LightSource for Sun {
    fn illuminance_at(&self, _point: Vec3, t: f64) -> f64 {
        self.mean_lux * self.drift_factor(t)
    }

    fn direction_from(&self, _point: Vec3) -> Option<Vec3> {
        match self.condition {
            SkyCondition::Cloudy { .. } => None, // fully diffuse skylight
            SkyCondition::Clear => {
                let el = self.elevation_deg.to_radians();
                Some(Vec3::new(el.cos(), 0.0, el.sin()))
            }
        }
    }

    fn spectrum(&self) -> &Spectrum {
        &self.spectrum
    }

    fn label(&self) -> &str {
        "sun"
    }

    fn is_time_invariant(&self) -> bool {
        self.drift_components.is_empty()
    }

    fn flicker_envelope(&self, t: f64) -> Option<f64> {
        // Spatially uniform: the cloud drift IS the whole time dependence.
        // Component amplitudes sum to < 1, so the envelope stays positive.
        Some(self.drift_factor(t))
    }
}

/// A set of sources whose illuminances add (e.g. ceiling lights plus
/// daylight through a window). The composite spectrum is the mix of the
/// members' spectra weighted by their contribution at the origin at t = 0.
pub struct CompositeSource {
    members: Vec<Box<dyn LightSource + Send + Sync>>,
    spectrum: Spectrum,
    label: String,
}

impl CompositeSource {
    /// Builds a composite from the given sources. Panics on empty input.
    pub fn new(members: Vec<Box<dyn LightSource + Send + Sync>>) -> Self {
        assert!(!members.is_empty(), "composite source needs at least one member");
        let origin = Vec3::ZERO;
        let weights: Vec<f64> =
            members.iter().map(|s| s.illuminance_at(origin, 0.0).max(0.0)).collect();
        let total: f64 = weights.iter().sum();
        let mut spectrum = members[0].spectrum().clone();
        if total > 0.0 {
            let mut acc = 0.0;
            for (i, s) in members.iter().enumerate().skip(1) {
                acc += weights[i - 1];
                let w = weights[i] / (acc + weights[i]).max(f64::MIN_POSITIVE);
                spectrum = spectrum.mix(s.spectrum(), w);
            }
        }
        let label = members.iter().map(|s| s.label()).collect::<Vec<_>>().join("+");
        CompositeSource { members, spectrum, label }
    }

    /// Number of member sources.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the composite has no members (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl LightSource for CompositeSource {
    fn illuminance_at(&self, point: Vec3, t: f64) -> f64 {
        self.members.iter().map(|s| s.illuminance_at(point, t)).sum()
    }

    fn direction_from(&self, point: Vec3) -> Option<Vec3> {
        // Dominant member's direction (by contribution at this point).
        self.members
            .iter()
            .max_by(|a, b| a.illuminance_at(point, 0.0).total_cmp(&b.illuminance_at(point, 0.0)))
            .and_then(|s| s.direction_from(point))
    }

    fn spectrum(&self) -> &Spectrum {
        &self.spectrum
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn is_time_invariant(&self) -> bool {
        // A sum of time-invariant fields is time-invariant.
        self.members.iter().all(|s| s.is_time_invariant())
    }

    fn flicker_envelope(&self, t: f64) -> Option<f64> {
        // A sum of separable fields `Σ pᵢ(x)·eᵢ(t)` factorises exactly
        // when every member shares one envelope: `e(t)·Σ pᵢ(x)`. That
        // covers all-static composites (every envelope ≡ 1) and matched
        // fixtures (two identical ceiling panels ripple identically). A
        // time-invariant member next to a rippling one does NOT factorise
        // (`p₁(x) + e(t)·p₂(x)`), and its constant envelope 1 correctly
        // fails the equality check below at almost every `t`.
        //
        // The check is per-call, which is sound for the staged and kernel
        // consumers: they derive the spatial profile at `t = 0` and apply
        // `envelope(t)` per tick, and whenever *both* calls return `Some`
        // with members agreeing, `illuminance_at(p, t) ==
        // illuminance_at(p, 0) / envelope(0) × envelope(t)` holds exactly;
        // any `None` tick falls back to the full integral.
        let mut members = self.members.iter();
        let first = members.next()?.flicker_envelope(t)?;
        for m in members {
            let e = m.flicker_envelope(t)?;
            if (e - first).abs() > 1e-12 * first.abs().max(1.0) {
                return None; // envelopes out of phase: not separable
            }
        }
        Some(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lamp_is_brightest_directly_below() {
        let lamp = PointLamp::bench_lamp(0.3);
        let below = lamp.illuminance_at(Vec3::ZERO, 0.0);
        let aside = lamp.illuminance_at(Vec3::ground(0.2, 0.0), 0.0);
        assert!(below > aside);
        assert!(below > 0.0);
    }

    #[test]
    fn lamp_is_time_invariant() {
        let lamp = PointLamp::bench_lamp(0.3);
        let p = Vec3::ground(0.05, 0.0);
        assert_eq!(lamp.illuminance_at(p, 0.0), lamp.illuminance_at(p, 1.234));
    }

    #[test]
    fn lamp_direction_points_up_toward_lamp() {
        let lamp = PointLamp::bench_lamp(0.3);
        let d = lamp.direction_from(Vec3::ZERO).unwrap();
        assert!((d - Vec3::UNIT_Z).norm() < 1e-12);
    }

    #[test]
    fn ceiling_ripple_has_double_mains_period() {
        let panel = CeilingPanel::fluorescent(2.3, 500.0);
        let p = Vec3::ZERO;
        // 100 Hz ripple: values at t and t + 10 ms must coincide.
        let a = panel.illuminance_at(p, 0.0033);
        let b = panel.illuminance_at(p, 0.0033 + 0.01);
        assert!((a - b).abs() < 1e-9);
        // And the signal is genuinely time-varying.
        let c = panel.illuminance_at(p, 0.0033 + 0.005);
        assert!((a - c).abs() > 1.0);
    }

    #[test]
    fn ceiling_mean_is_approximately_nominal() {
        let panel = CeilingPanel::fluorescent(2.3, 500.0);
        let n = 10_000;
        let mean: f64 =
            (0..n).map(|i| panel.illuminance_at(Vec3::ZERO, i as f64 * 1e-4)).sum::<f64>()
                / n as f64;
        assert!((mean - 500.0).abs() / 500.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn ceiling_illuminance_never_negative() {
        let panel = CeilingPanel::fluorescent(2.3, 500.0);
        for i in 0..1000 {
            assert!(panel.illuminance_at(Vec3::ZERO, i as f64 * 7e-4) >= 0.0);
        }
    }

    #[test]
    fn incandescent_ripples_less_than_fluorescent() {
        let fluo = CeilingPanel::fluorescent(2.3, 500.0);
        let inc = CeilingPanel::incandescent(2.3, 500.0);
        let swing = |p: &CeilingPanel| {
            let vals: Vec<f64> =
                (0..200).map(|i| p.illuminance_at(Vec3::ZERO, i as f64 * 1e-4)).collect();
            let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
            let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
            hi - lo
        };
        assert!(swing(&inc) < swing(&fluo));
    }

    #[test]
    fn clear_sun_is_steady_cloudy_sun_drifts() {
        let clear = Sun::new(10_000.0, 45.0, SkyCondition::Clear, 1);
        assert_eq!(clear.illuminance_at(Vec3::ZERO, 0.0), clear.illuminance_at(Vec3::ZERO, 30.0));
        let cloudy = Sun::cloudy_noon(1);
        let a = cloudy.illuminance_at(Vec3::ZERO, 0.0);
        let b = cloudy.illuminance_at(Vec3::ZERO, 30.0);
        assert!((a - b).abs() > 1.0, "cloud drift expected, got {a} vs {b}");
    }

    #[test]
    fn sun_drift_is_reproducible_per_seed() {
        let s1 = Sun::cloudy_noon(42);
        let s2 = Sun::cloudy_noon(42);
        let s3 = Sun::cloudy_noon(43);
        let p = Vec3::ZERO;
        assert_eq!(s1.illuminance_at(p, 12.3), s2.illuminance_at(p, 12.3));
        assert_ne!(s1.illuminance_at(p, 12.3), s3.illuminance_at(p, 12.3));
    }

    #[test]
    fn cloudy_sky_has_no_specular_direction() {
        assert!(Sun::cloudy_noon(1).direction_from(Vec3::ZERO).is_none());
        assert!(Sun::new(10_000.0, 45.0, SkyCondition::Clear, 1)
            .direction_from(Vec3::ZERO)
            .is_some());
    }

    #[test]
    fn sun_presets_match_paper_noise_floors() {
        assert_eq!(Sun::cloudy_noon(0).mean_lux, 6200.0);
        assert_eq!(Sun::cloudy_afternoon(0).mean_lux, 3700.0);
        assert_eq!(Sun::overcast_dusk(0).mean_lux, 100.0);
    }

    #[test]
    fn composite_sums_members() {
        let lamp = PointLamp::bench_lamp(0.3);
        let e_lamp = lamp.illuminance_at(Vec3::ZERO, 0.0);
        let comp = CompositeSource::new(vec![
            Box::new(PointLamp::bench_lamp(0.3)),
            Box::new(Sun::new(100.0, 45.0, SkyCondition::Clear, 0)),
        ]);
        let e = comp.illuminance_at(Vec3::ZERO, 0.0);
        assert!((e - (e_lamp + 100.0)).abs() < 1e-9);
        assert_eq!(comp.len(), 2);
        assert_eq!(comp.label(), "led-lamp+sun");
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn composite_rejects_empty() {
        CompositeSource::new(Vec::new());
    }

    #[test]
    fn time_invariance_classification() {
        assert!(PointLamp::bench_lamp(0.3).is_time_invariant());
        assert!(Sun::new(10_000.0, 45.0, SkyCondition::Clear, 1).is_time_invariant());
        assert!(!Sun::cloudy_noon(1).is_time_invariant());
        assert!(!CeilingPanel::fluorescent(2.3, 500.0).is_time_invariant());
    }

    fn check_envelope_factorisation(source: &dyn LightSource, points: &[Vec3], times: &[f64]) {
        let env0 = source.flicker_envelope(0.0).expect("envelope");
        assert!(env0 > 0.0);
        for &p in points {
            let base = source.illuminance_at(p, 0.0) / env0;
            for &t in times {
                let env = source.flicker_envelope(t).expect("envelope");
                assert!(env > 0.0, "envelope must stay positive, got {env} at t={t}");
                let expect = base * env;
                let got = source.illuminance_at(p, t);
                assert!(
                    (got - expect).abs() <= 1e-9 * got.abs().max(1.0),
                    "envelope contract broken at {p:?}, t={t}: {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn ceiling_envelope_factorises_the_field() {
        let panel = CeilingPanel::fluorescent(2.3, 500.0);
        let points = [Vec3::ZERO, Vec3::ground(0.5, 0.2), Vec3::ground(2.0, -1.0)];
        let times: Vec<f64> = (0..40).map(|i| i as f64 * 0.0013).collect();
        check_envelope_factorisation(&panel, &points, &times);
    }

    #[test]
    fn sun_envelope_factorises_the_field() {
        let sun = Sun::cloudy_noon(9);
        let points = [Vec3::ZERO, Vec3::ground(1.0, 1.0)];
        let times: Vec<f64> = (0..20).map(|i| i as f64 * 1.7).collect();
        check_envelope_factorisation(&sun, &points, &times);
    }

    #[test]
    fn static_lamp_envelope_is_unity() {
        let lamp = PointLamp::bench_lamp(0.3);
        assert_eq!(lamp.flicker_envelope(0.0), Some(1.0));
        assert_eq!(lamp.flicker_envelope(12.7), Some(1.0));
    }

    #[test]
    fn mixed_composite_has_no_envelope() {
        // Ripple + drift cannot factorise into one envelope.
        let comp = CompositeSource::new(vec![
            Box::new(CeilingPanel::fluorescent(2.3, 500.0)),
            Box::new(Sun::cloudy_noon(1)),
        ]);
        assert!(!comp.is_time_invariant());
        assert!(comp.flicker_envelope(0.5).is_none());
        // All-static composite does factorise (trivially).
        let still = CompositeSource::new(vec![
            Box::new(PointLamp::bench_lamp(0.3)),
            Box::new(Sun::new(100.0, 45.0, SkyCondition::Clear, 0)),
        ]);
        assert!(still.is_time_invariant());
        assert_eq!(still.flicker_envelope(3.0), Some(1.0));
    }

    #[test]
    fn matched_panel_composite_reports_the_common_envelope() {
        // Two fluorescent fixtures on the same mains phase: identical
        // ripple, so the sum is separable with that very envelope —
        // different brightnesses do not matter.
        let a = CeilingPanel::fluorescent(2.3, 500.0);
        let comp = CompositeSource::new(vec![
            Box::new(CeilingPanel::fluorescent(2.3, 500.0)),
            Box::new(CeilingPanel::fluorescent(2.3, 320.0)),
        ]);
        assert!(!comp.is_time_invariant());
        let points = [Vec3::ZERO, Vec3::ground(0.4, -0.2), Vec3::ground(1.3, 0.8)];
        let times: Vec<f64> = (0..40).map(|i| i as f64 * 0.0013).collect();
        for &t in &times {
            assert_eq!(comp.flicker_envelope(t), a.flicker_envelope(t), "t={t}");
        }
        check_envelope_factorisation(&comp, &points, &times);
    }

    #[test]
    fn unmatched_ripple_composite_stays_unseparable() {
        // Same fixture type, different mains frequency (50 vs 60 Hz
        // grids): envelopes disagree at almost every instant.
        let mut us_panel = CeilingPanel::fluorescent(2.3, 500.0);
        us_panel.mains_hz = 60.0;
        let comp = CompositeSource::new(vec![
            Box::new(CeilingPanel::fluorescent(2.3, 500.0)),
            Box::new(us_panel),
        ]);
        assert!(comp.flicker_envelope(0.0033).is_none());
        // A lamp (envelope ≡ 1) beside a rippling panel is not separable
        // either: the constant envelope fails the equality check.
        let mixed = CompositeSource::new(vec![
            Box::new(PointLamp::bench_lamp(2.0)),
            Box::new(CeilingPanel::fluorescent(2.3, 500.0)),
        ]);
        assert!(mixed.flicker_envelope(0.0033).is_none());
    }
}
