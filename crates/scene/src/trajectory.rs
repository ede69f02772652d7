//! Motion profiles for mobile objects.
//!
//! The paper has no transmitter clock: the *speed of the object is the
//! symbol clock*, which is why variable speed is a channel distortion
//! (Sec. 4.2) rather than a nuisance. Profiles provided:
//!
//! * [`Trajectory::Constant`] — the ideal-scenario assumption of Sec. 4.1
//!   (8 cm/s indoor experiments; 18 km/h car passes).
//! * [`Trajectory::StepChange`] — the Fig. 8 experiment: *“This object
//!   moves at a certain speed when its first half (preamble) passes the
//!   receiver, and the speed is doubled when the second half (Data field)
//!   passes by.”*
//! * [`Trajectory::Ramp`] — smooth acceleration (a car braking or pulling
//!   away).
//! * [`Trajectory::Jittered`] — hand-moved objects with seeded speed
//!   noise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A one-dimensional motion profile: displacement along +x over time.
#[derive(Debug, Clone)]
pub enum Trajectory {
    /// Constant speed, m/s.
    Constant {
        /// Speed, m/s (must be positive).
        speed_mps: f64,
    },
    /// Constant `speed_mps` until `switch_after_m` of travel, then
    /// `speed_mps × factor` (the Fig. 8 distortion with `factor = 2`).
    StepChange {
        /// Initial speed, m/s.
        speed_mps: f64,
        /// Distance travelled before the speed changes, metres.
        switch_after_m: f64,
        /// Speed multiplier after the switch.
        factor: f64,
    },
    /// Linear speed ramp from `v0_mps` to `v1_mps` over `over_m` metres,
    /// then constant at `v1_mps`.
    Ramp {
        /// Starting speed, m/s.
        v0_mps: f64,
        /// Final speed, m/s.
        v1_mps: f64,
        /// Distance over which the ramp completes, metres.
        over_m: f64,
    },
    /// Constant nominal speed with piecewise speed jitter: every
    /// `segment_m` metres the instantaneous speed is redrawn within
    /// `±jitter` (relative), seeded. Models a hand-pushed trolley.
    Jittered {
        /// Nominal speed, m/s.
        speed_mps: f64,
        /// Relative jitter amplitude in `[0, 0.9]`.
        jitter: f64,
        /// Segment length between speed redraws, metres.
        segment_m: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Back-and-forth shuttling: forward at `speed_mps` for `span_m`
    /// metres, then back to the start, repeating (a scanning cart, a
    /// floor polisher). The only non-monotone profile — displacement is a
    /// triangle wave — used to exercise direction reversals in the
    /// channel's footprint kernel.
    Shuttle {
        /// Speed in both directions, m/s (must be positive).
        speed_mps: f64,
        /// One-way travel before reversing, metres (must be positive).
        span_m: f64,
    },
}

impl Trajectory {
    /// The paper's indoor bench speed: 8 cm/s (Fig. 6 caption).
    pub fn indoor_bench() -> Self {
        Trajectory::Constant { speed_mps: 0.08 }
    }

    /// The paper's car speed: 18 km/h = 5 m/s (Sec. 5).
    pub fn car_18kmh() -> Self {
        Trajectory::Constant { speed_mps: 5.0 }
    }

    /// The Fig. 8 profile for a packet of length `packet_len_m`: base
    /// speed through the first half, doubled through the second half.
    pub fn fig8_speed_doubling(base_mps: f64, packet_len_m: f64) -> Self {
        Trajectory::StepChange {
            speed_mps: base_mps,
            switch_after_m: packet_len_m / 2.0,
            factor: 2.0,
        }
    }

    /// Whether this profile never moves the object at all
    /// (`Constant { speed_mps: 0 }` — a parked car, placed furniture).
    /// Stationary objects let the channel's footprint kernel sum their
    /// covered patches once at build and skip the per-tick path entirely.
    pub fn is_stationary(&self) -> bool {
        // palc_lint: allow(float-eq) -- exact-zero speed is the stationary contract, not a tolerance check
        matches!(self, Trajectory::Constant { speed_mps } if *speed_mps == 0.0)
    }

    /// Displacement (metres) after `t` seconds; 0 for negative `t`.
    pub fn displacement(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        match *self {
            Trajectory::Constant { speed_mps } => speed_mps * t,
            Trajectory::StepChange { speed_mps, switch_after_m, factor } => {
                let t_switch = switch_after_m / speed_mps;
                if t <= t_switch {
                    speed_mps * t
                } else {
                    switch_after_m + speed_mps * factor * (t - t_switch)
                }
            }
            Trajectory::Ramp { v0_mps, v1_mps, over_m } => {
                // Constant acceleration over `over_m`: v² = v0² + 2as.
                let a = (v1_mps * v1_mps - v0_mps * v0_mps) / (2.0 * over_m);
                if a.abs() < 1e-12 {
                    return v0_mps * t;
                }
                let t_ramp = (v1_mps - v0_mps) / a;
                if t <= t_ramp {
                    v0_mps * t + 0.5 * a * t * t
                } else {
                    over_m + v1_mps * (t - t_ramp)
                }
            }
            Trajectory::Shuttle { speed_mps, span_m } => {
                // Triangle wave with period 2·span/v: forward leg then
                // backward leg, both at `speed_mps`.
                let phase = (speed_mps * t) % (2.0 * span_m);
                if phase <= span_m {
                    phase
                } else {
                    2.0 * span_m - phase
                }
            }
            Trajectory::Jittered { speed_mps, jitter, segment_m, seed } => {
                // Integrate segment by segment, redrawing speed per segment.
                let jitter = jitter.clamp(0.0, 0.9);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut pos = 0.0;
                let mut clock = 0.0;
                loop {
                    let v = speed_mps * (1.0 + jitter * (rng.gen::<f64>() * 2.0 - 1.0));
                    let seg_time = segment_m / v;
                    if clock + seg_time >= t {
                        return pos + v * (t - clock);
                    }
                    pos += segment_m;
                    clock += seg_time;
                }
            }
        }
    }

    /// Instantaneous speed at time `t`, via a centred difference (exact
    /// for the piecewise profiles away from their breakpoints).
    pub fn speed_at(&self, t: f64) -> f64 {
        let dt = 1e-6;
        (self.displacement(t + dt) - self.displacement((t - dt).max(0.0))) / (2.0 * dt)
    }

    /// Time needed to travel `distance_m` metres (bisection against the
    /// monotone displacement function; for the non-monotone
    /// [`Trajectory::Shuttle`] this is the *first* time the displacement
    /// reaches the distance, which must lie within the shuttle span).
    pub fn time_to_travel(&self, distance_m: f64) -> f64 {
        match self.time_to_travel_checked(distance_m) {
            Some(t) => t,
            None => {
                if let Trajectory::Shuttle { span_m, .. } = *self {
                    panic!("shuttle never travels past its {span_m} m span");
                }
                panic!("trajectory never covers {distance_m} m");
            }
        }
    }

    /// The closed range of displacements this trajectory can ever
    /// produce, as `(min_m, max_m)` with `max_m = f64::INFINITY` for
    /// profiles that travel without bound.
    ///
    /// Every profile starts at displacement 0 and — except
    /// [`Trajectory::Shuttle`] — is monotone nondecreasing, so the
    /// minimum is always 0; the maximum is `span_m` for a shuttle, 0 for
    /// a parked object, and unbounded otherwise. The channel's spatial
    /// tick index uses this to bound the world-x interval an object can
    /// ever cover, which is what makes build-time culling of
    /// never-in-footprint objects *exact* rather than heuristic.
    pub fn displacement_bounds(&self) -> (f64, f64) {
        match *self {
            Trajectory::Constant { speed_mps: 0.0 } => (0.0, 0.0),
            Trajectory::Shuttle { span_m, .. } => (0.0, span_m),
            _ => (0.0, f64::INFINITY),
        }
    }

    /// Like [`Trajectory::time_to_travel`], but `None` when this
    /// trajectory never covers `distance_m` (a parked object, a shuttle
    /// span shorter than the distance) instead of panicking — the query
    /// receiver-array layers use to size shards for poses an object may
    /// never reach.
    pub fn time_to_travel_checked(&self, distance_m: f64) -> Option<f64> {
        assert!(distance_m >= 0.0);
        // palc_lint: allow(float-eq) -- exact-zero distance short-circuits before the speed division
        if distance_m == 0.0 {
            return Some(0.0);
        }
        if let Trajectory::Shuttle { speed_mps, span_m } = *self {
            if distance_m > span_m {
                return None;
            }
            return Some(distance_m / speed_mps);
        }
        let mut hi = 1.0;
        while self.displacement(hi) < distance_m {
            hi *= 2.0;
            if hi >= 1e9 {
                return None;
            }
        }
        let mut lo = 0.0;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if self.displacement(mid) < distance_m {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(0.5 * (lo + hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_speed_is_linear() {
        let tr = Trajectory::indoor_bench();
        assert!((tr.displacement(1.0) - 0.08).abs() < 1e-12);
        assert!((tr.displacement(10.0) - 0.8).abs() < 1e-12);
        assert_eq!(tr.displacement(-1.0), 0.0);
    }

    #[test]
    fn car_preset_is_5_mps() {
        assert!((Trajectory::car_18kmh().speed_at(1.0) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn step_change_doubles_speed_after_half() {
        let tr = Trajectory::fig8_speed_doubling(0.08, 0.24);
        // First half: 0.12 m at 0.08 m/s = 1.5 s.
        let t_half = tr.time_to_travel(0.12);
        assert!((t_half - 1.5).abs() < 1e-6);
        // Second half at 0.16 m/s: 0.75 s more.
        let t_full = tr.time_to_travel(0.24);
        assert!((t_full - 2.25).abs() < 1e-6);
        assert!((tr.speed_at(1.0) - 0.08).abs() < 1e-6);
        assert!((tr.speed_at(2.0) - 0.16).abs() < 1e-6);
    }

    #[test]
    fn displacement_is_continuous_at_the_switch() {
        let tr = Trajectory::StepChange { speed_mps: 1.0, switch_after_m: 2.0, factor: 3.0 };
        let before = tr.displacement(2.0 - 1e-9);
        let after = tr.displacement(2.0 + 1e-9);
        assert!((after - before).abs() < 1e-6);
    }

    #[test]
    fn ramp_accelerates_smoothly() {
        let tr = Trajectory::Ramp { v0_mps: 1.0, v1_mps: 3.0, over_m: 4.0 };
        assert!((tr.speed_at(0.001) - 1.0).abs() < 0.01);
        let t_end = tr.time_to_travel(4.0);
        assert!((tr.speed_at(t_end + 0.5) - 3.0).abs() < 0.01);
        // Monotone displacement.
        let mut prev = 0.0;
        for i in 1..100 {
            let d = tr.displacement(i as f64 * 0.05);
            assert!(d > prev);
            prev = d;
        }
    }

    #[test]
    fn flat_ramp_degenerates_to_constant() {
        let tr = Trajectory::Ramp { v0_mps: 2.0, v1_mps: 2.0, over_m: 1.0 };
        assert!((tr.displacement(3.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn jittered_is_reproducible_and_monotone() {
        let tr = Trajectory::Jittered { speed_mps: 0.1, jitter: 0.4, segment_m: 0.02, seed: 7 };
        let tr2 = Trajectory::Jittered { speed_mps: 0.1, jitter: 0.4, segment_m: 0.02, seed: 7 };
        let mut prev = 0.0;
        for i in 1..200 {
            let t = i as f64 * 0.05;
            let d = tr.displacement(t);
            assert_eq!(d, tr2.displacement(t));
            assert!(d >= prev, "displacement must be monotone");
            prev = d;
        }
    }

    #[test]
    fn jittered_mean_speed_is_near_nominal() {
        let tr = Trajectory::Jittered { speed_mps: 0.1, jitter: 0.3, segment_m: 0.01, seed: 3 };
        let d = tr.displacement(100.0);
        assert!((d / 100.0 - 0.1).abs() < 0.02, "mean speed {}", d / 100.0);
    }

    #[test]
    fn shuttle_reverses_and_repeats() {
        let tr = Trajectory::Shuttle { speed_mps: 0.1, span_m: 0.3 };
        assert!((tr.displacement(1.0) - 0.1).abs() < 1e-12); // outbound
        assert!((tr.displacement(3.0) - 0.3).abs() < 1e-12); // turn point
        assert!((tr.displacement(4.0) - 0.2).abs() < 1e-12); // coming back
        assert!((tr.displacement(6.0) - 0.0).abs() < 1e-12); // home again
        assert!((tr.displacement(7.0) - 0.1).abs() < 1e-12); // next lap
        assert!((tr.time_to_travel(0.2) - 2.0).abs() < 1e-9);
        assert!(!tr.is_stationary());
    }

    #[test]
    #[should_panic(expected = "shuttle never travels past")]
    fn shuttle_rejects_out_of_span_travel() {
        Trajectory::Shuttle { speed_mps: 0.1, span_m: 0.3 }.time_to_travel(0.5);
    }

    #[test]
    fn stationarity_is_exactly_zero_constant_speed() {
        assert!(Trajectory::Constant { speed_mps: 0.0 }.is_stationary());
        assert!(!Trajectory::Constant { speed_mps: 0.08 }.is_stationary());
        assert!(!Trajectory::Shuttle { speed_mps: 0.1, span_m: 1.0 }.is_stationary());
        assert!(!Trajectory::Jittered { speed_mps: 0.1, jitter: 0.2, segment_m: 0.1, seed: 1 }
            .is_stationary());
    }

    #[test]
    fn displacement_bounds_bracket_the_profile() {
        // Parked: pinned at 0. Shuttle: capped at its span. Everything
        // else: unbounded above, never negative.
        assert_eq!(Trajectory::Constant { speed_mps: 0.0 }.displacement_bounds(), (0.0, 0.0));
        let sh = Trajectory::Shuttle { speed_mps: 0.1, span_m: 0.3 };
        assert_eq!(sh.displacement_bounds(), (0.0, 0.3));
        for tr in [
            Trajectory::Constant { speed_mps: 0.5 },
            Trajectory::StepChange { speed_mps: 0.5, switch_after_m: 1.0, factor: 2.0 },
            Trajectory::Ramp { v0_mps: 0.2, v1_mps: 1.0, over_m: 2.0 },
            Trajectory::Jittered { speed_mps: 0.1, jitter: 0.2, segment_m: 0.05, seed: 1 },
        ] {
            let (lo, hi) = tr.displacement_bounds();
            assert_eq!(lo, 0.0, "{tr:?}");
            assert_eq!(hi, f64::INFINITY, "{tr:?}");
        }
        // The bounds really do bracket sampled displacements.
        for i in 0..200 {
            let t = i as f64 * 0.1;
            let d = sh.displacement(t);
            assert!((0.0..=0.3 + 1e-12).contains(&d), "shuttle escaped its bounds at t={t}");
        }
    }

    #[test]
    fn time_to_travel_inverts_displacement() {
        for tr in [
            Trajectory::Constant { speed_mps: 0.5 },
            Trajectory::StepChange { speed_mps: 0.5, switch_after_m: 1.0, factor: 2.0 },
            Trajectory::Ramp { v0_mps: 0.2, v1_mps: 1.0, over_m: 2.0 },
        ] {
            let t = tr.time_to_travel(3.0);
            assert!((tr.displacement(t) - 3.0).abs() < 1e-6, "{tr:?}");
        }
        assert_eq!(Trajectory::indoor_bench().time_to_travel(0.0), 0.0);
    }
}
