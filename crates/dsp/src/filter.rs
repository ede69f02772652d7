//! Time-domain filters for conditioning RSS traces.
//!
//! The receiver chain produces noisy samples: shot/thermal noise from the
//! photodiode, quantisation from the 10-bit ADC, and — under mains-powered
//! luminaires — a 100 Hz rectified-AC ripple (the “thicker lines” of
//! Fig. 7). Before the threshold decoder runs, traces are smoothed with a
//! moving average sized well below the symbol duration, and slow ambient
//! drift (clouds passing, Sec. 5) is removed by detrending.

/// Centred moving average of width `window` (forced odd by rounding up).
///
/// Edges use a shrinking window so the output has the same length as the
/// input and no phase shift is introduced.
pub fn moving_average(signal: &[f64], window: usize) -> Vec<f64> {
    let n = signal.len();
    if n == 0 || window <= 1 {
        return signal.to_vec();
    }
    let half = window / 2;
    // Prefix sums for O(n) averaging.
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    for &x in signal {
        prefix.push(prefix.last().unwrap() + x);
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            (prefix[hi] - prefix[lo]) / (hi - lo) as f64
        })
        .collect()
}

/// Sliding median filter of width `window` (forced odd), robust against
/// impulsive outliers such as ADC glitches.
pub fn median_filter(signal: &[f64], window: usize) -> Vec<f64> {
    let n = signal.len();
    if n == 0 || window <= 1 {
        return signal.to_vec();
    }
    let half = window / 2;
    let mut out = Vec::with_capacity(n);
    let mut buf: Vec<f64> = Vec::with_capacity(window + 1);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        buf.clear();
        buf.extend_from_slice(&signal[lo..hi]);
        buf.sort_by(f64::total_cmp);
        let m = buf.len();
        out.push(if m % 2 == 1 { buf[m / 2] } else { 0.5 * (buf[m / 2 - 1] + buf[m / 2]) });
    }
    out
}

/// Removes a least-squares straight-line trend from the signal.
///
/// Used to take out slow ambient drift (sun moving behind clouds during a
/// car pass) so that the adaptive thresholds remain valid packet-wide.
pub fn detrend(signal: &[f64]) -> Vec<f64> {
    let n = signal.len();
    if n < 2 {
        return vec![0.0; n];
    }
    let nf = n as f64;
    let mean_t = (nf - 1.0) / 2.0;
    let mean_x = signal.iter().sum::<f64>() / nf;
    let mut cov = 0.0;
    let mut var_t = 0.0;
    for (i, &x) in signal.iter().enumerate() {
        let dt = i as f64 - mean_t;
        cov += dt * (x - mean_x);
        var_t += dt * dt;
    }
    let slope = if var_t > 0.0 { cov / var_t } else { 0.0 };
    signal.iter().enumerate().map(|(i, &x)| x - (mean_x + slope * (i as f64 - mean_t))).collect()
}

/// First-order (single-pole) IIR low-pass filter.
///
/// This is also the model of a photodiode's finite response time: the
/// OPT101's bandwidth limits how fast the RSS can follow reflectance
/// changes, which in turn bounds the maximal supported object speed
/// (paper Sec. 6, item 3).
#[derive(Debug, Clone, Copy)]
pub struct SinglePoleLowPass {
    alpha: f64,
    state: Option<f64>,
}

impl SinglePoleLowPass {
    /// Creates a low-pass with the given −3 dB cutoff at the given sampling
    /// rate. Panics if either is non-positive.
    pub fn new(cutoff_hz: f64, sample_rate_hz: f64) -> Self {
        assert!(cutoff_hz > 0.0 && sample_rate_hz > 0.0);
        let rc = 1.0 / (2.0 * std::f64::consts::PI * cutoff_hz);
        let dt = 1.0 / sample_rate_hz;
        SinglePoleLowPass { alpha: dt / (rc + dt), state: None }
    }

    /// Processes one sample.
    pub fn step(&mut self, x: f64) -> f64 {
        let y = match self.state {
            None => x, // start settled at the first sample, no startup ramp
            Some(prev) => prev + self.alpha * (x - prev),
        };
        self.state = Some(y);
        y
    }

    /// Resets the filter memory.
    pub fn reset(&mut self) {
        self.state = None;
    }

    /// Filters a whole slice, returning a new vector.
    pub fn filter(&mut self, signal: &[f64]) -> Vec<f64> {
        signal.iter().map(|&x| self.step(x)).collect()
    }
}

/// First-order high-pass, implemented as identity minus low-pass. Useful to
/// strip the DC ambient pedestal before spectral analysis on constrained
/// receivers.
#[derive(Debug, Clone, Copy)]
pub struct SinglePoleHighPass {
    lp: SinglePoleLowPass,
}

impl SinglePoleHighPass {
    /// Creates a high-pass with the given cutoff.
    pub fn new(cutoff_hz: f64, sample_rate_hz: f64) -> Self {
        SinglePoleHighPass { lp: SinglePoleLowPass::new(cutoff_hz, sample_rate_hz) }
    }

    /// Processes one sample.
    pub fn step(&mut self, x: f64) -> f64 {
        x - self.lp.step(x)
    }

    /// Filters a whole slice.
    pub fn filter(&mut self, signal: &[f64]) -> Vec<f64> {
        signal.iter().map(|&x| self.step(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_of_constant_is_identity() {
        let x = vec![3.0; 20];
        assert_eq!(moving_average(&x, 5), x);
    }

    #[test]
    fn moving_average_preserves_length_and_mean() {
        let x: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let y = moving_average(&x, 7);
        assert_eq!(y.len(), x.len());
        let mx = x.iter().sum::<f64>() / 50.0;
        let my = y.iter().sum::<f64>() / 50.0;
        assert!((mx - my).abs() < 0.05);
    }

    #[test]
    fn moving_average_attenuates_noise() {
        // Deterministic pseudo-noise around a ramp.
        let x: Vec<f64> =
            (0..200).map(|i| i as f64 * 0.01 + if i % 2 == 0 { 0.5 } else { -0.5 }).collect();
        let y = moving_average(&x, 9);
        let wiggle = |v: &[f64]| {
            v.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (v.len() - 1) as f64
        };
        assert!(wiggle(&y) < 0.2 * wiggle(&x));
    }

    #[test]
    fn window_of_one_is_identity() {
        let x = vec![1.0, 5.0, -2.0];
        assert_eq!(moving_average(&x, 1), x);
        assert_eq!(median_filter(&x, 1), x);
    }

    #[test]
    fn median_filter_removes_impulse() {
        let mut x = vec![1.0; 21];
        x[10] = 100.0; // ADC glitch
        let y = median_filter(&x, 5);
        assert!((y[10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_preserves_step_edges_better_than_mean() {
        let x: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        let med = median_filter(&x, 7);
        // The median of a window fully inside one level is that level, and
        // the transition stays sharp: value at 19 still 0, at 23 already 1.
        assert_eq!(med[17], 0.0);
        assert_eq!(med[23], 1.0);
    }

    #[test]
    fn detrend_removes_linear_ramp_exactly() {
        let x: Vec<f64> = (0..100).map(|i| 5.0 + 0.3 * i as f64).collect();
        let y = detrend(&x);
        for v in y {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn detrend_keeps_oscillation() {
        let x: Vec<f64> = (0..100).map(|i| 2.0 + 0.1 * i as f64 + (i as f64 * 0.5).sin()).collect();
        let y = detrend(&x);
        let amp = y.iter().cloned().fold(f64::MIN, f64::max);
        assert!(amp > 0.8, "oscillation amplitude must survive detrending, got {amp}");
    }

    #[test]
    fn lowpass_tracks_dc() {
        let mut lp = SinglePoleLowPass::new(10.0, 2000.0);
        let mut y = 0.0;
        for _ in 0..5000 {
            y = lp.step(1.0);
        }
        assert!((y - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lowpass_attenuates_high_frequency() {
        let fs = 2000.0;
        let mut lp = SinglePoleLowPass::new(20.0, fs);
        // 500 Hz tone, far above the 20 Hz cutoff.
        let x: Vec<f64> =
            (0..4000).map(|i| (2.0 * std::f64::consts::PI * 500.0 * i as f64 / fs).sin()).collect();
        let y = lp.filter(&x);
        let amp_in = x.iter().cloned().fold(f64::MIN, f64::max);
        let amp_out = y[2000..].iter().cloned().fold(f64::MIN, f64::max);
        assert!(amp_out < 0.1 * amp_in, "amp_out={amp_out}");
    }

    #[test]
    fn lowpass_first_sample_has_no_startup_transient() {
        let mut lp = SinglePoleLowPass::new(5.0, 100.0);
        assert_eq!(lp.step(7.0), 7.0);
    }

    #[test]
    fn highpass_blocks_dc_passes_fast_edges() {
        let fs = 2000.0;
        let mut hp = SinglePoleHighPass::new(1.0, fs);
        let x = vec![10.0; 8000];
        let y = hp.filter(&x);
        assert!(y.last().unwrap().abs() < 1e-2, "DC must decay, got {}", y.last().unwrap());
    }

    #[test]
    fn reset_clears_memory() {
        let mut lp = SinglePoleLowPass::new(10.0, 1000.0);
        lp.step(100.0);
        lp.reset();
        assert_eq!(lp.step(3.0), 3.0);
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(moving_average(&[], 5).is_empty());
        assert!(median_filter(&[], 5).is_empty());
        assert!(detrend(&[]).is_empty());
    }
}
