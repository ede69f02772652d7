//! Fast Fourier Transform and power-spectrum analysis.
//!
//! Section 4.3 of the paper resolves ‘packet’ collisions in the frequency
//! domain: when two reflective tags with different symbol widths pass under
//! the receiver's field of view simultaneously, the time-domain RSS is a sum
//! of two square-ish waves and may be undecodable, but an FFT of the trace
//! reveals one dominant frequency per tag (Fig. 10). This module provides
//! the transform and the spectral bookkeeping for that analysis.
//!
//! The implementation is an iterative radix-2 Cooley–Tukey FFT (decimation
//! in time, bit-reversal permutation first). Inputs whose length is not a
//! power of two are zero-padded by the convenience wrappers; the core
//! in-place routine insists on a power of two.

use crate::complex::Complex;
use crate::window::Window;

/// Returns the smallest power of two `>= n` (and at least 1).
#[inline]
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two().max(1)
}

/// In-place radix-2 FFT.
///
/// `data.len()` must be a power of two; panics otherwise. Set
/// `inverse = true` to compute the unscaled inverse transform (the caller
/// wrapper [`fft_inverse`] applies the `1/N` factor).
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "fft_in_place requires a power-of-two length, got {n}");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            data.swap(i, j);
        }
    }

    // Danielson–Lanczos butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Forward FFT of a real signal, zero-padded to the next power of two.
///
/// Returns the full complex spectrum (length = padded length). Bin `k`
/// corresponds to frequency `k · fs / N`.
pub fn fft(signal: &[f64]) -> Vec<Complex> {
    let n = next_pow2(signal.len());
    let mut buf: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
    buf.resize(n, Complex::ZERO);
    fft_in_place(&mut buf, false);
    buf
}

/// Inverse FFT, scaled by `1/N` so that `fft_inverse(fft(x)) ≈ x` (up to
/// zero padding).
pub fn fft_inverse(spectrum: &[Complex]) -> Vec<Complex> {
    let n = next_pow2(spectrum.len());
    let mut buf = spectrum.to_vec();
    buf.resize(n, Complex::ZERO);
    fft_in_place(&mut buf, true);
    let scale = 1.0 / n as f64;
    for z in &mut buf {
        *z = z.scale(scale);
    }
    buf
}

/// A one-sided power spectrum of a real signal.
///
/// This is the structure plotted in Fig. 10(b), (d) and (f) of the paper
/// (labelled `P(f)`). It owns the per-bin power values together with the
/// frequency resolution so that bin indices can be mapped back to Hz.
#[derive(Debug, Clone)]
pub struct PowerSpectrum {
    /// Power per bin, `|X_k|² / N`, bins `0 ..= N/2` (DC through Nyquist).
    pub power: Vec<f64>,
    /// Frequency step between adjacent bins in Hz (`fs / N`).
    pub bin_hz: f64,
    /// Sampling rate the spectrum was computed at, in Hz.
    pub sample_rate_hz: f64,
}

impl PowerSpectrum {
    /// Frequency in Hz of bin `k`.
    #[inline]
    pub fn freq_of_bin(&self, k: usize) -> f64 {
        k as f64 * self.bin_hz
    }

    /// Bin index closest to frequency `f_hz` (clamped to the valid range).
    #[inline]
    pub fn bin_of_freq(&self, f_hz: f64) -> usize {
        // palc_lint: allow(float-eq) -- exact-zero guard against dividing by bin width
        if self.bin_hz == 0.0 {
            return 0;
        }
        let k = (f_hz / self.bin_hz).round();
        (k.max(0.0) as usize).min(self.power.len().saturating_sub(1))
    }

    /// Returns `(frequency_hz, power)` of the strongest bin at or above
    /// `min_hz`. Skipping DC and the low bins is essential in this system:
    /// the ambient noise floor concentrates all its power near 0 Hz.
    pub fn dominant_frequency(&self, min_hz: f64) -> Option<(f64, f64)> {
        let start = self.bin_of_freq(min_hz).max(1);
        self.power
            .iter()
            .enumerate()
            .skip(start)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, &p)| (self.freq_of_bin(k), p))
    }

    /// Finds up to `max_peaks` local spectral maxima at or above `min_hz`
    /// whose power is at least `rel_threshold` times the strongest such
    /// peak. Returns `(frequency_hz, power)` pairs sorted by descending
    /// power. This is the primitive behind the collision detector of
    /// Sec. 4.3: Case 3 (two equally-sharing tags) yields *two* peaks.
    pub fn spectral_peaks(
        &self,
        min_hz: f64,
        rel_threshold: f64,
        max_peaks: usize,
    ) -> Vec<(f64, f64)> {
        let start = self.bin_of_freq(min_hz).max(1);
        let mut peaks: Vec<(usize, f64)> = Vec::new();
        for k in start.max(1)..self.power.len().saturating_sub(1) {
            let p = self.power[k];
            if p > self.power[k - 1] && p >= self.power[k + 1] {
                peaks.push((k, p));
            }
        }
        peaks.sort_by(|a, b| b.1.total_cmp(&a.1));
        let strongest = peaks.first().map(|&(_, p)| p).unwrap_or(0.0);
        peaks
            .into_iter()
            .take_while(|&(_, p)| p >= rel_threshold * strongest)
            .take(max_peaks)
            .map(|(k, p)| (self.freq_of_bin(k), p))
            .collect()
    }
}

/// Computes the one-sided power spectrum of `signal` sampled at
/// `sample_rate_hz`, after removing the mean (the DC pedestal produced by
/// the ambient noise floor would otherwise dwarf the modulation) and
/// applying `window`.
pub fn power_spectrum(signal: &[f64], sample_rate_hz: f64, window: Window) -> PowerSpectrum {
    assert!(sample_rate_hz > 0.0, "sample rate must be positive");
    let mean =
        if signal.is_empty() { 0.0 } else { signal.iter().sum::<f64>() / signal.len() as f64 };
    let coeffs = window.coefficients(signal.len());
    let centred: Vec<f64> =
        signal.iter().zip(coeffs.iter()).map(|(&x, &w)| (x - mean) * w).collect();
    let spec = fft(&centred);
    let n = spec.len();
    let half = n / 2;
    let power: Vec<f64> = (0..=half).map(|k| spec[k].norm_sqr() / n as f64).collect();
    PowerSpectrum { power, bin_hz: sample_rate_hz / n as f64, sample_rate_hz }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin()).collect()
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        fft_in_place(&mut data, false);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_constant_is_dc_only() {
        let spec = fft(&[1.0; 16]);
        assert!((spec[0].re - 16.0).abs() < 1e-9);
        for z in &spec[1..] {
            assert!(z.abs() < 1e-9);
        }
    }

    #[test]
    fn roundtrip_recovers_signal() {
        let x = sine(5.0, 64.0, 64);
        let spec = fft(&x);
        let back = fft_inverse(&spec);
        for (a, b) in x.iter().zip(back.iter()) {
            assert!((a - b.re).abs() < 1e-9, "{a} vs {}", b.re);
            assert!(b.im.abs() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_lands_in_correct_bin() {
        // 5 Hz tone sampled at 64 Hz over 64 samples -> bin 5 exactly.
        let x = sine(5.0, 64.0, 64);
        let ps = power_spectrum(&x, 64.0, Window::Rect);
        let (f, _) = ps.dominant_frequency(0.5).unwrap();
        assert!((f - 5.0).abs() < 1e-9, "dominant at {f} Hz");
    }

    #[test]
    fn two_tone_collision_shows_two_peaks() {
        // Emulates Fig. 10(e)/(f): two equal-power square-ish components.
        let fs = 256.0;
        let n = 1024;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * std::f64::consts::PI * 3.0 * t).sin().signum()
                    + (2.0 * std::f64::consts::PI * 9.0 * t).sin().signum()
            })
            .collect();
        let ps = power_spectrum(&x, fs, Window::Hann);
        let peaks = ps.spectral_peaks(1.0, 0.25, 4);
        assert!(peaks.len() >= 2, "expected >=2 spectral peaks, got {peaks:?}");
        let freqs: Vec<f64> = peaks.iter().map(|p| p.0).collect();
        assert!(freqs.iter().any(|&f| (f - 3.0).abs() < 0.5), "{freqs:?}");
        assert!(freqs.iter().any(|&f| (f - 9.0).abs() < 0.5), "{freqs:?}");
    }

    #[test]
    fn parseval_holds_for_rect_window() {
        let x = sine(7.0, 128.0, 128);
        let spec = fft(&x);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / spec.len() as f64;
        assert!((time_energy - freq_energy).abs() < 1e-6);
    }

    #[test]
    fn zero_padding_handles_non_pow2_lengths() {
        let x = sine(5.0, 60.0, 60); // 60 -> padded to 64
        let spec = fft(&x);
        assert_eq!(spec.len(), 64);
    }

    #[test]
    fn bin_freq_mapping_is_consistent() {
        let ps = power_spectrum(&vec![0.0; 100], 2000.0, Window::Rect);
        for k in [0usize, 1, 5, 32] {
            let f = ps.freq_of_bin(k);
            assert_eq!(ps.bin_of_freq(f), k);
        }
    }

    #[test]
    fn dc_is_removed_before_transform() {
        // Large DC offset must not mask a small tone.
        let fs = 128.0;
        let x: Vec<f64> = (0..256)
            .map(|i| 100.0 + 0.01 * (2.0 * std::f64::consts::PI * 8.0 * i as f64 / fs).sin())
            .collect();
        let ps = power_spectrum(&x, fs, Window::Hann);
        let (f, _) = ps.dominant_frequency(1.0).unwrap();
        assert!((f - 8.0).abs() < 1.0, "dominant at {f} Hz");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn in_place_rejects_non_pow2() {
        let mut data = vec![Complex::ZERO; 12];
        fft_in_place(&mut data, false);
    }

    #[test]
    fn empty_signal_yields_trivial_spectrum() {
        let ps = power_spectrum(&[], 2000.0, Window::Rect);
        assert_eq!(ps.power.len(), 1); // single DC bin of the length-1 pad
    }

    #[test]
    fn linearity_of_transform() {
        let a = sine(3.0, 64.0, 64);
        let b = sine(11.0, 64.0, 64);
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        for k in 0..64 {
            let expect = fa[k].scale(2.0) + fb[k].scale(3.0);
            assert!((fsum[k] - expect).abs() < 1e-9);
        }
    }
}
