//! # palc-dsp — signal-processing substrate for passive ambient-light communication
//!
//! This crate provides every digital-signal-processing primitive that the
//! CoNEXT'16 paper *“Passive Communication with Ambient Light”* relies on,
//! implemented from scratch with no external dependencies:
//!
//! * [`fft`](mod@fft) — iterative radix-2 Cooley–Tukey FFT and power spectra, used for
//!   the frequency-domain collision analysis of Sec. 4.3 (Fig. 10).
//! * [`dtw`](mod@dtw) — Dynamic Time Warping (full, banded, and normalised variants),
//!   used for classifying distorted variable-speed signals in Sec. 4.2
//!   (Fig. 8).
//! * [`peaks`] — prominence-aware peak/valley detection, the first stage of
//!   the calibration-free threshold decoder of Sec. 4.1 (points A, B, C in
//!   Fig. 5(a)).
//! * [`filter`] — moving-average / single-pole IIR / median filters and
//!   detrending used to condition raw RSS traces.
//! * [`window`] — window functions for spectral analysis.
//! * [`resample`] — linear-interpolation resampling used to normalise traces
//!   of different durations before DTW (the paper plots *normalised time*).
//! * [`stats`] — normalisation and descriptive statistics (the paper plots
//!   *normalised RSS*), plus SNR and modulation-depth estimators.
//! * [`goertzel`] — single-bin DFT for cheap dominant-frequency checks on
//!   low-end receivers.
//!
//! All routines operate on `f64` slices; none allocate more than they must
//! and none require a specific sampling rate — the rate is always passed
//! explicitly where it matters, matching the paper's 2 kS/s receiver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod dtw;
pub mod fft;
pub mod filter;
pub mod goertzel;
pub mod peaks;
pub mod resample;
pub mod stats;
pub mod window;

pub use complex::Complex;
pub use dtw::{dtw, dtw_banded, dtw_normalized, DtwOutcome};
pub use fft::{fft, fft_inverse, power_spectrum, PowerSpectrum};
pub use filter::{detrend, median_filter, moving_average, SinglePoleLowPass};
pub use peaks::{find_peaks, find_valleys, Peak, PeakConfig};
pub use resample::{decimate, resample_linear, resample_to_len};
pub use stats::{mean, minmax, modulation_depth, normalize_minmax, rms, std_dev, variance};
