"""Continuous EEG preprocessing: zero-phase notch/bandpass filtering,
polyphase resampling to 180 Hz, and trial segmentation with initial-segment
cropping.

A raw recording carries its own sampling rate; everything downstream of
segmentation is on the one TARGET_FS (180 Hz) grid. Trials store no rate,
and segment_trials refuses a recording that is not at TARGET_FS.

scipy.signal is imported inside the functions that use it: its import
takes most of a second, and decoding needs none of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, DataError, InvalidCutoff, NumericalFailure, ShapeError
from .errors import TruncatedTrial

TARGET_FS = 180.0

# reflect padding applied around each channel before filtfilt, in seconds
EDGE_PAD_S = 1.0

# order of the Butterworth prototype of every bandpass
BANDPASS_ORDER = 4


def duration_samples(seconds: float) -> int:
    """The number of TARGET_FS samples in ``seconds`` of data, rounded to
    the nearest: the one seconds-to-samples conversion. A non-finite or
    negative duration raises ConfigError."""
    if not (seconds >= 0 and math.isfinite(seconds * TARGET_FS)):
        raise ConfigError(f"a duration must be finite and non-negative, got {seconds} s")
    return int(round(seconds * TARGET_FS))


def channel_samples(samples) -> NDArray[np.float64]:
    """The samples as a float64 (channels, samples) array, a 1-D array as
    one channel. ShapeError unless they are real numbers laid out in at
    most two dimensions with at least one channel: complex, text or object
    samples would lose their meaning on conversion, and 3-D or channel-less
    ones fail deep inside a decoder."""
    x = np.atleast_2d(np.asarray(samples))
    if x.dtype.kind not in "iuf":
        raise ShapeError(f"samples must be real numbers, got dtype {x.dtype}")
    if x.ndim != 2 or len(x) == 0:
        raise ShapeError(f"samples must be (channels, samples) with a channel, got {x.shape}")
    return x.astype(np.float64, copy=False)


@dataclass
class ContinuousRecording:
    """Multichannel recording with trial-onset markers.

    samples: (n_channels, n_samples) in microvolts.
    markers: sample indices of trial onsets.

    A non-finite or non-positive rate raises ConfigError, as does a marker
    that is not a Python or numpy integer (a bool included); a marker
    outside the recording raises TruncatedTrial, samples that are not real
    numbers in (channels, samples) ShapeError (:func:`channel_samples`).
    """

    samples: NDArray[np.floating]
    fs: float
    markers: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.samples = channel_samples(self.samples)
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ConfigError(f"a sampling rate must be finite and positive, got {self.fs} Hz")
        for m in self.markers:
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
                raise ConfigError(f"a marker must be an integer sample index, got {m!r}")
        n = self.samples.shape[1]
        outside = [m for m in self.markers if not 0 <= m < n]
        if outside:
            raise TruncatedTrial(
                f"marker {outside[0]} outside a recording of {n} samples"
            )


@dataclass(frozen=True)
class FilterSpec:
    """Either a notch (center_hz, q) or a bandpass (highpass_hz, lowpass_hz),
    a Butterworth of order BANDPASS_ORDER. A notch without a center or with
    a Q that is not finite and positive raises ConfigError; a center that
    is not finite and positive, or bandpass cutoffs that are not 0 <
    highpass < lowpass, InvalidCutoff. A cutoff at or past Nyquist raises
    InvalidCutoff when the filter is designed at a rate."""

    kind: str
    center_hz: float | None = None
    q: float = 30.0
    highpass_hz: float | None = None
    lowpass_hz: float | None = None

    def __post_init__(self):
        if self.kind not in ("notch", "bandpass"):
            raise ConfigError(f"unknown filter kind {self.kind!r}")
        if self.kind == "notch":
            if self.center_hz is None or not (math.isfinite(self.q) and self.q > 0):
                raise ConfigError("notch needs center_hz and a finite positive Q")
            if not (math.isfinite(self.center_hz) and self.center_hz > 0):
                raise InvalidCutoff(f"notch center {self.center_hz} Hz is not finite and positive")
        if self.kind == "bandpass":
            if self.highpass_hz is None or self.lowpass_hz is None:
                raise InvalidCutoff("bandpass needs both cutoffs")
            if not 0 < self.highpass_hz < self.lowpass_hz:
                raise InvalidCutoff(
                    f"need 0 < highpass < lowpass, got "
                    f"({self.highpass_hz}, {self.lowpass_hz})"
                )

    @lru_cache(maxsize=32)
    def design(self, fs: float):
        """The (b, a) coefficients at rate fs, designed once per (spec,
        rate) and shared: the arrays are read-only."""
        from scipy import signal

        nyq = fs / 2.0
        if self.kind == "notch":
            if self.center_hz >= nyq:
                raise InvalidCutoff(f"notch at {self.center_hz} Hz >= Nyquist {nyq} Hz")
            b, a = signal.iirnotch(self.center_hz, self.q, fs=fs)
        else:
            if self.lowpass_hz >= nyq:
                raise InvalidCutoff(f"lowpass {self.lowpass_hz} Hz >= Nyquist {nyq} Hz")
            b, a = signal.butter(
                BANDPASS_ORDER, [self.highpass_hz, self.lowpass_hz], btype="bandpass", fs=fs
            )
        b.flags.writeable = a.flags.writeable = False
        return b, a


@dataclass
class Trial:
    """One segmented trial at TARGET_FS (180 Hz). samples: (n_channels,
    n_samples), real numbers (ShapeError otherwise, :func:`channel_samples`)."""

    samples: NDArray[np.floating]
    code_index_true: int | None = None

    def __post_init__(self):
        self.samples = channel_samples(self.samples)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def prefix(self, duration_s: float) -> "Trial":
        """The first duration_s seconds of the trial, counted in samples by
        duration_samples: a non-finite or negative duration raises
        ConfigError, one past the trial's end TruncatedTrial."""
        t = duration_samples(duration_s)
        if t > self.n_samples:
            raise TruncatedTrial(
                f"requested {duration_s} s but trial holds {self.n_samples / TARGET_FS} s"
            )
        return replace(self, samples=self.samples[:, :t])


def finite_samples(x: NDArray) -> NDArray:
    """x itself, once every sample is checked to be finite: a decoder calls
    this before any arithmetic, so a NaN or Inf raises NumericalFailure
    instead of surfacing as numpy warnings and degenerate statistics."""
    if not np.isfinite(x).all():
        raise NumericalFailure("trial holds a non-finite sample")
    return x


def apply_zero_phase(filt: FilterSpec, rec: ContinuousRecording) -> ContinuousRecording:
    """Forward-backward filtering per channel; length preserved, no group delay.

    Channels are reflect-padded by one second on both ends before filtering
    to suppress edge transients.
    """
    from scipy import signal

    b, a = filt.design(rec.fs)
    pad = min(int(EDGE_PAD_S * rec.fs), rec.samples.shape[1] - 1)
    out = signal.filtfilt(b, a, rec.samples, axis=1, padtype="even", padlen=pad)
    return ContinuousRecording(samples=out, fs=rec.fs, markers=list(rec.markers))


def resample(rec: ContinuousRecording) -> ContinuousRecording:
    """Polyphase rational resampling to TARGET_FS; 512 -> 180 Hz uses the
    exact ratio 45/128.

    Marker indices are rescaled by the same ratio. Arbitrary source rates
    are approximated by a rational within 1e-9 relative error.
    """
    from scipy import signal

    if TARGET_FS >= rec.fs:
        raise InvalidCutoff(f"target rate {TARGET_FS} must be below {rec.fs}")
    ratio = Fraction(TARGET_FS / rec.fs).limit_denominator(10**6)
    if abs(float(ratio) * rec.fs - TARGET_FS) > 1e-9 * TARGET_FS:
        raise InvalidCutoff("resampling ratio cannot be approximated rationally")
    up, down = ratio.numerator, ratio.denominator
    # Kaiser-windowed lowpass at the new Nyquist frequency, designed at the
    # interpolated rate; ~64 taps per phase
    half = 32 * max(up, down)
    h = signal.firwin(2 * half + 1, TARGET_FS / (rec.fs * up), window=("kaiser", 8.6))
    out = signal.resample_poly(rec.samples, up, down, axis=1, window=h)
    markers = [int(round(m * up / down)) for m in rec.markers]
    return ContinuousRecording(samples=out, fs=TARGET_FS, markers=markers)


def segment_trials(
    rec: ContinuousRecording, pre_s: float = 0.5, dur_s: float = 31.5
) -> list[Trial]:
    """Cut one trial per marker: extract [onset - pre_s, onset + dur_s], then
    drop the pre-onset segment so exactly dur_s of post-onset data remain.

    The pre-onset padding exists only to absorb slicing/filtering artefacts;
    it never reaches the decoders. The recording must already be at
    TARGET_FS: trials carry no rate of their own.
    """
    if rec.fs != TARGET_FS:
        raise DataError(f"recording at {rec.fs} Hz; trials are cut at {TARGET_FS} Hz only")
    n_pre = duration_samples(pre_s)
    n_dur = duration_samples(dur_s)
    n_total = rec.samples.shape[1]
    trials = []
    for onset in rec.markers:
        if onset - n_pre < 0 or onset + n_dur > n_total:
            raise TruncatedTrial(
                f"trial at sample {onset} does not fit in the recording "
                f"(need [{onset - n_pre}, {onset + n_dur}) of {n_total})"
            )
        trials.append(Trial(samples=rec.samples[:, onset : onset + n_dur].copy()))
    return trials


def preprocess(
    rec: ContinuousRecording,
    notch_hz: float | None = 50.0,
    highpass_hz: float = 6.0,
    lowpass_hz: float = 50.0,
    notch_q: float = 30.0,
    pre_s: float = 0.5,
    dur_s: float = 31.5,
) -> list[Trial]:
    """Full pipeline: notch -> bandpass -> resample to 180 Hz -> segment+crop."""
    if notch_hz is not None:
        rec = apply_zero_phase(FilterSpec(kind="notch", center_hz=notch_hz, q=notch_q), rec)
    rec = apply_zero_phase(
        FilterSpec(kind="bandpass", highpass_hz=highpass_hz, lowpass_hz=lowpass_hz), rec
    )
    if rec.fs != TARGET_FS:
        rec = resample(rec)
    return segment_trials(rec, pre_s=pre_s, dur_s=dur_s)
