"""Continuous EEG preprocessing: zero-phase notch/bandpass filtering,
polyphase resampling to 180 Hz, and trial segmentation with initial-segment
cropping.

A raw recording carries its own sampling rate; everything downstream of
segmentation is on the one TARGET_FS (180 Hz) grid. Trials store no rate,
and segment_trials refuses a recording that is not at TARGET_FS.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray
from scipy import signal

from .errors import DataError, InvalidCutoff, TruncatedTrial

TARGET_FS = 180.0

# reflect padding applied around each channel before filtfilt, in seconds
EDGE_PAD_S = 1.0


@dataclass
class ContinuousRecording:
    """Multichannel recording with trial-onset markers.

    samples: (n_channels, n_samples) in microvolts.
    markers: sample indices of trial onsets.
    """

    samples: NDArray[np.floating]
    fs: float
    markers: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.fs <= 0:
            raise ValueError("sampling rate must be positive")
        n = self.samples.shape[1]
        if any(not 0 <= m < n for m in self.markers):
            raise ValueError("marker index outside the recording")


@dataclass(frozen=True)
class FilterSpec:
    """Either a notch (center_hz, q) or a bandpass (highpass_hz, lowpass_hz, order)."""

    kind: str
    center_hz: float | None = None
    q: float = 30.0
    highpass_hz: float | None = None
    lowpass_hz: float | None = None
    order: int = 4

    def __post_init__(self):
        if self.kind not in ("notch", "bandpass"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind == "notch" and (self.center_hz is None or self.q <= 0):
            raise ValueError("notch needs center_hz and positive Q")
        if self.kind == "bandpass":
            if self.highpass_hz is None or self.lowpass_hz is None:
                raise ValueError("bandpass needs both cutoffs")
            if not 0 < self.highpass_hz < self.lowpass_hz:
                raise InvalidCutoff(
                    f"need 0 < highpass < lowpass, got "
                    f"({self.highpass_hz}, {self.lowpass_hz})"
                )

    def design(self, fs: float):
        nyq = fs / 2.0
        if self.kind == "notch":
            if self.center_hz >= nyq:
                raise InvalidCutoff(f"notch at {self.center_hz} Hz >= Nyquist {nyq} Hz")
            b, a = signal.iirnotch(self.center_hz, self.q, fs=fs)
            return b, a
        if self.lowpass_hz >= nyq:
            raise InvalidCutoff(f"lowpass {self.lowpass_hz} Hz >= Nyquist {nyq} Hz")
        return signal.butter(
            self.order, [self.highpass_hz, self.lowpass_hz], btype="bandpass", fs=fs
        )


@dataclass
class Trial:
    """One segmented trial at TARGET_FS (180 Hz). samples: (n_channels, n_samples)."""

    samples: NDArray[np.floating]
    code_index_true: int | None = None

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    def prefix(self, duration_s: float) -> "Trial":
        """The first duration_s seconds of the trial."""
        t = int(round(duration_s * TARGET_FS))
        if t > self.n_samples:
            raise TruncatedTrial(
                f"requested {duration_s} s but trial holds {self.n_samples / TARGET_FS} s"
            )
        return replace(self, samples=self.samples[:, :t])


def apply_zero_phase(filt: FilterSpec, rec: ContinuousRecording) -> ContinuousRecording:
    """Forward-backward filtering per channel; length preserved, no group delay.

    Channels are reflect-padded by one second on both ends before filtering
    to suppress edge transients.
    """
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
    n_pre = int(round(pre_s * rec.fs))
    n_dur = int(round(dur_s * rec.fs))
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
