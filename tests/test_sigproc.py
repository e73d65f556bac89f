import math

import numpy as np
import pytest
from scipy import signal

from cvepdecode.errors import ConfigError, DataError, InvalidCutoff, TruncatedTrial
from cvepdecode.sigproc import (
    TARGET_FS,
    ContinuousRecording,
    FilterSpec,
    Trial,
    apply_zero_phase,
    duration_samples,
    preprocess,
    resample,
    segment_trials,
)

FS = 512.0


def _rec(x, markers=()):
    return ContinuousRecording(samples=x, fs=FS, markers=list(markers))


def _sine(freq, dur_s=8.0, fs=FS):
    t = np.arange(int(dur_s * fs)) / fs
    return np.sin(2 * np.pi * freq * t)[np.newaxis, :]


def _steady(x):
    n = x.shape[-1]
    return x[..., n // 4 : 3 * n // 4]


BANDPASS = FilterSpec(kind="bandpass", highpass_hz=6.0, lowpass_hz=50.0)


def test_dc_rejected_by_bandpass():
    rec = _rec(np.ones((2, int(FS * 8))))
    out = apply_zero_phase(BANDPASS, rec)
    assert np.abs(_steady(out.samples)).max() < 0.01


def test_inband_sine_preserved():
    # oracle: the designed filter's gain at 20 Hz, applied twice (filtfilt)
    b, a = BANDPASS.design(FS)
    _, h = signal.freqz(b, a, worN=[20.0], fs=FS)
    expected = np.abs(h[0]) ** 2
    out = apply_zero_phase(BANDPASS, _rec(_sine(20.0)))
    amp = np.sqrt(2 * np.mean(_steady(out.samples) ** 2))
    assert amp == pytest.approx(expected, rel=0.05)
    assert expected == pytest.approx(1.0, abs=0.05)


def test_notch_attenuates_line_noise():
    spec = FilterSpec(kind="notch", center_hz=50.0, q=30.0)
    out = apply_zero_phase(spec, _rec(_sine(50.0)))
    amp = np.sqrt(2 * np.mean(_steady(out.samples) ** 2))
    assert 20 * np.log10(1.0 / max(amp, 1e-12)) >= 20.0


def test_cutoff_above_nyquist_rejected():
    spec = FilterSpec(kind="bandpass", highpass_hz=6.0, lowpass_hz=300.0)
    with pytest.raises(InvalidCutoff):
        apply_zero_phase(spec, _rec(_sine(20.0)))
    with pytest.raises(InvalidCutoff):
        FilterSpec(kind="bandpass", highpass_hz=50.0, lowpass_hz=6.0)


def test_zero_phase_no_group_delay():
    rec = _rec(_sine(20.0))
    out = apply_zero_phase(BANDPASS, rec)
    x = _steady(rec.samples[0])
    y = _steady(out.samples[0])
    lags = signal.correlation_lags(len(x), len(y))
    corr = signal.correlate(x, y)
    assert lags[np.argmax(corr)] == 0


def test_filtering_is_linear():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 4096))
    y = rng.normal(size=(1, 4096))
    fa = apply_zero_phase(BANDPASS, _rec(2.0 * x + 3.0 * y)).samples
    fb = 2.0 * apply_zero_phase(BANDPASS, _rec(x)).samples + 3.0 * apply_zero_phase(
        BANDPASS, _rec(y)
    ).samples
    assert np.abs(fa - fb).max() <= 1e-9 * np.abs(fb).max()


def test_resample_length_and_markers():
    rec = _rec(np.zeros((1, 512)), markers=[256])
    out = resample(rec)
    assert out.samples.shape == (1, 180)
    assert out.fs == 180.0
    assert out.markers == [90]


def test_resample_preserves_inband_amplitude():
    rec = _rec(_sine(10.0))
    out = resample(rec)
    # oracle: analytically sampled 10 Hz sine at 180 Hz
    ref = np.sin(2 * np.pi * 10.0 * np.arange(out.samples.shape[1]) / 180.0)
    got = _steady(out.samples[0])
    want = _steady(ref)
    amp = np.sqrt(np.mean(got**2) / np.mean(want**2))
    assert amp == pytest.approx(1.0, abs=0.02)


def test_resample_suppresses_aliases():
    rec = _rec(_sine(100.0))  # above the new Nyquist of 90 Hz
    out = resample(rec)
    residual = np.sqrt(2 * np.mean(_steady(out.samples) ** 2))
    assert residual < 0.05


def test_resample_linearity():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 2048))
    y = rng.normal(size=(1, 2048))
    fa = resample(_rec(2.0 * x - 0.5 * y)).samples
    fb = 2.0 * resample(_rec(x)).samples - 0.5 * resample(_rec(y)).samples
    assert np.abs(fa - fb).max() <= 1e-9 * np.abs(fb).max()


def test_segment_shapes_and_alignment():
    fs = 180.0
    n = int(40 * fs)
    samples = np.arange(n, dtype=float)[np.newaxis, :]
    rec = ContinuousRecording(samples=samples, fs=fs, markers=[900])
    trials = segment_trials(rec, pre_s=0.5, dur_s=31.5)
    assert len(trials) == 1
    assert trials[0].n_samples == 5670
    # first retained sample is the onset itself
    assert trials[0].samples[0, 0] == 900.0


def test_segment_truncated_trial():
    fs = 180.0
    rec = ContinuousRecording(samples=np.zeros((1, int(40 * fs))), fs=fs, markers=[30])
    with pytest.raises(TruncatedTrial):
        segment_trials(rec, pre_s=0.5, dur_s=31.5)


def test_segment_rejects_recording_off_the_180_hz_grid():
    # trials carry no rate, so a 250 Hz recording must be resampled first
    rec = ContinuousRecording(samples=np.zeros((1, 250 * 40)), fs=250.0, markers=[500])
    with pytest.raises(DataError):
        segment_trials(rec, pre_s=0.5, dur_s=2.1)
    assert preprocess(rec, dur_s=2.1)[0].n_samples == 378


def test_pipeline_order_matters():
    # permuting resampling and filtering changes the result; the pipeline
    # fixes notch -> bandpass -> resample -> segment
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, int(FS * 36)))
    rec = ContinuousRecording(samples=x, fs=FS, markers=[int(FS * 2)])
    trials = preprocess(rec, dur_s=31.5)
    assert len(trials) == 1 and trials[0].n_samples == 5670

    swapped = resample(ContinuousRecording(samples=x, fs=FS, markers=[int(FS * 2)]))
    swapped = apply_zero_phase(
        FilterSpec(kind="notch", center_hz=50.0, q=30.0), swapped
    )
    swapped = apply_zero_phase(BANDPASS, swapped)
    other = segment_trials(swapped, pre_s=0.5, dur_s=31.5)
    assert not np.allclose(trials[0].samples, other[0].samples)


def test_duration_samples_rounds_to_the_180_hz_grid():
    assert [duration_samples(d) for d in (0.0, 1.05, 4.2, 31.5)] == [0, 189, 756, 5670]


@pytest.mark.parametrize("seconds", [math.nan, math.inf, -math.inf, -1.0, 1e308])
def test_duration_samples_rejects_durations_off_the_grid(seconds):
    with pytest.raises(ConfigError):
        duration_samples(seconds)


@pytest.mark.parametrize("seconds", [-1.0, math.nan], ids=["negative", "nan"])
def test_trial_prefix_rejects_a_malformed_duration(seconds):
    trial = Trial(samples=np.zeros((2, 756)))
    with pytest.raises(ConfigError):
        trial.prefix(seconds)


@pytest.mark.parametrize("fs", [math.nan, math.inf, 0.0, -180.0], ids=["nan", "inf", "zero", "negative"])
def test_recording_rejects_a_malformed_rate(fs):
    with pytest.raises(ConfigError):
        ContinuousRecording(samples=np.zeros((2, 1000)), fs=fs, markers=[10])


@pytest.mark.parametrize("marker", [-1, 1000], ids=["before", "past"])
def test_recording_rejects_a_marker_outside_it(marker):
    with pytest.raises(TruncatedTrial):
        ContinuousRecording(samples=np.zeros((2, 1000)), fs=FS, markers=[10, marker])


def test_recording_takes_numpy_integer_markers():
    # a numpy integer marks a sample as a Python int does; a float, a bool
    # or a string is refused (tests/test_errors.py)
    x = np.arange(2000.0).reshape(2, 1000)
    rec = ContinuousRecording(samples=x, fs=TARGET_FS, markers=np.array([200, 400]))
    trials = segment_trials(rec, pre_s=0.0, dur_s=1.0)
    assert [t.samples[0, 0] for t in trials] == [200.0, 400.0]
