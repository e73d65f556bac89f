import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvepdecode import cca, encoding, umm
from cvepdecode.cca import CcaDecoder, CcaState
from cvepdecode.codegen import BitSequence, code_bits, default_code_set
from cvepdecode.encoding import (
    EVENT_LONG,
    EVENT_ONSET,
    EVENT_SHORT,
    FRAMES_PER_EPOCH,
    N_EVENTS,
    RESPONSE_LEN,
    StructureMatrix,
    TiledWeights,
    frame_events,
    n_cycles_to_cover,
    structure_for_code,
    tiled_window_sums,
    window_sums,
)
from cvepdecode.errors import UnmodulatedCode
from cvepdecode.sigproc import Trial
from cvepdecode.simulate import ForwardModel, synthesize_trial
from cvepdecode.umm import UmmDecoder, UmmState, slice_epochs


def _code(bits):
    return BitSequence(bits=tuple(bits))


def test_short_flash_events():
    ev = structure_for_code(_code([1, 0, 1, 0]), n_cycles=1)
    assert ev.events[EVENT_SHORT].sum() == 2
    assert ev.events[EVENT_LONG].sum() == 0
    # events on the 180 Hz grid, at frames 0 and 2
    assert ev.events[EVENT_SHORT, 0] == 1
    assert ev.events[EVENT_SHORT, 6] == 1


def test_long_flash_event_at_run_start():
    ev = structure_for_code(_code([0, 1, 1, 0]), n_cycles=1)
    assert ev.events[EVENT_LONG].sum() == 1
    assert ev.events[EVENT_LONG, 3] == 1
    assert ev.events[EVENT_SHORT].sum() == 0


def test_onset_event_only_at_zero():
    ev = structure_for_code(_code([1, 0, 1, 0]), n_cycles=3)
    onset = ev.events[EVENT_ONSET]
    assert onset[0] == 1 and onset.sum() == 1


def test_run_longer_than_two_rejected():
    with pytest.raises(UnmodulatedCode):
        structure_for_code(_code([1, 1, 1, 0]), n_cycles=1)


@pytest.mark.parametrize("n_cycles", [1, 2])
def test_run_wrapping_the_cycle_rejected_at_any_cycle_count(n_cycles):
    # frames 3, 0 and 1 are one run of three, read cyclically: the code is
    # refused whether or not its tiling shows the run whole
    code = _code([1, 1, 0, 1])
    with pytest.raises(UnmodulatedCode):
        structure_for_code(code, n_cycles)
    with pytest.raises(UnmodulatedCode):
        frame_events(code_bits([code]), n_cycles, 4)


def _tiled_flash_runs(bits, n_cycles, n_frames):
    """Oracle: the (N_EVENTS, n_frames) events of the bits tiled over
    n_cycles, read from the maximal runs of ones of the tiled sequence;
    None if a run is longer than two frames."""
    tiled = np.tile(np.asarray(bits), n_cycles)
    edges = np.diff(np.concatenate([[0], tiled, [0]]))
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - starts
    if np.any(lengths > 2):
        return None
    events = np.zeros((N_EVENTS, len(tiled)))
    events[np.where(lengths == 1, EVENT_SHORT, EVENT_LONG), starts] = 1
    events[EVENT_ONSET, 0] = 1
    return events[:, :n_frames]


#: a hand-made code whose run at frames 8 and 0 wraps the cycle
WRAPPING = _code([1, 0, 0, 1, 0, 1, 1, 0, 1])


@pytest.mark.parametrize("n_cycles", [1, 2, 3, 15])
@pytest.mark.parametrize("codes", [default_code_set(20), [WRAPPING]], ids=["default", "wrapping"])
def test_frame_events_are_the_flash_runs_of_the_tiled_bits(codes, n_cycles):
    bits = code_bits(codes)
    period = bits.shape[1]
    assert np.any(bits[:, 0] * bits[:, -1])    # some code wraps the cycle
    full = n_cycles * period
    # below, at and between cycle multiples, the tiling's last frame included
    counts = {18, period - 1, period, period + 1, full - period // 2, full - 1, full}
    for n_frames in sorted(n for n in counts if 0 < n <= full):
        weights = frame_events(bits, n_cycles, n_frames)
        assert weights.n_frames == n_frames and weights.period == period
        want = np.concatenate([_tiled_flash_runs(b, n_cycles, n_frames) for b in bits])
        assert np.array_equal(weights.dense(), want), n_frames
    for code, b in zip(codes, bits):
        events = structure_for_code(code, n_cycles).events
        assert events.shape == (N_EVENTS, 3 * full)
        assert not np.any(events[:, np.arange(3 * full) % 3 != 0])
        assert np.array_equal(events[:, ::3], _tiled_flash_runs(b, n_cycles, full))


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=12),
    n_cycles=st.integers(1, 4),
    data=st.data(),
)
def test_frame_events_of_any_bits(bits, n_cycles, data):
    # three cycles show every cyclic run whole, the wrapping ones too
    n_frames = data.draw(st.integers(1, n_cycles * len(bits)))
    if _tiled_flash_runs(bits, 3, 0) is None:
        with pytest.raises(UnmodulatedCode):
            frame_events(code_bits([_code(bits)]), n_cycles, n_frames)
    else:
        got = frame_events(code_bits([_code(bits)]), n_cycles, n_frames).dense()
        assert np.array_equal(got, _tiled_flash_runs(bits, n_cycles, n_frames))


def test_flash_budget_full_code():
    for code in default_code_set(5):
        ev = structure_for_code(code, n_cycles=1)
        n_short = int(ev.events[EVENT_SHORT].sum())
        n_long = int(ev.events[EVENT_LONG].sum())
        assert n_short + 2 * n_long == 63


def test_structure_matrix_shifted_identity():
    events = np.zeros((1, RESPONSE_LEN + 6), dtype=np.int8)
    events[0, 0] = 1
    mat = StructureMatrix(events=events).mat
    assert np.array_equal(mat, np.eye(RESPONSE_LEN, RESPONSE_LEN + 6))


def test_structure_matrix_full_trial_shape():
    code = default_code_set(1)[0]
    struct = structure_for_code(code, n_cycles=15)
    assert struct.mat.shape == (162, 5670)


def test_structure_matrix_matches_convolution():
    # oracle: direct convolution of each event train with its response
    rng = np.random.default_rng(0)
    code = default_code_set(3)[2]
    struct = structure_for_code(code, n_cycles=2)
    n_events, n_samples = struct.events.shape
    length = RESPONSE_LEN
    for _ in range(5):
        r = rng.normal(size=n_events * length)
        via_matrix = r @ struct.mat
        direct = np.zeros(n_samples)
        for e in range(n_events):
            full = np.convolve(struct.events[e], r[e * length : (e + 1) * length])
            direct += full[:n_samples]
        assert np.abs(via_matrix - direct).max() < 1e-10


def test_no_wraparound():
    # an event near the trial end must not leak to the start
    events = np.zeros((1, RESPONSE_LEN + 6), dtype=np.int8)
    events[0, -1] = 1
    mat = StructureMatrix(events=events).mat
    assert mat[:, 0].sum() == 0
    assert mat[0, -1] == 1 and mat.sum() == 1


def test_structures_distinct_across_codes():
    codes = default_code_set(20)
    mats = [structure_for_code(c, n_cycles=1).mat.tobytes() for c in codes]
    assert len(set(mats)) == len(codes)


def test_truncation_is_column_prefix():
    code = default_code_set(1)[0]
    struct = structure_for_code(code, n_cycles=15)
    short = struct.truncated(378)
    assert np.array_equal(short.mat, struct.mat[:, :378])
    assert np.array_equal(short.events, struct.events[:, :378])


def test_cycle_count_follows_code_length():
    code = default_code_set(1)[0]  # 126 frames, 378 samples per cycle
    assert [n_cycles_to_cover(code, n) for n in (54, 378, 379, 756, 5670)] == [1, 1, 2, 2, 15]
    short = BitSequence(bits=code.bits[:64])  # 192 samples per cycle
    assert [n_cycles_to_cover(short, n) for n in (192, 193, 756)] == [1, 2, 4]


@settings(max_examples=80, deadline=None)
@given(
    period=st.integers(1, 40),
    n_cycles=st.integers(0, 5),
    rem=st.integers(0, 39),
    n_rows=st.integers(1, 4),
    zero_past=st.booleans(),
    first=st.booleans(),
    last=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(period=30, n_cycles=0, rem=20, n_rows=2, zero_past=False, first=True, last=True, seed=0)
@example(period=30, n_cycles=3, rem=0, n_rows=2, zero_past=True, first=True, last=True, seed=1)
@example(period=30, n_cycles=3, rem=7, n_rows=2, zero_past=False, first=True, last=True, seed=2)
@example(period=5, n_cycles=4, rem=3, n_rows=3, zero_past=False, first=True, last=True, seed=3)
# the dense weights cancel to zero, and so does every window sum
@example(period=1, n_cycles=2, rem=0, n_rows=1, zero_past=False, first=True, last=True, seed=42)
@example(period=1, n_cycles=2, rem=0, n_rows=1, zero_past=True, first=True, last=True, seed=42)
def test_tiled_window_sums_are_the_dense_kernel(
    period, n_cycles, rem, n_rows, zero_past, first, last, seed
):
    # integer weights keep the split into pattern and corrections exact;
    # frames past K are nonzero for UMM's epochs and zero for CCA's trials
    n_frames = n_cycles * period + rem % period
    if n_frames == 0:
        n_frames = 1
    rng = np.random.default_rng(seed)
    pattern = rng.integers(-2, 3, size=(n_rows, period)).astype(float)
    weights = np.tile(pattern, n_cycles + 1)[:, :n_frames]
    positions = sorted({k for k, on in ((0, first), (n_frames - 1, last)) if on})
    for k in positions:
        weights[:, k] += rng.integers(1, 3, size=n_rows)
    frames = rng.normal(size=(n_frames + FRAMES_PER_EPOCH - 1, 3))
    if zero_past:
        frames[n_frames:] = 0.0
    want = window_sums(frames, weights)
    tiled = TiledWeights(
        pattern, n_frames, np.array(positions, dtype=np.intp),
        weights[:, positions] - np.tile(pattern, n_cycles + 1)[:, positions],
    )
    assert np.array_equal(tiled.dense(), weights)
    got = tiled_window_sums(frames, tiled)
    # rounding follows the terms the fold adds, not the sums, which may
    # cancel to zero
    terms = np.abs(pattern).sum() * (n_cycles + 1) + np.abs(tiled.corrections).sum()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(frames).max() * terms


def _record_window_sum_frames(monkeypatch):
    """The frame counts every call of the window-sum kernel is given."""
    seen = []
    original = encoding.window_sums

    def recorded(frames, weights):
        seen.append(len(frames))
        return original(frames, weights)

    monkeypatch.setattr(encoding, "window_sums", recorded)
    return seen


@pytest.mark.parametrize("n_samples, most_frames", [(5670, 126 + 17), (720, 240 + 17)])
def test_decisions_fold_trials_of_two_code_cycles(monkeypatch, n_samples, most_frames):
    # 31.5 s is 15 cycles of the 126-frame codes: the kernel sees one cycle
    # and the 17 frames the last window runs past it. 4.0 s (240 frames)
    # holds one full cycle, so the kernel sees the whole trial.
    codes = default_code_set(20)
    decoder = CcaDecoder(codes, 15)
    trial = synthesize_trial(codes[0], ForwardModel(snr=0.05), 31.5, 4, 0)
    trial = Trial(samples=trial.samples[:, :n_samples])
    seen = _record_window_sum_frames(monkeypatch)
    state = decoder.update_cumulative(CcaState(mode=cca.MODE_CUMULATIVE), trial, 0)
    decoder.decode(trial, state)
    decoder.decode(trial)
    assert seen and max(seen) == most_frames


@pytest.mark.parametrize("dur_s, most_frames", [(31.5, 126 + 17), (4.2, 235 + 17)])
def test_flash_sums_fold_trials_of_two_code_cycles(monkeypatch, dur_s, most_frames):
    # 31.5 s holds 1873 epochs, 14 full cycles of the 126-frame codes: the
    # kernel sees one cycle and the 17 frames past it. 4.2 s holds 235
    # epochs, one full cycle: the flash sums see every frame.
    codes = default_code_set(20)
    ep = slice_epochs(synthesize_trial(codes[3], ForwardModel(snr=0.05), dur_s, 0, 3))
    # the epoch sum and the lag-0 grams weight the frames by data, not by
    # the period, and stay on the plain kernel: form them before recording
    ep.centered_moments
    seen = _record_window_sum_frames(monkeypatch)
    dec = UmmDecoder(codes, 15)
    out = dec.decode_epochs(ep)
    dec.update_cumulative(UmmState(mode=umm.MODE_CUMULATIVE), ep, out)
    assert seen and max(seen) == most_frames
