import numpy as np
import pytest

from cvepdecode.codegen import BitSequence, default_code_set
from cvepdecode.encoding import (
    EVENT_LONG,
    EVENT_ONSET,
    EVENT_SHORT,
    RESPONSE_LEN,
    StructureMatrix,
    n_cycles_to_cover,
    structure_for_code,
)
from cvepdecode.errors import UnmodulatedCode


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
