import numpy as np
import pytest

from cvepdecode import cca, outcome, umm
from cvepdecode.cca import CcaDecoder, CcaState
from cvepdecode.codegen import default_code_set
from cvepdecode.errors import LabelOutOfRange, NumericalFailure, ShapeError
from cvepdecode.outcome import added, check_update, decided, pooled, top2_confidence
from cvepdecode.simulate import ForwardModel, synthesize_trial
from cvepdecode.umm import UmmDecoder, UmmState

CODES = default_code_set(4)
#: each state class's sums, for trials of two channels (UMM: 18 frame
#: blocks of 3 phases x 2 channels, and the 108-feature mean difference)
SHAPES = {
    CcaState: {"sxx": (2, 2), "sxm": (54, 6), "smm": (54, 54)},
    UmmState: {"scatter": (18, 6, 18, 6), "delta_sum": (108,)},
}


def _update(decoder, state, trial, out):
    """The decoder's cumulative update: CCA takes the label, UMM the outcome."""
    taken = out.label if isinstance(state, CcaState) else out
    return decoder.update_cumulative(state, trial, taken)


def test_both_decoders_share_the_modes():
    # the state benchmarks/worker.py builds is the default one: it decides
    # and updates exactly as the default does
    assert cca.MODE_CUMULATIVE is umm.MODE_CUMULATIVE is outcome.MODE_CUMULATIVE
    trials = [synthesize_trial(CODES[i], ForwardModel(snr=0.5), 2.1, i, i) for i in (1, 2)]
    for decoder, named, default in (
        (CcaDecoder(CODES, 1), CcaState(mode=cca.MODE_CUMULATIVE), CcaState()),
        (UmmDecoder(CODES, 1), UmmState(mode=umm.MODE_CUMULATIVE), UmmState()),
    ):
        assert named == default
        for trial in trials:
            got, want = decoder.decode(trial, named), decoder.decode(trial, default)
            assert got.label == want.label and got.confidence == want.confidence
            assert np.array_equal(got.scores, want.scores)
            named = _update(decoder, named, trial, got)
            default = _update(decoder, default, trial, want)
        assert named.n_trials_seen == default.n_trials_seen == 2
        for name in SHAPES[type(default)]:
            assert np.array_equal(getattr(named, name), getattr(default, name))


def test_decided_takes_the_first_best_score():
    scores = np.array([1.0, 4.0, 4.0, 2.0])
    out = decided(scores)
    assert out.label == 1
    assert out.scores is scores
    assert out.confidence == top2_confidence(scores) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_score_is_a_numerical_failure(bad):
    with pytest.raises(NumericalFailure, match="non-finite"):
        decided(np.array([1.0, bad, 0.5]))


@pytest.mark.parametrize("state", [CcaState(), UmmState()], ids=["cca", "umm"])
def test_default_state_decides_as_none_then_updates(state):
    decoder = (CcaDecoder if isinstance(state, CcaState) else UmmDecoder)(CODES, 1)
    trial = synthesize_trial(CODES[2], ForwardModel(snr=0.5), 2.1, 3, 2)
    got, want = decoder.decode(trial, state), decoder.decode(trial)
    assert got.label == want.label and got.confidence == want.confidence
    assert np.array_equal(got.scores, want.scores)
    state = _update(decoder, state, trial, got)
    assert state.n_trials_seen == 1
    assert pooled(state, {name: np.shape(getattr(state, name)) for name in SHAPES[type(state)]})


@pytest.mark.parametrize(
    "state, shapes",
    [(None, SHAPES[CcaState]), (CcaState(), SHAPES[CcaState]), (UmmState(), SHAPES[UmmState])],
    ids=["none", "cca", "umm"],
)
def test_instantaneous_state_pools_nothing(state, shapes):
    # no state, or a fresh one whose sums are all the scalar 0.0: the
    # decision is instantaneous
    assert pooled(state, shapes) is None


def test_pooled_accepts_fresh_and_shaped_sums():
    # one shaped sum makes a state to pool, beside sums still fresh
    for state in (CcaState(sxx=np.zeros((2, 2))), UmmState(delta_sum=np.zeros(108))):
        assert pooled(state, SHAPES[type(state)]) is state


@pytest.mark.parametrize("value", [1.0, np.nan, np.zeros(2), np.zeros((2, 2, 1))])
def test_pooled_refuses_another_sum(value):
    # a non-zero scalar would broadcast into every entry of the sum
    state = UmmState(delta_sum=value)
    with pytest.raises(ShapeError, match="delta_sum"):
        pooled(state, {"delta_sum": (4,)})


def test_check_update():
    # only the label is checked: any state, a default one too, takes an update
    check_update(3, 4)
    for label in (-1, 4):
        with pytest.raises(LabelOutOfRange):
            check_update(label, 4)


def test_added_sums_each_term_and_counts_a_trial():
    state = added(CcaState(), sxx=np.eye(2), smm=np.ones((54, 54)))
    state = added(state, sxx=np.eye(2))
    assert np.array_equal(state.sxx, 2 * np.eye(2))
    assert np.array_equal(state.smm, np.ones((54, 54)))
    assert state.sxm == 0.0 and state.n_trials_seen == 2


@pytest.mark.parametrize("label", [np.int64(3), np.int32(0), np.uint8(2)])
def test_check_update_accepts_numpy_integers(label):
    check_update(label, 4)


@pytest.mark.parametrize(
    "label",
    [2.5, 1.0, np.float64(1.0), True, False, np.bool_(True), "1"],
    ids=["float", "whole-float", "numpy-float", "true", "false", "numpy-bool", "text"],
)
def test_check_update_refuses_a_label_that_is_not_an_integer(label):
    # a bool or a float indexes no hypothesis, even where its value would
    with pytest.raises(LabelOutOfRange):
        check_update(label, 4)


def test_top2_confidence():
    assert top2_confidence(np.array([3.0])) == 1.0
    assert top2_confidence(np.array([0.0, -1.0])) == 0.0
    assert top2_confidence(np.array([1.0, 4.0, 3.0])) == 0.25
    # the margin is divided by the best score itself, however small
    assert top2_confidence(np.array([1e-13, 0.0])) == 1.0
