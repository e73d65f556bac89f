import numpy as np
import pytest

from cvepdecode import cca, outcome, umm
from cvepdecode.cca import CcaState
from cvepdecode.errors import ConfigError, LabelOutOfRange, NumericalFailure, ShapeError
from cvepdecode.outcome import MODE_CUMULATIVE, check_update, decided, pooled, top2_confidence
from cvepdecode.umm import UmmState


def test_both_decoders_share_the_modes():
    assert cca.MODE_CUMULATIVE is umm.MODE_CUMULATIVE is outcome.MODE_CUMULATIVE
    assert cca.MODE_INSTANTANEOUS is umm.MODE_INSTANTANEOUS is outcome.MODE_INSTANTANEOUS


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


@pytest.mark.parametrize("state", [None, CcaState(), UmmState()], ids=["none", "cca", "umm"])
def test_instantaneous_state_pools_nothing(state):
    assert pooled(state, {"sxx": (2, 2)}) is None


def test_pooled_accepts_fresh_and_shaped_sums():
    state = CcaState(mode=MODE_CUMULATIVE, sxx=np.zeros((2, 2)))
    assert pooled(state, {"sxx": (2, 2), "smm": (54, 54)}) is state


@pytest.mark.parametrize("value", [1.0, np.nan, np.zeros(2), np.zeros((2, 2, 1))])
def test_pooled_refuses_another_sum(value):
    # a non-zero scalar would broadcast into every entry of the sum
    state = UmmState(mode=MODE_CUMULATIVE, delta_sum=value)
    with pytest.raises(ShapeError, match="delta_sum"):
        pooled(state, {"delta_sum": (4,)})


def test_check_update():
    check_update(UmmState(mode=MODE_CUMULATIVE), 3, 4)
    with pytest.raises(ConfigError):
        check_update(UmmState(), 0, 4)
    for label in (-1, 4):
        with pytest.raises(LabelOutOfRange):
            check_update(CcaState(mode=MODE_CUMULATIVE), label, 4)


def test_top2_confidence():
    assert top2_confidence(np.array([3.0])) == 1.0
    assert top2_confidence(np.array([0.0, -1.0])) == 0.0
    assert top2_confidence(np.array([1.0, 4.0, 3.0])) == 0.25
