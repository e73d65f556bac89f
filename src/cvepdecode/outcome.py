"""The decision contract that the CCA and UMM decoders share.

Both decide a trial instantaneously, or cumulatively by pooling a state of
running sums over the trials decided before it: the two modes, the check
of a state's sums and of an update, and the step from hypothesis scores to
a decided outcome are here, once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, LabelOutOfRange, NumericalFailure, ShapeError

MODE_INSTANTANEOUS = "instantaneous"
MODE_CUMULATIVE = "cumulative"


@dataclass(frozen=True)
class DecodeOutcome:
    """label: winning hypothesis index (0-based, ties to the lowest index);
    scores: one score per hypothesis; confidence: normalized top-2 margin
    in [0, 1]. Hypotheses a trial cannot tell apart score bit-equal, so a
    best score that several share is a tie: the lowest index wins, the
    confidence is exactly 0.0, and the tied group is the hypotheses whose
    score equals the label's."""

    label: int
    scores: NDArray[np.floating]
    confidence: float


def top2_confidence(scores: NDArray) -> float:
    """(s1 - s2) / s1 over the two best scores, clipped to [0, 1];
    zero when the best score is not positive."""
    s = np.sort(np.asarray(scores, dtype=float))[::-1]
    if len(s) < 2:
        return 1.0
    if s[0] <= 0:
        return 0.0
    return float(np.clip((s[0] - s[1]) / s[0], 0.0, 1.0))


def decided(scores: NDArray) -> DecodeOutcome:
    """The first hypothesis of the best score, with its top-2 confidence.
    NumericalFailure if a score is not finite."""
    if not np.all(np.isfinite(scores)):
        raise NumericalFailure("non-finite hypothesis scores")
    label = int(np.argmax(scores))
    return DecodeOutcome(label=label, scores=scores, confidence=top2_confidence(scores))


def pooled(state, shapes: dict[str, tuple[int, ...]]):
    """The state if it is cumulative, else None. ShapeError for a sum named
    in ``shapes`` that is neither a fresh 0.0 nor of its shape there: a sum
    of another shape must not broadcast into the decision."""
    if state is None or state.mode != MODE_CUMULATIVE:
        return None
    for name, shape in shapes.items():
        value = getattr(state, name)
        if np.shape(value) != shape and not (np.shape(value) == () and value == 0.0):
            raise ShapeError(
                f"accumulated {name} has shape {np.shape(value)}, the trial's is {shape}"
            )
    return state


def check_update(state, label: int, n_hypotheses: int) -> None:
    """ConfigError unless the state is cumulative, LabelOutOfRange unless the
    label is an integer, a Python or numpy one but not a bool, that names
    one of the n_hypotheses."""
    if state.mode != MODE_CUMULATIVE:
        raise ConfigError("update_cumulative requires a cumulative-mode state")
    is_integer = isinstance(label, (int, np.integer)) and not isinstance(label, bool)
    if not (is_integer and 0 <= label < n_hypotheses):
        raise LabelOutOfRange(f"label {label} is not one of the {n_hypotheses} hypotheses")
