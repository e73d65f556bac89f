"""The decision contract that the CCA and UMM decoders share.

Both decide a trial instantaneously, or cumulatively by pooling a state of
running sums over the trials decided before it. A state is its sums: a
decision handed none, or a fresh one whose sums are all the scalar 0.0,
decides instantaneously, and any other pools it. Which state to pool, the
check of its sums and of an update's label, the one step that adds a
trial's terms to a state, and the step from hypothesis scores to a decided
outcome are here, once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .errors import LabelOutOfRange, NumericalFailure, ShapeError

#: the default of a state's ``mode`` field, which nothing reads: a state
#: is cumulative by existing; benchmarks/worker.py still passes it by name
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
    """The state to pool, or None for no state or a fresh one, whose sums
    named in ``shapes`` are all the scalar 0.0 and would add nothing.
    ShapeError for a sum that is neither a fresh 0.0 nor of its shape
    there: a sum of another shape must not broadcast into the decision."""
    if state is None:
        return None
    fresh = True
    for name, shape in shapes.items():
        value = getattr(state, name)
        if np.shape(value) == () and value == 0.0:
            continue
        if np.shape(value) != shape:
            raise ShapeError(
                f"accumulated {name} has shape {np.shape(value)}, the trial's is {shape}"
            )
        fresh = False
    return None if fresh else state


def check_update(label: int, n_hypotheses: int) -> None:
    """LabelOutOfRange unless the label is an integer, a Python or numpy one
    but not a bool, that names one of the n_hypotheses."""
    is_integer = isinstance(label, (int, np.integer)) and not isinstance(label, bool)
    if not (is_integer and 0 <= label < n_hypotheses):
        raise LabelOutOfRange(f"label {label} is not one of the {n_hypotheses} hypotheses")


def added(state, **terms):
    """A new state: the given one with each term added to the sum of its
    name, and one more trial seen."""
    sums = {name: getattr(state, name) + term for name, term in terms.items()}
    return replace(state, n_trials_seen=state.n_trials_seen + 1, **sums)
