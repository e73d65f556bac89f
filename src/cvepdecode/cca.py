"""Reconvolution CCA decoding.

Each candidate code is scored by the first canonical correlation between
the trial and the code's predicted response time-course, obtained from
sequence-specific spatial (per-channel) and temporal (per-event-lag)
filters. The cumulative variant accumulates spatial covariance plus the
cross/temporal terms of previously decoded trials under naive labeling.

The decoder factors each hypothesis' temporal gram once, when it is built,
and the spatial covariance once per trial; it forms cross-covariances from
the codes' event onsets, never from a stored design matrix.
:func:`fit_filters` and the decoder share one whitening and SVD core.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray
from scipy import linalg

from .encoding import RESPONSE_LEN, StructureMatrix
from .errors import (
    DegenerateCovariance,
    NumericalFailure,
    ShapeError,
    TrialTooShort,
)
from .outcome import DecodeOutcome, top2_confidence
from .sigproc import Trial

#: Relative ridge added to both covariance blocks before whitening; keeps
#: Eq-style empirical covariances usable when they are rank-deficient.
RIDGE_REL = 1e-9

MODE_INSTANTANEOUS = "instantaneous"
MODE_CUMULATIVE = "cumulative"


@dataclass
class CcaState:
    """Accumulated covariance terms for cumulative decoding.

    The spatial accumulator and the predicted-structure cross/temporal
    accumulators are shared across hypotheses: the spatial covariance does
    not depend on the hypothesis, and under naive labeling every
    hypothesis reuses the same predicted structure of past trials.
    """

    mode: str = MODE_INSTANTANEOUS
    sxx: NDArray | None = None     # (C, C)
    sxm: NDArray | None = None     # (C, M)
    smm: NDArray | None = None     # (M, M)
    n_trials_seen: int = 0

    def is_empty(self) -> bool:
        return self.n_trials_seen == 0


def _ridged_cholesky(cov: NDArray, what: str) -> NDArray:
    tr = float(np.trace(cov))
    if not np.isfinite(tr) or tr <= 0:
        raise DegenerateCovariance(f"{what} covariance has non-positive trace")
    ridged = cov + (RIDGE_REL * tr / cov.shape[0]) * np.eye(cov.shape[0])
    try:
        return linalg.cholesky(ridged, lower=True)
    except linalg.LinAlgError as exc:
        raise DegenerateCovariance(f"{what} covariance is not positive definite") from exc


def _leading_pair(lx: NDArray, sxm: NDArray, lm: NDArray) -> tuple[NDArray, NDArray, float]:
    """Leading singular pair (u, v, rho) of the cross-covariance whitened
    by the lower Cholesky factors lx (spatial) and lm (temporal)."""
    k = linalg.solve_triangular(lx, sxm, lower=True)
    k = linalg.solve_triangular(lm, k.T, lower=True).T
    u, s, vt = linalg.svd(k, full_matrices=False)
    rho = float(s[0])
    if not np.isfinite(rho):
        raise NumericalFailure("canonical correlation came out non-finite")
    return u[:, 0], vt[0], rho


def fit_filters(
    sxx: NDArray, sxm: NDArray, smm: NDArray
) -> tuple[NDArray, NDArray, float]:
    """Maximize w.sxm.r / sqrt((w.sxx.w)(r.smm.r)) over filter pairs.

    Both covariance blocks get a tiny relative ridge, are Cholesky
    whitened, and the leading singular pair of the whitened
    cross-covariance yields the filters. The attained maximum (the first
    canonical correlation) is returned as rho. Sign convention: the
    largest-magnitude entry of the temporal filter is positive.

    Returns
    -------
    (w, r, rho): spatial filter (C,), temporal filter (M,), correlation.
    """
    lx = _ridged_cholesky(np.asarray(sxx, dtype=float), "spatial")
    lm = _ridged_cholesky(np.asarray(smm, dtype=float), "temporal")
    u, v, rho = _leading_pair(lx, np.asarray(sxm, dtype=float), lm)
    w = linalg.solve_triangular(lx.T, u, lower=False)
    r = linalg.solve_triangular(lm.T, v, lower=False)
    if r[np.argmax(np.abs(r))] < 0:
        w, r = -w, -r
    return w, r, rho


def _cross(x: NDArray, onsets: list[list[NDArray]]) -> list[NDArray]:
    """x M^T for each hypothesis given as per-event onsets: the lagged
    windows x[:, o : o + RESPONSE_LEN] summed over each event's onsets o.
    Zero padding cuts the responses that run past the trial end."""
    padded = np.pad(x, ((0, 0), (0, RESPONSE_LEN - 1)))
    lagged = sliding_window_view(padded, RESPONSE_LEN, axis=1)
    return [np.concatenate([lagged[:, o, :].sum(axis=1) for o in per_event], axis=1)
            for per_event in onsets]


class CcaDecoder:
    """Scores every code hypothesis on trials of one length.

    Per hypothesis it keeps the event onsets below that length, the temporal
    gram M_i M_i^T and the gram's ridged Cholesky factor, none of which
    depends on the data; the dense design M_i is built once, for the gram.
    """

    def __init__(self, structures: list[StructureMatrix], n_samples: int):
        if n_samples < RESPONSE_LEN:
            raise TrialTooShort(
                f"trial of {n_samples} samples is shorter than one response "
                f"({RESPONSE_LEN} samples)"
            )
        self.n_samples = n_samples
        prefixes = [s.truncated(n_samples) for s in structures]
        self.onsets = [p.onsets for p in prefixes]
        self.grams = [m @ m.T for m in (p.mat for p in prefixes)]
        self.gram_factors = [_ridged_cholesky(g, "temporal") for g in self.grams]

    @property
    def n_hypotheses(self) -> int:
        return len(self.onsets)

    def decode(self, trial: Trial, state: CcaState | None = None) -> DecodeOutcome:
        x = trial.samples[:, : self.n_samples]
        if x.shape[1] != self.n_samples:
            raise TrialTooShort(
                f"trial holds {x.shape[1]} samples, decoder expects {self.n_samples}"
            )
        sxx = x @ x.T
        cumulative = state is not None and state.mode == MODE_CUMULATIVE and not state.is_empty()
        if cumulative:
            if state.sxx.shape != sxx.shape:
                raise ShapeError("accumulated spatial covariance has a different channel count")
            sxx = sxx + state.sxx
        lx = _ridged_cholesky(sxx, "spatial")
        rhos = np.empty(self.n_hypotheses)
        for i, sxm in enumerate(_cross(x, self.onsets)):
            lm = self.gram_factors[i]
            if cumulative:
                sxm = sxm + state.sxm
                lm = _ridged_cholesky(self.grams[i] + state.smm, "temporal")
            rhos[i] = _leading_pair(lx, sxm, lm)[2]
        if not np.all(np.isfinite(rhos)):
            raise NumericalFailure("non-finite hypothesis scores")
        label = int(np.argmax(rhos))
        return DecodeOutcome(label=label, scores=rhos, confidence=top2_confidence(rhos))

    def update_cumulative(
        self, state: CcaState, trial: Trial, predicted: int
    ) -> CcaState:
        """Fold the finished trial into the accumulators, pairing its data
        with the design of its own predicted label (naive labeling)."""
        if state.mode != MODE_CUMULATIVE:
            raise ValueError("update_cumulative requires a cumulative-mode state")
        x = trial.samples[:, : self.n_samples]
        sxx = x @ x.T
        (sxm,) = _cross(x, [self.onsets[predicted]])
        smm = self.grams[predicted]
        if state.is_empty():
            state = CcaState(mode=MODE_CUMULATIVE, sxx=0.0, sxm=0.0, smm=0.0)
        elif state.sxx.shape != sxx.shape or state.sxm.shape != sxm.shape:
            raise ShapeError("trial dimensions inconsistent with accumulated state")
        return CcaState(
            mode=MODE_CUMULATIVE,
            sxx=state.sxx + sxx,
            sxm=state.sxm + sxm,
            smm=state.smm + smm,
            n_trials_seen=state.n_trials_seen + 1,
        )
