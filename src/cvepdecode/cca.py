"""Reconvolution CCA decoding.

Each candidate code is scored by the first canonical correlation between
the trial and the code's predicted response time-course, obtained from
sequence-specific spatial (per-channel) and temporal (per-event-lag)
filters. The cumulative variant accumulates spatial covariance plus the
cross/temporal terms of previously decoded trials under naive labeling.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy import linalg

from .encoding import StructureMatrix
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
    k = linalg.solve_triangular(lx, np.asarray(sxm, dtype=float), lower=True)
    k = linalg.solve_triangular(lm, k.T, lower=True).T
    u, s, vt = linalg.svd(k, full_matrices=False)
    w = linalg.solve_triangular(lx.T, u[:, 0], lower=False)
    r = linalg.solve_triangular(lm.T, vt[0], lower=False)
    if r[np.argmax(np.abs(r))] < 0:
        w, r = -w, -r
    rho = float(s[0])
    if not np.isfinite(rho):
        raise NumericalFailure("canonical correlation came out non-finite")
    return w, r, rho


class CcaDecoder:
    """Precomputes per-hypothesis structure grams for one trial length.

    Useful when many trials are decoded at the same duration: the temporal
    gram M_i M_i^T (the expensive term) depends only on the code and the
    length, not on the data.
    """

    def __init__(self, structures: list[StructureMatrix], n_samples: int):
        if n_samples < structures[0].response_len:
            raise TrialTooShort(
                f"trial of {n_samples} samples is shorter than one response "
                f"({structures[0].response_len} samples)"
            )
        self.n_samples = n_samples
        self.mats = [s.truncated(n_samples).mat for s in structures]
        self.grams = [m @ m.T for m in self.mats]

    @property
    def n_hypotheses(self) -> int:
        return len(self.mats)

    def decode(self, trial: Trial, state: CcaState | None = None) -> DecodeOutcome:
        x = trial.samples[:, : self.n_samples]
        if x.shape[1] != self.n_samples:
            raise TrialTooShort(
                f"trial holds {x.shape[1]} samples, decoder expects {self.n_samples}"
            )
        sxx = x @ x.T
        cumulative = state is not None and state.mode == MODE_CUMULATIVE
        if cumulative and not state.is_empty():
            if state.sxx.shape != sxx.shape:
                raise ShapeError("accumulated spatial covariance has a different channel count")
            sxx = sxx + state.sxx
        rhos = np.empty(self.n_hypotheses)
        for i, (mat, gram) in enumerate(zip(self.mats, self.grams)):
            sxm = x @ mat.T
            smm = gram
            if cumulative and not state.is_empty():
                sxm = sxm + state.sxm
                smm = smm + state.smm
            _, _, rhos[i] = fit_filters(sxx, sxm, smm)
        if not np.all(np.isfinite(rhos)):
            raise NumericalFailure("non-finite hypothesis scores")
        label = int(np.argmax(rhos))
        return DecodeOutcome(label=label, scores=rhos, confidence=top2_confidence(rhos))

    def update_cumulative(
        self, state: CcaState, trial: Trial, predicted: int
    ) -> CcaState:
        """Fold the finished trial into the accumulators, pairing its data
        with the structure matrix of its own predicted label (naive
        labeling)."""
        if state.mode != MODE_CUMULATIVE:
            raise ValueError("update_cumulative requires a cumulative-mode state")
        x = trial.samples[:, : self.n_samples]
        mat = self.mats[predicted]
        sxx = x @ x.T
        sxm = x @ mat.T
        smm = self.grams[predicted]
        if state.is_empty():
            return CcaState(
                mode=MODE_CUMULATIVE, sxx=sxx, sxm=sxm, smm=smm.copy(), n_trials_seen=1
            )
        if state.sxx.shape != sxx.shape or state.sxm.shape != sxm.shape:
            raise ShapeError("trial dimensions inconsistent with accumulated state")
        return CcaState(
            mode=MODE_CUMULATIVE,
            sxx=state.sxx + sxx,
            sxm=state.sxm + sxm,
            smm=state.smm + smm,
            n_trials_seen=state.n_trials_seen + 1,
        )

