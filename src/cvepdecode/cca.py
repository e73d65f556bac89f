"""Reconvolution CCA decoding.

Each candidate code is scored by the first canonical correlation between
the trial and the code's predicted response time-course, obtained from
sequence-specific spatial (per-channel) and temporal (per-event-lag)
filters. The cumulative variant accumulates spatial covariance plus the
cross/temporal terms of previously decoded trials under naive labeling.

The decoder stores no design matrix: the cross-covariances of a trial with
every hypothesis' design are one call of the frame window-sum kernel of
:mod:`.encoding`, weighted by the hypotheses' per-frame events. It factors
the temporal grams once, when built; every hypothesis is whitened as in
:func:`fit_filters`, by stacked triangular solves, and scored by one SVD.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import linalg

from .encoding import FRAMES_PER_EPOCH, N_EVENTS, RESPONSE_LEN, SAMPLES_PER_FRAME
from .encoding import StructureMatrix, trial_frames, window_sums
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
    """Lower Cholesky factors of the float stack cov (..., n, n), each ridged
    by RIDGE_REL times its mean diagonal, in place: callers pass scratch."""
    tr = np.trace(cov, axis1=-2, axis2=-1)
    if not np.all(np.isfinite(tr) & (tr > 0)):
        bad = "non-positive" if np.all(np.isfinite(tr)) else "non-finite"
        raise DegenerateCovariance(f"{what} covariance has a {bad} trace")
    np.einsum("...ii->...i", cov)[...] += (RIDGE_REL * tr / cov.shape[-1])[..., np.newaxis]
    try:  # SciPy's potrf per matrix beat np.linalg.cholesky on the whole stack
        for i in np.ndindex(cov.shape[:-2]):
            cov[i] = linalg.cholesky(cov[i], lower=True, check_finite=False)
    except linalg.LinAlgError as exc:
        raise DegenerateCovariance(f"{what} covariance is not positive definite") from exc
    return cov


def _whiten(lx: NDArray, sxm: NDArray, lm: NDArray) -> NDArray:
    """lx^-1 sxm lm^-T for lower Cholesky factors; sxm and lm may be stacks."""
    k = linalg.solve_triangular(lx, sxm, lower=True)
    return linalg.solve_triangular(lm, k.swapaxes(-1, -2), lower=True).swapaxes(-1, -2)


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
    lx = _ridged_cholesky(np.array(sxx, dtype=float), "spatial")
    lm = _ridged_cholesky(np.array(smm, dtype=float), "temporal")
    u, s, vt = linalg.svd(_whiten(lx, np.asarray(sxm, dtype=float), lm), full_matrices=False)
    rho = float(s[0])
    if not np.isfinite(rho):
        raise NumericalFailure("canonical correlation came out non-finite")
    w = linalg.solve_triangular(lx.T, u[:, 0], lower=False)
    r = linalg.solve_triangular(lm.T, vt[0], lower=False)
    if r[np.argmax(np.abs(r))] < 0:
        w, r = -w, -r
    return w, r, rho


class CcaDecoder:
    """Scores every code hypothesis on trials of one length.

    It keeps ``weights`` (N * N_EVENTS, ceil(n_samples / 3)), event e of
    hypothesis i at each frame start in row i * N_EVENTS + e, and the grams
    M_i M_i^T and their ridged Cholesky factors as (N, 162, 162) stacks.
    """

    def __init__(self, structures: list[StructureMatrix], n_samples: int):
        if n_samples < RESPONSE_LEN:
            raise TrialTooShort(
                f"trial of {n_samples} samples is shorter than one response "
                f"({RESPONSE_LEN} samples)"
            )
        self.n_samples = n_samples
        prefixes = [s.truncated(n_samples) for s in structures]
        events = np.concatenate([p.events for p in prefixes])
        self.weights = events[:, ::SAMPLES_PER_FRAME].astype(np.float64)
        if np.count_nonzero(self.weights) != np.count_nonzero(events):
            raise ValueError("events must fire at frame starts")
        self.grams = np.stack([m @ m.T for m in (p.mat for p in prefixes)])
        self.gram_factors = _ridged_cholesky(self.grams.copy(), "temporal")

    def _sxm(self, x: NDArray, weights: NDArray) -> NDArray:
        """x M_i^T, (n, C, N_EVENTS * RESPONSE_LEN), for the hypotheses whose
        weight rows are given. Zero frames past the trial cut the responses
        that run past its end."""
        frames = trial_frames(x, weights.shape[1] + FRAMES_PER_EPOCH - 1)
        sums = window_sums(frames, weights)     # [i * N_EVENTS + e, lag * C + c]
        return sums.reshape(-1, N_EVENTS * RESPONSE_LEN, len(x)).swapaxes(1, 2)

    def decode(self, trial: Trial, state: CcaState | None = None) -> DecodeOutcome:
        x = trial.samples[:, : self.n_samples]
        if x.shape[1] != self.n_samples:
            raise TrialTooShort(
                f"trial holds {x.shape[1]} samples, decoder expects {self.n_samples}"
            )
        sxx = x @ x.T
        sxm = self._sxm(x, self.weights)
        lm = self.gram_factors
        if state is not None and state.mode == MODE_CUMULATIVE and not state.is_empty():
            if state.sxx.shape != sxx.shape:
                raise ShapeError("accumulated spatial covariance has a different channel count")
            sxx = sxx + state.sxx
            sxm = sxm + state.sxm
            lm = _ridged_cholesky(self.grams + state.smm, "temporal")
        lx = _ridged_cholesky(sxx, "spatial")
        rhos = np.linalg.svd(_whiten(lx, sxm, lm), compute_uv=False)[:, 0]
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
        (sxm,) = self._sxm(x, self.weights[N_EVENTS * predicted : N_EVENTS * (predicted + 1)])
        if state.is_empty():
            state = CcaState(mode=MODE_CUMULATIVE, sxx=0.0, sxm=0.0, smm=0.0)
        elif state.sxx.shape != sxx.shape or state.sxm.shape != sxm.shape:
            raise ShapeError("trial dimensions inconsistent with accumulated state")
        return CcaState(
            mode=MODE_CUMULATIVE,
            sxx=state.sxx + sxx,
            sxm=state.sxm + sxm,
            smm=state.smm + self.grams[predicted],
            n_trials_seen=state.n_trials_seen + 1,
        )
