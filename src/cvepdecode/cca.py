"""Reconvolution CCA decoding.

Each candidate code is scored by the first canonical correlation between
the trial and the code's predicted response time-course, obtained from
sequence-specific spatial (per-channel) and temporal (per-event-lag)
filters. The cumulative variant accumulates spatial covariance plus the
cross/temporal terms of previously decoded trials under naive labeling.

The decoder stores no design matrix. Every event fires at a frame start,
so design row (event e, lag 3a + p) is nonzero only at samples of phase p
(t % 3 == p): the temporal gram M_i M_i^T is zero between lags of
different phases, and is three PHASE_DIM x PHASE_DIM phase grams, rows
ordered (event, frame lag a). They are built from the hypotheses' frame
weights, one code at a time, and factored once. The cross-covariances of
a trial with every hypothesis' design are one call of the frame window-sum
kernel of :mod:`.encoding`, split by phase. Each trial is whitened by one
spatial triangular solve over all hypotheses and one triangular solve per
(hypothesis, phase), and every hypothesis is scored by one stacked SVD.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import linalg
from scipy.linalg import lapack

from .encoding import FRAMES_PER_EPOCH, N_EVENTS, RESPONSE_LEN, SAMPLES_PER_FRAME
from .encoding import StructureMatrix, lagged, trial_frames, window_sums
from .errors import (
    DegenerateCovariance,
    NumericalFailure,
    ShapeError,
    TrialTooShort,
)
from .outcome import DecodeOutcome, top2_confidence
from .sigproc import Trial, finite_samples

#: Relative ridge added to both covariance blocks before whitening; keeps
#: Eq-style empirical covariances usable when they are rank-deficient.
RIDGE_REL = 1e-9

#: Design rows of one sample phase: (event, frame lag) pairs, 3 x 18.
PHASE_DIM = N_EVENTS * FRAMES_PER_EPOCH

MODE_INSTANTANEOUS = "instantaneous"
MODE_CUMULATIVE = "cumulative"


@dataclass
class CcaState:
    """Accumulated covariance terms for cumulative decoding.

    The spatial accumulator and the predicted-structure cross/temporal
    accumulators are shared across hypotheses: the spatial covariance does
    not depend on the hypothesis, and under naive labeling every
    hypothesis reuses the same predicted structure of past trials. The
    temporal terms are split by sample phase, like the decoder's grams.
    """

    mode: str = MODE_INSTANTANEOUS
    sxx: NDArray | None = None     # (C, C)
    sxm: NDArray | None = None     # (3, PHASE_DIM, C): x M^T, transposed, by phase
    smm: NDArray | None = None     # (3, PHASE_DIM, PHASE_DIM): phase grams
    n_trials_seen: int = 0

    def is_empty(self) -> bool:
        return self.n_trials_seen == 0


def _ridged_cholesky(blocks: NDArray, what: str) -> NDArray:
    """Lower Cholesky factors of the float stack blocks (..., B, n, n), the B
    diagonal blocks of block-diagonal matrices, in place: callers pass
    scratch. Each matrix is ridged by RIDGE_REL times its mean diagonal.
    LAPACK's potrf factors block by block, as in :func:`_whiten`."""
    tr = np.trace(blocks, axis1=-2, axis2=-1).sum(axis=-1)
    if not np.all(np.isfinite(tr) & (tr > 0)):
        bad = "non-positive" if np.all(np.isfinite(tr)) else "non-finite"
        raise DegenerateCovariance(f"{what} covariance has a {bad} trace")
    ridge = RIDGE_REL * tr / (blocks.shape[-3] * blocks.shape[-1])
    np.einsum("...ii->...i", blocks)[...] += ridge[..., np.newaxis, np.newaxis]
    for i in np.ndindex(blocks.shape[:-2]):
        blocks[i], info = lapack.dpotrf(blocks[i], lower=1, clean=1)
        if info:
            raise DegenerateCovariance(f"{what} covariance is not positive definite")
    return blocks


def _whiten(lx: NDArray, smx: NDArray, lm: NDArray) -> NDArray:
    """lm^-1 smx lx^-T for the lower Cholesky factors lx (C, C) and lm
    (..., n, n) and the transposed cross-covariances smx (..., n, C): one
    spatial solve over every column, then one temporal solve per factor.
    LAPACK is called directly: SciPy's wrappers cost more than a 54 x 54
    solve, and the inputs were checked to be finite."""
    k = lapack.dtrtrs(lx, smx.reshape(-1, len(lx)).T, lower=1)[0].T.reshape(smx.shape)
    for i in np.ndindex(lm.shape[:-2]):
        k[i] = lapack.dtrtrs(lm[i], k[i], lower=1)[0]
    return k


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
    lx = _ridged_cholesky(np.array(sxx, dtype=float)[np.newaxis], "spatial")[0]
    lm = _ridged_cholesky(np.array(smm, dtype=float)[np.newaxis], "temporal")[0]
    whitened = _whiten(lx, np.asarray(sxm, dtype=float).T, lm)
    u, s, vt = linalg.svd(whitened.T, full_matrices=False)
    rho = float(s[0])
    if not np.isfinite(rho):
        raise NumericalFailure("canonical correlation came out non-finite")
    w = linalg.solve_triangular(lx.T, u[:, 0], lower=False)
    r = linalg.solve_triangular(lm.T, vt[0], lower=False)
    if r[np.argmax(np.abs(r))] < 0:
        w, r = -w, -r
    return w, r, rho


def _phase_grams(weights: NDArray, n_samples: int) -> NDArray:
    """The (3, PHASE_DIM, PHASE_DIM) phase grams of one code's design over
    n_samples samples, from its frame weights (N_EVENTS, K), K frames.

    Block p, entry ((e, a), (e', a')), is the gram entry of lags 3a + p and
    3a' + p: the sum over the frames g that hold a sample of phase p of
    weights[e, g - a] weights[e', g - a']. Every frame holds phase p, except
    that the last holds only phases p < n_samples - 3 (K - 1); so a block is
    the gram of the :func:`.encoding.lagged` weights over all K frames, less
    the last frame's outer product where that frame lacks its phase.
    """
    design = lagged(weights, FRAMES_PER_EPOCH)         # (PHASE_DIM, K)
    grams = np.repeat((design @ design.T)[np.newaxis], SAMPLES_PER_FRAME, axis=0)
    last = design[:, -1]
    grams[n_samples - SAMPLES_PER_FRAME * (weights.shape[1] - 1) :] -= np.outer(last, last)
    return grams


class CcaDecoder:
    """Scores every code hypothesis on trials of one length.

    It keeps ``weights`` (N * N_EVENTS, ceil(n_samples / 3)), event e of
    hypothesis i at each frame start in row i * N_EVENTS + e, and the phase
    grams of every M_i M_i^T and their ridged Cholesky factors as
    (N, 3, PHASE_DIM, PHASE_DIM) stacks.
    """

    def __init__(self, structures: list[StructureMatrix], n_samples: int):
        if n_samples < RESPONSE_LEN:
            raise TrialTooShort(
                f"trial of {n_samples} samples is shorter than one response "
                f"({RESPONSE_LEN} samples)"
            )
        self.n_samples = n_samples
        events = np.concatenate([s.truncated(n_samples).events for s in structures])
        self.weights = events[:, ::SAMPLES_PER_FRAME].astype(np.float64)
        if np.count_nonzero(self.weights) != np.count_nonzero(events):
            raise ValueError("events must fire at frame starts")
        per_code = self.weights.reshape(len(structures), N_EVENTS, -1)
        self.grams = np.stack([_phase_grams(w, n_samples) for w in per_code])
        self.gram_factors = _ridged_cholesky(self.grams.copy(), "temporal")

    def _samples(self, trial: Trial) -> NDArray:
        x = trial.samples[:, : self.n_samples]
        if x.shape[1] != self.n_samples:
            raise TrialTooShort(
                f"trial holds {x.shape[1]} samples, decoder expects {self.n_samples}"
            )
        return finite_samples(x)

    def _smx(self, x: NDArray, weights: NDArray) -> NDArray:
        """M_i x^T by phase, (n, 3, PHASE_DIM, C), for the hypotheses whose
        weight rows are given. Zero frames past the trial cut the responses
        that run past its end."""
        frames = trial_frames(x, weights.shape[1] + FRAMES_PER_EPOCH - 1)
        sums = window_sums(frames, weights)     # [i * N_EVENTS + e, (a * 3 + p) * C + c]
        sums = sums.reshape(-1, N_EVENTS, FRAMES_PER_EPOCH, SAMPLES_PER_FRAME, len(x))
        return sums.transpose(0, 3, 1, 2, 4).reshape(-1, SAMPLES_PER_FRAME, PHASE_DIM, len(x))

    def decode(self, trial: Trial, state: CcaState | None = None) -> DecodeOutcome:
        x = self._samples(trial)
        sxx = x @ x.T
        smx = self._smx(x, self.weights)
        lm = self.gram_factors
        if state is not None and state.mode == MODE_CUMULATIVE and not state.is_empty():
            if state.sxx.shape != sxx.shape:
                raise ShapeError("accumulated spatial covariance has a different channel count")
            sxx = sxx + state.sxx
            smx = smx + state.sxm
            lm = _ridged_cholesky(self.grams + state.smm, "temporal")
        lx = _ridged_cholesky(sxx[np.newaxis], "spatial")[0]
        whitened = _whiten(lx, smx, lm).reshape(len(smx), -1, len(x))
        rhos = np.linalg.svd(whitened, compute_uv=False)[:, 0]
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
        x = self._samples(trial)
        sxx = x @ x.T
        (smx,) = self._smx(x, self.weights[N_EVENTS * predicted : N_EVENTS * (predicted + 1)])
        if state.is_empty():
            state = CcaState(mode=MODE_CUMULATIVE, sxx=0.0, sxm=0.0, smm=0.0)
        elif state.sxx.shape != sxx.shape or state.sxm.shape != smx.shape:
            raise ShapeError("trial dimensions inconsistent with accumulated state")
        return CcaState(
            mode=MODE_CUMULATIVE,
            sxx=state.sxx + sxx,
            sxm=state.sxm + smx,
            smm=state.smm + self.grams[predicted],
            n_trials_seen=state.n_trials_seen + 1,
        )
