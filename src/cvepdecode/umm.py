"""Unsupervised mean-difference maximization (UMM) decoding.

Trials are sliced into overlapping 300 ms epochs, one per 60 Hz stimulus
frame. Each candidate code splits the epochs into flash and non-flash
sets; the hypothesis whose flash-minus-non-flash mean difference has the
largest Mahalanobis energy wins. The covariance is the block-Toeplitz
projection of the epochs' sample covariance, tapered linearly over the
lags and shrunk toward a scaled identity with a Ledoit-Wolf intensity;
its inverse is applied through a block-Levinson recursion that never
materializes the dense matrix.

Each statistic is computed in one place: an :class:`EpochSet` forms its
centered scatter once, :func:`_cov_model` turns pooled scatter into the
covariance model, and every flash and non-flash mean comes from one
weight product over the code bits that :class:`UmmDecoder` tiles once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray
from scipy import linalg

from .codegen import BitSequence
from .encoding import RESPONSE_LEN, SAMPLES_PER_FRAME
from .errors import (
    DegenerateHypothesis,
    InsufficientEpochs,
    NumericalFailure,
    ShapeError,
    TrialTooShort,
)
from .outcome import DecodeOutcome, top2_confidence
from .sigproc import Trial

MODE_INSTANTANEOUS = "instantaneous"
MODE_CUMULATIVE = "cumulative"


@dataclass(frozen=True)
class EpochSet:
    """Overlapping frame-locked epochs of one trial.

    epochs: (n_epochs, n_features) with time-major feature layout, i.e.
    feature (t * C + c) is channel c at epoch sample t. Only 300 ms
    windows fully contained in the trial are kept.
    onsets: 60 Hz frame index of each epoch.
    """

    epochs: NDArray[np.floating]
    onsets: NDArray[np.int_]
    n_channels: int

    @property
    def n_epochs(self) -> int:
        return self.epochs.shape[0]

    @property
    def n_features(self) -> int:
        return self.epochs.shape[1]

    @cached_property
    def centered_moments(self) -> tuple[NDArray, float]:
        """(scatter, sq_norms4) about the epoch mean m: the (D, D) scatter
        sum_k (x_k - m)(x_k - m)^T and sum_k ||x_k - m||^4, the fourth
        moment the Ledoit-Wolf intensity needs. Computed on first use."""
        centered = self.epochs - self.epochs.mean(axis=0)
        return centered.T @ centered, float(np.sum(np.sum(centered**2, axis=1) ** 2))


def slice_epochs(trial: Trial) -> EpochSet:
    """One RESPONSE_LEN-sample epoch per 60 Hz frame whose full window fits
    inside the trial."""
    x = trial.samples
    n_channels, n_samples = x.shape
    if n_samples < RESPONSE_LEN:
        raise TrialTooShort(
            f"trial of {n_samples} samples cannot hold a {RESPONSE_LEN}-sample epoch"
        )
    k = (n_samples - RESPONSE_LEN) // SAMPLES_PER_FRAME + 1
    idx = np.arange(k) * SAMPLES_PER_FRAME
    # (K, RESPONSE_LEN, C) -> (K, RESPONSE_LEN * C), time-major
    windows = np.lib.stride_tricks.sliding_window_view(x, RESPONSE_LEN, axis=1)
    epochs = windows[:, idx, :].transpose(1, 2, 0).reshape(k, RESPONSE_LEN * n_channels)
    return EpochSet(
        epochs=np.ascontiguousarray(epochs, dtype=np.float64),
        onsets=idx // SAMPLES_PER_FRAME,
        n_channels=n_channels,
    )


def mean_difference(ep: EpochSet, code: BitSequence, n_cycles: int) -> NDArray:
    """Flash-ERP minus non-flash-ERP under the hypothesis that ``code``
    drove the trial."""
    return UmmDecoder([code], n_cycles)._deltas(ep, None)[0]


# -- covariance --------------------------------------------------------------

def block_levinson_solve(blocks: NDArray, y: NDArray) -> NDArray:
    """Solve T x = y for symmetric positive-definite block-Toeplitz T.

    blocks: (n_lags, C, C) with T[i, j] = blocks[i - j] and
    B(-l) = B(l)^T. y: (n_lags * C,) or (n_lags * C, m).

    Classic forward/backward Levinson recursion on block vectors; O(n^2)
    block operations instead of the dense O(n^3).
    """
    n, c, _ = blocks.shape
    bpos = blocks
    bneg = blocks.transpose(0, 2, 1)
    squeeze = y.ndim == 1
    y = y.reshape(n, c, -1)
    eye = np.eye(c)

    b0inv = linalg.inv(bpos[0])
    f = b0inv[np.newaxis]            # (k, c, c): T_k f = [I, 0, ..., 0]
    g = b0inv[np.newaxis]            # (k, c, c): T_k g = [0, ..., 0, I]
    x = (b0inv @ y[0])[np.newaxis]
    for k in range(1, n):
        eps_f = np.einsum("jab,jbc->ac", bpos[k:0:-1], f)
        eps_b = np.einsum("jab,jbc->ac", bneg[1 : k + 1], g)
        a = linalg.inv(eye - eps_b @ eps_f)
        ct = linalg.inv(eye - eps_f @ eps_b)
        f_new = np.concatenate([f @ a, np.zeros((1, c, c))])
        f_new[1:] -= g @ (eps_f @ a)
        g_new = np.concatenate([np.zeros((1, c, c)), g @ ct])
        g_new[:-1] -= f @ (eps_b @ ct)
        resid = y[k] - np.einsum("jab,jbm->am", bpos[k:0:-1], x)
        x = np.concatenate([x, np.zeros((1, c, x.shape[2]))]) + g_new @ resid
        f, g = f_new, g_new
    out = x.reshape(n * c, -1)
    return out[:, 0] if squeeze else out


@dataclass(frozen=True)
class CovModel:
    """Regularized block-Toeplitz covariance with a structured solver.

    blocks[l] is the tapered, shrunk C x C cross-channel block at lag l;
    the represented matrix has T[(t1, c1), (t2, c2)] = blocks[t1 - t2]
    under the time-major feature layout of :class:`EpochSet`.
    """

    blocks: NDArray[np.floating]      # (RESPONSE_LEN, C, C)
    shrinkage_gamma: float

    @property
    def n_features(self) -> int:
        n, c, _ = self.blocks.shape
        return n * c

    def dense(self) -> NDArray:
        """Materialize the full covariance; for oracles and small problems."""
        n, c, _ = self.blocks.shape
        out = np.zeros((n * c, n * c))
        for i in range(n):
            for j in range(n):
                lag = i - j
                block = self.blocks[lag] if lag >= 0 else self.blocks[-lag].T
                out[i * c : (i + 1) * c, j * c : (j + 1) * c] = block
        return out

    def solve(self, v: NDArray) -> NDArray:
        """Sigma^{-1} v through the block-Levinson recursion."""
        return block_levinson_solve(self.blocks, np.asarray(v, dtype=float))


def _lag_blocks(cov: NDArray, n_lags: int, c: int) -> NDArray:
    """Average the C x C block diagonals of a dense covariance (block
    Toeplitz projection)."""
    blocks = np.empty((n_lags, c, c))
    view = cov.reshape(n_lags, c, n_lags, c)
    for lag in range(n_lags):
        idx = np.arange(n_lags - lag)
        blocks[lag] = view[idx + lag, :, idx, :].mean(axis=0)
    blocks[0] = (blocks[0] + blocks[0].T) / 2.0
    return blocks


def _lw_gamma(sq_norms4: float, cov: NDArray, n: int) -> float:
    """Ledoit-Wolf shrinkage intensity toward mu*I from accumulated
    fourth moments; sq_norms4 = sum over epochs of ||x_k - mean||^4."""
    d = cov.shape[0]
    mu = np.trace(cov) / d
    delta2 = float(np.sum((cov - mu * np.eye(d)) ** 2)) / d
    if delta2 <= 0:
        return 0.0
    beta2 = (sq_norms4 / n**2 - float(np.sum(cov**2)) / n) / d
    return float(np.clip(beta2 / delta2, 0.0, 1.0))


def _regularize(blocks: NDArray, gamma: float) -> NDArray:
    """Taper the lag blocks linearly to zero past the last lag, then
    shrink toward nu*I (nu = mean diagonal of the tapered lag-0 block)."""
    n_lags, c, _ = blocks.shape
    tapered = blocks * (1.0 - np.arange(n_lags) / n_lags)[:, np.newaxis, np.newaxis]
    nu = float(np.trace(tapered[0]) / c)
    out = (1.0 - gamma) * tapered
    out[0] += gamma * nu * np.eye(c)
    return out


def _cov_model(
    scatter: NDArray, sq_norms4: float, n: int, gamma: float | None, n_channels: int
) -> CovModel:
    """Regularized block-Toeplitz model of the covariance scatter / n,
    pooled over n epochs; ``gamma`` None selects the Ledoit-Wolf
    intensity."""
    if n < 2:
        raise InsufficientEpochs(f"need at least 2 epochs, got {n}")
    cov = scatter / n
    if gamma is None:
        gamma = _lw_gamma(sq_norms4, cov, n)
    blocks = _lag_blocks(cov, cov.shape[0] // n_channels, n_channels)
    return CovModel(blocks=_regularize(blocks, gamma), shrinkage_gamma=gamma)


def estimate_covariance(ep: EpochSet, gamma: float | None = None) -> CovModel:
    """Tapered block-Toeplitz covariance of the epochs with shrinkage
    toward nu*I (nu = mean diagonal). With ``gamma`` unset, an analytic
    Ledoit-Wolf intensity is used; the epoch count in a single trial is
    small against the feature dimension, so automatic regularization is
    the default.
    """
    scatter, sq_norms4 = ep.centered_moments
    return _cov_model(scatter, sq_norms4, ep.n_epochs, gamma, ep.n_channels)


def score_hypotheses(deltas: NDArray, cov: CovModel) -> DecodeOutcome:
    """Mahalanobis energy of each hypothesis' mean difference."""
    deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
    sol = cov.solve(deltas.T)                      # (D, N)
    scores = np.einsum("nd,dn->n", deltas, sol)
    if not np.all(np.isfinite(scores)):
        raise NumericalFailure("non-finite Mahalanobis scores")
    label = int(np.argmax(scores))
    return DecodeOutcome(label=label, scores=scores, confidence=top2_confidence(scores))


# -- state / cumulative learning --------------------------------------------

@dataclass
class UmmState:
    """Pooled covariance statistics (label-free) plus confidence-weighted
    flash/non-flash ERP sums under naive labeling.

    The ERP estimates are global: each finished trial contributes its
    flash and non-flash epoch means, split by its own predicted code,
    weighted by the decoder's confidence in that prediction.
    """

    mode: str = MODE_INSTANTANEOUS
    scatter: NDArray | None = None          # sum of per-trial centered scatter, (D, D)
    sq_norms4: float = 0.0                  # sum of ||x_k - trial mean||^4
    n_epochs: int = 0
    flash_sum: NDArray | None = None        # (D,), confidence-weighted
    nonflash_sum: NDArray | None = None     # (D,)
    weight_total: float = 0.0
    n_trials_seen: int = 0

    def is_empty(self) -> bool:
        return self.n_trials_seen == 0


def _pooled(state: UmmState | None, n_features: int) -> UmmState | None:
    """The state if it holds cumulative statistics to pool with a trial of
    n_features features, else None."""
    if state is None or state.mode != MODE_CUMULATIVE or state.is_empty():
        return None
    if state.scatter.shape[0] != n_features:
        raise ShapeError("accumulated statistics have a different feature count")
    return state


class UmmDecoder:
    """UMM decoding against a fixed code set.

    The codes are tiled once over n_cycles into an (N, frames) 0/1 matrix;
    an epoch's label under each hypothesis is the bit at its onset frame.
    """

    def __init__(self, codes: list[BitSequence], n_cycles: int):
        self.bits = np.array([np.tile(c.array, n_cycles) for c in codes], dtype=np.float64)

    @property
    def n_hypotheses(self) -> int:
        return self.bits.shape[0]

    def _means(self, ep: EpochSet, rows) -> tuple[NDArray, NDArray]:
        """Flash and non-flash epoch means, each (len(rows), D), under the
        hypotheses ``rows``: one product of row-normalised weights with
        the epochs."""
        if ep.onsets[-1] >= self.bits.shape[1]:
            raise ShapeError(
                f"codes tiled to {self.bits.shape[1]} frames, "
                f"epochs extend to frame {ep.onsets[-1]}"
            )
        rows = np.asarray(rows)
        flash = self.bits[rows][:, ep.onsets]
        n_flash = flash.sum(axis=1, keepdims=True)
        degenerate = np.flatnonzero((n_flash[:, 0] == 0) | (n_flash[:, 0] == ep.n_epochs))
        if degenerate.size:
            raise DegenerateHypothesis(
                f"hypothesis {rows[degenerate[0]]} yields an empty flash or non-flash set"
            )
        weights = np.vstack([flash / n_flash, (1.0 - flash) / (ep.n_epochs - n_flash)])
        means = weights @ ep.epochs
        return means[: len(rows)], means[len(rows) :]

    def _deltas(self, ep: EpochSet, pooled: UmmState | None) -> NDArray:
        flash, nonflash = self._means(ep, np.arange(self.n_hypotheses))
        deltas = flash - nonflash
        if pooled is not None:
            deltas = (pooled.flash_sum - pooled.nonflash_sum + deltas) / (
                pooled.weight_total + 1.0
            )
        return deltas

    def decode(self, trial: Trial, state: UmmState | None = None) -> DecodeOutcome:
        return self.decode_epochs(slice_epochs(trial), state)

    def decode_epochs(self, ep: EpochSet, state: UmmState | None = None) -> DecodeOutcome:
        """Score every hypothesis on the epochs, pooling a cumulative
        state's covariance statistics and ERP sums when it holds any."""
        pooled = _pooled(state, ep.n_features)
        scatter, sq_norms4 = ep.centered_moments
        n = ep.n_epochs
        if pooled is not None:
            scatter = scatter + pooled.scatter
            sq_norms4 += pooled.sq_norms4
            n += pooled.n_epochs
        cov = _cov_model(scatter, sq_norms4, n, None, ep.n_channels)
        return score_hypotheses(self._deltas(ep, pooled), cov)

    def update_cumulative(
        self, state: UmmState, ep: EpochSet, outcome: DecodeOutcome
    ) -> UmmState:
        """Pool the trial's covariance statistics unconditionally; add its
        flash/non-flash means to the predicted hypothesis' sums with the
        outcome's confidence as weight."""
        if state.mode != MODE_CUMULATIVE:
            raise ValueError("update_cumulative requires a cumulative-mode state")
        d = ep.n_features
        if _pooled(state, d) is None:
            state = UmmState(
                mode=MODE_CUMULATIVE,
                scatter=np.zeros((d, d)),
                flash_sum=np.zeros(d),
                nonflash_sum=np.zeros(d),
            )
        scatter, sq_norms4 = ep.centered_moments
        flash, nonflash = self._means(ep, [outcome.label])
        w = float(outcome.confidence)
        return UmmState(
            mode=MODE_CUMULATIVE,
            scatter=state.scatter + scatter,
            sq_norms4=state.sq_norms4 + sq_norms4,
            n_epochs=state.n_epochs + ep.n_epochs,
            flash_sum=state.flash_sum + w * flash[0],
            nonflash_sum=state.nonflash_sum + w * nonflash[0],
            weight_total=state.weight_total + w,
            n_trials_seen=state.n_trials_seen + 1,
        )
