"""Unsupervised mean-difference maximization (UMM) decoding.

Trials are cut into overlapping 300 ms epochs, one per 60 Hz stimulus
frame. Each candidate code splits the epochs into flash and non-flash
sets; the hypothesis whose flash-minus-non-flash mean difference has the
largest Mahalanobis energy wins. The covariance is the block-Toeplitz
projection of the epochs' sample covariance, tapered linearly over the
lags and shrunk toward a scaled identity with a Ledoit-Wolf intensity;
its inverse is applied by one Cholesky factorisation of the dense
block-Toeplitz matrix, built from the lag blocks with one gather.

An epoch is 18 consecutive frames of the trial, so an :class:`EpochSet`
holds the trial's frames, not a copied epoch matrix, and computes every
epoch statistic from them, about the frames' column mean: the scatter from
18 lagged frame grams and a rank-4 step per frame offset, the fourth
moment from each frame's deviation from its offset's window mean, and
flash sums by weighting each epoch with its code bit (non-flash sums are
the epoch total less them); offset 0's grams and the flash sums come from
the window-sum kernel of :mod:`.encoding` that CCA shares. Each statistic is
computed in one place: an EpochSet forms its scatter once, :func:`_cov_model`
turns pooled scatter into the covariance model, and :class:`UmmDecoder`
tiles the code bits once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray
from scipy import linalg

from .codegen import BitSequence
from .encoding import FRAMES_PER_EPOCH, RESPONSE_LEN, SAMPLES_PER_FRAME
from .encoding import trial_frames, window_sums
from .errors import (
    DegenerateCovariance,
    DegenerateHypothesis,
    InsufficientEpochs,
    NumericalFailure,
    ShapeError,
    TrialTooShort,
)
from .outcome import DecodeOutcome, top2_confidence
from .sigproc import Trial, finite_samples

MODE_INSTANTANEOUS = "instantaneous"
MODE_CUMULATIVE = "cumulative"


@dataclass(frozen=True)
class EpochSet:
    """Overlapping frame-locked epochs of one trial, held as the trial's
    60 Hz frames.

    frames: (n_epochs + FRAMES_PER_EPOCH - 1, SAMPLES_PER_FRAME * C), the
    trial's whole frames as :func:`.encoding.trial_frames` lays them out.
    Epoch k is frames[k : k + 18] flattened, so its feature (t * C + c) is
    channel c at epoch sample t; it starts at frame k.

    No (n_epochs, n_features) epoch matrix is formed: the scatter, the
    fourth moment and the weighted epoch sums are computed from the
    frames, about their column mean.
    """

    frames: NDArray[np.floating]
    n_channels: int

    @property
    def n_epochs(self) -> int:
        return self.frames.shape[0] - FRAMES_PER_EPOCH + 1

    @property
    def n_features(self) -> int:
        return FRAMES_PER_EPOCH * self.frames.shape[1]

    @cached_property
    def _centred(self) -> tuple[NDArray, NDArray]:
        """(frames less their column mean, that mean tiled to one epoch).
        No centred statistic sees the shift, and centring keeps a large
        constant offset from cancelling in the products below."""
        frame_mean = self.frames.mean(axis=0)
        return self.frames - frame_mean, np.tile(frame_mean, FRAMES_PER_EPOCH)

    @cached_property
    def epoch_sum(self) -> NDArray:
        """Sum of the centred epochs, (D,): a first window sum, then one
        frame in and one out per offset."""
        y, k = self._centred[0], self.n_epochs
        sums = np.empty((FRAMES_PER_EPOCH, y.shape[1]))
        sums[0] = y[:k].sum(axis=0)
        np.cumsum(y[k:] - y[: FRAMES_PER_EPOCH - 1], axis=0, out=sums[1:])
        sums[1:] += sums[0]
        return sums.ravel()

    @property
    def offset(self) -> NDArray:
        """The epoch-feature shift removed by centring, (D,)."""
        return self._centred[1]

    def weighted_sums(self, weights: NDArray) -> NDArray:
        """weights @ (centred epochs), (R, D), for weights (R, K)."""
        return window_sums(self._centred[0], weights)

    @cached_property
    def centered_moments(self) -> tuple[NDArray, float]:
        """(scatter, sq_norms4) about the epoch mean m: the (D, D) scatter
        sum_k (x_k - m)(x_k - m)^T and sum_k ||x_k - m||^4, the fourth
        moment the Ledoit-Wolf intensity needs. Computed on first use.

        With y the centred frames and s_a = sum_k y[k + a] the window sum
        of offset a, block (a, a + l) of the scatter is
        sum_k y[k + a] y[k + a + l]^T - s_a s_(a + l)^T / K. For a = 0 that
        is the lag-l frame gram less a small outer product; each later
        offset drops frame a - 1, adds frame K + a - 1 and moves its window
        sums with them, a rank-4 step."""
        y, k = self._centred[0], self.n_epochs
        n, width = FRAMES_PER_EPOCH, y.shape[1]
        pad = np.zeros((n - 1, width))
        # s_a / sqrt(K), zero past the last offset
        sums = np.concatenate([self.epoch_sum.reshape(n, width) / np.sqrt(k), pad])

        def lagged(rows):
            """[f, l, q] = rows[f + l, q]"""
            return sliding_window_view(rows, n, axis=0).transpose(0, 2, 1)

        y_lag, sums_lag = lagged(np.concatenate([y, pad])), lagged(sums)
        # grams[a, p, l, q] is entry (p, q) of block (a, a + l); entries
        # with a + l >= n are never read
        grams = np.empty((n, width, n, width))
        grams[0] = window_sums(y, y[:k].T).reshape(width, n, width)
        grams[0] -= sums[0][:, np.newaxis, np.newaxis] * sums[:n]
        # step a (row a - 1): - y[a-1] y[a-1+l]^T + y[K+a-1] y[K+a-1+l]^T
        #                     - s_a s_(a+l)^T / K + s_(a-1) s_(a-1+l)^T / K
        left = np.stack([-y[: n - 1], y[k:], -sums[1:n], sums[: n - 1]], axis=2)
        right = np.stack([y_lag[: n - 1], y_lag[k:], sums_lag[1:n], sums_lag[: n - 1]], axis=1)
        np.matmul(
            left,
            right.reshape(n - 1, 4, n * width),
            out=grams[1:].reshape(n - 1, width, n * width),
        )
        for a in range(1, n):
            grams[a] += grams[a - 1]
        # the lag-0 blocks equal their transposes up to rounding; make them
        # exactly so, then copy the block rows above the diagonal and
        # mirror them below
        diagonal = grams[:, :, 0, :]
        diagonal += diagonal.transpose(0, 2, 1)
        diagonal *= 0.5
        scatter = np.empty((n * width, n * width))
        for a in range(n):
            rows = slice(a * width, (a + 1) * width)
            scatter[rows, a * width :] = grams[a, :, : n - a].reshape(width, (n - a) * width)
            scatter[(a + 1) * width :, rows] = scatter[rows, (a + 1) * width :].T

        means = self.epoch_sum.reshape(n, width) / k
        dev = np.empty((k, width))
        sq_norms = np.zeros(k)
        for a in range(n):
            np.subtract(y[a : a + k], means[a], out=dev)
            sq_norms += np.einsum("ij,ij->i", dev, dev)
        return scatter, float(sq_norms @ sq_norms)


def slice_epochs(trial: Trial) -> EpochSet:
    """One RESPONSE_LEN-sample epoch per 60 Hz frame whose full window fits
    inside the trial, held as the trial's whole frames."""
    x = trial.samples
    n_channels, n_samples = x.shape
    if n_samples < RESPONSE_LEN:
        raise TrialTooShort(
            f"trial of {n_samples} samples cannot hold a {RESPONSE_LEN}-sample epoch"
        )
    frames = trial_frames(finite_samples(x), n_samples // SAMPLES_PER_FRAME)
    return EpochSet(frames=frames, n_channels=n_channels)


def mean_difference(ep: EpochSet, code: BitSequence, n_cycles: int) -> NDArray:
    """Flash-ERP minus non-flash-ERP under the hypothesis that ``code``
    drove the trial."""
    return UmmDecoder([code], n_cycles)._deltas(ep, None)[0]


# -- covariance --------------------------------------------------------------

def _dense_toeplitz(blocks: NDArray) -> NDArray:
    """The dense (n * C, n * C) matrix T[i, j] = B(i - j) of the lag blocks
    B(l) = blocks[l], B(-l) = B(l)^T, gathered in one indexing step."""
    n, c, _ = blocks.shape
    by_lag = np.concatenate([blocks[:0:-1].transpose(0, 2, 1), blocks])  # lags -(n-1)..n-1
    lag = np.arange(n)[:, np.newaxis] - np.arange(n) + n - 1
    return by_lag[lag].transpose(0, 2, 1, 3).reshape(n * c, n * c)


def block_levinson_solve(blocks: NDArray, y: NDArray) -> NDArray:
    """Solve T x = y for symmetric positive-definite block-Toeplitz T.

    blocks: (n_lags, C, C) with T[i, j] = blocks[i - j] and
    B(-l) = B(l)^T. y: (n_lags * C,) or (n_lags * C, m).

    Factors the dense T by Cholesky; at D = 432 this beats a block-Levinson
    recursion, build included. The name is kept because the benchmark's
    trace (benchmarks/tracing.py) wraps this function by name.
    Raises DegenerateCovariance if T is not positive definite. Nothing is
    scanned for NaN here: :func:`_cov_model` checks the scatter's trace.
    """
    try:
        factor = linalg.cho_factor(_dense_toeplitz(blocks), check_finite=False)
    except linalg.LinAlgError as exc:
        raise DegenerateCovariance("covariance is not positive definite") from exc
    return linalg.cho_solve(factor, y, check_finite=False)


@dataclass(frozen=True)
class CovModel:
    """Regularized block-Toeplitz covariance.

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
        """Materialize the full covariance."""
        return _dense_toeplitz(self.blocks)

    def solve(self, v: NDArray) -> NDArray:
        """Sigma^{-1} v by a Cholesky solve of the dense covariance."""
        return block_levinson_solve(self.blocks, np.asarray(v, dtype=float))


def _lag_blocks(cov: NDArray, n_lags: int, c: int) -> NDArray:
    """Average the C x C block diagonals of a dense covariance (block
    Toeplitz projection): one gather of every block (i + lag, i), ordered
    by lag, and one segmented sum."""
    lag, col = np.nonzero(np.tri(n_lags, dtype=bool)[::-1])   # col < n_lags - lag
    view = cov.reshape(n_lags, c, n_lags, c)
    starts = np.searchsorted(lag, np.arange(n_lags))
    blocks = np.add.reduceat(view[col + lag, :, col, :], starts, axis=0)
    blocks /= (n_lags - np.arange(n_lags))[:, np.newaxis, np.newaxis]
    blocks[0] = (blocks[0] + blocks[0].T) / 2.0
    return blocks


def _lw_gamma(sq_norms4: float, cov: NDArray, n: int) -> float:
    """Ledoit-Wolf shrinkage intensity toward mu*I from accumulated
    fourth moments; sq_norms4 = sum over epochs of ||x_k - mean||^4."""
    d = cov.shape[0]
    diag = np.diagonal(cov)
    mu = diag.mean()
    sum_sq = float(np.vdot(cov, cov))
    # ||cov - mu I||^2: the off-diagonal squares plus the diagonal's
    # squared deviations from mu, with no (D, D) temporary
    delta2 = (sum_sq - diag @ diag + float(np.sum((diag - mu) ** 2))) / d
    if delta2 <= 0:
        return 0.0
    beta2 = (sq_norms4 / n**2 - sum_sq / n) / d
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
    if not np.isfinite(np.trace(scatter)):
        raise DegenerateCovariance("epoch covariance has a non-finite trace")
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
        """Flash and non-flash means of the centred epochs (add
        ``ep.offset`` for the epoch means), each (len(rows), D), under the
        hypotheses ``rows``: flash sums weight the epochs by the code bits,
        non-flash sums are the epoch total less them."""
        k = ep.n_epochs
        if k > self.bits.shape[1]:
            raise ShapeError(
                f"codes tiled to {self.bits.shape[1]} frames, "
                f"epochs extend to frame {k - 1}"
            )
        rows = np.asarray(rows)
        flash = self.bits[rows, :k]
        n_flash = flash.sum(axis=1, keepdims=True)
        degenerate = np.flatnonzero((n_flash[:, 0] == 0) | (n_flash[:, 0] == k))
        if degenerate.size:
            raise DegenerateHypothesis(
                f"hypothesis {rows[degenerate[0]]} yields an empty flash or non-flash set"
            )
        flash_sums = ep.weighted_sums(flash)
        return flash_sums / n_flash, (ep.epoch_sum - flash_sums) / (k - n_flash)

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
            flash_sum=state.flash_sum + w * (flash[0] + ep.offset),
            nonflash_sum=state.nonflash_sum + w * (nonflash[0] + ep.offset),
            weight_total=state.weight_total + w,
            n_trials_seen=state.n_trials_seen + 1,
        )
