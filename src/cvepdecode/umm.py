"""Unsupervised mean-difference maximization (UMM) decoding.

Trials are cut into overlapping 300 ms epochs, one per 60 Hz stimulus
frame. Each candidate code splits the epochs into flash and non-flash
sets; the hypothesis whose flash-minus-non-flash mean difference has the
largest Mahalanobis energy wins. The covariance is the block-Toeplitz
projection of the epochs' sample covariance, tapered linearly over the
lags and shrunk toward a scaled identity with a Ledoit-Wolf intensity.
A decision factors the dense block-Toeplitz matrix, built from the lag
blocks with one copy, by one in-place LAPACK Cholesky factorisation
Sigma = L L^T, and scores every hypothesis by one forward triangular
solve: delta^T Sigma^{-1} delta is the squared norm of L^{-1} delta.

An epoch is 18 consecutive frames of the trial, so an :class:`EpochSet`
holds the trial's frames, not a copied epoch matrix, and computes every
epoch statistic from them, about the frames' column mean: the scatter as
frame-block grams (the blocks on and above the diagonal, from 18 lagged
frame grams and a rank-4 step per frame offset), the fourth moment from
sliding sums of the frames' norms and of their products with the offset
means, and flash sums by weighting each epoch with its code bit (non-flash
sums are the epoch total less them); offset 0's grams come from the
window-sum kernel of :mod:`.encoding` that CCA shares, as do the epoch
sums. The flash bits repeat with the code's period, so the flash sums of a
trial of two full code cycles or more are taken over its frames folded by
the period (:func:`.encoding.tiled_window_sums`); the lag-0 frame grams
weight the frames by data, not by a period, and stay on the plain kernel.
No (D, D) scatter is formed. Each statistic is computed in one place: an
EpochSet forms its grams once, :func:`_cov_model` reads the lag blocks,
the trace and the Ledoit-Wolf intensity from pooled grams, and
:class:`UmmDecoder` keeps one cycle of the code bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from numpy.typing import NDArray
from scipy.linalg import lapack

from .codegen import BitSequence
from .encoding import FRAMES_PER_EPOCH, RESPONSE_LEN, SAMPLES_PER_FRAME
from .encoding import TiledWeights, common_period, tiled_window_sums, trial_frames
from .encoding import window_sums
from .errors import (
    ConfidenceOutOfRange,
    DegenerateCovariance,
    DegenerateHypothesis,
    InsufficientEpochs,
    LabelOutOfRange,
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

    No (n_epochs, n_features) epoch matrix is formed: the scatter grams,
    the fourth moment and the weighted epoch sums are computed from the
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
        """Sum of the centred epochs, (D,): the window sum with all-one
        weights. It stays on the plain kernel: folding by a one-frame
        period costs more than it saves at a few hundred epochs."""
        return window_sums(self._centred[0], np.ones((1, self.n_epochs)))[0]

    @property
    def offset(self) -> NDArray:
        """The epoch-feature shift removed by centring, (D,)."""
        return self._centred[1]

    def weighted_sums(self, weights: TiledWeights) -> NDArray:
        """weights @ (centred epochs), (R, D), for tiled weights of K
        frames."""
        return tiled_window_sums(self._centred[0], weights)

    @cached_property
    def centered_moments(self) -> tuple[NDArray, float]:
        """(grams, sq_norms4) about the epoch mean m, computed on first use.

        grams, (18, 3C, 18, 3C), holds the scatter
        sum_k (x_k - m)(x_k - m)^T by frame blocks: block (a, a + l), rows
        of frame offset a and columns of offset a + l, is grams[a, :, l, :],
        the lag-0 blocks are exactly symmetric and entries with
        a + l >= 18 are exactly 0; the blocks below the diagonal are the
        transposes of these. sq_norms4 = sum_k ||x_k - m||^4 is the fourth
        moment the Ledoit-Wolf intensity needs.

        With y the centred frames and s_a = sum_k y[k + a] the window sum
        of offset a, block (a, a + l) is
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
            grams[a, :, n - a :] = 0.0
        # the lag-0 blocks equal their transposes up to rounding; make them
        # exactly so
        diagonal = grams[:, :, 0, :]
        diagonal += diagonal.transpose(0, 2, 1)
        diagonal *= 0.5

        # ||x_k - m||^2 = sum_a ||y[k+a]||^2 - 2 sum_a y[k+a].m_a + sum_a ||m_a||^2
        # with m_a = s_a / K: an 18-frame sliding sum and a diagonal one
        means = self.epoch_sum.reshape(n, width) / k
        cross = y @ means.T                       # [f, a] = y[f] . m_a
        sq_norms = (
            sliding_window_view(np.einsum("ij,ij->i", y, y), n).sum(axis=1)
            - 2.0 * np.einsum("aak->k", sliding_window_view(cross, k, axis=0))
            + np.vdot(means, means)
        )
        return grams, float(sq_norms @ sq_norms)


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
    B(l) = blocks[l], B(-l) = B(l)^T, C-contiguous and exactly symmetric.
    The lag-ordered blocks are laid out side by side, row a of every block
    in row a of a (C, (2n - 1) * C) array, lags n-1 .. -(n-1): then matrix
    row (i, a) is one contiguous run of n * C entries of row a, at offset
    (n - 1 - i) * C, and one copy of a strided view fills T."""
    n, c, _ = blocks.shape
    wide = np.empty((c, 2 * n - 1, c))
    wide[:, :n] = blocks[::-1].transpose(1, 0, 2)     # lags n-1 .. 0
    wide[:, n:] = blocks[1:].transpose(2, 0, 1)       # lags -1 .. -(n-1)
    step = wide.strides[2]
    rows = as_strided(
        wide[:, n - 1 :], shape=(n, c, n * c), strides=(-c * step, wide.strides[0], step)
    )
    return rows.reshape(n * c, n * c)


def _toeplitz_factor(blocks: NDArray) -> NDArray:
    """The lower Cholesky factor L of the symmetric block-Toeplitz matrix
    T = L L^T of the lag blocks (see :func:`_dense_toeplitz`).

    Gathers the dense T once and factors it in place with LAPACK's potrf:
    T is C-contiguous and symmetric, so its transpose is the same matrix
    in Fortran order and needs no copy. The factor's upper triangle is
    left as T's: LAPACK calls that take ``lower=1`` never read it. At
    D = 432 this beats a block-Levinson recursion, build included. Raises
    DegenerateCovariance if T is not positive definite. Nothing is scanned
    for NaN here: :func:`_cov_model` checks the scatter's trace.
    """
    factor, info = lapack.dpotrf(_dense_toeplitz(blocks).T, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        raise DegenerateCovariance("covariance is not positive definite")
    return factor


def block_levinson_solve(blocks: NDArray, y: NDArray) -> NDArray:
    """Solve T x = y for symmetric positive-definite block-Toeplitz T.

    blocks: (n_lags, C, C) with T[i, j] = blocks[i - j] and
    B(-l) = B(l)^T. y: (n_lags * C,) or (n_lags * C, m).

    A forward and a back substitution with the factor of
    :func:`_toeplitz_factor`, whose DegenerateCovariance it raises.
    Decisions do not call it: :func:`score_hypotheses` needs only the
    forward half. The name is kept because the benchmark's trace
    (benchmarks/tracing.py) wraps this function by name.
    """
    factor = _toeplitz_factor(blocks)
    x, info = lapack.dpotrs(factor, y.reshape(len(factor), -1), lower=1)
    return x.reshape(y.shape)


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


def _lag_triples() -> tuple[NDArray, NDArray, NDArray, NDArray]:
    """(s, l, s2, starts): the (frame lag l, phase s, phase s2) triples of
    an epoch whose sample lag L = 3l + s2 - s is not negative, sorted by
    L, and where each L's run of triples starts. A scatter entry of frame
    block (a, a + l) at phases (s, s2) pairs sample 3a + s with sample
    3a + s + L."""
    p = SAMPLES_PER_FRAME
    s, l, s2 = (
        g.ravel()
        for g in np.meshgrid(np.arange(p), np.arange(FRAMES_PER_EPOCH), np.arange(p), indexing="ij")
    )
    lag = p * l + s2 - s
    keep = np.flatnonzero(lag >= 0)
    order = keep[np.argsort(lag[keep], kind="stable")]
    starts = np.searchsorted(lag[order], np.arange(RESPONSE_LEN))
    return s[order], l[order], s2[order], starts


_LAG_TRIPLES = _lag_triples()


def _lag_blocks(grams: NDArray, n: int) -> NDArray:
    """Average the C x C block diagonals of the covariance grams / n (block
    Toeplitz projection): the grams summed over frame offsets, one gather
    of the C x C sub-blocks of every (l, s, s2) triple and one segmented
    sum into sample lags. The sums are of blocks above the diagonal, the
    transposes of the lag blocks."""
    s, l, s2, starts = _LAG_TRIPLES
    p, c = SAMPLES_PER_FRAME, grams.shape[1] // SAMPLES_PER_FRAME
    per_lag = grams.sum(axis=0).reshape(p, c, FRAMES_PER_EPOCH, p, c)
    sums = np.add.reduceat(per_lag[s, :, l, s2, :], starts, axis=0)
    sums /= (n * (RESPONSE_LEN - np.arange(RESPONSE_LEN)))[:, np.newaxis, np.newaxis]
    blocks = sums.transpose(0, 2, 1)
    blocks[0] = (blocks[0] + blocks[0].T) / 2.0
    return blocks


def _lw_gamma(sq_norms4: float, grams: NDArray, n: int) -> float:
    """Ledoit-Wolf shrinkage intensity toward mu*I of the covariance
    grams / n from accumulated fourth moments; sq_norms4 = sum over epochs
    of ||x_k - mean||^4. The Frobenius norm counts each block above the
    diagonal twice and each lag-0 block once."""
    lag0 = grams[:, :, 0, :]
    diag = np.einsum("aii->ai", lag0).ravel() / n
    d = diag.size
    mu = diag.mean()
    sum_sq = (2.0 * float(np.vdot(grams, grams)) - float(np.vdot(lag0, lag0))) / n**2
    # ||cov - mu I||^2: the off-diagonal squares plus the diagonal's
    # squared deviations from mu
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


def _cov_model(grams: NDArray, sq_norms4: float, n: int, gamma: float | None) -> CovModel:
    """Regularized block-Toeplitz model of the covariance grams / n,
    the frame-block scatter grams (see :attr:`EpochSet.centered_moments`)
    pooled over n epochs; ``gamma`` None selects the Ledoit-Wolf
    intensity."""
    if n < 2:
        raise InsufficientEpochs(f"need at least 2 epochs, got {n}")
    if not np.isfinite(np.einsum("aii->", grams[:, :, 0, :])):
        raise DegenerateCovariance("epoch covariance has a non-finite trace")
    if gamma is None:
        gamma = _lw_gamma(sq_norms4, grams, n)
    blocks = _lag_blocks(grams, n)
    return CovModel(blocks=_regularize(blocks, gamma), shrinkage_gamma=gamma)


def estimate_covariance(ep: EpochSet, gamma: float | None = None) -> CovModel:
    """Tapered block-Toeplitz covariance of the epochs with shrinkage
    toward nu*I (nu = mean diagonal). With ``gamma`` unset, an analytic
    Ledoit-Wolf intensity is used; the epoch count in a single trial is
    small against the feature dimension, so automatic regularization is
    the default.
    """
    grams, sq_norms4 = ep.centered_moments
    return _cov_model(grams, sq_norms4, ep.n_epochs, gamma)


def score_hypotheses(deltas: NDArray, cov: CovModel) -> DecodeOutcome:
    """Mahalanobis energy of each hypothesis' mean difference.

    With Sigma = L L^T, delta^T Sigma^{-1} delta = ||L^{-1} delta||^2:
    each score is the squared norm of the forward-solved mean difference,
    one triangular solve over all hypotheses and no back substitution.
    Raises DegenerateCovariance if the covariance is not positive
    definite, NumericalFailure if a score is not finite.
    """
    deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
    white, _ = lapack.dtrtrs(_toeplitz_factor(cov.blocks), deltas.T, lower=1)   # (D, N)
    scores = np.einsum("dn,dn->n", white, white)
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
    # sum of the trials' centred scatter grams, (18, 3C, 18, 3C) in the
    # layout of EpochSet.centered_moments: block (a, a + l) at [a, :, l, :]
    scatter: NDArray | None = None
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
    if FRAMES_PER_EPOCH * state.scatter.shape[1] != n_features:
        raise ShapeError("accumulated statistics have a different feature count")
    return state


class UmmDecoder:
    """UMM decoding against a fixed code set.

    It keeps one cycle of the codes, ``bits`` (N, P) 0/1, tiled over
    n_cycles: an epoch's label under each hypothesis is the bit at its
    onset frame, frames beyond n_cycles * P raise ShapeError. The codes must
    be of one length, P: InvalidCodeSet otherwise.
    """

    def __init__(self, codes: list[BitSequence], n_cycles: int):
        period = common_period(len(c) for c in codes)
        self.bits = np.array([c.array for c in codes], dtype=np.float64)
        self.n_frames = n_cycles * period

    @property
    def n_hypotheses(self) -> int:
        return self.bits.shape[0]

    def _means(self, ep: EpochSet, rows) -> tuple[NDArray, NDArray]:
        """Flash and non-flash means of the centred epochs (add
        ``ep.offset`` for the epoch means), each (len(rows), D), under the
        hypotheses ``rows``: flash sums weight the epochs by the code bits,
        non-flash sums are the epoch total less them."""
        k = ep.n_epochs
        if k > self.n_frames:
            raise ShapeError(
                f"codes tiled to {self.n_frames} frames, "
                f"epochs extend to frame {k - 1}"
            )
        rows = np.asarray(rows)
        flash = TiledWeights.tiling(self.bits[rows], k)
        n_flash = flash.dense().sum(axis=1, keepdims=True)
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
        grams, sq_norms4 = ep.centered_moments
        n = ep.n_epochs
        if pooled is not None:
            grams = grams + pooled.scatter
            sq_norms4 += pooled.sq_norms4
            n += pooled.n_epochs
        cov = _cov_model(grams, sq_norms4, n, None)
        return score_hypotheses(self._deltas(ep, pooled), cov)

    def update_cumulative(
        self, state: UmmState, ep: EpochSet, outcome: DecodeOutcome
    ) -> UmmState:
        """Pool the trial's covariance statistics unconditionally; add its
        flash/non-flash means to the predicted hypothesis' sums with the
        outcome's confidence as weight, which must lie in [0, 1]."""
        if state.mode != MODE_CUMULATIVE:
            raise ValueError("update_cumulative requires a cumulative-mode state")
        if not 0 <= outcome.label < self.n_hypotheses:
            raise LabelOutOfRange(
                f"label {outcome.label} is not one of the {self.n_hypotheses} hypotheses"
            )
        w = float(outcome.confidence)
        if not 0.0 <= w <= 1.0:
            raise ConfidenceOutOfRange(f"confidence {w} is not a weight in [0, 1]")
        d = ep.n_features
        grams, sq_norms4 = ep.centered_moments
        if _pooled(state, d) is None:
            state = UmmState(
                mode=MODE_CUMULATIVE,
                scatter=np.zeros_like(grams),
                flash_sum=np.zeros(d),
                nonflash_sum=np.zeros(d),
            )
        flash, nonflash = self._means(ep, [outcome.label])
        return UmmState(
            mode=MODE_CUMULATIVE,
            scatter=state.scatter + grams,
            sq_norms4=state.sq_norms4 + sq_norms4,
            n_epochs=state.n_epochs + ep.n_epochs,
            flash_sum=state.flash_sum + w * (flash[0] + ep.offset),
            nonflash_sum=state.nonflash_sum + w * (nonflash[0] + ep.offset),
            weight_total=state.weight_total + w,
            n_trials_seen=state.n_trials_seen + 1,
        )
