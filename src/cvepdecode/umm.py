"""Unsupervised mean-difference maximization (UMM) decoding.

Trials are cut into overlapping 300 ms epochs, one per 60 Hz stimulus
frame. Each candidate code splits the epochs into flash and non-flash
sets; the hypothesis whose flash-minus-non-flash mean difference has the
largest Mahalanobis energy wins. Each difference is one sum of the epochs
with zero-sum integer weights, so hypotheses whose epoch labels are equal
or complementary score bit-equal and tie to the lowest index. The
covariance is the block-Toeplitz projection of the epochs' sample
covariance, tapered linearly over the lags and shrunk toward the mean
variance times the identity with a Ledoit-Wolf intensity: its lag blocks
are the scatter's lag sums over 54 n (n epochs), one scale for the
average and the taper. A decision factors the dense block-Toeplitz
matrix, built from the lag blocks with one copy, by one in-place LAPACK
Cholesky factorisation Sigma = L L^T, and scores every hypothesis by one
forward triangular solve: delta^T Sigma^{-1} delta is the squared norm
of L^{-1} delta.

An epoch is 18 consecutive frames, so no epoch matrix is copied: the
trial's :class:`.encoding.TrialStats` computes every epoch statistic from
its frames, once, among them the scatter as frame-block grams (no (D, D)
scatter is formed) and the weighted sums, over the frames folded by the
code period on a trial of two full cycles or more. :func:`_cov_model` reads
the lag sums, the trace and the Ledoit-Wolf intensity from pooled grams,
and :class:`UmmDecoder` keeps one cycle of the code bits. Like CCA's, the
decoder refuses a trial of fewer than RESPONSE_LEN samples or past its
reach, but its floor is higher: the covariance pools at least three
epochs, 20 whole frames (60 samples), so a trial of 54-59 samples raises
InsufficientEpochs, which CCA decides. ``Trial.prefix`` is the one cut.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.typing import NDArray
from scipy.linalg import lapack

from .codegen import BitSequence, code_bits
from .encoding import FRAMES_PER_EPOCH, RESPONSE_LEN, SAMPLES_PER_FRAME
from .encoding import TiledWeights, TrialStats, check_reach, tiling_reach
from .errors import ConfidenceOutOfRange, DegenerateCovariance, DegenerateHypothesis
from .errors import InsufficientEpochs
from .outcome import MODE_CUMULATIVE, MODE_INSTANTANEOUS, DecodeOutcome, check_update
from .outcome import decided, pooled
from .sigproc import Trial


def slice_epochs(trial: Trial | TrialStats) -> TrialStats:
    """The trial's statistics, whose epochs are one RESPONSE_LEN-sample
    window per 60 Hz frame that fits inside the trial: TrialTooShort from
    :meth:`.encoding.TrialStats.of` if not one fits."""
    return TrialStats.of(trial)


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

    blocks[l] is the tapered, shrunk C x C cross-channel block at lag l
    (see :func:`_cov_model`);
    the represented matrix has T[(t1, c1), (t2, c2)] = blocks[t1 - t2]
    under the time-major feature layout of :class:`.encoding.TrialStats`.
    """

    blocks: NDArray[np.floating]      # (RESPONSE_LEN, C, C)
    shrinkage_gamma: float


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


def _lag_sums(grams: NDArray) -> NDArray:
    """The sums of the C x C block diagonals of the scatter (block Toeplitz
    projection), (RESPONSE_LEN, C, C): the grams summed over frame offsets,
    one gather of the C x C sub-blocks of every (l, s, s2) triple and one
    segmented sum into sample lags. The gathered blocks lie above the
    diagonal, so their sums are the transposes of the lag sums."""
    s, l, s2, starts = _LAG_TRIPLES
    p, c = SAMPLES_PER_FRAME, grams.shape[1] // SAMPLES_PER_FRAME
    per_lag = grams.sum(axis=0).reshape(p, c, FRAMES_PER_EPOCH, p, c)
    return np.add.reduceat(per_lag[s, :, l, s2, :], starts, axis=0).transpose(0, 2, 1)


def _lw_gamma(sq_norms4: float, grams: NDArray, n: int, mu: float) -> float:
    """Ledoit-Wolf shrinkage intensity toward mu*I of the covariance
    S = grams / n of mean variance mu, from accumulated fourth moments;
    sq_norms4 = sum over epochs of ||x_k - mean||^4. The Frobenius norm
    counts each block above the diagonal twice and each lag-0 block once,
    and ||S - mu I||^2 = ||S||^2 - d mu^2."""
    lag0 = grams[:, :, 0, :]
    d = grams.shape[0] * grams.shape[1]
    sum_sq = (2.0 * float(np.vdot(grams, grams)) - float(np.vdot(lag0, lag0))) / n**2
    delta2 = sum_sq / d - mu**2
    if delta2 <= 0:
        return 0.0
    beta2 = (sq_norms4 / n**2 - sum_sq / n) / d
    return float(np.clip(beta2 / delta2, 0.0, 1.0))


def _cov_model(grams: NDArray, sq_norms4: float, n: int, gamma: float | None) -> CovModel:
    """Regularized block-Toeplitz model of the covariance S = grams / n,
    the frame-block scatter grams (see :attr:`.encoding.TrialStats.centered_moments`)
    pooled over n epochs; ``gamma`` None selects the Ledoit-Wolf
    intensity. Lag l's block of S averaged over its RESPONSE_LEN - l
    occurrences and tapered by 1 - l / RESPONSE_LEN is its lag sum over
    RESPONSE_LEN n, so the model is the lag sums times
    (1 - gamma) / (RESPONSE_LEN n), plus gamma mu I at lag 0, mu the mean
    variance trace(S) / D."""
    # two centred epochs are opposite, so beta^2 = 0, gamma = 0 and their
    # rank-1 scatter leaves the model singular
    if n < 3:
        raise InsufficientEpochs(f"need at least 3 epochs, got {n}")
    d = grams.shape[0] * grams.shape[1]
    mu = float(np.einsum("aii->", grams[:, :, 0, :])) / (d * n)
    if not np.isfinite(mu):
        raise DegenerateCovariance("epoch covariance has a non-finite trace")
    if gamma is None:
        gamma = _lw_gamma(sq_norms4, grams, n, mu)
    blocks = _lag_sums(grams) * ((1.0 - gamma) / (RESPONSE_LEN * n))
    blocks[0] += gamma * mu * np.eye(blocks.shape[1])
    return CovModel(blocks=blocks, shrinkage_gamma=gamma)


def estimate_covariance(ep: TrialStats) -> CovModel:
    """Tapered block-Toeplitz covariance of the epochs with shrinkage
    toward mu*I (mu = mean variance) by an analytic Ledoit-Wolf intensity:
    the epoch count in a single trial is small against the feature
    dimension, so the regularization is automatic. InsufficientEpochs
    below three epochs.
    """
    grams, sq_norms4 = ep.centered_moments
    return _cov_model(grams, sq_norms4, ep.n_epochs, None)


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
    return decided(np.einsum("dn,dn->n", white, white))


# -- state / cumulative learning --------------------------------------------

@dataclass
class UmmState:
    """Pooled covariance statistics (label-free) plus a confidence-weighted
    sum of mean differences under naive labeling, running sums over the
    decided trials: a fresh state's are the scalar 0.0, which pool exactly.

    The ERP estimate is global: each finished trial contributes its
    flash-minus-non-flash mean difference under its own predicted code,
    weighted by the decoder's confidence in that prediction.
    """

    mode: str = MODE_INSTANTANEOUS
    # sum of the trials' centred scatter grams, (18, 3C, 18, 3C) in the
    # layout of TrialStats.centered_moments: block (a, a + l) at [a, :, l, :]
    scatter: NDArray | float = 0.0
    sq_norms4: float = 0.0                  # sum of ||x_k - trial mean||^4
    n_epochs: int = 0
    delta_sum: NDArray | float = 0.0        # (D,), confidence-weighted
    weight_total: float = 0.0
    n_trials_seen: int = 0


def _sum_shapes(ep: TrialStats) -> dict[str, tuple[int, ...]]:
    """The shape of each UmmState sum for trials of the epochs' layout."""
    return {"scatter": ep.centered_moments[0].shape, "delta_sum": (ep.n_features,)}


class UmmDecoder:
    """UMM decoding against a fixed code set.

    It keeps one cycle of the codes, ``bits`` (N, P) 0/1, read through
    :func:`.codegen.code_bits` (InvalidCodeSet), as CCA's are: an epoch's
    label under each hypothesis is the bit at its onset frame. The codes
    are tiled over n_cycles, so its ``reach`` is
    :func:`.encoding.tiling_reach`. Every entry takes a Trial or its
    TrialStats and, before any statistic, refuses a trial that holds more
    samples with ShapeError (:func:`.encoding.check_reach`), one of fewer
    than RESPONSE_LEN with TrialTooShort (:meth:`.encoding.TrialStats.of`);
    fewer than three pooled epochs raise InsufficientEpochs.
    """

    def __init__(self, codes: list[BitSequence], n_cycles: int):
        self.bits = code_bits(codes)
        self.reach = tiling_reach(n_cycles, self.bits.shape[1])

    def _stats(self, trial: Trial | TrialStats) -> TrialStats:
        stats = TrialStats.of(trial)
        check_reach(stats.n_samples, self.reach)
        return stats

    def _deltas(self, ep: TrialStats, rows) -> NDArray:
        """Flash-minus-non-flash means of the epochs, (len(rows), D), under
        the hypotheses ``rows``, each one weighted sum of the centred epochs:
        with n flashes among the K epochs, the weights K b_k - n over
        n (K - n). The weights are exact integers that sum to zero, so the
        centring cancels, and a complementary label row's are their exact
        negation: its difference is the bitwise negation, and its score
        bit-equal, as an equal row's is."""
        k = ep.n_epochs
        rows = np.asarray(rows)
        bits = self.bits[rows]
        # the flashes of the full cycles and of the partial one, exact integers
        n_cycles, rest = divmod(k, bits.shape[1])
        n_flash = n_cycles * bits.sum(1, keepdims=True) + bits[:, :rest].sum(1, keepdims=True)
        degenerate = np.flatnonzero((n_flash[:, 0] == 0) | (n_flash[:, 0] == k))
        if degenerate.size:
            raise DegenerateHypothesis(
                f"hypothesis {rows[degenerate[0]]} yields an empty flash or non-flash set"
            )
        sums = ep.weighted_sums(TiledWeights.tiling(k * bits - n_flash, k))
        return sums / (n_flash * (k - n_flash))

    def decode(self, trial: Trial | TrialStats, state: UmmState | None = None) -> DecodeOutcome:
        return self.decode_epochs(slice_epochs(trial), state)

    def decode_epochs(
        self, trial: Trial | TrialStats, state: UmmState | None = None
    ) -> DecodeOutcome:
        """Score every hypothesis on the trial's epochs, pooling a
        cumulative state's covariance statistics and its sum of mean
        differences."""
        ep = self._stats(trial)
        state = pooled(state, _sum_shapes(ep))
        grams, sq_norms4 = ep.centered_moments
        n = ep.n_epochs
        if state is not None:
            grams = grams + state.scatter
            sq_norms4 += state.sq_norms4
            n += state.n_epochs
        cov = _cov_model(grams, sq_norms4, n, None)
        deltas = self._deltas(ep, np.arange(len(self.bits)))
        if state is not None:
            deltas = (state.delta_sum + deltas) / (state.weight_total + 1.0)
        return score_hypotheses(deltas, cov)

    def update_cumulative(
        self, state: UmmState, trial: Trial | TrialStats, outcome: DecodeOutcome
    ) -> UmmState:
        """Pool the trial's covariance statistics unconditionally; add its
        mean difference under the predicted hypothesis to the state's sum
        with the outcome's confidence as weight, which must lie in [0, 1]."""
        check_update(state, outcome.label, len(self.bits))
        w = float(outcome.confidence)
        if not 0.0 <= w <= 1.0:
            raise ConfidenceOutOfRange(f"confidence {w} is not a weight in [0, 1]")
        ep = self._stats(trial)
        pooled(state, _sum_shapes(ep))
        grams, sq_norms4 = ep.centered_moments
        return UmmState(
            mode=MODE_CUMULATIVE,
            scatter=state.scatter + grams,
            sq_norms4=state.sq_norms4 + sq_norms4,
            n_epochs=state.n_epochs + ep.n_epochs,
            delta_sum=state.delta_sum + w * self._deltas(ep, [outcome.label])[0],
            weight_total=state.weight_total + w,
            n_trials_seen=state.n_trials_seen + 1,
        )
