"""Reconvolution CCA decoding.

Each candidate code is scored by the first canonical correlation between
the trial and the code's predicted response time-course, obtained from
sequence-specific spatial (per-channel) and temporal (per-event-lag)
filters. The cumulative variant accumulates spatial covariance plus the
cross/temporal terms of previously decoded trials under naive labeling.

A decoder keeps its codes' :func:`.encoding.frame_events`, derived from
the code bits as UMM's flash bits are, and no design matrix. A decision
reads a trial's whole frames, its first 3 floor(T / 3) samples; up to two
trailing samples are read by neither decoder. Every event fires at a frame
start, so design row (event e, lag 3a + p) is nonzero only at samples of
phase p (t % 3 == p): the temporal gram M_i M_i^T is zero between lags of
different phases, and as every whole frame holds all three phases it is
three copies of one PHASE_DIM x PHASE_DIM phase gram, rows ordered (event,
frame lag a). A code keeps that one gram, built from its frame weights,
factored once, and the factor inverted once. The cross-covariances of a
trial with every hypothesis' design are one call of the frame window-sum
kernel of :mod:`.encoding`, laid out (event, frame lag) by (phase,
channel). The frame weights repeat with the code's period, so on a trial
of two full code cycles or more the kernel works on the frames folded by
the period (:func:`.encoding.tiled_window_sums`), not on every frame. The
phase grams fold the same way (:func:`_phase_grams`): one cycle's lagged
weights, each column counted as often as it recurs, plus the few columns
that read the first frame or a corrected one, so no design wider than one
cycle is built. An instantaneous decision whitens the cross-covariances by
one batched product with the inverse factors; a cumulative one adds its
state's sums, refactors its grams and solves per hypothesis, but a fresh
state, all zero sums, takes the instantaneous route. LAPACK factors,
inverts and solves every block in place: a symmetric block goes to it
transposed, the same matrix in Fortran order, so f2py copies nothing, and a
cumulative decision lays its pooled cross-covariances out hypothesis-major,
so each solve overwrites its own block. Both then apply the inverse spatial
factor by one product. Each hypothesis scores the square root of the
largest eigenvalue of its C x C matrix K^T K, K its whitened
cross-covariance: all hypotheses in one batched symmetric eigenvalue call.
The frames and x x^T come from the trial's :class:`.encoding.TrialStats`,
which a decision and its cumulative update share. One decoder decides
every length up to its reach: only the frame weights and phase grams
depend on it. ``Trial.prefix`` is the one cut.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import linalg
from scipy.linalg import lapack

from .codegen import BitSequence, code_bits
from .encoding import FRAMES_PER_EPOCH, N_EVENTS, SAMPLES_PER_FRAME
from .encoding import TiledWeights, TrialStats, check_reach, frame_events
from .encoding import lagged, tiled_window_sums, tiling_reach
from .errors import DegenerateCovariance, NumericalFailure
from .outcome import MODE_CUMULATIVE, MODE_INSTANTANEOUS, DecodeOutcome, check_update
from .outcome import decided, pooled
from .sigproc import Trial

#: Relative ridge added to both covariance blocks before whitening; keeps
#: Eq-style empirical covariances usable when they are rank-deficient.
RIDGE_REL = 1e-9

#: Design rows of one sample phase: (event, frame lag) pairs, 3 x 18.
PHASE_DIM = N_EVENTS * FRAMES_PER_EPOCH


@dataclass
class CcaState:
    """Accumulated covariance terms for cumulative decoding, running sums
    over the decided trials: a fresh state's are the scalar 0.0.

    The spatial accumulator and the predicted-structure cross/temporal
    accumulators are shared across hypotheses: the spatial covariance does
    not depend on the hypothesis, and under naive labeling every
    hypothesis reuses the same predicted structure of past trials. The
    terms are laid out like the decoder's: the cross term by (phase,
    channel) columns, the temporal one as the phase gram.
    """

    mode: str = MODE_INSTANTANEOUS
    sxx: NDArray | float = 0.0     # (C, C)
    sxm: NDArray | float = 0.0     # (PHASE_DIM, 3 * C): x M^T, transposed, phase-major columns
    smm: NDArray | float = 0.0     # (PHASE_DIM, PHASE_DIM): the phase gram
    n_trials_seen: int = 0


def _sum_shapes(n_channels: int) -> dict[str, tuple[int, int]]:
    """The shape of each CcaState sum for trials of n_channels channels."""
    return {
        "sxx": (n_channels, n_channels),
        "sxm": (PHASE_DIM, SAMPLES_PER_FRAME * n_channels),
        "smm": (PHASE_DIM, PHASE_DIM),
    }


def _ridged_cholesky(blocks: NDArray, what: str) -> NDArray:
    """Lower Cholesky factors of the symmetric float64 stack blocks (...,
    n, n), in place: callers pass C-contiguous scratch. Each matrix is
    ridged by RIDGE_REL times its mean diagonal, which a phase gram shares
    with the block-diagonal gram of its three phases. LAPACK's potrf
    factors one matrix a call, handed the block's transpose: the same
    symmetric matrix in Fortran order, which it overwrites with no copy.
    The factors are returned as those views, Fortran-ordered blocks whose
    upper triangles clean=1 zeroes."""
    tr = np.trace(blocks, axis1=-2, axis2=-1)
    if not np.all(np.isfinite(tr) & (tr > 0)):
        bad = "non-positive" if np.all(np.isfinite(tr)) else "non-finite"
        raise DegenerateCovariance(f"{what} covariance has a {bad} trace")
    ridge = RIDGE_REL * tr / blocks.shape[-1]
    np.einsum("...ii->...i", blocks)[...] += ridge[..., np.newaxis]
    factors = blocks.swapaxes(-1, -2)
    for i in np.ndindex(blocks.shape[:-2]):
        if lapack.dpotrf(factors[i], lower=1, clean=1, overwrite_a=1)[1]:
            raise DegenerateCovariance(f"{what} covariance is not positive definite")
    return factors


def _inverted(factors: NDArray) -> NDArray:
    """The inverses of the lower triangular stack factors (..., n, n), in
    place: Fortran-ordered blocks, as :func:`_ridged_cholesky` returns
    them, which LAPACK's trtri, one call per block, overwrites with no
    copy; the upper triangles stay zero."""
    for i in np.ndindex(factors.shape[:-2]):
        if lapack.dtrtri(factors[i], lower=1, overwrite_c=1)[1]:
            raise DegenerateCovariance("temporal covariance factor is singular")
    return factors


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
    # lx^-1 sxm lm^-T by two triangular solves; LAPACK is called directly:
    # SciPy's wrappers cost more than a small solve
    k = lapack.dtrtrs(lx, np.asarray(sxm, dtype=float), lower=1)[0]
    whitened = lapack.dtrtrs(lm, k.T, lower=1)[0].T
    u, s, vt = linalg.svd(whitened, full_matrices=False)
    rho = float(s[0])
    if not np.isfinite(rho):
        raise NumericalFailure("canonical correlation came out non-finite")
    w = linalg.solve_triangular(lx.T, u[:, 0], lower=False)
    r = linalg.solve_triangular(lm.T, vt[0], lower=False)
    if r[np.argmax(np.abs(r))] < 0:
        w, r = -w, -r
    return w, r, rho


def _phase_grams(weights: TiledWeights) -> NDArray:
    """The phase gram sum_g v_g v_g^T of each code, (N, PHASE_DIM,
    PHASE_DIM), over the frames g < K = weights.n_frames, v_g[(e, a)] =
    w_e[g - a] (zero for g < a): the gram of the :func:`.encoding.lagged`
    weights, rows N_EVENTS per code, without the K-wide design.

    Column g reads frames g - 17 .. g. Where it reads no frame before 0
    and no corrected frame, it is column g mod P of the (N, PHASE_DIM, P)
    lagged one-cycle pattern U, with P the tiling's period, so those
    columns sum to U diag(c) U^T, with c their count per residue, over the
    residues that occur. The columns apart from the cycle, the first 17
    and the 18 from each corrected frame on, are lagged from their dense
    weights, one run at a time, and added. The weights count events, so
    every sum is of small integers and exact.
    """
    period, n_frames, lags = weights.period, weights.n_frames, FRAMES_PER_EPOCH
    apart = np.zeros(n_frames + lags, dtype=bool)
    apart[: lags - 1] = True
    for position in weights.positions:
        apart[position : position + lags] = True
    apart = apart[:n_frames]
    counts = np.bincount(np.flatnonzero(~apart) % period, minlength=period)
    recur = np.flatnonzero(counts)      # all residues, unless the trial is short of a cycle
    # the cycle led by its last 17 frames, lagged; column r of U holds w_e[(r - a) mod P]
    cycle = lagged(weights.pattern[:, np.arange(1 - lags, period) % period], lags)
    cycle = cycle[:, lags - 1 + recur].reshape(len(cycle) // PHASE_DIM, PHASE_DIM, len(recur))
    grams = (cycle * counts[recur]) @ cycle.transpose(0, 2, 1)
    # the runs [start, stop) of columns apart, each lagged from frame start - 17 on
    edges = np.flatnonzero(np.diff(apart, prepend=False, append=False)).reshape(-1, 2)
    for start, stop in edges:
        first = max(0, start - lags + 1)
        design = lagged(weights.dense(first, stop), lags)[:, start - first :]
        design = design.reshape(-1, PHASE_DIM, stop - start)
        grams += design @ design.transpose(0, 2, 1)
    return grams


class CcaDecoder:
    """Scores every code hypothesis on trials of any length up to its reach.

    It keeps ``bits``, ``n_cycles`` and ``reach`` as :class:`.umm.UmmDecoder`
    does. The rest is built from a trial's whole-frame count when that
    count is decided and the last one was another: ``weights``, the
    :func:`.encoding.frame_events` of the codes at those frames, event e
    of hypothesis i in row i * N_EVENTS + e; and as (N, PHASE_DIM,
    PHASE_DIM) stacks the phase gram of every M_i M_i^T and the inverses
    of their ridged lower Cholesky factors: the temporal whitening of an
    instantaneous decision is one batched product with them. Phase p's
    gram entry ((e, a), (e', a')) is the gram entry of lags 3a + p and
    3a' + p, the sum over the frames g of weights[e, g - a]
    weights[e', g - a']: the gram of the :func:`.encoding.lagged` weights,
    formed without them by the code-period fold of :func:`_phase_grams`,
    in exact integers as the dense gram is. The factors are made and
    inverted in place and kept as Fortran-ordered blocks. A cumulative
    decision adds its state's grams and refactors in place.
    """

    def __init__(self, codes: list[BitSequence], n_cycles: int):
        self.bits = code_bits(codes)
        self.n_cycles = n_cycles
        self.reach = tiling_reach(n_cycles, self.bits.shape[1])
        # the parts of the last whole-frame count decided, built by _stats
        self.weights = self.grams = self.gram_inverse_factors = None

    def _stats(self, trial: Trial | TrialStats) -> TrialStats:
        stats = TrialStats.of(trial)
        check_reach(stats.n_samples, self.reach)
        if self.weights is None or self.weights.n_frames != stats.n_frames:
            self.weights = frame_events(self.bits, self.n_cycles, stats.n_frames)
            self.grams = _phase_grams(self.weights)
            self.gram_inverse_factors = _inverted(_ridged_cholesky(self.grams.copy(), "temporal"))
        return stats

    def _smx(self, stats: TrialStats, weights: TiledWeights) -> NDArray:
        """M_i x^T, (n, PHASE_DIM, 3 * C), for the hypotheses whose weight
        rows are given: row (event, frame lag a) and column (phase, channel)
        hold design row (event, lag 3a + p) against channel c. Zero frames
        past the whole frames cut the responses that run past them."""
        sums = tiled_window_sums(stats.frames, weights)   # [i * N_EVENTS + e, (a * 3 + p) * C + c]
        return sums.reshape(-1, PHASE_DIM, stats.frames.shape[1])

    def decode(self, trial: Trial | TrialStats, state: CcaState | None = None) -> DecodeOutcome:
        stats = self._stats(trial)
        c = len(stats.samples)
        state = pooled(state, _sum_shapes(c))
        sxx = stats.sxx.copy()      # scratch: its factor is made in place
        smx = self._smx(stats, self.weights)
        # a fresh state's zero sums add nothing: the instantaneous route
        if state is not None and state.n_trials_seen:
            sxx += state.sxx
            lm = _ridged_cholesky(self.grams + state.smm, "temporal")
            # hypothesis-major (3C, PHASE_DIM) blocks, whose transposes,
            # the pooled cross-covariances in Fortran order, trtrs solves
            # in place
            blocks = np.empty((len(smx), smx.shape[2], PHASE_DIM))
            np.add(smx.transpose(0, 2, 1), state.sxm.T, out=blocks)
            for l, b in zip(lm, blocks):
                lapack.dtrtrs(l, b.T, lower=1, overwrite_b=1)
            k = blocks.transpose(0, 2, 1)
        else:
            k = self.gram_inverse_factors @ smx
        lx = _ridged_cholesky(sxx, "spatial")
        # lx^-1 by one solve against the identity: at 8 channels, a product
        # with it is ten times faster than a triangular solve over the
        # 3 * PHASE_DIM * N columns
        lx_inv = lapack.dtrtrs(lx, np.eye(c, order="F"), lower=1, overwrite_b=1)[0]
        k = (k.reshape(-1, c) @ lx_inv.T).reshape(len(k), -1, c)
        # the largest singular value of each K, from its C x C gram
        top = np.linalg.eigvalsh(k.transpose(0, 2, 1) @ k)[:, -1]
        return decided(np.sqrt(np.maximum(top, 0.0)))

    def update_cumulative(
        self, state: CcaState, trial: Trial | TrialStats, predicted: int
    ) -> CcaState:
        """Fold the finished trial into the accumulators, pairing its data
        with the design of its own predicted label (naive labeling)."""
        check_update(state, predicted, len(self.bits))
        stats = self._stats(trial)
        pooled(state, _sum_shapes(len(stats.samples)))
        rows = slice(N_EVENTS * predicted, N_EVENTS * (predicted + 1))
        (smx,) = self._smx(stats, self.weights.rows(rows))
        return CcaState(
            mode=MODE_CUMULATIVE,
            sxx=state.sxx + stats.sxx,
            sxm=state.sxm + smx,
            smm=state.smm + self.grams[predicted],
            n_trials_seen=state.n_trials_seen + 1,
        )
