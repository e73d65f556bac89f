"""Event trains and the frame window-sum kernel shared by both decoders.

A modulated code tiled over whole cycles becomes an event train with three
rows (short-flash onsets, long-flash onsets, trial onset) on the 180 Hz
sample grid, SAMPLES_PER_FRAME samples per 60 Hz stimulus frame. The
reconvolution model predicts a trial as each event row convolved with its
own RESPONSE_LEN-sample response; the dense lagged design that expresses
this as one matrix product (:func:`lagged` events) is derived from the
event train on demand and never stored. Events fire at frame starts, so
both decoders sum response windows with one kernel, :func:`window_sums`
over :func:`trial_frames`: CCA weights the windows by each hypothesis'
events, UMM by its flash bits. Both read a trial as one
:class:`TrialStats`: its samples checked and framed once. Both decide a
trial's whole frames, its first 3 floor(T / 3) samples: up to two
trailing samples, a partial frame, are read by neither.

Both weightings repeat with the code's period, its length in frames
(:class:`TiledWeights`): one cycle's pattern, plus a few corrections where
a flash run is cut by the tiling's first or last frame and where the
trial onset fires. A window sum is linear in the frames, so
:func:`tiled_window_sums` folds a trial of at least two full cycles by the
period first: the full cycles' windows are one window sum of the pattern
over P + 17 summed frames, the last partial cycle one more over its own
frames, and the corrections one product with their windows. The kernel's
work then follows the code length, not the trial length.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view
from numpy.typing import NDArray

from .codegen import PRESENTATION_RATE_HZ, BitSequence
from .errors import InvalidCodeSet, UnmodulatedCode
from .sigproc import TARGET_FS, Trial, finite_samples

N_EVENTS = 3          # short flash, long flash, stimulation onset
EVENT_SHORT = 0
EVENT_LONG = 1
EVENT_ONSET = 2

RESPONSE_LEN = 54     # 300 ms at 180 Hz
SAMPLES_PER_FRAME = round(TARGET_FS / PRESENTATION_RATE_HZ)   # 3
FRAMES_PER_EPOCH = RESPONSE_LEN // SAMPLES_PER_FRAME          # 18 frames per 300 ms response


def trial_frames(x: NDArray, n_frames: int) -> NDArray[np.float64]:
    """The (C, T) samples as (n_frames, SAMPLES_PER_FRAME * C) time-major
    frames: frames[f, s * C + c] is x[c, SAMPLES_PER_FRAME * f + s], zero
    past T; samples past the last frame are dropped."""
    frames = np.zeros((n_frames * SAMPLES_PER_FRAME, len(x)))
    frames[: x.shape[1]] = x[:, : len(frames)].T
    return frames.reshape(n_frames, SAMPLES_PER_FRAME * len(x))


def window_sums(frames: NDArray, weights: NDArray) -> NDArray:
    """sum_k weights[r, k] frames[k : k + FRAMES_PER_EPOCH].ravel() for each
    row r: (R, FRAMES_PER_EPOCH * width) for frames (K + FRAMES_PER_EPOCH - 1,
    width) and weights (R, K): one stacked product over the frame offsets,
    of a strided view that copies nothing (it costs less to build than a
    sliding_window_view, which matters at a few hundred frames)."""
    n_frames, width = frames.shape
    if n_frames != weights.shape[1] + FRAMES_PER_EPOCH - 1:
        raise ValueError(f"{n_frames} frames do not hold the windows of {weights.shape[1]} weights")
    step, column = frames.strides
    windows = as_strided(
        frames, (FRAMES_PER_EPOCH, weights.shape[1], width), (step, step, column), writeable=False
    )
    sums = np.matmul(weights, windows)                    # (FRAMES_PER_EPOCH, R, width)
    return sums.transpose(1, 0, 2).reshape(len(weights), FRAMES_PER_EPOCH * width)


@dataclass(frozen=True)
class TiledWeights:
    """Frame weights (R, n_frames) that tile one cycle, pattern (R, P):
    weights[:, k] = pattern[:, k % P], plus corrections[:, j] at frame
    positions[j]."""

    pattern: NDArray
    n_frames: int
    positions: NDArray[np.intp]     # (n_pos,) distinct frames below n_frames
    corrections: NDArray            # (R, n_pos)

    @classmethod
    def tiling(cls, pattern: NDArray, n_frames: int) -> "TiledWeights":
        """The pattern tiled over n_frames frames, with no corrections."""
        return cls(pattern, n_frames, np.empty(0, np.intp), np.empty((len(pattern), 0)))

    @classmethod
    def of(cls, weights: NDArray, period: int) -> "TiledWeights":
        """The dense weights (R, K) as the tiling of their second cycle,
        frames period .. 2 * period - 1, and their exact differences from
        it. A tiled code's events leave the cycle only at frame 0, where the
        onset fires and a flash run may start instead of continuing one that
        wraps the cycle, and at the tiling's last frame, where such a run is
        cut; so the differences sit at two frames at most. Weights of fewer
        than two cycles are kept whole, one cycle of their own length:
        folding them would save nothing."""
        n_frames = weights.shape[1]
        if n_frames < 2 * period:
            return cls.tiling(weights, n_frames)
        pattern = weights[:, period : 2 * period]
        differences = weights - cls.tiling(pattern, n_frames).dense()
        positions = np.flatnonzero(np.any(differences != 0, axis=0))
        return cls(pattern, n_frames, positions, differences[:, positions])

    @property
    def period(self) -> int:
        return self.pattern.shape[1]

    def rows(self, index) -> "TiledWeights":
        """The weights of the rows ``index`` (a slice or an index array)."""
        return replace(self, pattern=self.pattern[index], corrections=self.corrections[index])

    def dense(self) -> NDArray:
        """The (R, n_frames) weights."""
        weights = self.pattern[:, np.arange(self.n_frames) % self.period]
        weights[:, self.positions] += self.corrections
        return weights


def tiled_window_sums(frames: NDArray, weights: TiledWeights) -> NDArray:
    """:func:`window_sums` of frames (K + FRAMES_PER_EPOCH - 1, width) with
    the tiled weights, K = weights.n_frames.

    Frames that hold q >= 2 full cycles of P frames are folded first:
    folded[g] = sum_(c < q) frames[g + c P] for g < P + 17, and the full
    cycles' windows are the pattern's window sums over the fold. Row
    g >= P of the fold is row g - P less frames[g - P] plus
    frames[g - P + q P]. The last K - q P windows are one more window sum
    over frames[q P:], and the corrections one product with the windows
    at their positions. Nothing assumes the frames past K are zero. With
    fewer than two cycles the dense weights go to the kernel as they are.
    """
    period, n_frames = weights.period, weights.n_frames
    n_cycles = n_frames // period
    if n_cycles < 2:
        return window_sums(frames, weights.dense())
    full = n_cycles * period
    n_fold = period + FRAMES_PER_EPOCH - 1
    folded = np.empty((n_fold, frames.shape[1]))
    folded[:period] = frames[:full].reshape(n_cycles, period, -1).sum(axis=0)
    for g in range(period, n_fold, period):     # once for codes of 17 frames or more
        stop = min(g + period, n_fold)
        folded[g:stop] = (
            folded[g - period : stop - period]
            - frames[g - period : stop - period]
            + frames[g - period + full : stop - period + full]
        )
    sums = window_sums(folded, weights.pattern)
    if n_frames > full:
        sums += window_sums(frames[full:], weights.pattern[:, : n_frames - full])
    if weights.positions.size:
        offsets = weights.positions[:, np.newaxis] + np.arange(FRAMES_PER_EPOCH)
        sums += weights.corrections @ frames[offsets].reshape(len(offsets), -1)
    return sums


@dataclass(frozen=True)
class TrialStats:
    """One trial as both decoders read it: its (C, T) samples, checked
    finite once, and the :func:`trial_frames` of its n_frames = floor(T / 3)
    whole frames, laid out once, zero past them: (n_frames +
    FRAMES_PER_EPOCH - 1, SAMPLES_PER_FRAME * C), so CCA's windows reach
    past the last frame. Both decoders read the whole frames alone, the
    first 3 n_frames samples: x x^T is theirs, and UMM's epoch k is
    frames[k : k + 18] flattened, feature (t * C + c) channel c at epoch
    sample t. Every statistic is computed on first use and kept; UMM's are
    about the whole frames' column mean, so a large constant offset does
    not cancel in their products. UMM reads only scatters and mean
    differences, which the shift does not move, so it is not kept."""

    samples: NDArray[np.floating]
    frames: NDArray[np.floating]

    @classmethod
    def of(cls, trial: Trial | TrialStats) -> TrialStats:
        """The trial's statistics; a TrialStats is returned as it is."""
        if isinstance(trial, TrialStats):
            return trial
        x = finite_samples(trial.samples)
        n_frames = x.shape[1] // SAMPLES_PER_FRAME
        whole = x[:, : SAMPLES_PER_FRAME * n_frames]
        return cls(samples=x, frames=trial_frames(whole, n_frames + FRAMES_PER_EPOCH - 1))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def n_frames(self) -> int:
        """The whole frames, floor(T / 3)."""
        return self.n_samples // SAMPLES_PER_FRAME

    @cached_property
    def sxx(self) -> NDArray:
        """The (C, C) spatial scatter x x^T of the whole frames' samples."""
        whole = self.samples[:, : SAMPLES_PER_FRAME * self.n_frames]
        return whole @ whole.T

    @property
    def n_epochs(self) -> int:
        return self.n_frames - FRAMES_PER_EPOCH + 1

    @property
    def n_features(self) -> int:
        return FRAMES_PER_EPOCH * self.frames.shape[1]

    @cached_property
    def _centred(self) -> NDArray:
        """The whole frames less their column mean."""
        whole = self.frames[: self.n_frames]
        return whole - whole.mean(axis=0)

    @cached_property
    def epoch_sum(self) -> NDArray:
        """Sum of the centred epochs, (D,), on the plain kernel: folding by
        a one-frame period costs more than it saves."""
        return window_sums(self._centred, np.ones((1, self.n_epochs)))[0]

    def weighted_sums(self, weights: TiledWeights) -> NDArray:
        """weights @ (centred epochs), (R, D), for tiled weights."""
        return tiled_window_sums(self._centred, weights)

    @cached_property
    def centered_moments(self) -> tuple[NDArray, float]:
        """(grams, sq_norms4) about the epoch mean m. grams, (18, 3C, 18,
        3C), holds the scatter sum_k (x_k - m)(x_k - m)^T by frame blocks:
        block (a, a + l) is grams[a, :, l, :], the lag-0 blocks exactly
        symmetric, entries with a + l >= 18 exactly 0 and the blocks below
        the diagonal left out. sq_norms4 = sum_k ||x_k - m||^4 is the fourth
        moment the Ledoit-Wolf intensity needs.

        With y the centred frames and s_a = sum_k y[k + a], block (a, a + l)
        is sum_k y[k + a] y[k + a + l]^T - s_a s_(a + l)^T / K: for a = 0
        the lag-l frame gram less an outer product, then a rank-4 step per
        offset, which drops frame a - 1, adds frame K + a - 1 and moves the
        window sums with them."""
        y, k = self._centred, self.n_epochs
        n, width = FRAMES_PER_EPOCH, y.shape[1]
        pad = np.zeros((n - 1, width))
        # s_a / sqrt(K), zero past the last offset
        sums = np.concatenate([self.epoch_sum.reshape(n, width) / np.sqrt(k), pad])

        def by_lag(rows):
            """[f, l, q] = rows[f + l, q]"""
            return sliding_window_view(rows, n, axis=0).transpose(0, 2, 1)

        y_lag, sums_lag = by_lag(np.concatenate([y, pad])), by_lag(sums)
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


def common_period(periods) -> int:
    """The one code length, in frames, of a code set: the period every
    decoder folds its trials by. InvalidCodeSet if the lengths differ."""
    distinct = sorted(set(periods))
    if not distinct:
        raise InvalidCodeSet("a code set needs at least one code")
    if len(distinct) != 1:
        raise InvalidCodeSet(f"a code set needs codes of one length, got lengths {distinct}")
    return distinct[0]


def lagged(rows: NDArray, n_lags: int) -> NDArray[np.float64]:
    """(R * n_lags, T) copies of the rows (R, T) delayed by 0..n_lags - 1
    steps: row r * n_lags + lag at column t is rows[r, t - lag], zero for
    t < lag; what is delayed past T is cut, nothing wraps to the start."""
    n_rows, n_steps = rows.shape
    padded = np.zeros((n_rows, n_lags - 1 + n_steps))
    padded[:, n_lags - 1 :] = rows
    # window j holds the rows delayed by n_lags - 1 - j steps
    return sliding_window_view(padded, n_steps, axis=1)[:, ::-1].reshape(n_rows * n_lags, n_steps)


@dataclass(frozen=True)
class StructureMatrix:
    """A code's event train: events (n_events, n_samples), 0/1 int8 at 180 Hz.

    ``period`` is the length in frames of the code the events tile; by
    default the events are one cycle, whole frames of it. ``mat`` is the
    reconvolution design those events stand for, built on each access:
    callers that need the dense matrix (grams, the simulator, oracles)
    build it, use it and let it go.
    """

    events: NDArray[np.int8]
    period: int | None = None

    def __post_init__(self):
        if self.period is None:
            n_frames = -(-self.events.shape[1] // SAMPLES_PER_FRAME)
            object.__setattr__(self, "period", n_frames)

    @property
    def mat(self) -> NDArray[np.float64]:
        """(n_events * RESPONSE_LEN, n_samples) banded Toeplitz design:
        :func:`lagged` events, responses cut at the trial end."""
        return lagged(self.events, RESPONSE_LEN)

    def truncated(self, n_samples: int) -> "StructureMatrix":
        """Keep only the first n_samples samples (a prefix of the trial).

        Valid because every design column depends on past events only.
        """
        return replace(self, events=self.events[:, :n_samples])


def _flash_runs(bits: NDArray) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
    """(start frames, lengths) of the maximal runs of ones; a run longer
    than two frames raises UnmodulatedCode."""
    edges = np.diff(np.concatenate([[0], bits, [0]]))
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - starts
    too_long = np.flatnonzero(lengths > 2)
    if too_long.size:
        i = too_long[0]
        raise UnmodulatedCode(
            f"run of {lengths[i]} consecutive ones at frame {starts[i]}; "
            "modulated codes allow at most 2"
        )
    return starts, lengths


def n_cycles_to_cover(code: BitSequence, n_samples: int) -> int:
    """Code cycles needed to cover n_samples samples at 180 Hz, counted in
    whole frames of the code's own length."""
    n_frames = -(-n_samples // SAMPLES_PER_FRAME)
    return max(1, -(-n_frames // len(code)))


def structure_for_code(code: BitSequence, n_cycles: int) -> StructureMatrix:
    """Tile a modulated code over n_cycles and mark flash onsets at 180 Hz.

    A run of a single 1 produces a short-flash event at the run's first
    frame; a run of two 1s a long-flash event. Runs may span cycle
    boundaries of the tiled sequence. The onset event fires at t=0 only.
    The code's length is the train's period.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    tiled = np.tile(code.array, n_cycles)
    starts, lengths = _flash_runs(tiled)
    events = np.zeros((N_EVENTS, len(tiled) * SAMPLES_PER_FRAME), dtype=np.int8)
    events[np.where(lengths == 1, EVENT_SHORT, EVENT_LONG), starts * SAMPLES_PER_FRAME] = 1
    events[EVENT_ONSET, 0] = 1
    return StructureMatrix(events=events, period=len(code))
