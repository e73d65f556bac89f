"""Event trains and the frame window-sum kernel shared by both decoders.

A modulated code tiled over whole cycles becomes an event train with three
rows (short-flash onsets, long-flash onsets, trial onset) on the 180 Hz
sample grid, SAMPLES_PER_FRAME samples per 60 Hz stimulus frame. The
reconvolution model predicts a trial as each event row convolved with its
own RESPONSE_LEN-sample response; the dense lagged design that expresses
this as one matrix product is derived from the event train on demand and
never stored. Events fire at frame starts, so both decoders sum response
windows with one kernel, :func:`window_sums` over :func:`trial_frames`:
CCA weights the windows by each hypothesis' events, UMM by its flash bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .codegen import PRESENTATION_RATE_HZ, BitSequence
from .errors import UnmodulatedCode
from .sigproc import TARGET_FS

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
    width) and weights (R, K): one stacked product over the frame offsets."""
    windows = sliding_window_view(frames, weights.shape[1], axis=0).transpose(0, 2, 1)
    sums = np.matmul(weights, windows)                    # (FRAMES_PER_EPOCH, R, width)
    return sums.transpose(1, 0, 2).reshape(len(weights), FRAMES_PER_EPOCH * frames.shape[1])


@dataclass(frozen=True)
class StructureMatrix:
    """A code's event train: events (n_events, n_samples), 0/1 int8 at 180 Hz.

    ``mat`` is the reconvolution design those events stand for, built on
    each access: callers that need the dense matrix (grams, the simulator,
    oracles) build it, use it and let it go.
    """

    events: NDArray[np.int8]

    @property
    def mat(self) -> NDArray[np.float64]:
        """(n_events * RESPONSE_LEN, n_samples) banded Toeplitz design.

        Row (e * RESPONSE_LEN + lag) at column t equals events[e, t - lag];
        responses spilling past the trial end are cut, nothing wraps to the
        start.
        """
        n_events, n_samples = self.events.shape
        padded = np.zeros((n_events, RESPONSE_LEN - 1 + n_samples))
        padded[:, RESPONSE_LEN - 1 :] = self.events
        # window j holds the events delayed by RESPONSE_LEN - 1 - j samples
        lagged = sliding_window_view(padded, n_samples, axis=1)[:, ::-1]
        return lagged.reshape(n_events * RESPONSE_LEN, n_samples)

    def truncated(self, n_samples: int) -> "StructureMatrix":
        """Keep only the first n_samples samples (a prefix of the trial).

        Valid because every design column depends on past events only.
        """
        return StructureMatrix(events=self.events[:, :n_samples])


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
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    tiled = np.tile(code.array, n_cycles)
    starts, lengths = _flash_runs(tiled)
    events = np.zeros((N_EVENTS, len(tiled) * SAMPLES_PER_FRAME), dtype=np.int8)
    events[np.where(lengths == 1, EVENT_SHORT, EVENT_LONG), starts * SAMPLES_PER_FRAME] = 1
    events[EVENT_ONSET, 0] = 1
    return StructureMatrix(events=events)
