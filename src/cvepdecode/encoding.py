"""Event extraction and Toeplitz structure matrices for reconvolution CCA.

A modulated code is turned into an event time-series with three rows
(short-flash onsets, long-flash onsets, trial onset) on the 180 Hz sample
grid, and then into a banded design matrix mapping per-event response
templates to a predicted trial time-course.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .codegen import BitSequence
from .errors import InvalidLag, UnmodulatedCode
from .sigproc import TARGET_FS

N_EVENTS = 3          # short flash, long flash, stimulation onset
EVENT_SHORT = 0
EVENT_LONG = 1
EVENT_ONSET = 2

RESPONSE_LEN = 54     # 300 ms at 180 Hz


@dataclass(frozen=True)
class EventTimeSeries:
    """events: (n_events, n_samples) binary matrix at 180 Hz."""

    events: NDArray[np.int8]

    @property
    def n_samples(self) -> int:
        return self.events.shape[1]


@dataclass(frozen=True)
class StructureMatrix:
    """mat: (n_events * response_len, n_samples) banded Toeplitz design."""

    mat: NDArray[np.floating]
    response_len: int = RESPONSE_LEN

    @property
    def n_samples(self) -> int:
        return self.mat.shape[1]

    def truncated(self, n_samples: int) -> "StructureMatrix":
        """Keep only the first n_samples columns (a prefix of the trial).

        Valid because every row depends on past events only; no wraparound.
        """
        return StructureMatrix(mat=self.mat[:, :n_samples], response_len=self.response_len)


def _flash_runs(bits: NDArray) -> list[tuple[int, int]]:
    """(start_frame, length) for each maximal run of ones."""
    runs = []
    start = None
    for i, b in enumerate(bits):
        if b and start is None:
            start = i
        elif not b and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(bits) - start))
    return runs


def n_cycles_to_cover(code: BitSequence, n_samples: int) -> int:
    """Code cycles needed to cover n_samples samples at 180 Hz, counted in
    whole frames of the code's own length and rate."""
    n_frames = -(-n_samples // int(round(TARGET_FS / code.rate_hz)))
    return max(1, -(-n_frames // len(code)))


def extract_events(
    code: BitSequence, n_cycles: int, fs: float = TARGET_FS
) -> EventTimeSeries:
    """Tile a modulated code over n_cycles and mark flash onsets at 180 Hz.

    A run of a single 1 produces a short-flash event at the run's first
    frame; a run of two 1s a long-flash event. Runs may span cycle
    boundaries of the tiled sequence. The onset event fires at t=0 only.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    tiled = np.tile(code.array, n_cycles)
    upsample = int(round(fs / code.rate_hz))
    n_samples = len(tiled) * upsample
    events = np.zeros((N_EVENTS, n_samples), dtype=np.int8)
    for start, length in _flash_runs(tiled):
        if length > 2:
            raise UnmodulatedCode(
                f"run of {length} consecutive ones at frame {start}; "
                "modulated codes allow at most 2"
            )
        row = EVENT_SHORT if length == 1 else EVENT_LONG
        events[row, start * upsample] = 1
    events[EVENT_ONSET, 0] = 1
    return EventTimeSeries(events=events)


def build_structure_matrix(
    ev: EventTimeSeries, response_len: int = RESPONSE_LEN
) -> StructureMatrix:
    """Stack lagged copies of each event row into the reconvolution design.

    Row (e * L + lag) at column t equals ev[e, t - lag]; responses spilling
    past the trial end are truncated, nothing wraps to the start.
    """
    if response_len <= 0:
        raise InvalidLag(f"response length must be positive, got {response_len}")
    n_events, n_samples = ev.events.shape
    mat = np.zeros((n_events * response_len, n_samples))
    for e in range(n_events):
        row = ev.events[e]
        for lag in range(response_len):
            if lag < n_samples:
                mat[e * response_len + lag, lag:] = row[: n_samples - lag]
    return StructureMatrix(mat=mat, response_len=response_len)


def structure_for_code(
    code: BitSequence, n_cycles: int, response_len: int = RESPONSE_LEN, fs: float = TARGET_FS
) -> StructureMatrix:
    return build_structure_matrix(extract_events(code, n_cycles, fs), response_len)
