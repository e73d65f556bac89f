"""Independent references for the benchmark's correctness checks.

Nothing here calls into cvepdecode: each reference rebuilds its quantity
from the code bits and the raw samples with plain numpy/scipy, so a check
compares the program's output against a second derivation, not against
itself.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import linalg, signal, stats

FS = 180.0
SAMPLES_PER_FRAME = 3      # 180 Hz samples per 60 Hz frame
RESPONSE_LEN = 54          # 300 ms response / epoch window at 180 Hz
EDGE_PAD_S = 1.0           # reflect padding around each trial before filtering

# Tolerances. The largest differences seen against the program were 3e-7
# for rho (its relative ridge of 1e-9, largest on 1.05 s trials), 1e-15
# relative for the UMM scores and 2e-11 of the peak for the filter (the
# program filters in transfer-function form, the reference in sections).
RHO_ATOL = 2e-6
UMM_RTOL = 1e-9
FILTER_RTOL = 1e-8


def tiled_bits(code_bits, n_frames: int) -> np.ndarray:
    """The 60 Hz code repeated to cover n_frames frames."""
    bits = np.asarray(code_bits, dtype=np.int8)
    reps = -(-n_frames // len(bits))
    return np.tile(bits, reps)[:n_frames]


def event_design(code_bits, n_samples: int, stim_samples: int) -> np.ndarray:
    """Lagged event design (3 events x 54 lags, n_samples) built from the
    flash runs of the code tiled over the stimulation, which lasted
    stim_samples: a run of one frame is a short flash, a run of two frames
    a long flash, plus the stimulation onset at t=0. A run cut by the end
    of the stimulation keeps its shown length; responses running past
    n_samples are cut."""
    bits = tiled_bits(code_bits, stim_samples // SAMPLES_PER_FRAME)
    edges = np.diff(np.concatenate([[0], bits, [0]]))
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - starts
    if lengths.max() > 2:
        raise ValueError("code has a flash longer than two frames")
    events = np.zeros((3, n_samples))
    for start, length in zip(starts, lengths):
        t = start * SAMPLES_PER_FRAME
        if t < n_samples:
            events[0 if length == 1 else 1, t] = 1.0
    events[2, 0] = 1.0
    design = np.zeros((3 * RESPONSE_LEN, n_samples))
    for e in range(3):
        for lag in range(min(RESPONSE_LEN, n_samples)):
            design[e * RESPONSE_LEN + lag, lag:] = events[e, : n_samples - lag]
    return design


def _orthonormal_rows(a: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis (n_samples, rank) of the row space of a."""
    u, s, _ = linalg.svd(a.T, full_matrices=False)
    return u[:, s > rel_tol * s[0]]


def cca_rho(x: np.ndarray, code_bits, stim_samples: int) -> float:
    """First canonical correlation (uncentred) between the trial x (C, T)
    and the code's lagged event design, via principal angles between the
    two row spaces after rank truncation."""
    qx = _orthonormal_rows(x)
    qm = _orthonormal_rows(event_design(code_bits, x.shape[1], stim_samples))
    return float(linalg.svdvals(qx.T @ qm)[0])


def _epochs(x: np.ndarray) -> np.ndarray:
    """(K, 54 * C) epochs, one per 60 Hz frame, time-major features."""
    n_channels, n_samples = x.shape
    k = (n_samples - RESPONSE_LEN) // SAMPLES_PER_FRAME + 1
    return np.stack(
        [
            x[:, j * SAMPLES_PER_FRAME : j * SAMPLES_PER_FRAME + RESPONSE_LEN].T.reshape(-1)
            for j in range(k)
        ]
    )


def dense_umm_covariance(epochs: np.ndarray, n_channels: int) -> np.ndarray:
    """Tapered, Ledoit-Wolf-shrunk block-Toeplitz covariance, materialised.

    Blocks are the averages of the sample covariance's C x C block
    diagonals, tapered linearly to zero at the last lag, and shrunk toward
    nu*I with the analytic Ledoit-Wolf intensity."""
    k, d = epochs.shape
    n_lags = d // n_channels
    centred = epochs - epochs.mean(axis=0)
    cov = centred.T @ centred / k
    mu = np.trace(cov) / d
    delta2 = np.sum((cov - mu * np.eye(d)) ** 2) / d
    beta2 = (np.sum(np.sum(centred**2, axis=1) ** 2) / k**2 - np.sum(cov**2) / k) / d
    gamma = float(np.clip(beta2 / delta2, 0.0, 1.0)) if delta2 > 0 else 0.0

    blocks = np.zeros((n_lags, n_channels, n_channels))
    for lag in range(n_lags):
        for i in range(n_lags - lag):
            r, c = (i + lag) * n_channels, i * n_channels
            blocks[lag] += cov[r : r + n_channels, c : c + n_channels]
        blocks[lag] /= n_lags - lag
    blocks[0] = (blocks[0] + blocks[0].T) / 2.0
    blocks *= (1.0 - np.arange(n_lags) / n_lags)[:, None, None]
    nu = np.trace(blocks[0]) / n_channels
    blocks *= 1.0 - gamma
    blocks[0] += gamma * nu * np.eye(n_channels)

    dense = np.empty((d, d))
    for i in range(n_lags):
        for j in range(n_lags):
            block = blocks[i - j] if i >= j else blocks[j - i].T
            dense[i * n_channels : (i + 1) * n_channels, j * n_channels : (j + 1) * n_channels] = block
    return dense


def umm_scores(x: np.ndarray, codes_bits) -> np.ndarray:
    """Mahalanobis energy of each code's flash-minus-non-flash epoch mean
    under the dense covariance, by a dense positive-definite solve."""
    ep = _epochs(x)
    cov = dense_umm_covariance(ep, x.shape[0])
    deltas = []
    for bits in codes_bits:
        flash = tiled_bits(bits, ep.shape[0]) == 1
        deltas.append(ep[flash].mean(axis=0) - ep[~flash].mean(axis=0))
    deltas = np.array(deltas)
    sol = linalg.solve(cov, deltas.T, assume_a="pos")
    return np.einsum("nd,dn->n", deltas, sol)


def bandpass_zero_phase(x: np.ndarray, highpass_hz: float, lowpass_hz: float) -> np.ndarray:
    """4th-order Butterworth bandpass in second-order sections, run forward
    and backward with one second of even padding."""
    sos = signal.butter(4, [highpass_hz, lowpass_hz], btype="bandpass", fs=FS, output="sos")
    pad = min(int(EDGE_PAD_S * FS), x.shape[1] - 1)
    return signal.sosfiltfilt(sos, x, axis=1, padtype="even", padlen=pad)


def outcome_problems(outcome, n_codes: int) -> list[str]:
    """Properties every decision must have."""
    problems = []
    if not 0 <= outcome.label < n_codes:
        problems.append(f"label {outcome.label} out of range")
    scores = np.asarray(outcome.scores)
    if scores.shape != (n_codes,) or not np.all(np.isfinite(scores)):
        problems.append("scores missing or not finite")
    if not 0.0 <= outcome.confidence <= 1.0 or math.isnan(outcome.confidence):
        problems.append(f"confidence {outcome.confidence} outside [0, 1]")
    return problems


def above_chance_p(n_correct: int, n: int, n_codes: int) -> float:
    """One-sided binomial p-value of n_correct hits in n against 1/n_codes."""
    return float(stats.binomtest(n_correct, n, 1.0 / n_codes, alternative="greater").pvalue)
