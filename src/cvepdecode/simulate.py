"""Forward-model synthetic EEG: labeled sessions for verifying decoders.

A trial is a rank-1 spatial pattern times the superposition of per-event
response templates placed at the code's flash onsets (exactly the
reconvolution model the CCA decoder assumes), plus white or pink noise
scaled to a requested signal-to-noise power ratio. Trials are synthesized
on the one TARGET_FS (180 Hz) grid, and a session has no rate of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .codegen import BitSequence, code_bits, default_code_set
from .encoding import N_EVENTS, RESPONSE_LEN, n_cycles_to_cover, structure_for_code
from .errors import ConfigError, InvalidSnr
from .sigproc import TARGET_FS, Trial, duration_samples

FULL_TRIAL_S = 31.5      # 15 cycles of a 126-frame code at 60 Hz

#: occipital-ish default spatial pattern; any non-zero vector works
DEFAULT_MIXING = np.array([0.2, 0.1, 0.9, 0.7, 1.0, 0.8, 0.9, 0.1])


def default_responses(seed: int = 0) -> NDArray:
    """Smooth damped-oscillation templates, one per event, unit peak.

    Windowed to zero at the first and last lag; the short- and long-flash
    templates use different frequencies so they stay distinguishable.
    """
    rng = np.random.default_rng(seed)
    lags = np.arange(RESPONSE_LEN) / TARGET_FS
    window = np.sin(np.pi * np.arange(RESPONSE_LEN) / (RESPONSE_LEN - 1))
    freqs = np.array([11.0, 7.0, 4.5]) + rng.uniform(-0.5, 0.5, size=N_EVENTS)
    decays = np.array([60.0, 45.0, 30.0]) + rng.uniform(-5.0, 5.0, size=N_EVENTS)
    phases = rng.uniform(0.0, 0.4 * np.pi, size=N_EVENTS)
    templates = np.empty((N_EVENTS, RESPONSE_LEN))
    for e in range(N_EVENTS):
        t = np.sin(2 * np.pi * freqs[e] * lags + phases[e]) * np.exp(-decays[e] * lags)
        t *= window
        templates[e] = t / np.max(np.abs(t))
    return templates


@dataclass
class ForwardModel:
    """Generative model: responses (E, L), spatial mixing (C,), noise kind
    and SNR (signal power / noise power; 0 = noise only, inf = clean).
    Responses not (N_EVENTS, RESPONSE_LEN), a mixing that is not one
    non-zero weight per channel, a non-finite response, weight or drift
    slope, or an unknown noise kind raise ConfigError."""

    responses: NDArray = field(default_factory=default_responses)
    mixing: NDArray = field(default_factory=lambda: DEFAULT_MIXING.copy())
    noise: str = "white"
    snr: float = math.inf
    drift_slope: float = 0.0   # linear trend per second per channel, off by default

    def __post_init__(self):
        self.responses = np.asarray(self.responses, dtype=np.float64)
        self.mixing = np.asarray(self.mixing, dtype=np.float64)
        if self.responses.shape != (N_EVENTS, RESPONSE_LEN):
            raise ConfigError(
                f"responses must be ({N_EVENTS}, {RESPONSE_LEN}), got {self.responses.shape}"
            )
        if self.mixing.ndim != 1:
            raise ConfigError(f"mixing must be one weight per channel, got {self.mixing.shape}")
        if not (np.isfinite(self.responses).all() and np.isfinite(self.mixing).all()):
            raise ConfigError("responses and mixing must be finite")
        if not math.isfinite(self.drift_slope):
            raise ConfigError(f"drift_slope must be finite, got {self.drift_slope}")
        if not np.any(self.mixing):
            raise ConfigError("mixing pattern must be non-zero")
        if self.noise not in ("white", "pink"):
            raise ConfigError(f"unknown noise kind {self.noise!r}")
        if not self.snr >= 0:
            raise InvalidSnr(f"snr must be >= 0, got {self.snr}")


def _noise(rng: np.random.Generator, kind: str, shape: tuple[int, int]) -> NDArray:
    white = rng.standard_normal(shape)
    if kind == "white":
        return white
    # spectrally shaped white noise, 1/f amplitude profile
    spec = np.fft.rfft(white, axis=1)
    freqs = np.fft.rfftfreq(shape[1], d=1.0 / TARGET_FS)
    scale = np.ones_like(freqs)
    scale[1:] = freqs[1] / freqs[1:]
    spec *= scale
    pink = np.fft.irfft(spec, n=shape[1], axis=1)
    return pink / pink.std()


def synthesize_trial(
    code: BitSequence,
    model: ForwardModel,
    dur_s: float = FULL_TRIAL_S,
    seed: int | np.random.Generator = 0,
    code_index_true: int | None = None,
) -> Trial:
    """Clean reconvolution signal plus scaled noise for one trial.

    The clean part is the code's reconvolution design (the event train
    the decoder scores) applied to the responses, so at snr=inf the model
    identity is exact. Noise power is scaled
    against the clean signal's power measured over the whole (C, T) array.
    A duration that holds no sample or exceeds FULL_TRIAL_S, or a negative
    seed, raises ConfigError, a code :func:`.codegen.code_bits` refuses
    InvalidCodeSet.
    """
    n_samples = duration_samples(dur_s)
    if not (n_samples > 0 and dur_s <= FULL_TRIAL_S):
        raise ConfigError(
            f"a trial holds at least one sample and at most {FULL_TRIAL_S} s, got {dur_s} s"
        )
    if isinstance(seed, np.random.Generator):
        rng = seed
    elif seed < 0:
        raise ConfigError(f"a trial seed must be non-negative, got {seed}")
    else:
        rng = np.random.default_rng(seed)
    n_cycles = n_cycles_to_cover(code, n_samples)
    struct = structure_for_code(code, n_cycles).truncated(n_samples)
    r = model.responses.reshape(-1)
    clean = np.outer(model.mixing, r @ struct.mat)

    if model.snr == math.inf:
        x = clean
    elif model.snr == 0.0:
        x = _noise(rng, model.noise, clean.shape)
    else:
        noise = _noise(rng, model.noise, clean.shape)
        p_signal = float(np.mean(clean**2))
        p_noise = float(np.mean(noise**2))
        x = clean + noise * math.sqrt(p_signal / (model.snr * p_noise))
    if model.drift_slope:
        x = x + model.drift_slope * (np.arange(n_samples) / TARGET_FS)
    return Trial(samples=x, code_index_true=code_index_true)


@dataclass
class Session:
    """A synthetic recording session: labeled trials over a fixed code set."""

    trials: list[Trial]
    codes: list[BitSequence]
    seed: int | None = None

    @property
    def fs(self) -> float:
        """Sampling rate of every trial: always TARGET_FS."""
        return TARGET_FS

    @property
    def n_trials(self) -> int:
        return len(self.trials)


def synthesize_session(
    n_runs: int,
    model: ForwardModel,
    seed: int = 0,
    codes: list[BitSequence] | None = None,
    dur_s: float = FULL_TRIAL_S,
) -> Session:
    """n_runs blocks of all codes in random order, one trial each.

    Per-trial noise streams are spawned deterministically from the session
    seed, so identical seeds give byte-identical sessions. No runs or a
    negative seed raises ConfigError, a code set :func:`.codegen.code_bits`
    refuses InvalidCodeSet, before any trial is synthesized.
    """
    if n_runs < 1:
        raise ConfigError(f"a session needs at least one run, got {n_runs}")
    if seed < 0:
        raise ConfigError(f"a session seed must be non-negative, got {seed}")
    if codes is None:
        codes = default_code_set()
    code_bits(codes)
    n_codes = len(codes)
    trials = []
    for run in range(n_runs):
        order_rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(run,))
        )
        order = order_rng.permutation(n_codes)
        for pos, idx in enumerate(order):
            trial_rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(run, pos))
            )
            trials.append(
                synthesize_trial(
                    codes[idx], model, dur_s, trial_rng, code_index_true=int(idx)
                )
            )
    return Session(trials=trials, codes=codes, seed=seed)
