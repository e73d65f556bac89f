"""Evaluation harness: decoding curves, bandpass sweeps, and the one-sided
paired Wilcoxon signed-rank test.

scipy.stats is imported inside the Wilcoxon helpers that use it: its
import takes most of a second, and decoding needs none of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np
from numpy.typing import NDArray

from .cca import CcaDecoder, CcaState
from .codegen import BitSequence, code_bits
from .encoding import StructureMatrix, TrialStats, check_reach, n_cycles_to_cover
from .encoding import structure_for_code
from .errors import ConfigError, DegenerateSample, InvalidCodeSet, InvalidCutoff, LengthMismatch
from .errors import TruncatedTrial, UnlabeledTrial
from .outcome import MODE_CUMULATIVE
from .sigproc import TARGET_FS, ContinuousRecording, FilterSpec, apply_zero_phase
from .sigproc import duration_samples
from .simulate import Session
from .umm import UmmDecoder, UmmState

METHOD_TAGS = ("cca_e1", "cca_ec", "umm_t11", "umm_tcw")

ALPHA = 0.025

#: 1.05 s (half a cycle) to 10.5 s in 1.05 s steps, then to 31.5 s in 2.1 s steps
DEFAULT_DURATIONS_S = tuple(
    round(1.05 * k, 2) for k in range(1, 11)
) + tuple(round(10.5 + 2.1 * k, 2) for k in range(1, 11))

DEFAULT_HIGHPASS_GRID = (0.1, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
DEFAULT_LOWPASS_GRID = tuple(float(f) for f in range(10, 100, 10))
SWEEP_FIXED_LOWPASS = 40.0
SWEEP_FIXED_HIGHPASS = 6.0


def canonical_tag(tag: str) -> str:
    t = tag.strip().lower()
    if t not in METHOD_TAGS:
        raise ConfigError(f"unknown method tag {tag!r}; expected one of {METHOD_TAGS}")
    return t


class DecoderBank:
    """The code set and the one CCA and one UMM decoder for it.

    The codes are tiled over the whole cycles that reach max_dur_s
    seconds. Both decoders refuse a trial of fewer than RESPONSE_LEN
    samples (TrialTooShort) or past those cycles (ShapeError); CCA decides
    every length between, UMM from three epochs, 60 samples (see
    :mod:`.umm`). A default bank reaches the session's longest trial, the
    stimulation it was recorded under, at any decoded duration."""

    def __init__(self, codes: list[BitSequence], max_dur_s: float):
        code_bits(codes)    # InvalidCodeSet before codes[0] is read
        self.codes = list(codes)
        self.n_cycles = n_cycles_to_cover(codes[0], duration_samples(max_dur_s))
        self._cca = CcaDecoder(codes, self.n_cycles)
        self._umm = UmmDecoder(codes, self.n_cycles)

    @property
    def structures(self) -> list[StructureMatrix]:
        """The codes' event trains, built on access for benchmarks/tracing.py."""
        return [structure_for_code(c, self.n_cycles) for c in self.codes]

    def cca(self, n_samples: int) -> CcaDecoder:
        """The bank's one CCA decoder; ShapeError if n_samples pass its reach."""
        check_reach(n_samples, self._cca.reach)
        return self._cca

    def umm(self) -> UmmDecoder:
        return self._umm


def _session_bank(session: Session, bank: DecoderBank | None) -> DecoderBank:
    """The given bank, or one reaching the session's longest trial.
    ConfigError for a session with no trials, InvalidCodeSet for a bank
    built over other codes than the session's: its hypotheses would not
    be the session's labels."""
    if not session.trials:
        raise ConfigError("a session with no trials has nothing to decode")
    if bank is None:
        longest = max(t.n_samples for t in session.trials)
        bank = DecoderBank(session.codes, max_dur_s=longest / TARGET_FS)
    elif bank.codes != list(session.codes):
        raise InvalidCodeSet("the decoder bank was built over other codes than the session's")
    return bank


def decode_session(
    session: Session,
    method_tag: str,
    duration_s: float,
    bank: DecoderBank | None = None,
) -> list:
    """Decode every trial of the session at one duration, in session order,
    with one cumulative state update per trial. Returns the outcomes.

    Every method sees the first duration_s seconds of each trial, cut by
    Trial.prefix, which raises TruncatedTrial past the trial's end, through
    one TrialStats that the decision and its update share. Without a bank,
    one reaching the session's longest trial is built; a given bank must
    reach duration_s, or the decoders raise ShapeError, and be built over
    the session's codes, or InvalidCodeSet. ConfigError for a session with
    no trials."""
    tag = canonical_tag(method_tag)
    trials = [trial.prefix(duration_s) for trial in session.trials]
    bank = _session_bank(session, bank)
    if tag.startswith("cca"):
        decoder = bank.cca(duration_samples(duration_s))
        state = CcaState(mode=MODE_CUMULATIVE) if tag == "cca_ec" else None
    else:
        decoder = bank.umm()
        state = UmmState(mode=MODE_CUMULATIVE) if tag == "umm_tcw" else None
    outcomes = []
    for trial in trials:
        stats = TrialStats.of(trial)
        outcome = decoder.decode(stats, state)
        outcomes.append(outcome)
        if state is not None:
            # UMM's update weighs the trial by the outcome's confidence
            decided = outcome.label if tag == "cca_ec" else outcome
            state = decoder.update_cumulative(state, stats, decided)
    return outcomes


def accuracy_of(outcomes, trials) -> tuple[int, float]:
    """(correct decisions, their share of the trials). UnlabeledTrial if a
    trial carries no true label: its decision can be neither right nor
    wrong."""
    unlabeled = [i for i, t in enumerate(trials) if t.code_index_true is None]
    if unlabeled:
        raise UnlabeledTrial(
            f"trial {unlabeled[0]} has no true label; an accuracy needs a labeled session"
        )
    correct = sum(
        1 for o, t in zip(outcomes, trials) if o.label == t.code_index_true
    )
    return correct, correct / len(trials)


@dataclass
class DecodingCurve:
    """Accuracy as a function of per-trial data duration for one method."""

    method_tag: str
    durations_s: tuple[float, ...]
    n_trials: int
    n_correct: list[int] = field(default_factory=list)

    @property
    def accuracy(self) -> NDArray:
        return np.array(self.n_correct) / self.n_trials


def decoding_curve(
    session: Session,
    method_tag: str,
    durations_s: Iterable[float] | None = None,
    bank: DecoderBank | None = None,
) -> DecodingCurve:
    """Per-duration accuracy; cumulative state is reset between durations so
    every point is an independent operating condition. Without
    ``durations_s``, the DEFAULT_DURATIONS_S that fit the shortest trial.
    One bank serves every point. ConfigError for a session with no trials."""
    tag = canonical_tag(method_tag)
    bank = _session_bank(session, bank)
    if durations_s is None:
        n_samples = min(t.n_samples for t in session.trials)
        durations = tuple(
            d for d in DEFAULT_DURATIONS_S if duration_samples(d) <= n_samples
        )
        if not durations:
            raise TruncatedTrial(
                f"trials of {n_samples / TARGET_FS} s are shorter than "
                f"{DEFAULT_DURATIONS_S[0]} s, the shortest curve duration"
            )
    else:
        durations = tuple(durations_s)
        if not durations:
            raise ConfigError("a decoding curve needs at least one duration")
    curve = DecodingCurve(method_tag=tag, durations_s=durations, n_trials=session.n_trials)
    for dur in durations:
        outcomes = decode_session(session, tag, dur, bank)
        n_correct, _ = accuracy_of(outcomes, session.trials)
        curve.n_correct.append(n_correct)
    return curve


# -- Wilcoxon signed-rank ----------------------------------------------------

EXACT_MAX_N = 20


def _signed_ranks(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if len(a) != len(b):
        raise LengthMismatch(
            f"paired samples must have equal length, got {len(a)} and {len(b)}"
        )
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise DegenerateSample("paired samples hold a non-finite value")
    d = a - b
    d = d[d != 0.0]
    if len(d) == 0:
        raise DegenerateSample("all paired differences are zero")
    from scipy import stats

    ranks = stats.rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    return d, ranks, w_plus


def _exact_tail_p(ranks: NDArray, w_obs: float) -> float:
    """P(W+ >= w_obs) under uniform random signs, by convolution over the
    realized rank multiset (average ranks doubled to stay integral)."""
    r2 = np.round(2 * ranks).astype(int)
    total = int(r2.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in r2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: total - r + 1]
        counts += shifted
    w2 = int(round(2 * w_obs))
    return float(counts[w2:].sum() / 2 ** len(ranks))


def _normal_tail_p(d: NDArray, ranks: NDArray, w_plus: float) -> float:
    n = len(d)
    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(((tie_counts**3 - tie_counts).sum())) / 48.0
    z = (w_plus - mu - 0.5) / math.sqrt(var)
    from scipy import stats

    return float(stats.norm.sf(z))


def wilcoxon_one_sided(a, b) -> tuple[float, float]:
    """Paired signed-rank test of H1: a > b.

    Zero differences are dropped; the null is exact sign enumeration for
    n <= 20 and a tie-corrected, continuity-corrected normal approximation
    beyond. Returns (W+, p). DegenerateSample if a sample is not finite or
    every difference is zero, LengthMismatch for samples of unequal length.
    """
    d, ranks, w_plus = _signed_ranks(a, b)
    if len(d) <= EXACT_MAX_N:
        p = _exact_tail_p(ranks, w_plus)
    else:
        p = _normal_tail_p(d, ranks, w_plus)
    return w_plus, p


# -- bandpass sweep ----------------------------------------------------------

@dataclass
class SweepGrid:
    axis: str
    cutoffs_hz: tuple[float, ...]
    n_trials: int
    n_correct: dict[str, list[int]] = field(default_factory=dict)

    def accuracy(self, method_tag: str) -> NDArray:
        return np.array(self.n_correct[method_tag]) / self.n_trials


def filtered_session(session: Session, highpass_hz: float, lowpass_hz: float) -> Session:
    """Re-filter every trial of an archived session with a zero-phase
    bandpass at TARGET_FS (180 Hz).

    A lowpass at the Nyquist frequency is a pass-through (the archived data
    carry no content there); cutoffs beyond Nyquist are rejected.
    """
    nyq = TARGET_FS / 2.0
    if highpass_hz >= nyq or lowpass_hz > nyq:
        raise InvalidCutoff(
            f"cutoffs ({highpass_hz}, {lowpass_hz}) Hz invalid at fs={TARGET_FS} Hz"
        )
    if lowpass_hz == nyq:
        # nothing above Nyquist to remove; keep the highpass edge only
        spec = FilterSpec(kind="bandpass", highpass_hz=highpass_hz, lowpass_hz=nyq * 0.999)
    else:
        spec = FilterSpec(kind="bandpass", highpass_hz=highpass_hz, lowpass_hz=lowpass_hz)
    trials = []
    for trial in session.trials:
        rec = ContinuousRecording(samples=trial.samples, fs=TARGET_FS)
        filtered = apply_zero_phase(spec, rec)
        trials.append(replace(trial, samples=filtered.samples))
    return Session(trials=trials, codes=session.codes, seed=session.seed)


def bandpass_sweep(
    session_source: Callable[[float, float], Session],
    method_tags: Iterable[str],
    axis: str,
    cutoffs_hz: Iterable[float] | None = None,
    duration_s: float = 31.5,
) -> SweepGrid:
    """Accuracy per cutoff per method at full trial duration.

    The highpass axis keeps the lowpass fixed at 40 Hz; the lowpass axis
    keeps the highpass fixed at 6 Hz. ``session_source(highpass, lowpass)``
    must return the re-preprocessed session for those cutoffs, over one
    code set: a single DecoderBank, built for the first cutoff, serves all,
    and a later session over other codes raises InvalidCodeSet; a session
    with no trials raises ConfigError.
    Each cutoff's session is let go before the next is asked for, so two
    are never held at once. ConfigError, before any session is asked for,
    for no method or a method named twice: each method keeps one count
    per cutoff; and for a session of another trial count than the first
    cutoff's: every accuracy is a count over the grid's one trial count.
    """
    if axis not in ("highpass", "lowpass"):
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if cutoffs_hz is None:
        cutoffs_hz = DEFAULT_HIGHPASS_GRID if axis == "highpass" else DEFAULT_LOWPASS_GRID
    cutoffs = tuple(float(c) for c in cutoffs_hz)
    tags = [canonical_tag(t) for t in method_tags]
    if not tags or len(set(tags)) < len(tags):
        raise ConfigError(f"a sweep needs one or more distinct methods, got {tags}")
    grid = SweepGrid(axis=axis, cutoffs_hz=cutoffs, n_trials=0)
    grid.n_correct = {t: [] for t in tags}
    bank = None
    for cutoff in cutoffs:
        if axis == "highpass":
            session = session_source(cutoff, SWEEP_FIXED_LOWPASS)
        else:
            session = session_source(SWEEP_FIXED_HIGHPASS, cutoff)
        bank = _session_bank(session, bank)
        if grid.n_trials and session.n_trials != grid.n_trials:
            raise ConfigError(
                f"the session at {cutoff:g} Hz holds {session.n_trials} trials, "
                f"the first cutoff's {grid.n_trials}"
            )
        grid.n_trials = session.n_trials
        for tag in tags:
            outcomes = decode_session(session, tag, duration_s, bank)
            n_correct, _ = accuracy_of(outcomes, session.trials)
            grid.n_correct[tag].append(n_correct)
        del session
    return grid


# -- CSV / JSON emission -----------------------------------------------------

CURVE_CSV_HEADER = "method,duration_s,seed,n_trials,n_correct,accuracy"


def curve_csv_rows(curve: DecodingCurve, seed) -> list[str]:
    rows = []
    for dur, n_corr in zip(curve.durations_s, curve.n_correct):
        acc = n_corr / curve.n_trials
        rows.append(
            f"{curve.method_tag},{dur:g},{seed},{curve.n_trials},{n_corr},{acc:.6f}"
        )
    return rows


SWEEP_CSV_HEADER = "method,axis,cutoff_hz,n_trials,n_correct,accuracy"


def sweep_csv_rows(grid: SweepGrid) -> list[str]:
    rows = []
    for tag, corr in grid.n_correct.items():
        for cutoff, n_corr in zip(grid.cutoffs_hz, corr):
            acc = n_corr / grid.n_trials
            rows.append(
                f"{tag},{grid.axis},{cutoff:g},{grid.n_trials},{n_corr},{acc:.6f}"
            )
    return rows
