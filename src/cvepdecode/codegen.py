"""Stimulus code generation: m-sequences, Gold sets, run-length-limited
modulation, and greedy subset selection.

All sequences are degree-6 (period 63) as used by the 60 Hz speller grid;
modulated codes are 126 bits long with flashes of one or two frames only.
A code holds one bit per stimulus frame; every code is presented at the
one frame rate PRESENTATION_RATE_HZ and carries no rate of its own.
Cross-correlations of the +/-1 codes are exact sums of products, one per
shift, with no FFT.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ConfigError,
    DegeneratePair,
    InsufficientCodes,
    InvalidCodeSet,
    InvalidSeed,
    LengthMismatch,
    NotPrimitive,
)

DEGREE = 6
RAW_LENGTH = 2 ** DEGREE - 1           # 63
PRESENTATION_RATE_HZ = 60.0

#: Default preferred pair of primitive polynomials for degree 6
#: (octal 103 and 147), as tap positions.
DEFAULT_TAPS_A = (6, 1)
DEFAULT_TAPS_B = (6, 5, 2, 1)


@dataclass(frozen=True)
class BitSequence:
    """A binary stimulus sequence, one bit per PRESENTATION_RATE_HZ frame."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise InvalidCodeSet("bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def array(self) -> NDArray[np.int8]:
        return np.array(self.bits, dtype=np.int8)

    def to_line(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_line(cls, line: str) -> "BitSequence":
        stripped = line.strip()
        if stripped and set(stripped) - {"0", "1"}:
            raise InvalidCodeSet(f"invalid code line: {line!r}")
        return cls(bits=tuple(int(c) for c in stripped))


def code_bits(codes: list[BitSequence]) -> NDArray[np.float64]:
    """The (N, P) 0/1 bits of a code set, one cycle of each code: the one
    check every code set is read through. InvalidCodeSet for no code,
    codes of unequal lengths, codes of no bits, or a repeated code: its
    copies would score alike and every trial of the later one would be
    labelled the first."""
    lengths = sorted({len(c) for c in codes})
    if not lengths:
        raise InvalidCodeSet("a code set needs at least one code")
    if len(lengths) != 1:
        raise InvalidCodeSet(f"a code set needs codes of one length, got lengths {lengths}")
    if lengths[0] == 0:
        raise InvalidCodeSet("a code needs at least one bit")
    first_seen: dict[tuple[int, ...], int] = {}
    for i, code in enumerate(codes):
        if first_seen.setdefault(tuple(code.bits), i) != i:
            raise InvalidCodeSet(f"code {i} repeats code {first_seen[tuple(code.bits)]}")
    return np.array([c.bits for c in codes], dtype=np.float64)


def generate_m_sequence(taps=DEFAULT_TAPS_A, init=None) -> BitSequence:
    """Generate a degree-6 maximal-length sequence from a Fibonacci LFSR.

    Parameters
    ----------
    taps:
        Feedback tap positions, 1-indexed; must include the degree (6) and
        define a primitive polynomial.
    init:
        Initial register contents (length 6, not all zero). Defaults to
        all ones.

    Returns
    -------
    BitSequence of length 63.
    """
    if max(taps) != DEGREE:
        raise NotPrimitive(f"taps {taps} do not describe a degree-{DEGREE} polynomial")
    state = list(init) if init is not None else [1] * DEGREE
    if len(state) != DEGREE:
        raise InvalidSeed(f"register state must have {DEGREE} bits, got {len(state)}")
    if not any(state):
        raise InvalidSeed("all-zero register state is degenerate")

    start = tuple(state)
    out = []
    for step in range(RAW_LENGTH):
        out.append(state[-1])
        feedback = 0
        for t in taps:
            feedback ^= state[t - 1]
        state = [feedback] + state[:-1]
        if tuple(state) == start and step < RAW_LENGTH - 1:
            # the register cycled early: period divides 63 but is smaller
            raise NotPrimitive(f"taps {taps} yield period {step + 1}, not {RAW_LENGTH}")
    if tuple(state) != start:
        raise NotPrimitive(f"taps {taps} do not yield a maximal-length sequence")
    return BitSequence(bits=tuple(out))


def gold_set(seq_a: BitSequence, seq_b: BitSequence) -> list[BitSequence]:
    """Build the 65-member Gold family from a preferred pair of m-sequences.

    The family is the two parents plus the XOR of ``seq_a`` with every
    cyclic shift of ``seq_b``.
    """
    a, b = seq_a.array, seq_b.array
    if len(a) != RAW_LENGTH or len(b) != RAW_LENGTH:
        raise LengthMismatch("Gold construction requires two period-63 sequences")
    if np.array_equal(a, b):
        raise DegeneratePair("identical m-sequences form no Gold family")
    codes = [seq_a, seq_b]
    for k in range(RAW_LENGTH):
        codes.append(BitSequence(bits=tuple(int(v) for v in a ^ np.roll(b, k))))
    return codes


def modulate(code: BitSequence) -> BitSequence:
    """Expand a 63-bit code to its 126-bit run-length-limited form.

    Every bit b becomes the pair (b, not b), which limits flashes to one
    frame (short) or two frames (long) and balances ones and zeros.
    """
    if len(code) != RAW_LENGTH:
        raise LengthMismatch(f"expected {RAW_LENGTH} bits, got {len(code)}")
    out = []
    for b in code.bits:
        out.extend((b, 1 - b))
    return BitSequence(bits=tuple(out))


def periodic_cross_correlation(x: BitSequence, y: BitSequence) -> NDArray[np.int_]:
    """Periodic cross-correlation in the +/-1 alphabet, one value per shift
    s: the sum over n of x[n] y[n - s], indices taken mod the length."""
    if len(x) != len(y):
        raise LengthMismatch("sequences differ in length")
    px, py = 1 - 2 * x.array.astype(int), 1 - 2 * y.array.astype(int)
    return np.array([px @ np.roll(py, s) for s in range(len(py))])


def select_subset(codes: list[BitSequence], n: int = 20) -> list[BitSequence]:
    """Pick ``n`` codes greedily minimizing the maximum pairwise periodic
    cross-correlation magnitude. Ties break to the lowest index.

    The peak |cross-correlation| of every pair of the pool is computed once,
    as a running maximum over the shifts of the product of the pool's +/-1
    codes with their shifted copies, sums of +/-1 that float64 holds
    exactly; each greedy step then adds the candidate whose worst peak
    against the codes chosen so far is smallest. InvalidCodeSet for a pool
    :func:`code_bits` refuses.
    """
    if n < 1:
        raise ConfigError(f"asked for {n} codes; a code set holds at least one")
    if n > len(codes):
        raise InsufficientCodes(f"asked for {n} codes from a pool of {len(codes)}")
    pm = 1 - 2 * code_bits(codes)
    if n == len(codes):
        return list(codes)
    # peak[i, j] = max over shifts of |xcorr(codes[i], codes[j])|
    peak = np.zeros((len(pm), len(pm)))
    for shift in range(pm.shape[1]):
        np.maximum(peak, np.abs(pm @ np.roll(pm, -shift, axis=1).T), out=peak)
    selected = [0]
    cost = peak[:, 0].copy()
    cost[0] = np.inf
    while len(selected) < n:
        best = int(np.argmin(cost))   # first minimum: the lowest index
        selected.append(best)
        cost = np.maximum(cost, peak[:, best])
        cost[best] = np.inf
    return [codes[i] for i in sorted(selected)]


@lru_cache(maxsize=8)
def _default_code_set_cached(n: int) -> tuple[BitSequence, ...]:
    a = generate_m_sequence(DEFAULT_TAPS_A)
    b = generate_m_sequence(DEFAULT_TAPS_B)
    family = [modulate(c) for c in gold_set(a, b)]
    return tuple(select_subset(family, n))


def default_code_set(n: int = 20) -> list[BitSequence]:
    """The stimulus set used throughout: n modulated codes selected from
    the degree-6 Gold family built on the default preferred pair."""
    return list(_default_code_set_cached(n))


def save_codes(codes: list[BitSequence], path) -> None:
    """One code per line, '0'/'1' characters, newline-terminated."""
    with open(path, "w") as fh:
        for code in codes:
            fh.write(code.to_line() + "\n")


def parse_code_set(lines) -> list[BitSequence]:
    """The code set given one code per line: a list of strings of '0'/'1'
    characters (surrounding whitespace ignored), each read by
    :meth:`BitSequence.from_line` and the set checked by :func:`code_bits`.
    Raises InvalidCodeSet otherwise; the archive reader and load_codes both
    read their codes here."""
    if not isinstance(lines, list) or not all(isinstance(line, str) for line in lines):
        raise InvalidCodeSet("codes are not a list of strings")
    codes = [BitSequence.from_line(line) for line in lines]
    code_bits(codes)
    return codes


def load_codes(path) -> list[BitSequence]:
    """Codes saved by save_codes; blank lines are skipped."""
    try:
        with open(path) as fh:
            lines = [line for line in fh if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidCodeSet(f"cannot read codes from {path}: {exc}") from exc
    return parse_code_set(lines)
