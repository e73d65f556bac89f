import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvepdecode.codegen import (
    DEFAULT_TAPS_A,
    DEFAULT_TAPS_B,
    BitSequence,
    default_code_set,
    generate_m_sequence,
    gold_set,
    load_codes,
    modulate,
    periodic_cross_correlation,
    save_codes,
    select_subset,
)
from cvepdecode.errors import (
    ConfigError,
    DegeneratePair,
    InsufficientCodes,
    InvalidSeed,
    LengthMismatch,
    NotPrimitive,
)


def test_m_sequence_balance():
    seq = generate_m_sequence(DEFAULT_TAPS_A)
    assert len(seq) == 63
    assert seq.array.sum() == 32  # 32 ones, 31 zeros


def test_m_sequence_autocorrelation():
    # brute force over all 62 nonzero shifts
    seq = generate_m_sequence(DEFAULT_TAPS_B)
    pm = 1 - 2 * seq.array.astype(int)
    for shift in range(1, 63):
        assert np.dot(pm, np.roll(pm, shift)) == -1


def test_all_zero_seed_rejected():
    with pytest.raises(InvalidSeed):
        generate_m_sequence(DEFAULT_TAPS_A, init=[0] * 6)


def test_non_primitive_taps_rejected():
    # x^6 + x^3 + 1 divides x^9 - 1, so its period is 9
    with pytest.raises(NotPrimitive):
        generate_m_sequence((6, 3))


def test_gold_set_cardinality_and_dedup():
    a = generate_m_sequence(DEFAULT_TAPS_A)
    b = generate_m_sequence(DEFAULT_TAPS_B)
    family = gold_set(a, b)
    assert len(family) == 65
    assert len({c.to_line() for c in family}) == 65


def test_gold_set_three_valued_crosscorrelation():
    a = generate_m_sequence(DEFAULT_TAPS_A)
    b = generate_m_sequence(DEFAULT_TAPS_B)
    family = gold_set(a, b)
    values = set()
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            values.update(periodic_cross_correlation(family[i], family[j]).tolist())
    assert values <= {-17, -1, 15}


def test_gold_set_identical_inputs():
    a = generate_m_sequence(DEFAULT_TAPS_A)
    with pytest.raises(DegeneratePair):
        gold_set(a, a)


def test_modulate_bit_pairs():
    out = modulate(BitSequence(bits=(1,) + (0,) * 62))
    assert out.bits[:4] == (1, 0, 0, 1)


def test_modulate_balance_and_runs():
    for taps in (DEFAULT_TAPS_A, DEFAULT_TAPS_B):
        mod = modulate(generate_m_sequence(taps))
        bits = mod.array
        assert len(bits) == 126
        assert bits.sum() == 63
        assert _max_run(bits, 1) <= 2
        assert _max_run(bits, 0) <= 2


def _max_run(bits, value):
    best = run = 0
    for b in bits:
        run = run + 1 if b == value else 0
        best = max(best, run)
    return best


def test_modulate_wrong_length():
    with pytest.raises(LengthMismatch):
        modulate(BitSequence(bits=(0, 1, 0)))


@given(st.lists(st.integers(0, 1), min_size=63, max_size=63))
@settings(max_examples=50, deadline=None)
def test_modulate_interleaves_code_and_complement(bits):
    # even bits are the code, odd bits their complement
    modulated = modulate(BitSequence(bits=tuple(bits))).array
    assert list(modulated[0::2]) == bits
    assert list(modulated[1::2]) == [1 - b for b in bits]


def test_modulate_injective():
    seen = {}
    rng = np.random.default_rng(7)
    for _ in range(200):
        bits = tuple(int(b) for b in rng.integers(0, 2, 63))
        out = modulate(BitSequence(bits=bits)).bits
        assert seen.setdefault(out, bits) == bits


def test_flash_onset_budget():
    # number of short flashes plus twice the long flashes equals the ones
    mod = modulate(generate_m_sequence(DEFAULT_TAPS_A))
    bits = np.tile(mod.array, 1)
    runs = []
    run = 0
    for b in bits:
        if b:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    if run:
        runs.append(run)
    n_short = sum(1 for r in runs if r == 1)
    n_long = sum(1 for r in runs if r == 2)
    assert n_short + 2 * n_long == 63


def test_select_subset_identity_and_single():
    codes = [modulate(c) for c in gold_set(
        generate_m_sequence(DEFAULT_TAPS_A), generate_m_sequence(DEFAULT_TAPS_B))]
    assert select_subset(codes, len(codes)) == codes
    assert select_subset(codes, 1) == [codes[0]]


def test_select_subset_improves_worst_pair():
    codes = [modulate(c) for c in gold_set(
        generate_m_sequence(DEFAULT_TAPS_A), generate_m_sequence(DEFAULT_TAPS_B))]
    def worst(cs):
        return max(
            int(np.max(np.abs(periodic_cross_correlation(cs[i], cs[j]))))
            for i in range(len(cs)) for j in range(i + 1, len(cs))
        )
    subset = select_subset(codes, 20)
    assert len(subset) == 20
    assert worst(subset) <= worst(codes)


def test_default_code_set_is_the_first_gold_codes():
    # code 0 peaks at 34 against every other code of the family, so every
    # greedy step ties and takes the lowest remaining index
    family = [modulate(c) for c in gold_set(
        generate_m_sequence(DEFAULT_TAPS_A), generate_m_sequence(DEFAULT_TAPS_B))]
    peaks = [int(np.max(np.abs(periodic_cross_correlation(family[0], c)))) for c in family[1:]]
    assert peaks == [34] * 64
    assert default_code_set(20) == family[:20]


def _greedy_by_pairs(codes, n):
    """select_subset's rule, one pair at a time."""
    selected = [0]
    while len(selected) < n:
        cost = {
            i: max(int(np.max(np.abs(periodic_cross_correlation(codes[i], codes[j]))))
                   for j in selected)
            for i in range(len(codes)) if i not in selected
        }
        selected.append(min(cost, key=cost.get))   # first minimum: lowest index
    return [codes[i] for i in sorted(selected)]


@pytest.mark.parametrize("n", [2, 5, 9, 14])
def test_select_subset_matches_pairwise_greedy(n):
    rng = np.random.default_rng(n)
    pool = [BitSequence(bits=tuple(int(b) for b in rng.integers(0, 2, 31))) for _ in range(15)]
    assert select_subset(pool, n) == _greedy_by_pairs(pool, n)


@pytest.mark.parametrize("n", [0, -1])
def test_select_subset_of_no_codes_is_a_config_error(n):
    with pytest.raises(ConfigError):
        select_subset(default_code_set(3), n)


def test_select_subset_insufficient():
    with pytest.raises(InsufficientCodes):
        select_subset([modulate(generate_m_sequence(DEFAULT_TAPS_A))], 2)


def test_code_text_round_trip(tmp_path):
    codes = default_code_set(5)
    path = tmp_path / "codes.txt"
    save_codes(codes, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert set(text) <= {"0", "1", "\n"}
    assert load_codes(path) == codes
