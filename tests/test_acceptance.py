"""End-to-end acceptance suite.

Each test exercises one release criterion on the synthetic oracle and emits a
single ``[PASS]``/``[FAIL]`` line (visible with ``pytest -s`` or in captured
output). The criteria are property-based: qualitative orderings and numerical
identities, not absolute accuracy figures.
"""
import itertools
import math
import time

import numpy as np
from scipy import stats

from cvepdecode.cca import fit_filters
from cvepdecode.cli import main as cli_main
from cvepdecode.codegen import (
    default_code_set,
    generate_m_sequence,
    gold_set,
    modulate,
    periodic_cross_correlation,
)
from cvepdecode.encoding import structure_for_code
from cvepdecode.evaluate import (
    DecoderBank,
    accuracy_of,
    decode_session,
    decoding_curve,
    wilcoxon_one_sided,
)
from cvepdecode.evaluate import _exact_tail_p, _normal_tail_p, _signed_ranks
from cvepdecode.sigproc import Trial
from cvepdecode.simulate import ForwardModel, synthesize_session, synthesize_trial
from cvepdecode.umm import block_levinson_solve, estimate_covariance, slice_epochs

CODES = default_code_set(20)
METHODS = ("cca_e1", "cca_ec", "umm_t11", "umm_tcw")

#: signal-to-noise power ratio calibrated so cca_e1 lands in 0.6-0.9 at 4.2 s
MODERATE_SNR = 0.03


def _check(n, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_1_noiseless_identity():
    t0 = time.perf_counter()
    session = synthesize_session(
        5, ForwardModel(snr=math.inf), seed=0, codes=CODES, dur_s=2.1
    )
    bank = DecoderBank(CODES, max_dur_s=2.1)
    accs = {}
    for tag in ("cca_e1", "umm_t11"):
        outcomes = decode_session(session, tag, 2.1, bank)
        accs[tag] = accuracy_of(outcomes, session.trials)[1]
    elapsed = time.perf_counter() - t0
    _check(
        1,
        f"noiseless accuracy 1.00 at 2.1 s for cca_e1/umm_t11 in {elapsed:.1f} s (< 60 s)",
        accs["cca_e1"] == 1.0 and accs["umm_t11"] == 1.0 and elapsed < 60.0,
    )


def test_criterion_2_chance_floor():
    session = synthesize_session(
        25, ForwardModel(snr=0.0), seed=1, codes=CODES, dur_s=2.1
    )
    assert session.n_trials == 500
    bank = DecoderBank(CODES, max_dur_s=2.1)
    accs = {}
    for tag in METHODS:
        outcomes = decode_session(session, tag, 2.1, bank)
        accs[tag] = accuracy_of(outcomes, session.trials)[1]
    ok = all(0.02 <= accs[t] <= 0.09 for t in METHODS)
    _check(2, f"pure-noise accuracy in [0.02, 0.09] over 500 trials: {accs}", ok)


def _moderate_snr_accuracies(n_seeds=10, duration_s=4.2):
    accs = {t: [] for t in METHODS}
    bank = DecoderBank(CODES, max_dur_s=duration_s)
    for seed in range(n_seeds):
        session = synthesize_session(
            3, ForwardModel(snr=MODERATE_SNR), seed=seed, codes=CODES, dur_s=duration_s
        )
        for tag in METHODS:
            outcomes = decode_session(session, tag, duration_s, bank)
            accs[tag].append(accuracy_of(outcomes, session.trials)[1])
    return accs


def test_criterion_3_ordering_at_moderate_snr():
    accs = _moderate_snr_accuracies()
    means = {t: float(np.mean(v)) for t, v in accs.items()}
    _, p_cca = wilcoxon_one_sided(accs["cca_ec"], accs["cca_e1"])
    _, p_umm = wilcoxon_one_sided(accs["umm_tcw"], accs["umm_t11"])
    ok = (
        0.6 <= means["cca_e1"] <= 0.9
        and means["cca_ec"] >= means["cca_e1"]
        and means["umm_tcw"] >= means["umm_t11"]
        and p_cca < 0.025
        and p_umm < 0.025
    )
    _check(
        3,
        "cumulative >= instantaneous at 4.2 s, Wilcoxon p < 0.025 "
        f"(means={means}, p_cca={p_cca:.4g}, p_umm={p_umm:.4g})",
        ok,
    )


def test_criterion_4_decoding_curves_rise():
    durations = (1.05, 2.1, 4.2, 6.3, 8.4, 10.5)
    bank = DecoderBank(CODES, max_dur_s=max(durations))
    per_dur = {t: np.zeros(len(durations)) for t in METHODS}
    n_seeds = 3
    for seed in range(n_seeds):
        session = synthesize_session(
            2, ForwardModel(snr=MODERATE_SNR), seed=seed, codes=CODES, dur_s=max(durations)
        )
        for tag in METHODS:
            curve = decoding_curve(session, tag, durations_s=durations, bank=bank)
            per_dur[tag] += curve.accuracy / n_seeds
    rhos = {
        t: float(stats.spearmanr(durations, per_dur[t]).statistic) for t in METHODS
    }
    ok = all(r > 0.8 for r in rhos.values())
    _check(4, f"Spearman(duration, accuracy) > 0.8 for every method: {rhos}", ok)


def test_criterion_5_gold_code_suite():
    t0 = time.perf_counter()
    family = gold_set(generate_m_sequence((6, 1)), generate_m_sequence((6, 5, 2, 1)))
    ok = len(family) == 65
    for x, y in itertools.combinations(family, 2):
        vals = set(periodic_cross_correlation(x, y).tolist())
        ok = ok and vals <= {-17, -1, 15}
    for code in family:
        mod = modulate(code)
        bits = np.array(mod.bits)
        runs = [len(list(g)) for v, g in itertools.groupby(bits) if v == 1]
        ok = ok and int(bits.sum()) == 63 and max(runs) <= 2 and len(bits) == 126
    elapsed = time.perf_counter() - t0
    _check(
        5,
        f"65 codes, cross-correlations in {{-17,-1,15}}, 63 ones, max run 2, "
        f"{elapsed:.2f} s (< 5 s)",
        ok and elapsed < 5.0,
    )


def test_criterion_6_structured_solver_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal((8, 3 * 80 + 51))  # 80 epochs
        # correlate channels and lags a little so the blocks are non-trivial
        x += 0.3 * np.roll(x, 1, axis=0) + 0.3 * np.roll(x, 1, axis=1)
        ep = slice_epochs(Trial(samples=x))
        assert ep.n_epochs == 80
        cov = estimate_covariance(ep)
        # reference built here from the lag blocks, independent of CovModel
        n, c, _ = cov.blocks.shape
        dense = np.zeros((n * c, n * c))
        for i in range(n):
            for j in range(n):
                block = cov.blocks[i - j] if i >= j else cov.blocks[j - i].T
                dense[i * c : (i + 1) * c, j * c : (j + 1) * c] = block
        assert dense.shape == (432, 432)
        v = rng.standard_normal(432)
        expect = np.linalg.solve(dense, v)
        got = block_levinson_solve(cov.blocks, v)
        worst = max(worst, np.linalg.norm(got - expect) / np.linalg.norm(expect))
    _check(6, f"covariance solve vs dense 432x432, worst rel err {worst:.2e} (< 1e-8)", worst < 1e-8)


def test_criterion_7_reconvolution_identity():
    rng = np.random.default_rng(7)
    struct = structure_for_code(CODES[0], 1)
    events = struct.events
    worst = 0.0
    rho_min = 1.0
    for i in range(50):
        r = rng.standard_normal(3 * 54)
        via_matrix = r @ struct.mat
        direct = np.zeros(struct.mat.shape[1])
        for e in range(3):
            full = np.convolve(events[e], r[e * 54 : (e + 1) * 54])
            direct += full[: len(direct)]
        worst = max(worst, float(np.abs(via_matrix - direct).max()))
        templates = r.reshape(3, 54)
        templates = templates / np.abs(templates).max(axis=1, keepdims=True)
        model = ForwardModel(responses=templates, snr=math.inf)
        trial = synthesize_trial(CODES[0], model, 2.1, i, 0)
        mat = struct.truncated(trial.n_samples).mat
        x = trial.samples
        _, _, rho = fit_filters(x @ x.T, x @ mat.T, mat @ mat.T)
        rho_min = min(rho_min, rho)
    ok = worst < 1e-10 and rho_min >= 0.999
    _check(
        7,
        f"structure-matrix product vs convolution (max err {worst:.1e} < 1e-10), "
        f"clean rank-1 rho >= 0.999 (min {rho_min:.6f})",
        ok,
    )


def test_criterion_8_wilcoxon_exactness():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    b = a - np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    _, p6 = wilcoxon_one_sided(a, b)
    ok = p6 == 1.0 / 64.0
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(20) + rng.uniform(0.0, 0.6)
        y = rng.standard_normal(20)
        d, ranks, w_plus = _signed_ranks(x, y)
        if len(d) != 20:
            continue
        worst = max(worst, abs(_exact_tail_p(ranks, w_plus) - _normal_tail_p(d, ranks, w_plus)))
    ok = ok and worst < 0.01
    _check(
        8,
        f"exact p(n=6, all positive) = 1/64; exact vs normal at n=20 within 0.01 "
        f"(worst gap {worst:.4f})",
        ok,
    )


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for rep in ("r1", "r2"):
        d = tmp_path / rep
        d.mkdir()
        arc = d / "session.cvep"
        preds = d / "preds.csv"
        curve = d / "curve.csv"
        args = [
            "simulate", "--snr", "0", "--runs", "1", "--seed", "42",
            "--duration", "2.1", "--n-codes", "5", "--out", str(arc),
        ]
        assert cli_main(args) == 0
        assert cli_main(
            ["decode", "--method", "umm_tcw", "--in", str(arc),
             "--duration", "2.1", "--out", str(preds)]
        ) == 0
        assert cli_main(["curve", "--method", "cca_ec", "--in", str(arc), "--out", str(curve)]) == 0
        outputs.append((arc.read_bytes(), preds.read_bytes(), curve.read_bytes()))
    ok = outputs[0] == outputs[1]
    _check(9, "identical seeds give byte-identical archives, predictions, CSVs", ok)
