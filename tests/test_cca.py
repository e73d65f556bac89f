import math

import numpy as np
import pytest

from cvepdecode import cca
from cvepdecode.cca import CcaDecoder, CcaState, fit_filters
from cvepdecode.codegen import default_code_set
from cvepdecode.encoding import N_EVENTS, RESPONSE_LEN, StructureMatrix, structure_for_code
from cvepdecode.errors import DegenerateCovariance, TrialTooShort
from cvepdecode.sigproc import Trial
from cvepdecode.simulate import ForwardModel, synthesize_session, synthesize_trial

CODES = default_code_set(20)
STRUCTS_1C = [structure_for_code(c, 1) for c in CODES]
DECODER_2S = CcaDecoder(STRUCTS_1C, 378)  # 2.1 s trials


def _clean_trial(idx, dur_s=2.1, seed=0):
    return synthesize_trial(CODES[idx], ForwardModel(snr=math.inf), dur_s, seed, idx)


def test_fit_filters_identity_whitening_reduces_to_svd():
    rng = np.random.default_rng(0)
    c, m = 4, 6
    sxm = np.zeros((c, m))
    sxm[0, 0] = 0.8
    sxm[1, 1] = 0.3
    _, _, rho = fit_filters(np.eye(c), sxm, np.eye(m))
    assert rho == pytest.approx(0.8, abs=1e-9)


def test_fit_filters_rank_one_self_consistency():
    trial = _clean_trial(5)
    mat = STRUCTS_1C[5].truncated(trial.n_samples).mat
    x = trial.samples
    _, _, rho = fit_filters(x @ x.T, x @ mat.T, mat @ mat.T)
    assert rho >= 0.999


def test_wrong_code_scores_lower():
    trial = _clean_trial(5)
    x = trial.samples
    rhos = []
    for struct in STRUCTS_1C:
        mat = struct.truncated(trial.n_samples).mat
        rhos.append(fit_filters(x @ x.T, x @ mat.T, mat @ mat.T)[2])
    assert int(np.argmax(rhos)) == 5
    second = sorted(rhos)[-2]
    assert rhos[5] > second


def test_fit_filters_degenerate():
    with pytest.raises(DegenerateCovariance):
        fit_filters(np.zeros((3, 3)), np.zeros((3, 5)), np.eye(5))


def test_temporal_filter_sign_convention():
    trial = _clean_trial(2)
    mat = STRUCTS_1C[2].truncated(trial.n_samples).mat
    x = trial.samples
    _, r, _ = fit_filters(x @ x.T, x @ mat.T, mat @ mat.T)
    assert r[np.argmax(np.abs(r))] > 0


def test_decode_noiseless():
    for idx in (0, 7, 19):
        outcome = DECODER_2S.decode(_clean_trial(idx))
        assert outcome.label == idx
        assert outcome.scores.shape == (20,)
        assert np.all(outcome.scores <= 1.0 + 1e-9)


def test_decode_tie_breaks_to_lowest_index():
    trial = _clean_trial(3)
    structs = [STRUCTS_1C[3], STRUCTS_1C[3], STRUCTS_1C[0]]
    outcome = CcaDecoder(structs, trial.n_samples).decode(trial)
    assert outcome.label == 0


def test_decode_too_short():
    trial = Trial(samples=np.zeros((8, 30)))
    with pytest.raises(TrialTooShort):
        CcaDecoder(STRUCTS_1C, trial.n_samples).decode(trial)


def test_events_off_the_frame_grid_rejected():
    events = np.zeros((3, 378), dtype=np.int8)
    events[0, 4] = 1  # sample 4 is inside frame 1, not at its start
    with pytest.raises(ValueError, match="frame starts"):
        CcaDecoder([StructureMatrix(events=events)], 378)


def test_mixing_invariance():
    # rho invariant under invertible channel mixing
    rng = np.random.default_rng(3)
    trial = synthesize_trial(CODES[4], ForwardModel(snr=1.0), 2.1, 11, 4)
    out_a = DECODER_2S.decode(trial)
    b = rng.normal(size=(8, 8)) + 0.5 * np.eye(8)
    mixed = Trial(samples=b @ trial.samples, code_index_true=4)
    out_b = DECODER_2S.decode(mixed)
    assert np.abs(out_a.scores - out_b.scores).max() < 1e-6
    assert out_a.label == out_b.label


def test_scaling_invariance():
    trial = synthesize_trial(CODES[9], ForwardModel(snr=0.5), 2.1, 5, 9)
    out_a = DECODER_2S.decode(trial)
    scaled = Trial(samples=7.5 * trial.samples, code_index_true=9)
    out_b = DECODER_2S.decode(scaled)
    assert np.abs(out_a.scores - out_b.scores).max() < 1e-9


def test_rho_degrades_with_noise():
    rhos = []
    for snr in (math.inf, 1.0, 0.01):
        rs = []
        for seed in range(5):
            trial = synthesize_trial(CODES[0], ForwardModel(snr=snr), 2.1, seed, 0)
            rs.append(DECODER_2S.decode(trial).scores[0])
        rhos.append(np.mean(rs))
    assert rhos[0] >= 0.999
    assert rhos[0] > rhos[1] > rhos[2]


def test_update_cumulative_single_term():
    trial = _clean_trial(1)
    state = CcaState(mode=cca.MODE_CUMULATIVE)
    state = DECODER_2S.update_cumulative(state, trial, 1)
    x = trial.samples
    assert np.allclose(state.sxx, x @ x.T)
    assert state.n_trials_seen == 1


def test_update_cumulative_order_invariant_sxx():
    t1, t2 = _clean_trial(0), _clean_trial(1, seed=4)
    s_a = CcaState(mode=cca.MODE_CUMULATIVE)
    s_a = DECODER_2S.update_cumulative(s_a, t1, 0)
    s_a = DECODER_2S.update_cumulative(s_a, t2, 1)
    s_b = CcaState(mode=cca.MODE_CUMULATIVE)
    s_b = DECODER_2S.update_cumulative(s_b, t2, 1)
    s_b = DECODER_2S.update_cumulative(s_b, t1, 0)
    assert np.allclose(s_a.sxx, s_b.sxx)


def test_update_requires_cumulative_mode():
    with pytest.raises(ValueError):
        DECODER_2S.update_cumulative(CcaState(), _clean_trial(0), 0)


def test_cumulative_beats_instantaneous_at_moderate_snr():
    # mirrors the cumulative > instantaneous ordering on a synthetic session
    from cvepdecode.evaluate import DecoderBank, accuracy_of, decode_session

    accs = {}
    bank = DecoderBank(CODES, max_dur_s=4.2)
    correct = {"cca_e1": 0, "cca_ec": 0}
    total = 0
    for seed in range(3):
        session = synthesize_session(2, ForwardModel(snr=0.03), seed=seed, codes=CODES)
        total += session.n_trials
        for tag in correct:
            outcomes = decode_session(session, tag, 4.2, bank)
            correct[tag] += accuracy_of(outcomes, session.trials)[0]
    assert correct["cca_ec"] >= correct["cca_e1"]
    assert correct["cca_e1"] > 0.2 * total  # well above chance


def _dense_rhos(x, mats, state=None):
    """Per-hypothesis rho from the dense designs, optionally with a
    cumulative state given as dense (sxx, sxm, smm) sums."""
    sxx0, sxm0, smm0 = state if state is not None else (0.0, 0.0, 0.0)
    return np.array(
        [fit_filters(x @ x.T + sxx0, x @ m.T + sxm0, m @ m.T + smm0)[2] for m in mats]
    )


@pytest.mark.parametrize("n_samples", [54, 189, 190, 191, 756, 5669, 5670])
def test_frame_kernel_matches_dense_design(n_samples):
    # 190 samples end in a frame of one sample, 191 and 5669 in one of two:
    # the kernel pads the last frame with zeros
    structs = [structure_for_code(c, 15) for c in CODES]
    decoder = CcaDecoder(structs, n_samples)
    mats = [s.truncated(n_samples).mat for s in structs]
    session = synthesize_session(1, ForwardModel(snr=0.05), seed=2, codes=CODES[:2], dur_s=31.5)
    past, trial = (Trial(samples=t.samples[:, :n_samples]) for t in session.trials)

    got = decoder.decode(trial).scores
    assert np.abs(got - _dense_rhos(trial.samples, mats)).max() < 1e-10

    # cca_ec with one past trial, folded in under its predicted label
    label = decoder.decode(past).label
    state = decoder.update_cumulative(CcaState(mode=cca.MODE_CUMULATIVE), past, label)
    x0, m0 = past.samples, mats[label]
    dense_state = (x0 @ x0.T, x0 @ m0.T, m0 @ m0.T)
    got = decoder.decode(trial, state).scores
    assert np.abs(got - _dense_rhos(trial.samples, mats, dense_state)).max() < 1e-10


def test_bank_stores_no_dense_design():
    from cvepdecode.evaluate import DecoderBank

    bank = DecoderBank(CODES, max_dur_s=31.5)
    assert sum(s.events.nbytes for s in bank.structures) < 2**20
    # a decoder keeps per-frame event weights, and grams and their factors,
    # whose size does not grow with the trial
    decoder = bank.cca(5670)
    assert set(vars(decoder)) == {"n_samples", "weights", "grams", "gram_factors"}
    assert decoder.weights.shape == (60, 1890)
    assert decoder.weights.nbytes < 2**20
    assert decoder.grams.shape == decoder.gram_factors.shape == (20, 3, 54, 54)


@pytest.mark.parametrize("n_samples", [54, 189, 190, 191, 756, 5669, 5670])
def test_phase_grams_are_the_dense_gram(n_samples):
    # lag 3a + p of the design is nonzero only at samples of phase p, so the
    # dense gram is zero between lags of different phases; within a phase
    # its entries are event counts, which the phase grams hold exactly
    structs = [structure_for_code(c, 15) for c in CODES]
    decoder = CcaDecoder(structs, n_samples)
    lags = np.arange(N_EVENTS * RESPONSE_LEN) % RESPONSE_LEN
    off_phase = lags[:, np.newaxis] % 3 != lags % 3
    for struct, grams in zip(structs, decoder.grams):
        mat = struct.truncated(n_samples).mat
        dense = mat @ mat.T
        assert np.all(dense[off_phase] == 0)
        # dense index e * 54 + 3a + p, phase-gram index e * 18 + a
        rebuilt = np.zeros((N_EVENTS, 18, 3, N_EVENTS, 18, 3))
        for p in range(3):
            rebuilt[:, :, p, :, :, p] = grams[p].reshape(N_EVENTS, 18, N_EVENTS, 18)
        assert np.array_equal(rebuilt.reshape(dense.shape), dense)


def test_decoder_never_builds_the_dense_design(monkeypatch):
    past, trial = _clean_trial(1), _clean_trial(2)   # the simulator builds it

    def refuse(_self):
        raise AssertionError("dense design built")

    monkeypatch.setattr(StructureMatrix, "mat", property(refuse))
    decoder = CcaDecoder(STRUCTS_1C, 378)
    state = decoder.update_cumulative(CcaState(mode=cca.MODE_CUMULATIVE), past, 1)
    assert decoder.decode(trial, state).label == 2
