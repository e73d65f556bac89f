import math
from dataclasses import replace

import numpy as np
import pytest

from cvepdecode import cca, errors
from cvepdecode.cca import CcaDecoder, CcaState, fit_filters
from cvepdecode.codegen import BitSequence, default_code_set
from cvepdecode.encoding import N_EVENTS, RESPONSE_LEN, StructureMatrix, structure_for_code
from cvepdecode.errors import DegenerateCovariance, ShapeError, TrialTooShort
from cvepdecode.sigproc import Trial
from cvepdecode.simulate import ForwardModel, synthesize_session, synthesize_trial

CODES = default_code_set(20)
STRUCTS_1C = [structure_for_code(c, 1) for c in CODES]
DECODER_2S = CcaDecoder(CODES, 1)  # 2.1 s trials, one code cycle


def _clean_trial(idx, dur_s=2.1, seed=0):
    return synthesize_trial(CODES[idx], ForwardModel(snr=math.inf), dur_s, seed, idx)


def _decided_once(decoder, n_samples):
    """The decoder, having decided a noise trial of n_samples samples: it
    holds the weights and grams of that trial's whole frames."""
    noise = np.random.default_rng(n_samples).normal(size=(2, n_samples))
    decoder.decode(Trial(samples=noise))
    return decoder


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
    with pytest.raises(DegenerateCovariance, match="non-positive trace"):
        fit_filters(np.zeros((3, 3)), np.zeros((3, 5)), np.eye(5))
    # a positive trace, but not positive definite however ridged
    with pytest.raises(DegenerateCovariance, match="not positive definite"):
        fit_filters(np.diag([1.0, -0.5, 1.0]), np.zeros((3, 5)), np.eye(5))


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
    # code 3 with a late flash dropped has code 3's events over the first
    # 63 frames, so on a 1.05 s trial the two score exactly alike
    bits = list(CODES[3].bits)
    late = bits.index(1, 100)
    bits[late] = 0
    codes = [BitSequence(tuple(bits)), CODES[3], CODES[0]]
    trial = Trial(samples=_clean_trial(3).samples[:, :189])
    outcome = CcaDecoder(codes, 1).decode(trial)
    assert outcome.scores[0] == outcome.scores[1] > outcome.scores[2]
    assert outcome.label == 0


def test_decode_too_short():
    trial = Trial(samples=np.zeros((8, 30)))
    with pytest.raises(TrialTooShort):
        CcaDecoder(CODES, 1).decode(trial)


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
    state = CcaState()
    state = DECODER_2S.update_cumulative(state, trial, 1)
    x = trial.samples
    assert np.allclose(state.sxx, x @ x.T)
    assert state.n_trials_seen == 1


def test_update_cumulative_order_invariant_sxx():
    t1, t2 = _clean_trial(0), _clean_trial(1, seed=4)
    s_a = CcaState()
    s_a = DECODER_2S.update_cumulative(s_a, t1, 0)
    s_a = DECODER_2S.update_cumulative(s_a, t2, 1)
    s_b = CcaState()
    s_b = DECODER_2S.update_cumulative(s_b, t2, 1)
    s_b = DECODER_2S.update_cumulative(s_b, t1, 0)
    assert np.allclose(s_a.sxx, s_b.sxx)


def test_update_requires_cumulative_mode():
    # a default state is a cumulative one: it takes an update
    state = DECODER_2S.update_cumulative(CcaState(), _clean_trial(0), 0)
    assert state.n_trials_seen == 1
    assert np.shape(state.smm) == (cca.PHASE_DIM, cca.PHASE_DIM)


def test_trial_count_does_not_route_a_decision():
    # a state is its sums: five decided trials' sums pool alike whatever
    # trial count the state carries
    state = CcaState()
    for i in range(5):
        trial = synthesize_trial(CODES[i], ForwardModel(snr=0.5), 2.1, i, i)
        state = DECODER_2S.update_cumulative(state, trial, DECODER_2S.decode(trial, state).label)
    assert state.n_trials_seen == 5
    trial = synthesize_trial(CODES[7], ForwardModel(snr=0.5), 2.1, 7, 7)
    want = DECODER_2S.decode(trial, state)
    got = DECODER_2S.decode(trial, replace(state, n_trials_seen=0))
    assert got.label == want.label and got.confidence == want.confidence
    assert np.array_equal(got.scores, want.scores)
    assert not np.array_equal(want.scores, DECODER_2S.decode(trial).scores)


@pytest.mark.parametrize("label", [20, -1, -21])
def test_update_refuses_label_out_of_range(label):
    state = CcaState()
    with pytest.raises(errors.LabelOutOfRange):
        DECODER_2S.update_cumulative(state, _clean_trial(0), label)


def test_longer_trial_refused():
    # one code cycle reaches 378 samples: Trial.prefix is the one cut, a
    # longer trial is an error, not cut to the decoder
    trial = _clean_trial(4)
    longer = Trial(samples=np.concatenate([trial.samples, trial.samples[:, -1:]], axis=1))
    assert (trial.n_samples, longer.n_samples) == (378, 379)
    state = DECODER_2S.update_cumulative(CcaState(), trial, 4)
    for call in (
        lambda: DECODER_2S.decode(longer),
        lambda: DECODER_2S.decode(longer, state),
        lambda: DECODER_2S.update_cumulative(state, longer, 4),
    ):
        with pytest.raises(ShapeError):
            call()


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


def _whole(n_samples):
    """The samples of the whole frames of an n_samples trial."""
    return n_samples // 3 * 3


@pytest.mark.parametrize("n_samples", [54, 189, 190, 191, 756, 5669, 5670])
def test_frame_kernel_matches_dense_design(n_samples):
    # 190 samples end in a frame of one sample, 191 and 5669 in one of two:
    # the decoder reads the whole frames, the dense oracle their samples
    structs = [structure_for_code(c, 15) for c in CODES]
    decoder = CcaDecoder(CODES, 15)
    whole = _whole(n_samples)
    mats = [s.truncated(whole).mat for s in structs]
    session = synthesize_session(1, ForwardModel(snr=0.05), seed=2, codes=CODES[:2], dur_s=31.5)
    past, trial = (Trial(samples=t.samples[:, :n_samples]) for t in session.trials)
    x, x0 = trial.samples[:, :whole], past.samples[:, :whole]

    got = decoder.decode(trial).scores
    assert np.abs(got - _dense_rhos(x, mats)).max() < 1e-10

    # cca_ec with one past trial, folded in under its predicted label
    label = decoder.decode(past).label
    state = decoder.update_cumulative(CcaState(), past, label)
    m0 = mats[label]
    dense_state = (x0 @ x0.T, x0 @ m0.T, m0 @ m0.T)
    got = decoder.decode(trial, state).scores
    assert np.abs(got - _dense_rhos(x, mats, dense_state)).max() < 1e-10


def test_bank_stores_no_dense_design():
    from cvepdecode.evaluate import DecoderBank

    bank = DecoderBank(CODES, max_dur_s=31.5)
    assert sum(s.events.nbytes for s in bank.structures) < 2**20
    # a decoder keeps per-frame event weights as one code cycle and the
    # corrections at the tiling's first and last frames, and grams and their
    # inverse factors, whose size does not grow with the trial
    decoder = _decided_once(bank.cca(5670), 5670)
    assert set(vars(decoder)) == {
        "bits", "n_cycles", "reach", "weights", "grams", "gram_inverse_factors"
    }
    assert decoder.weights.pattern.shape == (60, 126)
    assert decoder.weights.n_frames == 1890
    assert list(decoder.weights.positions) == [0, 1889]
    # every whole frame holds the three phases: their grams are one
    assert decoder.grams.shape == decoder.gram_inverse_factors.shape == (20, 54, 54)


def test_one_decoder_decides_every_length_as_a_fresh_one():
    # the bank's one decoder keeps the parts of the last whole-frame count
    # it decided: the lengths alternate, so it rebuilds them for all but 758
    # (252 frames, as 756), and decides as a decoder fresh at each length
    from cvepdecode.evaluate import DecoderBank

    bank = DecoderBank(CODES, max_dur_s=31.5)
    session = synthesize_session(1, ForwardModel(snr=0.05), seed=3, codes=CODES[:2], dur_s=31.5)
    for n_samples in (5670, 54, 757, 189, 5669, 190, 756, 758):
        past, trial = (Trial(samples=t.samples[:, :n_samples]) for t in session.trials)
        decisions = []
        for decoder in (bank.cca(n_samples), CcaDecoder(CODES, bank.n_cycles)):
            label = decoder.decode(past).label
            state = decoder.update_cumulative(CcaState(), past, label)
            decisions.append([decoder.decode(trial), decoder.decode(trial, state)])
        for shared, fresh in zip(*decisions):
            assert shared.label == fresh.label
            assert np.array_equal(shared.scores, fresh.scores)
            assert shared.confidence == fresh.confidence
        assert bank.cca(n_samples).weights.n_frames == n_samples // 3


@pytest.mark.parametrize("n_samples", [54, 756, 5670])
def test_whitening_routes_agree(n_samples):
    # a state of zero-array sums, all or some of them beside fresh scalar
    # ones, is pooled: it refactors the decoder's own grams and solves per
    # hypothesis; the instantaneous route applies the inverse factors.
    # Code 0's 54 x 54 phase grams have rank 18 at 54 samples and 51 at
    # 756 and 5670: the ridge holds them up.
    decoder = CcaDecoder(CODES, 15)
    session = synthesize_session(1, ForwardModel(snr=0.05), seed=4, codes=CODES[:1], dur_s=31.5)
    trial = Trial(samples=session.trials[0].samples[:, :n_samples])
    c = trial.n_channels
    zero_sums = CcaState(
        sxx=np.zeros((c, c)),
        sxm=np.zeros((cca.PHASE_DIM, 3 * c)),
        smm=np.zeros((cca.PHASE_DIM, cca.PHASE_DIM)),
    )
    instant = decoder.decode(trial).scores
    for state in (zero_sums, CcaState(sxx=np.zeros((c, c)))):
        cumulative = decoder.decode(trial, state).scores
        assert np.all(np.abs(instant - cumulative) <= 1e-12 * np.abs(cumulative))


def _count_lapack_calls(monkeypatch, names):
    """Records each call as (name, shape of its first matrix, whether every
    matrix it is handed is Fortran-ordered, so f2py copies none)."""
    calls = []

    def counted(name):
        original = getattr(cca.lapack, name)

        def call(a, *args, **kwargs):
            matrices = [a, *(x for x in args if isinstance(x, np.ndarray))]
            calls.append((name, a.shape, all(m.flags.f_contiguous for m in matrices)))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(cca.lapack, name, call)

    for name in names:
        counted(name)
    return calls


def test_instantaneous_decision_makes_only_spatial_lapack_calls(monkeypatch):
    decoder = _decided_once(CcaDecoder(CODES, 1), 378)
    trial = _clean_trial(6)
    calls = _count_lapack_calls(monkeypatch, ["dtrtrs", "dpotrf"])
    assert decoder.decode(trial).label == 6
    assert sorted(calls) == [("dpotrf", (8, 8), True), ("dtrtrs", (8, 8), True)]


@pytest.mark.parametrize("n_samples, n_calls", [(378, 21), (377, 21)])
def test_cumulative_decision_factors_each_distinct_block_once(monkeypatch, n_samples, n_calls):
    # one dpotrf and one dtrtrs per hypothesis' phase gram, and one each for
    # the spatial factor and its inverse: 378 samples end in a whole frame,
    # 377 in a frame of two samples, which is not read
    decoder = CcaDecoder(CODES, 1)
    past, trial = (Trial(samples=_clean_trial(i).samples[:, :n_samples]) for i in (1, 2))
    state = decoder.update_cumulative(CcaState(), past, 1)
    calls = _count_lapack_calls(monkeypatch, ["dtrtrs", "dpotrf"])
    assert decoder.decode(trial, state).label == 2
    names = [name for name, _, _ in calls]
    assert names.count("dpotrf") == names.count("dtrtrs") == n_calls
    # each block reaches LAPACK in Fortran order, factored and solved in place
    assert all(fortran for _, _, fortran in calls)


def _dense_phase_grams(mat):
    """The three phase grams cut from the dense gram: dense index
    e * 54 + 3a + p, phase-gram index e * 18 + a."""
    dense = (mat @ mat.T).reshape(N_EVENTS, 18, 3, N_EVENTS, 18, 3)
    return np.stack([dense[:, :, p, :, :, p].reshape(54, 54) for p in range(3)])


@pytest.mark.parametrize("n_samples", [190, 191])
def test_ridge_is_that_of_the_three_phase_stack(n_samples):
    # the ridge follows the mean diagonal of the whole 162 x 162 gram of
    # the whole frames, which each of its three equal phase grams shares
    structs = [structure_for_code(c, 15) for c in CODES]
    decoder = _decided_once(CcaDecoder(CODES, 15), n_samples)
    three = np.stack([_dense_phase_grams(s.truncated(_whole(n_samples)).mat) for s in structs])
    want = cca._inverted(cca._ridged_cholesky(three, "temporal"))
    got = np.repeat(decoder.gram_inverse_factors[:, np.newaxis], 3, axis=1)
    assert got.shape == want.shape == (20, 3, 54, 54)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n_samples", [54, 189, 190, 191, 756, 5669, 5670])
def test_phase_grams_are_the_dense_gram(n_samples):
    # lag 3a + p of the design is nonzero only at samples of phase p, so the
    # dense gram is zero between lags of different phases; within a phase
    # its entries are event counts, which the phase gram holds exactly. A
    # trailing partial frame is not read: the dense gram is that of the
    # whole frames. The grams fold the frames by the code period: a
    # 5670-sample trial of 15 cycles ends on the tiling's corrected last
    # frame, one of 16 cycles holds no correction but the onset's
    lags = np.arange(N_EVENTS * RESPONSE_LEN) % RESPONSE_LEN
    off_phase = lags[:, np.newaxis] % 3 != lags % 3
    for n_cycles, codes in [(15, CODES), (16, CODES), (16, CODES[3:4])]:
        structs = [structure_for_code(c, n_cycles) for c in codes]
        decoder = _decided_once(CcaDecoder(codes, n_cycles), n_samples)
        assert decoder.grams.shape == (len(codes), 54, 54)
        for struct, gram in zip(structs, decoder.grams):
            mat = struct.truncated(_whole(n_samples)).mat
            dense = mat @ mat.T
            assert np.all(dense[off_phase] == 0)
            # dense index e * 54 + 3a + p, phase-gram index e * 18 + a
            rebuilt = np.zeros((N_EVENTS, 18, 3, N_EVENTS, 18, 3))
            for p in range(3):
                rebuilt[:, :, p, :, :, p] = gram.reshape(N_EVENTS, 18, N_EVENTS, 18)
            assert np.array_equal(rebuilt.reshape(dense.shape), dense)


def test_phase_grams_lag_no_more_than_one_code_cycle(monkeypatch):
    # the grams of a 31.5 s decoder fold its 1890 frames by the 126-frame
    # code period: no lagged weights wider than one cycle and the 17 frames
    # its windows reach back
    lagged = cca.lagged

    def one_cycle_at_most(rows, n_lags):
        out = lagged(rows, n_lags)
        assert out.shape[1] <= 126 + 17, f"lagged design {out.shape} wider than a code cycle"
        return out

    monkeypatch.setattr(cca, "lagged", one_cycle_at_most, raising=False)
    _decided_once(CcaDecoder(CODES, 15), 5670)


def test_decoder_never_builds_the_dense_design(monkeypatch):
    past, trial = _clean_trial(1), _clean_trial(2)   # the simulator builds it

    def refuse(_self):
        raise AssertionError("dense design built")

    monkeypatch.setattr(StructureMatrix, "mat", property(refuse))
    decoder = CcaDecoder(CODES, 1)
    state = decoder.update_cumulative(CcaState(), past, 1)
    assert decoder.decode(trial, state).label == 2


@pytest.mark.parametrize("n_samples", [756, 5670], ids=["4.2s", "31.5s"])
def test_fresh_cumulative_state_decides_as_none(n_samples):
    # a fresh state is zero sums: it adds nothing, bit for bit
    decoder = CcaDecoder(CODES, 15)
    session = synthesize_session(1, ForwardModel(snr=0.05), seed=6, codes=CODES[:1], dur_s=31.5)
    trial = Trial(samples=session.trials[0].samples[:, :n_samples])
    instant = decoder.decode(trial)
    fresh = decoder.decode(trial, CcaState())
    assert fresh.label == instant.label
    assert np.array_equal(fresh.scores, instant.scores)
    assert fresh.confidence == instant.confidence


@pytest.mark.parametrize("n_trials_seen", [0, 1])
@pytest.mark.parametrize("name, shape", [("sxx", (3, 3)), ("sxm", (54, 9)), ("smm", (2, 54, 54))])
def test_state_sums_of_another_shape_refused(n_trials_seen, name, shape):
    state = CcaState(n_trials_seen=n_trials_seen)
    setattr(state, name, np.zeros(shape))
    trial = _clean_trial(4)
    with pytest.raises(ShapeError, match=name):
        DECODER_2S.decode(trial, state)
    with pytest.raises(ShapeError, match=name):
        DECODER_2S.update_cumulative(state, trial, 4)
