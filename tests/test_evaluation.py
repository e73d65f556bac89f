import gc
import math
import weakref

import numpy as np
import pytest
from scipy import signal, stats

from cvepdecode import cca, encoding, sigproc, umm
from cvepdecode.cca import CcaDecoder, CcaState
from cvepdecode.codegen import BitSequence, default_code_set
from cvepdecode.encoding import TrialStats
from cvepdecode.errors import (
    ConfigError,
    DegenerateCovariance,
    DegenerateSample,
    InsufficientEpochs,
    InvalidCodeSet,
    InvalidCutoff,
    LengthMismatch,
    NumericalError,
    ShapeError,
    TrialTooShort,
    TruncatedTrial,
)
from cvepdecode.evaluate import (
    ALPHA,
    CURVE_CSV_HEADER,
    DEFAULT_DURATIONS_S,
    DEFAULT_HIGHPASS_GRID,
    DEFAULT_LOWPASS_GRID,
    METHOD_TAGS,
    DecoderBank,
    accuracy_of,
    bandpass_sweep,
    canonical_tag,
    curve_csv_rows,
    decode_session,
    decoding_curve,
    filtered_session,
    sweep_csv_rows,
    wilcoxon_one_sided,
)
from cvepdecode.outcome import MODE_CUMULATIVE, DecodeOutcome
from cvepdecode.sigproc import TARGET_FS, FilterSpec, Trial
from cvepdecode.simulate import ForwardModel, Session, synthesize_session, synthesize_trial
from cvepdecode.umm import UmmState

CODES = default_code_set(20)


def _session(snr=math.inf, n_runs=1, seed=0, dur_s=4.2, n_codes=5):
    return synthesize_session(
        n_runs, ForwardModel(snr=snr), seed=seed, codes=CODES[:n_codes], dur_s=dur_s
    )


class TestGrids:
    def test_duration_grid(self):
        assert len(DEFAULT_DURATIONS_S) == 20
        assert DEFAULT_DURATIONS_S[0] == 1.05
        assert DEFAULT_DURATIONS_S[9] == 10.5
        assert DEFAULT_DURATIONS_S[10] == 12.6
        assert DEFAULT_DURATIONS_S[-1] == 31.5
        steps = np.diff(DEFAULT_DURATIONS_S)
        assert np.allclose(steps[:9], 1.05)
        assert np.allclose(steps[10:], 2.1)

    def test_cutoff_grids(self):
        assert len(DEFAULT_HIGHPASS_GRID) == 9
        assert len(DEFAULT_LOWPASS_GRID) == 9
        assert DEFAULT_LOWPASS_GRID == tuple(float(f) for f in range(10, 100, 10))

    def test_canonical_tag(self):
        assert canonical_tag(" CCA_E1 ") == "cca_e1"
        with pytest.raises(ConfigError):
            canonical_tag("lda")


@pytest.fixture(scope="module")
def long_session():
    """40 trials of 10.5 s, five code cycles, at -17 dB SNR."""
    return synthesize_session(2, ForwardModel(snr=10 ** -1.7), seed=6, dur_s=10.5)


@pytest.mark.parametrize(
    "run",
    [
        lambda s: decode_session(s, "cca_e1", 2.1),
        lambda s: decoding_curve(s, "umm_t11"),
        lambda s: decoding_curve(s, "umm_t11", (2.1,)),
        lambda s: bandpass_sweep(lambda hp, lp: s, ["cca_e1"], "lowpass", (40.0,)),
    ],
    ids=["decode", "curve", "curve-durations", "sweep"],
)
def test_session_without_trials_refused(run):
    with pytest.raises(ConfigError, match="no trials"):
        run(Session(trials=[], codes=CODES[:5]))


class TestDecodeSession:
    def test_all_methods_perfect_on_clean_data(self):
        session = _session()
        bank = DecoderBank(session.codes, max_dur_s=4.2)
        for tag in METHOD_TAGS:
            outcomes = decode_session(session, tag, 4.2, bank)
            n_correct, acc = accuracy_of(outcomes, session.trials)
            assert acc == 1.0, tag
            assert n_correct == session.n_trials

    def test_codes_shorter_than_a_trial_are_tiled(self):
        # 64-frame codes cycle every 1.07 s; a 4.2 s trial spans four cycles
        codes = [BitSequence(bits=c.bits[:64]) for c in CODES[:5]]
        session = synthesize_session(1, ForwardModel(snr=math.inf), seed=0, codes=codes, dur_s=4.2)
        assert [t.n_samples for t in session.trials] == [756] * 5
        bank = DecoderBank(codes, max_dur_s=4.2)
        for tag in METHOD_TAGS:
            outcomes = decode_session(session, tag, 4.2, bank)
            assert accuracy_of(outcomes, session.trials)[1] == 1.0, tag

    def test_codes_of_unequal_lengths_refused(self):
        # both decoders fold a trial by the one code length of the set
        codes = [CODES[0], BitSequence(bits=CODES[1].bits[:124])]
        with pytest.raises(InvalidCodeSet):
            DecoderBank(codes, max_dur_s=4.2)
        with pytest.raises(InvalidCodeSet):
            CcaDecoder(codes, 2)

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_bank_over_other_codes_refused(self, tag):
        # a bank over the session's codes reversed scores every trial under
        # another code's hypothesis: its accuracy would be silently wrong
        session = _session()
        bank = DecoderBank(session.codes[::-1], max_dur_s=4.2)
        for run in (
            lambda: decode_session(session, tag, 4.2, bank),
            lambda: decoding_curve(session, tag, (4.2,), bank),
        ):
            with pytest.raises(InvalidCodeSet, match="other codes"):
                run()

    def test_sweep_over_sessions_of_other_codes_refused(self):
        # one bank, built for the first cutoff, serves every cutoff
        sessions = iter([_session(), _session(n_codes=4)])
        with pytest.raises(InvalidCodeSet, match="other codes"):
            bandpass_sweep(lambda hp, lp: next(sessions), ["umm_t11"], "lowpass", (20.0, 40.0), 4.2)

    def test_empty_code_set_refused(self):
        with pytest.raises(InvalidCodeSet):
            DecoderBank([], max_dur_s=4.2)

    def test_bank_keeps_one_cca_decoder(self):
        # one decoder serves every length; it holds the grams of the one
        # whole-frame count it decided last and lets the others go
        bank = DecoderBank(CODES[:2], max_dur_s=31.5)
        decoder = bank.cca(54)
        noise = np.random.default_rng(0).normal(size=(2, 5670))
        held = []
        for dur in DEFAULT_DURATIONS_S:
            n_samples = int(round(dur * TARGET_FS))
            assert bank.cca(n_samples) is decoder
            decoder.decode(Trial(samples=noise[:, :n_samples]))
            assert decoder.weights.n_frames == n_samples // 3
            held.append(weakref.ref(decoder.grams))
        gc.collect()
        assert [ref() is not None for ref in held] == [False] * (len(held) - 1) + [True]

    @pytest.mark.parametrize(
        "n_samples, error", [(30, TrialTooShort), (53, TrialTooShort), (757, ShapeError)]
    )
    def test_one_length_rule_for_both_decoders(self, n_samples, error):
        # a trial shorter than one response, or past the 756 samples a 4.2 s
        # bank reaches, is refused alike by every entry of both decoders
        bank = DecoderBank(CODES, max_dur_s=4.2)
        trial = Trial(samples=np.random.default_rng(1).normal(size=(8, n_samples)))
        decided = DecodeOutcome(label=0, scores=np.zeros(len(CODES)), confidence=0.5)
        cca_decoder, umm_decoder = bank.cca(54), bank.umm()
        for call in (
            lambda: cca_decoder.decode(trial),
            lambda: cca_decoder.decode(trial, CcaState(mode=MODE_CUMULATIVE)),
            lambda: cca_decoder.update_cumulative(CcaState(mode=MODE_CUMULATIVE), trial, 0),
            lambda: umm_decoder.decode(trial),
            lambda: umm_decoder.decode_epochs(TrialStats.of(trial)),
            lambda: umm_decoder.update_cumulative(
                UmmState(mode=MODE_CUMULATIVE), TrialStats.of(trial), decided
            ),
            lambda: umm_decoder.update_cumulative(UmmState(mode=MODE_CUMULATIVE), trial, decided),
        ):
            with pytest.raises(error):
                call()

    def test_umm_refuses_a_trial_past_its_reach_before_any_statistic(self):
        umm_decoder = DecoderBank(CODES, max_dur_s=4.2).umm()
        decided = DecodeOutcome(label=0, scores=np.zeros(len(CODES)), confidence=0.5)
        for call in (
            lambda ep: umm_decoder.decode_epochs(ep),
            lambda ep: umm_decoder.update_cumulative(UmmState(mode=MODE_CUMULATIVE), ep, decided),
        ):
            ep = TrialStats.of(Trial(samples=np.random.default_rng(2).normal(size=(8, 757))))
            with pytest.raises(ShapeError):
                call(ep)
            assert "centered_moments" not in ep.__dict__

    def test_umm_update_takes_a_trial_as_its_statistics(self):
        umm_decoder = DecoderBank(CODES, max_dur_s=4.2).umm()
        trial = _session(snr=0.05, seed=3).trials[1]
        decided = umm_decoder.decode(trial)
        from_trial, from_stats = (
            umm_decoder.update_cumulative(UmmState(mode=MODE_CUMULATIVE), t, decided)
            for t in (trial, TrialStats.of(trial))
        )
        for name in ("scatter", "sq_norms4", "n_epochs", "delta_sum", "weight_total"):
            assert np.array_equal(getattr(from_trial, name), getattr(from_stats, name))

    def test_umm_needs_two_epochs_where_cca_decides(self):
        # 54 samples hold one 18-frame epoch: CCA decides it, UMM's
        # covariance pools at least three
        bank = DecoderBank(CODES, max_dur_s=4.2)
        trial = Trial(samples=np.random.default_rng(4).normal(size=(8, 54)))
        assert 0 <= bank.cca(54).decode(trial).label < len(CODES)
        with pytest.raises(InsufficientEpochs):
            bank.umm().decode(trial)

    @pytest.mark.parametrize("n_samples", [57, 58, 59])
    def test_umm_needs_three_epochs_where_cca_decides(self, n_samples):
        # two epochs are a data error, not the DegenerateCovariance of the
        # singular model their rank-1 scatter would give
        bank = DecoderBank(CODES, max_dur_s=4.2)
        trial = Trial(samples=np.random.default_rng(4).normal(size=(8, n_samples)))
        assert 0 <= bank.cca(n_samples).decode(trial).label < len(CODES)
        with pytest.raises(InsufficientEpochs, match="got 2"):
            bank.umm().decode(trial)

    def test_cumulative_umm_decides_two_epochs_over_a_pooled_state(self):
        # a state of three 4.2 s trials pools enough epochs for a trial of two
        session = _session(snr=0.05, seed=6)
        umm_decoder = DecoderBank(session.codes, max_dur_s=4.2).umm()
        state = UmmState(mode=MODE_CUMULATIVE)
        for trial in session.trials[:3]:
            state = umm_decoder.update_cumulative(state, trial, umm_decoder.decode(trial, state))
        out = umm_decoder.decode(session.trials[3].prefix(57 / TARGET_FS), state)
        assert 0 <= out.label < len(session.codes)
        assert np.isfinite(out.scores).all() and 0.0 <= out.confidence <= 1.0

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_code_set_with_a_repeated_code_refused(self, tag):
        # the copy's trials would all be labelled as the first copy's;
        # synthesize_session refuses such a set, so the session is built here
        codes = [CODES[0], CODES[0], CODES[1], CODES[2]]
        trials = [
            synthesize_trial(code, ForwardModel(snr=1.0), 4.2, seed=i, code_index_true=i)
            for i, code in enumerate(codes)
        ]
        session = Session(trials=trials, codes=codes)
        with pytest.raises(InvalidCodeSet, match="code 1 repeats code 0"):
            decode_session(session, tag, 4.2)

    def test_full_length_bank_reaches_31_5_s(self):
        bank = DecoderBank(CODES[:1], max_dur_s=31.5)
        assert bank.structures[0].mat.shape == (162, 5670)

    def test_bank_serves_trials_up_to_its_reach(self):
        session = _session(dur_s=4.2)
        bank = DecoderBank(session.codes, max_dur_s=2.1)
        for tag in METHOD_TAGS:
            with pytest.raises(ShapeError):
                decode_session(session, tag, 4.2, bank)

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_bank_refuses_a_trial_past_its_reach(self, tag):
        # 4.3 s runs past the two code cycles, 756 samples, a 4.2 s bank tiles
        session = _session(snr=0.05, seed=5, dur_s=4.3, n_codes=20)
        bank = DecoderBank(session.codes, max_dur_s=4.2)
        with pytest.raises(ShapeError, match="^codes reach 756 samples, a trial of 774 asked for$"):
            decode_session(session, tag, 4.3, bank)

    def test_session_without_bank_builds_one_reaching_the_duration(self, monkeypatch):
        reaches = []
        original = DecoderBank.__init__

        def recorded(self, codes, max_dur_s):
            reaches.append(max_dur_s)
            original(self, codes, max_dur_s=max_dur_s)

        monkeypatch.setattr(DecoderBank, "__init__", recorded)
        # the duration of the session's trials, 4.2 s, not the decoded 2.1 s
        decode_session(_session(), "cca_e1", 2.1)
        assert reaches == [4.2]

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_default_bank_decides_as_one_reaching_the_trials(self, long_session, tag):
        # a bank built to the decoded 4.2 s, two whole code cycles, would
        # cut the flash runs that the 10.5 s stimulation continued
        got = decode_session(long_session, tag, 4.2)
        want = decode_session(long_session, tag, 4.2, DecoderBank(long_session.codes, 10.5))
        assert [o.label for o in got] == [o.label for o in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.scores, b.scores)
            assert a.confidence == b.confidence

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_duration_past_trial_end(self, tag):
        session = _session(dur_s=2.1)
        with pytest.raises(TruncatedTrial):
            decode_session(session, tag, 4.2, DecoderBank(session.codes, max_dur_s=4.2))

    @pytest.mark.parametrize("tag", ["umm_t11", "umm_tcw"])
    def test_flat_trial_is_degenerate_covariance(self, tag):
        session = _session()
        session.trials[0].samples[:] = 0.0
        with pytest.raises(DegenerateCovariance):
            decode_session(session, tag, 4.2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tag", METHOD_TAGS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_sample_is_numerical_error(self, bad, tag):
        # raised before any arithmetic: numpy warnings would be errors here
        session = _session()
        session.trials[0].samples[3, 100] = bad
        with pytest.raises(NumericalError):
            decode_session(session, tag, 4.2)

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_each_trial_checked_and_framed_once(self, monkeypatch, tag):
        # a decision and its cumulative update read one TrialStats
        session = _session(snr=0.05)
        bank = DecoderBank(session.codes, max_dur_s=4.2)
        originals = {
            "finite_samples": sigproc.finite_samples,
            "trial_frames": encoding.trial_frames,
        }
        calls = dict.fromkeys(originals, 0)
        for name, original in originals.items():

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in (sigproc, encoding, cca, umm):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        decode_session(session, tag, 4.2, bank)
        assert calls == dict.fromkeys(originals, session.n_trials)

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_trailing_partial_frame_is_not_read(self, tag):
        # 756 samples are 252 whole frames; one or two samples more are a
        # partial frame, which no method reads
        session = _session(snr=0.05, dur_s=758 / TARGET_FS)
        bank = DecoderBank(session.codes, max_dur_s=758 / TARGET_FS)
        want = decode_session(session, tag, 756 / TARGET_FS, bank)
        for n_samples in (757, 758):
            got = decode_session(session, tag, n_samples / TARGET_FS, bank)
            assert [o.label for o in got] == [o.label for o in want]
            assert np.array_equal([o.scores for o in got], [o.scores for o in want])
            assert np.array_equal([o.confidence for o in got], [o.confidence for o in want])

    def test_outcome_count_and_order(self):
        session = _session()
        outcomes = decode_session(session, "cca_e1", 2.1)
        assert len(outcomes) == session.n_trials
        assert [o.label for o in outcomes] == [
            t.code_index_true for t in session.trials
        ]


class TestDecodingCurve:
    def test_monotone_trend_on_clean_data(self):
        session = _session()
        curve = decoding_curve(session, "cca_e1", durations_s=(1.05, 2.1, 4.2))
        assert curve.durations_s == (1.05, 2.1, 4.2)
        assert len(curve.n_correct) == 3
        assert curve.accuracy[-1] == 1.0

    def test_default_durations_fit_the_trials(self):
        curve = decoding_curve(_session(n_codes=2), "umm_t11")
        assert curve.durations_s == (1.05, 2.1, 3.15, 4.2)
        assert len(curve.n_correct) == 4

    def test_no_durations_is_a_config_error(self):
        with pytest.raises(ConfigError):
            decoding_curve(_session(n_codes=2), "umm_t11", durations_s=())

    def test_no_state_leak_between_durations(self):
        # the cumulative method decoded at one duration must match a fresh
        # evaluation at that duration alone
        session = _session(snr=0.05, seed=3)
        curve = decoding_curve(session, "umm_tcw", durations_s=(2.1, 4.2))
        alone = decoding_curve(session, "umm_tcw", durations_s=(4.2,))
        assert curve.n_correct[1] == alone.n_correct[0]

    @pytest.mark.parametrize("tag", METHOD_TAGS)
    def test_point_does_not_depend_on_the_other_durations(self, long_session, tag):
        alone = decoding_curve(long_session, tag, (4.2,))
        with_full = decoding_curve(long_session, tag, (4.2, 10.5))
        assert alone.n_correct[0] == with_full.n_correct[0]

    def test_csv_rows(self):
        session = _session()
        curve = decoding_curve(session, "cca_e1", durations_s=(2.1,))
        rows = curve_csv_rows(curve, seed=0)
        assert CURVE_CSV_HEADER == "method,duration_s,seed,n_trials,n_correct,accuracy"
        assert rows == [f"cca_e1,2.1,0,5,{curve.n_correct[0]},1.000000"]


class TestWilcoxon:
    def test_all_positive_small_sample(self):
        # n=6, every difference positive: one-sided p is 1/2^6
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [0.0, 1.0, 2.0, 3.0, 4.0, 5.5]
        w, p = wilcoxon_one_sided(a, b)
        assert w == 21.0
        assert p == pytest.approx(1.0 / 64.0, abs=1e-12)

    def test_matches_scipy_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=12)
            b = rng.normal(size=12)
            _, p = wilcoxon_one_sided(a, b)
            ref = stats.wilcoxon(a, b, alternative="greater", method="exact").pvalue
            assert p == pytest.approx(ref, abs=1e-12)

    def test_normal_approximation_close_to_exact(self):
        # straddle the exact/approximate boundary: ranks identical, p close
        rng = np.random.default_rng(1)
        a = rng.normal(size=25) + 0.5
        b = rng.normal(size=25)
        _, p = wilcoxon_one_sided(a, b)
        ref = stats.wilcoxon(
            a, b, alternative="greater", method="approx", correction=True
        ).pvalue
        assert p == pytest.approx(ref, abs=1e-6)

    def test_zero_differences_dropped(self):
        a = [1.0, 2.0, 3.0, 3.0]
        b = [0.0, 1.0, 2.0, 3.0]
        w, p = wilcoxon_one_sided(a, b)
        assert w == 6.0
        assert p == pytest.approx(1.0 / 8.0)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSample):
            wilcoxon_one_sided([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "a, b",
        [([0.5, np.nan, 0.7], [0.4, 0.3, 0.2]), ([0.5, np.inf, 0.7], [0.4, 0.3, 0.2]),
         ([0.5, 0.6, 0.7], [0.4, -np.inf, 0.2])],
        ids=["nan", "inf", "minus-inf"],
    )
    def test_non_finite_sample_refused(self, a, b):
        # a NaN used to surface as a bare ValueError, an inf as a p-value
        with pytest.raises(DegenerateSample, match="non-finite"):
            wilcoxon_one_sided(a, b)

    @pytest.mark.parametrize("n_a, n_b", [(2, 3), (1, 3)])
    def test_unequal_lengths_refused(self, n_a, n_b):
        # checked before the subtraction, which would broadcast a length 1
        with pytest.raises(LengthMismatch, match=f"got {n_a} and {n_b}"):
            wilcoxon_one_sided(np.arange(n_a) + 1.0, np.zeros(n_b))

    def test_swap_symmetry(self):
        a = [3.0, 1.0, 4.0, 1.5, 5.0]
        b = [2.0, 2.0, 2.0, 2.0, 2.0]
        _, p_ab = wilcoxon_one_sided(a, b)
        _, p_ba = wilcoxon_one_sided(b, a)
        # without ties in |d| the two one-sided tails cover the whole null
        # distribution once, minus the double-counted observed atom
        assert 0.0 < p_ab < 1.0 and 0.0 < p_ba < 1.0
        assert p_ab + p_ba > 1.0  # both tails include the observed W

    def test_alpha_constant(self):
        assert ALPHA == 0.025


class TestSweep:
    def test_sweep_counts_evaluations(self):
        session = _session(dur_s=2.1, n_codes=3)
        calls = []

        def source(hp, lp):
            calls.append((hp, lp))
            return session

        grid = bandpass_sweep(source, ["cca_e1"], "lowpass", duration_s=2.1)
        assert len(calls) == 9
        assert all(hp == 6.0 for hp, _ in calls)
        assert [lp for _, lp in calls] == list(DEFAULT_LOWPASS_GRID)
        assert len(grid.n_correct["cca_e1"]) == 9

    def test_sessions_of_another_trial_count_refused(self):
        # every cutoff's accuracy is a count over the grid's one trial count:
        # 8 right of 8 trials at 40 Hz over the first cutoff's 4 would read 2.0
        sessions = {
            20.0: _session(dur_s=2.1, n_codes=4),
            40.0: _session(n_runs=2, dur_s=2.1, n_codes=4),
        }
        with pytest.raises(ConfigError, match="40 Hz holds 8 trials, the first cutoff's 4"):
            bandpass_sweep(lambda hp, lp: sessions[lp], ["cca_e1"], "lowpass", (20.0, 40.0), 2.1)

    def test_sweep_holds_one_session_at_a_time(self):
        base = _session(dur_s=2.1, n_codes=3)
        made = []

        def source(hp, lp):
            gc.collect()
            assert all(ref() is None for ref in made)
            session = filtered_session(base, hp, lp)
            made.append(weakref.ref(session))
            return session

        bandpass_sweep(source, ["cca_e1"], "lowpass", (20.0, 40.0, 60.0), duration_s=2.1)
        assert len(made) == 3

    def test_sweep_builds_one_bank(self, monkeypatch):
        # the bank depends on the codes and the trial length, not on the filter
        session = _session(dur_s=2.1, n_codes=3)
        builds = []
        original = DecoderBank.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DecoderBank, "__init__", counted)
        bandpass_sweep(
            lambda hp, lp: session, ["cca_e1"], "lowpass", cutoffs_hz=(20.0, 40.0, 60.0),
            duration_s=2.1,
        )
        assert len(builds) == 1

    def test_highpass_axis_fixes_lowpass(self):
        session = _session(dur_s=2.1, n_codes=3)
        calls = []

        def source(hp, lp):
            calls.append((hp, lp))
            return session

        bandpass_sweep(source, ["cca_e1"], "highpass", cutoffs_hz=(1.0, 6.0), duration_s=2.1)
        assert calls == [(1.0, 40.0), (6.0, 40.0)]

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            bandpass_sweep(lambda hp, lp: None, ["cca_e1"], "diagonal")

    @pytest.mark.parametrize(
        "tags", [[], ["cca_e1", "CCA_E1"], ["umm_t11", "cca_ec", " umm_t11 "]],
        ids=["none", "case", "spaced"],
    )
    def test_no_or_repeated_method_refused_before_filtering(self, tags):
        # a method named twice would append two counts per cutoff to its
        # one list, and every cutoff would be reported with another's count
        calls = []
        with pytest.raises(ConfigError):
            bandpass_sweep(lambda hp, lp: calls.append((hp, lp)), tags, "lowpass", duration_s=2.1)
        assert calls == []

    def test_filtered_session_preserves_structure(self):
        session = _session(snr=1.0, dur_s=2.1, n_codes=3)
        out = filtered_session(session, 6.0, 40.0)
        assert out.n_trials == session.n_trials
        assert [t.code_index_true for t in out.trials] == [
            t.code_index_true for t in session.trials
        ]
        assert not np.allclose(out.trials[0].samples, session.trials[0].samples)

    def test_filtered_session_designs_each_filter_once(self, monkeypatch):
        # bit-identical to filtering every trial with a fresh design, and
        # one Butterworth design per (cutoffs, rate), not one per trial
        session = _session(snr=1.0, dur_s=2.1, n_codes=4)
        wants = {
            cutoffs: [
                signal.filtfilt(
                    *signal.butter(4, list(cutoffs), btype="bandpass", fs=TARGET_FS),
                    t.samples, axis=1, padtype="even", padlen=180,
                )
                for t in session.trials
            ]
            for cutoffs in ((6.0, 40.0), (6.0, 60.0))
        }
        designs = []
        butter = signal.butter

        def counted(*args, **kwargs):
            designs.append(args)
            return butter(*args, **kwargs)

        monkeypatch.setattr(signal, "butter", counted)
        FilterSpec.design.cache_clear()
        for n_calls, (cutoffs, want) in enumerate(wants.items(), start=1):
            out = filtered_session(session, *cutoffs)
            assert len(designs) == n_calls
            for got, trial_want in zip(out.trials, want):
                assert np.array_equal(got.samples, trial_want)
        b, a = FilterSpec(kind="bandpass", highpass_hz=6.0, lowpass_hz=40.0).design(TARGET_FS)
        assert len(designs) == 2
        assert not (b.flags.writeable or a.flags.writeable)

    def test_filtered_session_nyquist_lowpass_allowed(self):
        session = _session(snr=1.0, dur_s=2.1, n_codes=2)
        out = filtered_session(session, 6.0, 90.0)
        assert out.n_trials == session.n_trials

    def test_filtered_session_rejects_bad_cutoffs(self):
        session = _session(dur_s=2.1, n_codes=2)
        with pytest.raises(InvalidCutoff):
            filtered_session(session, 6.0, 95.0)
        with pytest.raises(InvalidCutoff):
            filtered_session(session, 95.0, 40.0)

    def test_sweep_csv_rows(self):
        session = _session(dur_s=2.1, n_codes=3)
        grid = bandpass_sweep(
            lambda hp, lp: session, ["cca_e1"], "lowpass", cutoffs_hz=(40.0,), duration_s=2.1
        )
        rows = sweep_csv_rows(grid)
        assert rows == [f"cca_e1,lowpass,40,3,{grid.n_correct['cca_e1'][0]},1.000000"]
