import math

import numpy as np
import pytest

from cvepdecode.codegen import default_code_set
from cvepdecode.encoding import RESPONSE_LEN, structure_for_code
from cvepdecode.errors import ConfigError, InvalidSnr
from cvepdecode.sigproc import TARGET_FS as FS
from cvepdecode.simulate import (
    FULL_TRIAL_S,
    ForwardModel,
    default_responses,
    synthesize_session,
    synthesize_trial,
)

CODES = default_code_set(20)


class TestTemplates:
    def test_shape_and_endpoints(self):
        r = default_responses()
        assert r.shape == (3, RESPONSE_LEN)
        assert np.abs(r[:, 0]).max() < 1e-12
        assert np.abs(r[:, -1]).max() < 1e-12

    def test_unit_peak(self):
        r = default_responses(seed=4)
        assert np.allclose(np.abs(r).max(axis=1), 1.0)

    def test_distinct_per_event(self):
        r = default_responses()
        assert not np.allclose(r[0], r[1])
        assert not np.allclose(r[1], r[2])


class TestForwardModel:
    def test_negative_snr_rejected(self):
        with pytest.raises(InvalidSnr):
            ForwardModel(snr=-0.5)

    def test_nan_snr_rejected(self):
        with pytest.raises(InvalidSnr):
            ForwardModel(snr=math.nan)

    def test_zero_mixing_rejected(self):
        with pytest.raises(ConfigError):
            ForwardModel(mixing=np.zeros(8))

    def test_unknown_noise_rejected(self):
        with pytest.raises(ConfigError):
            ForwardModel(noise="brown")


class TestSynthesizeTrial:
    def test_clean_trial_matches_reconvolution_identity(self):
        # at snr=inf the trial must be exactly mixing x (r @ M)
        model = ForwardModel(snr=math.inf)
        trial = synthesize_trial(CODES[4], model, 4.2, 0, 4)
        struct = structure_for_code(CODES[4], 2).truncated(trial.n_samples)
        expect = np.outer(model.mixing, model.responses.reshape(-1) @ struct.mat)
        assert np.abs(trial.samples - expect).max() < 1e-12

    def test_shapes_and_metadata(self):
        trial = synthesize_trial(CODES[0], ForwardModel(), 2.1, 0, 0)
        assert trial.samples.shape == (8, 378)
        assert trial.code_index_true == 0

    def test_full_trial_length(self):
        trial = synthesize_trial(CODES[0], ForwardModel(), FULL_TRIAL_S, 0, 0)
        assert trial.n_samples == 5670

    def test_duration_cap(self):
        with pytest.raises(ConfigError):
            synthesize_trial(CODES[0], ForwardModel(), 40.0, 0, 0)

    @pytest.mark.parametrize("dur_s", [0.0, 0.002, -1.0, math.nan])
    def test_trial_without_samples_is_a_config_error(self, dur_s):
        with pytest.raises(ConfigError):
            synthesize_trial(CODES[0], ForwardModel(), dur_s, 0, 0)

    def test_zero_snr_is_pure_noise(self):
        # noise-only trials carry no code information: uncorrelated with clean
        clean = synthesize_trial(CODES[3], ForwardModel(snr=math.inf), 2.1, 0, 3)
        noisy = synthesize_trial(CODES[3], ForwardModel(snr=0.0), 2.1, 0, 3)
        c = np.corrcoef(clean.samples[4], noisy.samples[4])[0, 1]
        assert abs(c) < 0.15

    def test_realized_snr(self):
        for snr in (0.1, 1.0, 10.0):
            model = ForwardModel(snr=snr)
            clean = synthesize_trial(CODES[2], ForwardModel(snr=math.inf), 31.5, 0, 2)
            noisy = synthesize_trial(CODES[2], model, 31.5, 0, 2)
            resid = noisy.samples - clean.samples
            realized = np.mean(clean.samples**2) / np.mean(resid**2)
            assert realized == pytest.approx(snr, rel=1e-9)

    def test_pink_noise_spectrum_slopes_down(self):
        trial = synthesize_trial(CODES[0], ForwardModel(snr=0.0, noise="pink"), 31.5, 1, 0)
        spec = np.abs(np.fft.rfft(trial.samples[0])) ** 2
        freqs = np.fft.rfftfreq(trial.n_samples, d=1.0 / FS)
        low = spec[(freqs > 1) & (freqs < 5)].mean()
        high = spec[(freqs > 40) & (freqs < 80)].mean()
        assert low > 10 * high

    def test_drift_adds_linear_trend(self):
        flat = synthesize_trial(CODES[0], ForwardModel(snr=math.inf), 2.1, 0, 0)
        tilted = synthesize_trial(
            CODES[0], ForwardModel(snr=math.inf, drift_slope=2.0), 2.1, 0, 0
        )
        diff = tilted.samples - flat.samples
        t = np.arange(flat.n_samples) / FS
        assert np.allclose(diff, 2.0 * t[np.newaxis, :])

    def test_deterministic_given_seed(self):
        a = synthesize_trial(CODES[1], ForwardModel(snr=0.5), 2.1, 9, 1)
        b = synthesize_trial(CODES[1], ForwardModel(snr=0.5), 2.1, 9, 1)
        assert a.samples.tobytes() == b.samples.tobytes()
        c = synthesize_trial(CODES[1], ForwardModel(snr=0.5), 2.1, 10, 1)
        assert a.samples.tobytes() != c.samples.tobytes()


class TestSynthesizeSession:
    def test_protocol_covers_all_codes_each_run(self):
        session = synthesize_session(3, ForwardModel(), seed=0, codes=CODES, dur_s=2.1)
        assert session.n_trials == 60
        for run in range(3):
            labels = sorted(
                t.code_index_true for t in session.trials[run * 20 : (run + 1) * 20]
            )
            assert labels == list(range(20))

    def test_runs_are_shuffled(self):
        session = synthesize_session(2, ForwardModel(), seed=0, codes=CODES, dur_s=2.1)
        first = [t.code_index_true for t in session.trials[:20]]
        second = [t.code_index_true for t in session.trials[20:]]
        assert first != sorted(first) or second != sorted(second)

    def test_byte_identical_across_rebuilds(self):
        kw = dict(seed=7, codes=CODES, dur_s=2.1)
        a = synthesize_session(2, ForwardModel(snr=0.1), **kw)
        b = synthesize_session(2, ForwardModel(snr=0.1), **kw)
        assert all(
            x.samples.tobytes() == y.samples.tobytes()
            for x, y in zip(a.trials, b.trials)
        )

    def test_distinct_noise_per_trial(self):
        session = synthesize_session(
            1, ForwardModel(snr=0.0), seed=0, codes=CODES[:3], dur_s=2.1
        )
        raw = {t.samples.tobytes() for t in session.trials}
        assert len(raw) == 3

    def test_invalid_run_count(self):
        with pytest.raises(ConfigError):
            synthesize_session(0, ForwardModel(), seed=0, codes=CODES)
