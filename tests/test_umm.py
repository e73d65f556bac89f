import numpy as np
import pytest
from scipy import linalg

from cvepdecode import umm
from cvepdecode.codegen import BitSequence, default_code_set
from cvepdecode.errors import (
    DegenerateCovariance,
    DegenerateHypothesis,
    InsufficientEpochs,
    ShapeError,
    TrialTooShort,
)
from cvepdecode.outcome import DecodeOutcome
from cvepdecode.sigproc import Trial
from cvepdecode.simulate import ForwardModel, synthesize_trial
from cvepdecode.umm import (
    CovModel,
    EpochSet,
    UmmDecoder,
    UmmState,
    block_levinson_solve,
    estimate_covariance,
    mean_difference,
    score_hypotheses,
    slice_epochs,
)

CODES = default_code_set(20)


def _trial_from_array(x):
    return Trial(samples=np.asarray(x, dtype=float))


def _dense_from_blocks(blocks):
    """Reference block-Toeplitz matrix, T[i, j] = blocks[i - j] with
    B(-l) = B(l)^T, filled block by block."""
    n, c, _ = blocks.shape
    dense = np.zeros((n * c, n * c))
    for i in range(n):
        for j in range(n):
            lag = i - j
            block = blocks[lag] if lag >= 0 else blocks[-lag].T
            dense[i * c : (i + 1) * c, j * c : (j + 1) * c] = block
    return dense


class TestSliceEpochs:
    def test_full_trial_epoch_count(self):
        trial = _trial_from_array(np.zeros((8, 5670)))
        ep = slice_epochs(trial)
        assert ep.n_epochs == 1873  # (5670 - 54) // 3 + 1

    def test_single_epoch(self):
        ep = slice_epochs(_trial_from_array(np.zeros((2, 54))))
        assert ep.n_epochs == 1

    def test_alignment_by_construction(self):
        x = np.arange(300, dtype=float)[np.newaxis, :]
        ep = slice_epochs(_trial_from_array(x))
        for k in range(ep.n_epochs):
            assert ep.epochs[k, 0] == 3 * k

    def test_too_short(self):
        with pytest.raises(TrialTooShort):
            slice_epochs(_trial_from_array(np.zeros((2, 40))))


class TestMeanDifference:
    def test_definition(self):
        # flash epochs equal v, non-flash zero
        code = BitSequence(bits=(1, 0) * 9)  # 18 frames -> covers K epochs
        x = np.zeros((1, 108))
        ep = slice_epochs(_trial_from_array(x))
        v = np.full(ep.n_features, 2.5)
        epochs = ep.epochs.copy()
        bits = np.tile(code.array, 2)[: ep.n_epochs]
        epochs[bits == 1] = v
        ep = EpochSet(epochs=epochs, onsets=ep.onsets, n_channels=1)
        delta = mean_difference(ep, code, 2)
        assert np.allclose(delta, v)

    def test_balanced_split_half_cycle(self):
        # flash/non-flash counts differ by at most 1 for half-cycle durations
        for code in CODES[:5]:
            for n_frames in (63, 126, 189):
                bits = np.tile(code.array, 2)[:n_frames]
                assert abs(int(bits.sum()) - (n_frames - int(bits.sum()))) <= 1

    def test_degenerate_hypothesis(self):
        code = BitSequence(bits=(1,) * 4)
        ep = slice_epochs(_trial_from_array(np.zeros((1, 60))))
        with pytest.raises(DegenerateHypothesis):
            mean_difference(ep, code, 1)


class TestCovariance:
    def test_white_epochs_give_scaled_identity(self):
        rng = np.random.default_rng(0)
        sigma = 1.7
        epochs = rng.normal(scale=sigma, size=(10_000, 2 * 54))
        ep = EpochSet(epochs=epochs, onsets=np.arange(10_000), n_channels=2)
        cov = estimate_covariance(ep, gamma=0.0)
        assert np.trace(cov.blocks[0]) / 2 == pytest.approx(sigma**2, rel=0.05)
        off = np.concatenate([cov.blocks[lag].ravel() for lag in range(1, 54)])
        assert np.abs(off).max() < 0.05 * sigma**2

    def test_structured_solve_matches_dense(self):
        rng = np.random.default_rng(1)
        trial = synthesize_trial(CODES[0], ForwardModel(snr=1.0), 4.2, 7, 0)
        cov = estimate_covariance(slice_epochs(trial))
        v = rng.normal(size=cov.n_features)
        dense = _dense_from_blocks(cov.blocks)
        assert np.array_equal(cov.dense(), dense)
        expect = np.linalg.solve(dense, v)
        got = cov.solve(v)
        assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_full_shrinkage_is_scaled_identity(self):
        trial = synthesize_trial(CODES[1], ForwardModel(snr=1.0), 2.1, 3, 1)
        cov = estimate_covariance(slice_epochs(trial), gamma=1.0)
        dense = cov.dense()
        nu = dense[0, 0]
        assert np.allclose(dense, nu * np.eye(dense.shape[0]))

    def test_insufficient_epochs(self):
        ep = EpochSet(epochs=np.zeros((1, 54)), onsets=np.array([0]), n_channels=1)
        with pytest.raises(InsufficientEpochs):
            estimate_covariance(ep)

    def test_symmetric_and_positive_definite(self):
        trial = synthesize_trial(CODES[2], ForwardModel(snr=0.2), 2.1, 9, 2)
        cov = estimate_covariance(slice_epochs(trial))
        dense = cov.dense()
        assert np.allclose(dense, dense.T)
        linalg.cholesky(dense)  # raises if not PD


class TestBlockLevinson:
    def test_matches_dense_on_random_spd_block_toeplitz(self):
        rng = np.random.default_rng(5)
        n, c = 20, 3
        lags = rng.normal(size=(n, c, c)) * np.linspace(1.0, 0.0, n)[:, None, None]
        lags[0] = lags[0] @ lags[0].T + (n + 5) * np.eye(c)
        dense = np.zeros((n * c, n * c))
        for i in range(n):
            for j in range(n):
                lag = i - j
                block = lags[lag] if lag >= 0 else lags[-lag].T
                dense[i * c : (i + 1) * c, j * c : (j + 1) * c] = block
        # push well into SPD territory, then rebuild the lag blocks from the
        # regularized dense matrix so both stay consistent
        dense += (abs(np.linalg.eigvalsh(dense).min()) + 1.0) * np.eye(n * c)
        lags = np.array([dense[i * c : (i + 1) * c, 0:c] for i in range(n)])
        y = rng.normal(size=(n * c, 4))
        got = block_levinson_solve(lags, y)
        expect = np.linalg.solve(dense, y)
        assert np.abs(got - expect).max() < 1e-10 * np.abs(expect).max() + 1e-12

    def test_single_vector_rhs(self):
        lags = np.array([[[4.0, 1.0], [1.0, 5.0]], [[0.5, 0.2], [0.1, 0.3]]])
        dense = np.block(
            [[lags[0], lags[1].T], [lags[1], lags[0]]]
        )
        y = np.array([1.0, 2.0, 3.0, 4.0])
        got = block_levinson_solve(lags, y)
        assert np.allclose(got, np.linalg.solve(dense, y))

    @pytest.mark.parametrize("lag0", [0.0, -1.0], ids=["zero", "negative"])
    def test_not_positive_definite(self, lag0):
        lags = np.zeros((3, 2, 2))
        lags[0] = lag0 * np.eye(2)
        with pytest.raises(DegenerateCovariance):
            block_levinson_solve(lags, np.ones(6))


class TestScoring:
    def test_all_zero_deltas(self):
        cov = CovModel(
            blocks=np.eye(2)[np.newaxis].repeat(3, axis=0) * np.array([1.0, 0, 0])[:, None, None],
            shrinkage_gamma=0.0,
        )
        out = score_hypotheses(np.zeros((4, 6)), cov)
        assert out.label == 0
        assert np.allclose(out.scores, 0.0)

    def test_euclidean_case(self):
        blocks = np.zeros((3, 2, 2))
        blocks[0] = np.eye(2)
        cov = CovModel(blocks=blocks, shrinkage_gamma=1.0)
        deltas = np.zeros((3, 6))
        deltas[0, 0] = 1.0
        deltas[1, 1] = 2.0
        deltas[2, 2] = 3.0
        out = score_hypotheses(deltas, cov)
        assert np.allclose(out.scores, [1.0, 4.0, 9.0])
        assert out.label == 2

    def test_joint_linear_transform_invariance(self):
        # Mahalanobis distance under any invertible map applied to both
        # deltas and covariance; small D, dense path as oracle
        rng = np.random.default_rng(8)
        d = 12
        a = rng.normal(size=(d, d))
        spd = a @ a.T + d * np.eye(d)
        deltas = rng.normal(size=(5, d))
        base = np.array([dm @ np.linalg.solve(spd, dm) for dm in deltas])
        t = rng.normal(size=(d, d)) + np.eye(d)
        spd_t = t @ spd @ t.T
        deltas_t = deltas @ t.T
        moved = np.array([dm @ np.linalg.solve(spd_t, dm) for dm in deltas_t])
        assert np.abs(base - moved).max() < 1e-6 * np.abs(base).max()


class TestDecoding:
    def test_planted_mean_high_snr(self):
        ok = 0
        for i, seed in zip((0, 4, 9, 13, 19), range(5)):
            trial = synthesize_trial(CODES[i], ForwardModel(snr=50.0), 2.1, seed, i)
            out = UmmDecoder(CODES, 1).decode(trial)
            ok += out.label == i
        assert ok == 5

    def test_global_rescaling_keeps_label(self):
        trial = synthesize_trial(CODES[6], ForwardModel(snr=0.5), 2.1, 2, 6)
        dec = UmmDecoder(CODES, 1)
        out_a = dec.decode(trial)
        scaled = Trial(samples=200.0 * trial.samples, code_index_true=6)
        out_b = dec.decode(scaled)
        assert out_a.label == out_b.label
        # scores rescale uniformly, so the ranking is scale-free
        ratio = out_b.scores / out_a.scores
        assert np.allclose(ratio, ratio[0], rtol=1e-6)


class TestCumulative:
    def _epochs(self, seed=0, idx=3, snr=2.0):
        trial = synthesize_trial(CODES[idx], ForwardModel(snr=snr), 2.1, seed, idx)
        return slice_epochs(trial)

    def test_zero_confidence_keeps_means(self):
        dec = UmmDecoder(CODES, 1)
        ep = self._epochs()
        state = UmmState(mode=umm.MODE_CUMULATIVE)
        outcome = DecodeOutcome(label=3, scores=np.zeros(20), confidence=0.0)
        state = dec.update_cumulative(state, ep, outcome)
        assert state.weight_total == 0.0
        assert np.allclose(state.flash_sum, 0.0)
        assert state.n_epochs == ep.n_epochs  # covariance still pooled

    def test_equal_weight_blend_idempotent(self):
        dec = UmmDecoder(CODES, 1)
        ep = self._epochs()
        out = dec.decode_epochs(ep)
        state = UmmState(mode=umm.MODE_CUMULATIVE)
        one = DecodeOutcome(label=out.label, scores=out.scores, confidence=0.7)
        s1 = dec.update_cumulative(state, ep, one)
        s2 = dec.update_cumulative(s1, ep, one)
        blended_two = s2.flash_sum / s2.weight_total
        blended_one = s1.flash_sum / s1.weight_total
        assert np.allclose(blended_two, blended_one)

    def test_confident_trials_boost_true_margin(self):
        # frozen noise fixtures: the same low-SNR trials decoded with and
        # without confidently-correct previous trials in the state; the
        # separation of the true hypothesis should grow on average
        dec = UmmDecoder(CODES, 1)
        state = UmmState(mode=umm.MODE_CUMULATIVE)
        for seed in range(100, 103):
            prev = self._epochs(seed=seed, idx=5, snr=5.0)
            out = dec.decode_epochs(prev)
            assert out.label == 5
            state = dec.update_cumulative(state, prev, out)

        def margin(out):
            others = np.delete(out.scores, 5)
            return out.scores[5] - others.max()

        base, boosted = [], []
        for seed in range(10):
            cur = self._epochs(seed=seed, idx=5, snr=0.15)
            base.append(margin(dec.decode_epochs(cur)))
            boosted.append(margin(dec.decode_epochs(cur, state)))
        assert np.mean(boosted) > np.mean(base)

    def test_confidence_nondecreasing_on_repeats(self):
        dec = UmmDecoder(CODES, 1)
        ep = self._epochs(seed=3, idx=7, snr=1.0)
        state = UmmState(mode=umm.MODE_CUMULATIVE)
        confidences = []
        for _ in range(3):
            out = dec.decode_epochs(ep, state)
            confidences.append(out.confidence)
            state = dec.update_cumulative(state, ep, out)
        assert confidences[1] >= confidences[0] - 1e-9
        assert confidences[2] >= confidences[1] - 1e-9

    def test_shape_mismatch(self):
        dec = UmmDecoder(CODES, 1)
        state = UmmState(mode=umm.MODE_CUMULATIVE)
        ep = self._epochs()
        out = DecodeOutcome(label=0, scores=np.zeros(20), confidence=0.5)
        state = dec.update_cumulative(state, ep, out)
        small = slice_epochs(Trial(samples=np.zeros((4, 120))))
        with pytest.raises(ShapeError):
            dec.update_cumulative(state, small, out)
