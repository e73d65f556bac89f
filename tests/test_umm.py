from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from cvepdecode import errors, umm
from cvepdecode.codegen import BitSequence, code_bits, default_code_set
from cvepdecode.encoding import n_cycles_to_cover
from cvepdecode.errors import (
    DegenerateCovariance,
    DegenerateHypothesis,
    InsufficientEpochs,
    ShapeError,
    TrialTooShort,
)
from cvepdecode.evaluate import DecoderBank, decode_session
from cvepdecode.outcome import DecodeOutcome
from cvepdecode.sigproc import Trial
from cvepdecode.simulate import ForwardModel, Session, synthesize_session, synthesize_trial
from cvepdecode.umm import (
    FRAMES_PER_EPOCH,
    CovModel,
    UmmDecoder,
    UmmState,
    block_levinson_solve,
    estimate_covariance,
    score_hypotheses,
    slice_epochs,
)

CODES = default_code_set(20)


def _trial_from_array(x):
    return Trial(samples=np.asarray(x, dtype=float))


def _dense_epochs(x):
    """Reference (K, 54 * C) epoch matrix of a (C, T) trial, sliced window
    by window: epoch k is samples 3k .. 3k + 53, time-major features."""
    n_epochs = (x.shape[1] - 54) // 3 + 1
    return np.stack([x[:, 3 * k : 3 * k + 54].T.reshape(-1) for k in range(n_epochs)])


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


def _scatter_from_grams(grams):
    """Reference (D, D) scatter of frame-block grams: block (a, a + l) is
    grams[a, :, l, :], the block below the diagonal its transpose, filled
    block by block. Asserts that entries with a + l >= 18 are exactly 0."""
    n, width = grams.shape[:2]
    dense = np.zeros((n * width, n * width))
    for a in range(n):
        assert not grams[a, :, n - a :].any()
        for lag in range(n - a):
            block = grams[a, :, lag, :]
            b = a + lag
            dense[a * width : (a + 1) * width, b * width : (b + 1) * width] = block
            dense[b * width : (b + 1) * width, a * width : (a + 1) * width] = block.T
    return dense


def _dense_covariance(epochs, n_channels, gamma=None):
    """Reference (tapered, shrunk lag blocks (54, C, C), gamma) of a (K, D)
    epoch matrix, from the dense sample covariance: the averages of its
    C x C block diagonals, tapered linearly to zero at the last lag and
    shrunk toward nu*I; ``gamma`` None selects the analytic Ledoit-Wolf
    intensity toward mu*I."""
    k, d = epochs.shape
    n_lags = d // n_channels
    centred = epochs - epochs.mean(axis=0)
    cov = centred.T @ centred / k
    if gamma is None:
        mu = np.trace(cov) / d
        delta2 = np.sum((cov - mu * np.eye(d)) ** 2) / d
        beta2 = (np.sum(np.sum(centred**2, axis=1) ** 2) / k**2 - np.sum(cov**2) / k) / d
        gamma = float(np.clip(beta2 / delta2, 0.0, 1.0)) if delta2 > 0 else 0.0
    blocks = np.zeros((n_lags, n_channels, n_channels))
    for lag in range(n_lags):
        for i in range(n_lags - lag):
            r, c = (i + lag) * n_channels, i * n_channels
            blocks[lag] += cov[r : r + n_channels, c : c + n_channels]
        blocks[lag] /= n_lags - lag
    blocks[0] = (blocks[0] + blocks[0].T) / 2.0
    blocks *= (1.0 - np.arange(n_lags) / n_lags)[:, None, None]
    nu = np.trace(blocks[0]) / n_channels
    blocks *= 1.0 - gamma
    blocks[0] += gamma * nu * np.eye(n_channels)
    return blocks, gamma


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
            epoch = ep.frames[k : k + FRAMES_PER_EPOCH].ravel()
            assert epoch[0] == 3 * k

    def test_too_short(self):
        with pytest.raises(TrialTooShort):
            slice_epochs(_trial_from_array(np.zeros((2, 40))))


def _within(got, want, floor, rel=1e-12):
    """max |got - want| within rel of the reference's magnitude; ``floor``,
    the statistic's scale on the data, stands in where the reference is 0
    (a single epoch has no scatter)."""
    return np.abs(got - want).max() <= rel * (np.abs(want).max() + floor)


def _random_codes(rng, n_epochs, n_codes=4):
    """Distinct codes, one bit per epoch, with at least one flash and one
    non-flash: of n_codes drawn, a repeat is dropped (two epochs leave one
    code)."""
    bits = rng.integers(0, 2, size=(n_codes, n_epochs))
    bits[:, 0], bits[:, -1] = 1, 0
    _, first = np.unique(bits, axis=0, return_index=True)
    return [BitSequence(bits=tuple(int(b) for b in row)) for row in bits[np.sort(first)]]


class TestTrialStatistics:
    """The statistics a TrialStats computes from the trial's frames against
    the same statistics of a dense epoch matrix sliced here."""

    @pytest.mark.parametrize("extra", [51, 52, 53])
    @pytest.mark.parametrize("n_epochs", [1, 2, 17, 18, 19, 235, 1873])
    @pytest.mark.parametrize("n_channels", [1, 2, 8])
    def test_matches_dense_epochs(self, n_channels, n_epochs, extra):
        rng = np.random.default_rng(1000 * n_channels + n_epochs + extra)
        x = rng.standard_normal((n_channels, 3 * n_epochs + extra))
        self._check(x, n_epochs, rng)

    def test_dc_offset(self):
        rng = np.random.default_rng(11)
        x = 1e4 + rng.standard_normal((8, 3 * 235 + 52))
        self._check(x, 235, rng)

    def _check(self, x, n_epochs, rng):
        ep = slice_epochs(_trial_from_array(x))
        # a mean difference does not move under a per-feature shift, so the
        # oracle slices the channel-centred samples and carries no rounding
        # of an offset that cancels
        epochs = _dense_epochs(x - x.mean(axis=1, keepdims=True))
        assert ep.n_epochs == epochs.shape[0] == n_epochs
        assert ep.n_features == epochs.shape[1]
        amplitude = np.abs(x - x.mean(axis=1, keepdims=True)).max()
        centred = epochs - epochs.mean(axis=0)
        grams, sq_norms4 = ep.centered_moments
        scatter = _scatter_from_grams(grams)
        assert _within(scatter, centred.T @ centred, amplitude**2)
        assert np.array_equal(scatter, scatter.T)
        want4 = np.sum(np.sum(centred**2, axis=1) ** 2)
        assert _within(sq_norms4, want4, (ep.n_features * amplitude**2) ** 2)

        if n_epochs == 1:
            with pytest.raises(DegenerateHypothesis):
                UmmDecoder(CODES[:1], 1)._deltas(ep, [0])
            return
        codes = _random_codes(rng, n_epochs)
        dec = UmmDecoder(codes, n_cycles_to_cover(codes[0], ep.n_samples))
        deltas = dec._deltas(ep, np.arange(len(codes)))
        for i, code in enumerate(codes):
            bits = code.array == 1
            want = epochs[bits].mean(axis=0) - epochs[~bits].mean(axis=0)
            assert _within(deltas[i], want, amplitude)

    def test_cumulative_state_sums_dense_quantities(self):
        rng = np.random.default_rng(12)
        codes = _random_codes(rng, 235)
        dec = UmmDecoder(codes, 2)
        state = UmmState(mode=umm.MODE_CUMULATIVE)
        scatter, sq_norms4, delta_sum = 0.0, 0.0, 0.0
        updates = [(0, 0.5, 0.0), (2, 1.0, 50.0), (1, 0.0, -3.0), (2, 0.25, 1e4)]
        for label, weight, offset in updates:
            x = offset + rng.standard_normal((8, 3 * 235 + 51))
            # the oracle centres each channel first: no statistic summed
            # here moves under a per-feature shift
            epochs = _dense_epochs(x - x.mean(axis=1, keepdims=True))
            centred = epochs - epochs.mean(axis=0)
            scatter = scatter + centred.T @ centred
            sq_norms4 += np.sum(np.sum(centred**2, axis=1) ** 2)
            bits = codes[label].array == 1
            delta_sum = delta_sum + weight * (
                epochs[bits].mean(axis=0) - epochs[~bits].mean(axis=0)
            )
            outcome = DecodeOutcome(label=label, scores=np.zeros(len(codes)), confidence=weight)
            state = dec.update_cumulative(state, slice_epochs(_trial_from_array(x)), outcome)
        assert state.n_trials_seen == len(updates)
        assert state.n_epochs == 235 * len(updates)
        assert state.weight_total == sum(w for _, w, _ in updates)
        assert _within(_scatter_from_grams(state.scatter), scatter, 0.0)
        assert _within(state.sq_norms4, sq_norms4, 0.0)
        assert _within(state.delta_sum, delta_sum, 0.0)


class TestMeanDifference:
    def test_definition(self):
        # a trial of period two frames: every flash epoch (even onset) is
        # x[0:54], every non-flash epoch x[3:57], so delta is their difference
        code = BitSequence(bits=(1, 0) * 9)  # 18 frames -> covers K epochs
        x = np.tile([2.5, 2.5, 2.5, 0.0, 0.0, 0.0], 18)[np.newaxis, :]
        ep = slice_epochs(_trial_from_array(x))
        v = x[0, 0:54] - x[0, 3:57]
        delta = UmmDecoder([code], 2)._deltas(ep, [0])[0]
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
            UmmDecoder([code], 5)._deltas(ep, [0])

    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.lists(st.integers(0, 1), min_size=2, max_size=38),
        others=st.lists(st.lists(st.integers(0, 1), min_size=40, max_size=40), max_size=3),
        order=st.permutations(range(5)),
        n_cycles=st.integers(1, 6),
        n_channels=st.sampled_from([1, 3, 8]),
        offset=st.sampled_from([0.0, 1e4]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_complement_is_the_exact_negation(
        self, bits, others, order, n_cycles, n_channels, offset, seed, data
    ):
        # a code and its complement weight the epochs by exactly negated
        # integers, so their differences are bitwise negations, on the
        # plain kernel and on the cycle fold, and far from the channels'
        # zero. (Centred samples of a 1e4 offset sit on a 2^-39 grid, where
        # every sum is exact; without the offset, rounding shows.)
        code = (0, 1, *bits)
        flip = tuple(1 - b for b in code)
        rows = list(dict.fromkeys([code, flip] + [tuple(o[: len(code)]) for o in others]))
        rows = [rows[i] for i in order if i < len(rows)]
        i, j = rows.index(code), rows.index(flip)
        n_cycles = max(n_cycles, -(-20 // len(code)))
        dec = UmmDecoder([BitSequence(bits=r) for r in rows], n_cycles)
        n_samples = data.draw(st.integers(60, dec.reach))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_channels, n_samples)) + offset
        d = dec._deltas(slice_epochs(_trial_from_array(x)), [i, j])
        assert np.array_equal(d[0], -d[1])


class TestCovariance:
    def test_white_epochs_give_scaled_identity(self):
        rng = np.random.default_rng(0)
        sigma = 1.7
        # 10 000 overlapping epochs of a white two-channel trial
        x = rng.normal(scale=sigma, size=(2, 3 * 10_000 + 51))
        ep = slice_epochs(_trial_from_array(x))
        assert ep.n_epochs == 10_000
        cov = umm._cov_model(*ep.centered_moments, ep.n_epochs, 0.0)
        assert np.trace(cov.blocks[0]) / 2 == pytest.approx(sigma**2, rel=0.05)
        off = np.concatenate([cov.blocks[lag].ravel() for lag in range(1, 54)])
        assert np.abs(off).max() < 0.05 * sigma**2

    def test_structured_solve_matches_dense(self):
        rng = np.random.default_rng(1)
        trial = synthesize_trial(CODES[0], ForwardModel(snr=1.0), 4.2, 7, 0)
        cov = estimate_covariance(slice_epochs(trial))
        dense = _dense_from_blocks(cov.blocks)
        v = rng.normal(size=len(dense))
        assert np.array_equal(umm._dense_toeplitz(cov.blocks), dense)
        expect = np.linalg.solve(dense, v)
        got = block_levinson_solve(cov.blocks, v)
        assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_full_shrinkage_is_scaled_identity(self):
        trial = synthesize_trial(CODES[1], ForwardModel(snr=1.0), 2.1, 3, 1)
        ep = slice_epochs(trial)
        cov = umm._cov_model(*ep.centered_moments, ep.n_epochs, 1.0)
        dense = umm._dense_toeplitz(cov.blocks)
        nu = dense[0, 0]
        assert np.allclose(dense, nu * np.eye(dense.shape[0]))

    @pytest.mark.parametrize(
        "n_channels, n_samples, offset",
        [(1, 3 * 235 + 51, 0.0), (3, 3 * 235 + 51, 0.0), (8, 3 * 235 + 51, 0.0),
         (3, 3 * 3 + 51, 0.0), (3, 3 * 235 + 53, 0.0), (8, 3 * 235 + 52, 1e4)],
        ids=["C1", "C3", "C8", "K3", "partial-frame", "dc-offset"],
    )
    def test_matches_dense_covariance(self, n_channels, n_samples, offset):
        rng = np.random.default_rng(n_channels + n_samples)
        # an AR(1) drive gives the lag blocks structure beyond white noise
        x = offset + rng.standard_normal((n_channels, n_samples)).cumsum(axis=1) * 0.1
        x += rng.standard_normal(x.shape)
        ep = slice_epochs(_trial_from_array(x))
        for gamma in (0.0, None):
            want, want_gamma = _dense_covariance(_dense_epochs(x), n_channels, gamma)
            cov = umm._cov_model(*ep.centered_moments, ep.n_epochs, gamma)
            assert _within(cov.blocks, want, 0.0)
            assert _within(cov.shrinkage_gamma, want_gamma, 1.0)

    def test_pooled_matches_dense_covariance(self):
        # the state's grams from two updates, pooled with a third trial,
        # against the dense covariance of the three trials' scatter
        rng = np.random.default_rng(21)
        dec = UmmDecoder(CODES, 2)
        state = UmmState(mode=umm.MODE_CUMULATIVE)
        trials = [rng.standard_normal((3, 3 * 235 + 51)) + off for off in (0.0, 5.0, -2.0)]
        out = DecodeOutcome(label=0, scores=np.zeros(len(CODES)), confidence=0.5)
        for x in trials[:2]:
            state = dec.update_cumulative(state, slice_epochs(_trial_from_array(x)), out)
        grams, sq_norms4 = slice_epochs(_trial_from_array(trials[2])).centered_moments
        cov = umm._cov_model(grams + state.scatter, sq_norms4 + state.sq_norms4, 3 * 235, None)
        # each trial centred on its own mean: the stacked epochs then have
        # zero mean, and the reference's centring leaves them as they are
        epochs = [_dense_epochs(x) for x in trials]
        want, gamma = _dense_covariance(np.concatenate([e - e.mean(axis=0) for e in epochs]), 3)
        assert _within(cov.blocks, want, 0.0)
        assert _within(cov.shrinkage_gamma, gamma, 1.0)

    def test_insufficient_epochs(self):
        ep = slice_epochs(_trial_from_array(np.zeros((1, 54))))
        assert ep.n_epochs == 1
        with pytest.raises(InsufficientEpochs):
            estimate_covariance(ep)

    def test_two_epochs_are_insufficient(self):
        # two centred epochs are opposite: their rank-1 scatter would leave
        # the model unshrunk and singular
        ep = slice_epochs(_trial_from_array(np.random.default_rng(3).normal(size=(8, 57))))
        assert ep.n_epochs == 2
        with pytest.raises(InsufficientEpochs, match="need at least 3 epochs, got 2"):
            estimate_covariance(ep)

    @pytest.mark.parametrize("n_channels", [1, 8])
    def test_lag_0_block_exactly_symmetric(self, n_channels):
        # centered_moments makes the lag-0 grams exactly symmetric, and the
        # lag sums keep that, one trial's or pooled
        rng = np.random.default_rng(n_channels)
        trials = [1e4 + rng.standard_normal((n_channels, 3 * 235 + 52)) for _ in range(3)]
        moments = [slice_epochs(_trial_from_array(x)).centered_moments for x in trials]
        pooled = (sum(g for g, _ in moments), sum(q for _, q in moments))
        for (grams, sq_norms4), n in ((moments[0], 235), (pooled, 3 * 235)):
            cov = umm._cov_model(grams, sq_norms4, n, None)
            assert np.array_equal(cov.blocks[0], cov.blocks[0].T)

    def test_symmetric_and_positive_definite(self):
        trial = synthesize_trial(CODES[2], ForwardModel(snr=0.2), 2.1, 9, 2)
        cov = estimate_covariance(slice_epochs(trial))
        dense = umm._dense_toeplitz(cov.blocks)
        assert np.allclose(dense, dense.T)
        linalg.cholesky(dense)  # raises if not PD


class TestBlockLevinson:
    @pytest.mark.parametrize("n, c", [(1, 1), (2, 3), (54, 8)])
    def test_dense_toeplitz_is_the_block_fill(self, n, c):
        rng = np.random.default_rng(n * 10 + c)
        lags = rng.normal(size=(n, c, c))
        lags[0] += lags[0].T
        dense = np.empty((n * c, n * c))
        for i in range(n):
            for j in range(n):
                block = lags[i - j] if i >= j else lags[j - i].T
                dense[i * c : (i + 1) * c, j * c : (j + 1) * c] = block
        got = umm._dense_toeplitz(lags)
        assert got.flags.c_contiguous
        assert np.array_equal(got, dense)
        assert np.array_equal(got, got.T)

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

    def test_nan_mean_difference_is_a_numerical_failure(self):
        blocks = np.zeros((3, 2, 2))
        blocks[0] = np.eye(2)
        deltas = np.ones((3, 6))
        deltas[1, 4] = np.nan
        with pytest.raises(errors.NumericalFailure, match="non-finite"):
            score_hypotheses(deltas, CovModel(blocks=blocks, shrinkage_gamma=0.0))

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


def _trial_4s(idx=4, seed=11, snr=0.3):
    """A real 4.2 s trial of 8 channels: D = 432, K = 235 epochs."""
    return synthesize_trial(CODES[idx], ForwardModel(snr=snr), 4.2, seed, idx)


class TestScoringOracles:
    def _deltas_and_cov(self):
        ep = slice_epochs(_trial_4s())
        deltas = UmmDecoder(CODES, 2)._deltas(ep, np.arange(len(CODES)))
        return deltas, estimate_covariance(ep)

    def test_scores_are_dense_mahalanobis_energies(self):
        deltas, cov = self._deltas_and_cov()
        assert deltas.shape == (20, 432)
        got = score_hypotheses(deltas, cov).scores
        dense = umm._dense_toeplitz(cov.blocks)
        want = np.einsum("nd,dn->n", deltas, np.linalg.solve(dense, deltas.T))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_scores_match_the_full_solve(self):
        deltas, cov = self._deltas_and_cov()
        got = score_hypotheses(deltas, cov).scores
        want = np.einsum("nd,dn->n", deltas, block_levinson_solve(cov.blocks, deltas.T))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("lag0", [0.0, -1.0], ids=["zero", "negative"])
    def test_not_positive_definite(self, lag0):
        blocks = np.zeros((3, 2, 2))
        blocks[0] = lag0 * np.eye(2)
        cov = CovModel(blocks=blocks, shrinkage_gamma=0.0)
        with pytest.raises(DegenerateCovariance):
            score_hypotheses(np.ones((2, 6)), cov)


def _count_lapack_calls(monkeypatch, names):
    calls = []

    def counted(name):
        original = getattr(umm.lapack, name)

        def call(a, *args, **kwargs):
            calls.append((name, a.shape))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(umm.lapack, name, call)

    for name in names:
        counted(name)
    return calls


@pytest.mark.parametrize("seed", [5, 6, 7])
@pytest.mark.parametrize("tag", ["umm_t11", "umm_tcw"])
def test_channel_offsets_leave_decisions_unchanged(tag, seed):
    # metamorphic: a constant offset per channel shifts every epoch alike,
    # so neither the scatter nor a mean difference, pooled or not, moves
    session = synthesize_session(1, ForwardModel(snr=0.05), seed=seed, dur_s=4.2)
    offsets = 1e6 * np.random.default_rng(0).uniform(-1.0, 1.0, (8, 1))
    shifted = Session(
        trials=[replace(t, samples=t.samples + offsets) for t in session.trials],
        codes=session.codes,
    )
    bank = DecoderBank(session.codes, 4.2)
    want = decode_session(session, tag, 4.2, bank)
    got = decode_session(shifted, tag, 4.2, bank)
    assert [o.label for o in got] == [o.label for o in want]
    for a, b in zip(got, want):
        assert np.abs(a.scores - b.scores).max() <= 5e-11 * np.abs(b.scores).max()


@pytest.mark.parametrize("pooled", [False, True], ids=["umm_t11", "umm_tcw"])
def test_decision_factors_once_and_solves_forward_only(monkeypatch, pooled):
    # one Cholesky factor and one forward solve over all 20 hypotheses; a
    # fall back to the full two-sided solve would show as a dpotrs call
    dec = UmmDecoder(CODES, 2)
    state = None
    if pooled:
        past = slice_epochs(_trial_4s(idx=9, seed=12))
        state = dec.update_cumulative(
            UmmState(mode=umm.MODE_CUMULATIVE), past, dec.decode_epochs(past)
        )
    calls = _count_lapack_calls(monkeypatch, ["dpotrf", "dtrtrs", "dpotrs"])
    out = dec.decode_epochs(slice_epochs(_trial_4s()), state)
    assert out.scores.shape == (20,)
    assert sorted(calls) == [("dpotrf", (432, 432)), ("dtrtrs", (432, 432))]


def _tied_groups(rows, complements):
    """The indices of equal label rows, or of equal-or-complementary ones,
    in groups, by brute-force comparison of the rows."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows.astype(int)):
        key = min(tuple(row), tuple(1 - row)) if complements else tuple(row)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _check_ties(out, groups):
    """Every group scores bit-equal; the label is its group's lowest index,
    and a winning group of two or more has confidence exactly 0.0."""
    for group in groups:
        assert np.array_equal(out.scores[group], np.full(len(group), out.scores[group[0]]))
    winners = next(g for g in groups if out.label in g)
    assert out.label == winners[0]
    if len(winners) > 1:
        assert out.confidence == 0.0


@pytest.mark.parametrize("n_samples", [60, 63, 66, 72, 90])
@pytest.mark.parametrize("tag", ["umm_t11", "umm_tcw"])
def test_tied_hypotheses_score_bit_equal(tag, n_samples):
    # at 3-13 epochs the default codes' label rows repeat, up to complement,
    # and noise cannot tell a group apart; a cumulative decision adds the
    # pooled difference to every row, so there only equal rows tie
    bits = code_bits(CODES)
    n_epochs = n_samples // 3 - FRAMES_PER_EPOCH + 1
    groups = _tied_groups(bits[:, np.arange(n_epochs) % bits.shape[1]], tag == "umm_t11")
    assert max(map(len, groups)) > 1
    dec = DecoderBank(CODES, 4.2).umm()
    rng = np.random.default_rng(0)
    state = UmmState(mode=umm.MODE_CUMULATIVE) if tag == "umm_tcw" else None
    for _ in range(40):
        ep = slice_epochs(_trial_from_array(rng.standard_normal((8, n_samples))))
        out = dec.decode_epochs(ep, state)
        _check_ties(out, groups)
        if state is not None:
            state = dec.update_cumulative(state, ep, out)


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
        assert np.allclose(state.delta_sum, 0.0)
        assert state.n_epochs == ep.n_epochs  # covariance still pooled

    def test_equal_weight_blend_idempotent(self):
        dec = UmmDecoder(CODES, 1)
        ep = self._epochs()
        out = dec.decode_epochs(ep)
        state = UmmState(mode=umm.MODE_CUMULATIVE)
        one = DecodeOutcome(label=out.label, scores=out.scores, confidence=0.7)
        s1 = dec.update_cumulative(state, ep, one)
        s2 = dec.update_cumulative(s1, ep, one)
        blended_two = s2.delta_sum / s2.weight_total
        blended_one = s1.delta_sum / s1.weight_total
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

    @pytest.mark.parametrize("n_trials_seen", [0, 1])
    @pytest.mark.parametrize(
        "name, shape",
        [("scatter", (18, 9, 18, 9)), ("delta_sum", (216,)), ("delta_sum", (432, 1))],
    )
    def test_sums_of_another_shape_refused(self, n_trials_seen, name, shape):
        # checked whether or not the state has seen a trial: a wrongly
        # shaped sum must not broadcast into the decision
        dec = UmmDecoder(CODES, 1)
        state = UmmState(mode=umm.MODE_CUMULATIVE, n_trials_seen=n_trials_seen)
        setattr(state, name, np.zeros(shape))
        ep = self._epochs()
        out = DecodeOutcome(label=0, scores=np.zeros(20), confidence=0.5)
        with pytest.raises(ShapeError, match=name):
            dec.decode_epochs(ep, state)
        with pytest.raises(ShapeError, match=name):
            dec.update_cumulative(state, ep, out)

    @pytest.mark.parametrize("dur_s", [4.2, 31.5])
    def test_fresh_state_decides_as_none(self, dur_s):
        # a fresh state is zero sums: pooling it changes nothing, bit for bit
        dec = UmmDecoder(CODES, 15)
        ep = slice_epochs(synthesize_trial(CODES[8], ForwardModel(snr=0.05), dur_s, 5, 8))
        instant = dec.decode_epochs(ep)
        fresh = dec.decode_epochs(ep, UmmState(mode=umm.MODE_CUMULATIVE))
        assert fresh.label == instant.label
        assert np.array_equal(fresh.scores, instant.scores)
        assert fresh.confidence == instant.confidence

    def test_update_requires_cumulative_mode(self):
        dec = UmmDecoder(CODES, 1)
        out = DecodeOutcome(label=0, scores=np.zeros(20), confidence=0.5)
        with pytest.raises(errors.ConfigError):
            dec.update_cumulative(UmmState(), self._epochs(), out)

    @pytest.mark.parametrize("label", [20, -1])
    def test_label_out_of_range(self, label):
        # -1 must not fold the trial into the last code's sums
        dec = UmmDecoder(CODES, 1)
        out = DecodeOutcome(label=label, scores=np.zeros(20), confidence=0.5)
        with pytest.raises(errors.LabelOutOfRange):
            dec.update_cumulative(UmmState(mode=umm.MODE_CUMULATIVE), self._epochs(), out)

    @pytest.mark.parametrize("confidence", [np.nan, -1.0, 2.0])
    def test_confidence_outside_unit_interval_refused(self, confidence):
        # the confidence weighs the trial's ERP sums: NaN or a negative
        # weight would poison the next decision, and above 1 it would count
        # the trial for more than itself
        dec = UmmDecoder(CODES, 1)
        out = DecodeOutcome(label=0, scores=np.zeros(20), confidence=confidence)
        with pytest.raises(errors.ConfidenceOutOfRange):
            dec.update_cumulative(UmmState(mode=umm.MODE_CUMULATIVE), self._epochs(), out)
