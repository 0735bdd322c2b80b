"""Tests for repro.protocols.base."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miners import Allocation
from repro.protocols import base
from repro.protocols.base import (
    EnsembleState,
    binomial_from_uniforms,
    sample_winners,
)
from repro.protocols.ml_pos import MultiLotteryPoS


class TestSampleWinners:
    def test_deterministic_rows(self, rng):
        probabilities = np.array([[1.0, 0.0], [0.0, 1.0]])
        winners = sample_winners(probabilities, rng)
        assert winners.tolist() == [0, 1]

    def test_empirical_frequencies(self, rng):
        probabilities = np.tile([0.2, 0.3, 0.5], (100_000, 1))
        winners = sample_winners(probabilities, rng)
        freq = np.bincount(winners, minlength=3) / winners.size
        np.testing.assert_allclose(freq, [0.2, 0.3, 0.5], atol=0.01)

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            sample_winners(np.array([0.5, 0.5]), rng)

    def test_winners_in_range(self, rng):
        probabilities = np.tile([0.25] * 4, (1000, 1))
        winners = sample_winners(probabilities, rng)
        assert winners.min() >= 0
        assert winners.max() <= 3


def binomial_pmf(n, p):
    return np.array([
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)
    ])


def chi_square(counts, pmf, least_expected=5.0):
    """Pearson's statistic and degrees of freedom; the bins expected
    under ``least_expected`` times are lumped into one."""
    expected = pmf * counts.sum()
    kept = expected >= least_expected
    observed = list(counts[kept]) + [counts[~kept].sum()]
    expected = list(expected[kept]) + [expected[~kept].sum()]
    if expected[-1] == 0.0:
        observed.pop(), expected.pop()
    observed, expected = np.array(observed), np.array(expected)
    return float(((observed - expected) ** 2 / expected).sum()), len(observed) - 1


#: (p, u) rows: any success probability, any uniform in [0, 1).
ROWS = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
    min_size=1,
    max_size=30,
)


class TestBinomialFromUniforms:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.7, 0.93])
    @pytest.mark.parametrize("n", [1, 4, 32, 128])
    def test_matches_the_exact_binomial_law(self, n, p):
        from scipy import stats

        rng = np.random.default_rng(4000 + n)
        counts = np.zeros(n + 1, np.int64)
        for _ in range(10):  # 200k draws, in batches to bound the tables
            draws = binomial_from_uniforms(
                n, np.full(20_000, p), rng.random(20_000)
            )
            counts += np.bincount(draws, minlength=n + 1)
        statistic, dof = chi_square(counts, binomial_pmf(n, p))
        assert stats.chi2.sf(statistic, dof) > 1e-3, (statistic, dof)

    @given(rows=ROWS, n=st.sampled_from([1, 2, 4, 32, 128, 1000]),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_rows_draw_depends_on_that_row_alone(self, rows, n, data):
        p, u = (np.array(column) for column in zip(*rows))
        drawn = binomial_from_uniforms(n, p, u)
        assert drawn.dtype == np.int64
        assert ((drawn >= 0) & (drawn <= n)).all()
        for row in range(len(p)):
            alone = binomial_from_uniforms(n, p[row:row + 1], u[row:row + 1])
            assert alone[0] == drawn[row]
        cut = data.draw(st.integers(0, len(p)), label="cut")
        parts = [
            binomial_from_uniforms(n, p[:cut], u[:cut]),
            binomial_from_uniforms(n, p[cut:], u[cut:]),
        ]
        np.testing.assert_array_equal(np.concatenate(parts), drawn)

    def test_rows_past_the_first_bound_extend_to_the_same_draws(
        self, monkeypatch
    ):
        # The bound only saves work: rows built from a bound of one CDF
        # row extend until every uniform lies at or below its last row.
        rng = np.random.default_rng(8)
        p, u = rng.random(500), rng.random(500)
        expected = binomial_from_uniforms(32, p, u)
        monkeypatch.setattr(base, "_cdf_rows", lambda n, p, u: 1)
        np.testing.assert_array_equal(binomial_from_uniforms(32, p, u), expected)

    @pytest.mark.parametrize("n", [32, 300, 1000])
    def test_equals_a_full_table_count(self, n):
        # Past 255 CDF rows the flags are counted a byte-sized pass at a
        # time; a plain int64 count over all n rows must agree.
        rng = np.random.default_rng(n)
        p = np.concatenate([rng.random(200), [0.5, 0.5, 0.4999, 0.5001]])
        u = np.concatenate([rng.random(200), [1 - 2**-53, 0.0, 0.9999, 0.9999]])
        low = np.minimum(p, 1.0 - p)
        high = 1.0 - low
        ratio = low / high
        cdf = np.empty((n, len(p)))
        cdf[0] = pmf = high**n
        for k in range(1, n):
            pmf = (n + 1 - k) / k * ratio * pmf
            cdf[k] = cdf[k - 1] + pmf
        expected = (cdf < u).sum(axis=0)
        expected = np.where(p > 0.5, n - expected, expected)
        np.testing.assert_array_equal(binomial_from_uniforms(n, p, u), expected)

    def test_writes_into_out(self):
        rng = np.random.default_rng(9)
        p, u = rng.random(64), rng.random(64)
        out = np.empty(64, np.int64)
        assert binomial_from_uniforms(32, p, u, out=out) is out
        np.testing.assert_array_equal(out, binomial_from_uniforms(32, p, u))

    def test_a_uniform_on_a_step_takes_the_lower_count(self):
        # X counts the CDF entries strictly below u, as NumPy's inversion
        # steps on only while U > pmf: F_0 = 0.5 for Bin(1, 1/2), and
        # F_1 = 0.75 for Bin(2, 1/2).
        np.testing.assert_array_equal(
            binomial_from_uniforms(1, np.array([0.5]), np.array([0.5])), [0]
        )
        np.testing.assert_array_equal(
            binomial_from_uniforms(2, np.array([0.5]), np.array([0.75])), [1]
        )

    def test_certain_and_impossible_rows(self):
        u = np.array([0.0, 0.5, 0.999999])
        np.testing.assert_array_equal(
            binomial_from_uniforms(7, np.zeros(3), u), [0, 0, 0]
        )
        np.testing.assert_array_equal(
            binomial_from_uniforms(7, np.ones(3), u), [7, 7, 7]
        )


class TestEnsembleState:
    def test_shapes(self, two_miners):
        protocol = MultiLotteryPoS(0.01)
        state = protocol.make_state(two_miners, trials=7)
        assert state.trials == 7
        assert state.miners == 2
        assert state.round_index == 0
        np.testing.assert_allclose(state.rewards, 0.0)

    def test_stake_shares_normalised(self, two_miners):
        protocol = MultiLotteryPoS(0.01)
        state = protocol.make_state(two_miners, trials=3)
        shares = state.stake_shares()
        np.testing.assert_allclose(shares.sum(axis=1), 1.0)
        np.testing.assert_allclose(shares[0], [0.2, 0.8])

    def test_reward_fractions_requires_positive_total(self, two_miners):
        protocol = MultiLotteryPoS(0.01)
        state = protocol.make_state(two_miners, trials=2)
        with pytest.raises(ValueError):
            state.reward_fractions(0.0)


class TestProtocolInterface:
    def test_total_issued(self):
        protocol = MultiLotteryPoS(0.01)
        assert protocol.total_issued(100) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            protocol.total_issued(0)

    def test_advance_many_equals_repeated_step(self, two_miners):
        protocol = MultiLotteryPoS(0.01)
        rng1 = np.random.default_rng(99)
        rng2 = np.random.default_rng(99)
        state1 = protocol.make_state(two_miners, trials=20)
        state2 = protocol.make_state(two_miners, trials=20)
        protocol.advance_many(state1, 10, rng1)
        for _ in range(10):
            protocol.step(state2, rng2)
        np.testing.assert_allclose(state1.stakes, state2.stakes)
        np.testing.assert_allclose(state1.rewards, state2.rewards)
        assert state1.round_index == state2.round_index == 10

    def test_rejects_non_positive_reward(self):
        with pytest.raises(ValueError):
            MultiLotteryPoS(0.0)
        with pytest.raises(ValueError):
            MultiLotteryPoS(-0.01)

    def test_repr(self):
        assert "ML-PoS" in repr(MultiLotteryPoS(0.01))
