"""Statistical reproduction of the paper's headline claims.

These integration tests run the full pipeline (protocol -> engine ->
fairness analysis) at reduced but statistically meaningful scale and
check each theorem's observable consequence.
"""

import math

import numpy as np
import pytest

from repro.core.game import MiningGame
from repro.core.miners import Allocation
from repro.protocols import (
    CompoundPoS,
    FairSingleLotteryPoS,
    MultiLotteryPoS,
    ProofOfWork,
    RewardWithholding,
    SingleLotteryPoS,
)
from repro.sim.engine import simulate
from repro.sim.events import StakeTopUp
from repro.theory.bounds import PoWFairnessBound
from repro.theory.polya import ml_pos_fair_probability, ml_pos_limit_std


@pytest.fixture(scope="module")
def allocation():
    return Allocation.two_miners(0.2)


class TestTheorem32And42PoW:
    """PoW: expectational fairness always; robust fairness for large n."""

    def test_both_fairness_types(self, allocation):
        report = MiningGame(ProofOfWork(0.01), allocation).play(
            horizon=4000, trials=2000, seed=1
        )
        assert report.expectational.is_fair
        assert report.robust.is_fair
        # Theorem 4.2's sufficient n (~3745) indeed suffices.
        n_sufficient = PoWFairnessBound(0.1, 0.1, 0.2).required_blocks()
        assert report.horizon >= n_sufficient
        assert report.consistent_with_theory()

    def test_convergence_around_one_thousand(self, allocation):
        # Figure 2(a)/Table 1: the empirical convergence happens near
        # n ~ 1000, well before the conservative Hoeffding bound.
        result = simulate(
            ProofOfWork(0.01), allocation, 3000, trials=4000,
            checkpoints=list(range(200, 3001, 200)), seed=2,
        )
        time = result.convergence_time()
        assert 400 <= time <= 1600


class TestTheorem33And43MLPoS:
    """ML-PoS: fair in expectation; not robust at w=0.01."""

    def test_expectational_but_not_robust(self, allocation):
        report = MiningGame(MultiLotteryPoS(0.01), allocation).play(
            horizon=5000, trials=2000, seed=3
        )
        assert report.expectational.is_fair
        assert not report.robust.is_fair
        assert math.isinf(report.convergence_time)

    def test_unfair_probability_matches_beta_limit(self, allocation):
        # The terminal unfair probability approaches the Beta-limit
        # prediction 1 - [I_{1.1a} - I_{0.9a}](a/w, b/w).
        result = simulate(
            MultiLotteryPoS(0.01), allocation, 5000, trials=4000, seed=4
        )
        empirical = result.robust_verdict().unfair_probability
        limit = 1.0 - ml_pos_fair_probability(0.2, 0.01, 0.1)
        assert empirical == pytest.approx(limit, abs=0.05)

    def test_tiny_reward_restores_robustness(self, allocation):
        report = MiningGame(MultiLotteryPoS(1e-4), allocation).play(
            horizon=5000, trials=2000, seed=5
        )
        assert report.robust.is_fair

    def test_spread_tracks_beta_limit_across_rewards(self, allocation):
        # The terminal spread of lambda_A follows the Beta limit's std,
        # which widens with the block reward w.
        spread = {}
        for reward in (1e-3, 1e-2, 1e-1):
            result = simulate(
                MultiLotteryPoS(reward), allocation, 3000, trials=800, seed=34
            )
            spread[reward] = float(result.final_fractions().std())
            assert spread[reward] == pytest.approx(
                ml_pos_limit_std(0.2, reward), rel=0.35
            )
        assert spread[1e-3] < spread[1e-2] < spread[1e-1]


class TestTheorem34And49SLPoS:
    """SL-PoS: unfair in expectation; monopolises almost surely."""

    def test_first_block_expectation(self, allocation):
        result = simulate(
            SingleLotteryPoS(0.01), allocation, 1,
            trials=40_000, checkpoints=[1], seed=6,
        )
        assert result.final_fractions().mean() == pytest.approx(
            0.125, abs=0.01
        )

    def test_reward_fraction_decays(self, allocation):
        result = simulate(
            SingleLotteryPoS(0.01), allocation, 10_000,
            trials=1000, checkpoints=[100, 1000, 10_000], seed=7,
        )
        means = result.summary().mean
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.06

    def test_unfair_probability_reaches_one(self, allocation):
        result = simulate(
            SingleLotteryPoS(0.01), allocation, 2000, trials=1000, seed=8
        )
        assert result.robust_verdict().unfair_probability > 0.99


class TestTheorem35And410CPoS:
    """C-PoS: fair in expectation and (far) more robust than ML-PoS."""

    def test_both_fairness_types_at_paper_setting(self, allocation):
        report = MiningGame(
            CompoundPoS(0.01, 0.1, 32), allocation
        ).play(horizon=2000, trials=2000, seed=9)
        assert report.expectational.is_fair
        assert report.robust.is_fair
        assert report.consistent_with_theory()

    def test_inflation_reduces_unfairness(self, allocation):
        unfair = {}
        for inflation in (0.0, 0.1, 0.2):
            result = simulate(
                CompoundPoS(0.01, inflation, 32), allocation,
                2000, trials=1500, seed=10,
            )
            unfair[inflation] = result.robust_verdict().unfair_probability
        assert unfair[0.1] < unfair[0.0]
        assert unfair[0.2] <= unfair[0.1] + 0.02  # monotone up to noise
        assert unfair[0.1] < 0.15

    def test_more_shards_reduce_unfairness(self, allocation):
        # Theorem 4.10's 1/P law: each step up in P lowers the unfair
        # probability.
        unfair = []
        for shards in (1, 4, 16, 32, 64):
            result = simulate(
                CompoundPoS(0.05, 0.0, shards), allocation,
                1500, trials=1500, seed=11,
            )
            unfair.append(result.robust_verdict().unfair_probability)
        assert all(fewer > more for fewer, more in zip(unfair, unfair[1:]))


class TestSection62And63Remedies:
    """FSL-PoS restores expectational fairness; withholding adds robustness."""

    def test_fsl_restores_expectation(self, allocation):
        report = MiningGame(FairSingleLotteryPoS(0.01), allocation).play(
            horizon=3000, trials=2000, seed=12
        )
        assert report.expectational.is_fair

    def test_withholding_improves_robustness(self, allocation):
        # Figure 6(b): vesting collapses the envelope.  Our measured
        # unfair probability drops from ~0.45 to ~0.16 at the paper's
        # parameters (the paper's plot suggests slightly tighter; the
        # bounds below leave room for that gap).
        plain = MiningGame(FairSingleLotteryPoS(0.01), allocation).play(
            horizon=5000, trials=1500, seed=13
        )
        vested = MiningGame(
            RewardWithholding(FairSingleLotteryPoS(0.01), 1000), allocation
        ).play(horizon=5000, trials=1500, seed=13)
        assert (
            vested.robust.unfair_probability
            < 0.5 * plain.robust.unfair_probability
        )
        assert vested.robust.unfair_probability < 0.25
        assert vested.expectational.is_fair

    def test_longer_vesting_tightens_lambda(self, allocation):
        # A longer vesting period freezes the lottery's stakes for
        # longer, so lambda_A spreads less.
        spread = {}
        for period in (100, 500, 2000):
            result = simulate(
                RewardWithholding(FairSingleLotteryPoS(0.01), period),
                allocation, 2000, trials=800, seed=33,
            )
            spread[period] = float(result.final_fractions().std())
        assert spread[2000] < spread[500] < spread[100]


class TestSection542TopUpTiming:
    """Early stake buys more reward than late stake under compounding."""

    def test_early_top_up_outearns_late(self, allocation):
        # Section 5.4.2: the same top-up buys more reward the earlier
        # it lands, because it compounds through the urn's feedback.
        horizon, amount = 2000, 0.25
        means = {}
        for label, at_round in (("early", 0), ("late", horizon // 2)):
            result = simulate(
                MultiLotteryPoS(0.01), allocation, horizon,
                trials=1500, seed=36,
                events=[StakeTopUp(round_index=at_round, miner=0, amount=amount)],
            )
            means[label] = float(result.final_fractions().mean())
        assert means["early"] > means["late"] + 0.02
        # Both exceed the untouched share of 0.2.
        assert means["late"] > 0.2


class TestProtocolRanking:
    """Contribution (2): fairness ranking PoW > C-PoS > ML-PoS > SL-PoS."""

    def test_unfair_probability_ordering(self, allocation):
        horizon, trials = 3000, 1500
        protocols = [
            ProofOfWork(0.01),
            CompoundPoS(0.01, 0.1, 32),
            MultiLotteryPoS(0.01),
            SingleLotteryPoS(0.01),
        ]
        unfair = []
        for seed, protocol in enumerate(protocols, start=20):
            result = simulate(
                protocol, allocation, horizon, trials=trials, seed=seed
            )
            unfair.append(result.robust_verdict().unfair_probability)
        pow_unfair, c_pos_unfair, ml_pos_unfair, sl_pos_unfair = unfair
        # The two robustly-fair protocols sit below delta; between them
        # the difference is sampling noise at this horizon.
        assert pow_unfair < 0.1
        assert c_pos_unfair < 0.1
        # The gaps to the unfair protocols are material, not noise.
        assert max(pow_unfair, c_pos_unfair) < ml_pos_unfair - 0.1
        assert ml_pos_unfair < sl_pos_unfair - 0.1
        assert sl_pos_unfair > 0.9
