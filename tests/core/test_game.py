"""Tests for repro.core.game (the MiningGame facade and predictions)."""

import pytest

from repro.core.game import MiningGame, predict
from repro.core.miners import Allocation
from repro.protocols import (
    AlgorandPoS,
    CompoundPoS,
    EOSDelegatedPoS,
    FairSingleLotteryPoS,
    FilecoinStorage,
    MultiLotteryPoS,
    NeoPoS,
    ProofOfWork,
    RewardWithholding,
    SingleLotteryPoS,
)


class TestPredict:
    def test_pow_prediction(self):
        prediction = predict(ProofOfWork(0.01), 0.2, 10_000)
        assert prediction.expectational is True
        assert prediction.robust is True  # n=10000 > ln(20)/(2*0.04*0.01) ~ 3745

    def test_pow_short_horizon_inconclusive(self):
        prediction = predict(ProofOfWork(0.01), 0.2, 100)
        assert prediction.expectational is True
        assert prediction.robust is None

    def test_sl_pos_prediction(self):
        prediction = predict(SingleLotteryPoS(0.01), 0.2, 10_000)
        assert prediction.expectational is False
        assert prediction.robust is False

    def test_ml_pos_small_reward_certified(self):
        prediction = predict(MultiLotteryPoS(1e-5), 0.2, 1_000_000)
        assert prediction.expectational is True
        assert prediction.robust is True

    def test_ml_pos_large_reward_inconclusive(self):
        prediction = predict(MultiLotteryPoS(0.01), 0.2, 1_000_000)
        assert prediction.robust is None

    def test_c_pos_beats_ml_pos_at_same_reward(self):
        # Paper headline: at w=0.01, v=0.1, P=32 the C-PoS bound is
        # satisfiable while the ML-PoS one is not.
        c_pos = predict(CompoundPoS(0.01, 0.1, 32), 0.2, 1_000_000)
        ml_pos = predict(MultiLotteryPoS(0.01), 0.2, 1_000_000)
        assert c_pos.robust is True
        assert ml_pos.robust is None

    def test_fsl_prediction_mirrors_ml(self):
        prediction = predict(FairSingleLotteryPoS(1e-5), 0.2, 1_000_000)
        assert prediction.expectational is True
        assert prediction.robust is True

    def test_withholding_wrapper(self):
        inner = FairSingleLotteryPoS(0.01)
        prediction = predict(RewardWithholding(inner, 100), 0.2, 10_000)
        assert prediction.expectational is True
        assert "6.3" in prediction.source

    def test_neo_treated_as_pow(self):
        prediction = predict(NeoPoS(0.01), 0.2, 10_000)
        assert prediction.expectational is True

    def test_algorand_always_fair(self):
        prediction = predict(AlgorandPoS(0.1), 0.2, 10)
        assert prediction.expectational is True
        assert prediction.robust is True

    def test_eos_never_fair(self):
        prediction = predict(EOSDelegatedPoS(0.01, 0.1), 0.2, 10_000)
        assert prediction.expectational is False
        assert prediction.robust is False

    def test_unknown_protocol_returns_open(self):
        prediction = predict(FilecoinStorage(0.01, 0.5), 0.2, 1000)
        assert prediction.expectational is None
        assert prediction.robust is None


class TestMiningGame:
    def test_play_pow(self, two_miners):
        game = MiningGame(ProofOfWork(0.01), two_miners)
        report = game.play(horizon=2000, trials=400, seed=42)
        assert report.expectational.is_fair
        assert report.robust.is_fair
        assert report.consistent_with_theory()

    def test_play_sl_pos_unfair(self, two_miners):
        game = MiningGame(SingleLotteryPoS(0.01), two_miners)
        report = game.play(horizon=2000, trials=400, seed=42)
        assert not report.expectational.is_fair
        assert not report.robust.is_fair
        assert report.consistent_with_theory()

    def test_render_contains_key_fields(self, two_miners):
        game = MiningGame(ProofOfWork(0.01), two_miners)
        report = game.play(horizon=500, trials=100, seed=1)
        text = report.render()
        assert "PoW" in text
        assert "unfair probability" in text
        assert "theory source" in text

    def test_simulate_returns_ensemble(self, two_miners):
        game = MiningGame(MultiLotteryPoS(0.01), two_miners)
        result = game.simulate(horizon=100, trials=50, seed=3)
        assert result.trials == 50
        assert result.horizon == 100

    def test_custom_epsilon_delta(self, two_miners):
        game = MiningGame(ProofOfWork(0.01), two_miners)
        report = game.play(
            horizon=500, trials=100, seed=1, epsilon=0.5, delta=0.5
        )
        assert report.epsilon == 0.5
        assert report.delta == 0.5


class TestSimulateKnobForwarding:
    """simulate/play must forward every knob on both execution paths."""

    def test_events_forwarded_on_serial_path(self, two_miners):
        from repro.sim.events import StakeTopUp

        game = MiningGame(ProofOfWork(0.01), two_miners)
        boosted = game.simulate(
            horizon=200, trials=400, seed=5,
            events=(StakeTopUp(round_index=0, miner=0, amount=0.3),),
        )
        plain = game.simulate(horizon=200, trials=400, seed=5)
        assert (
            boosted.final_fractions().mean() > plain.final_fractions().mean()
        )

    def test_events_forwarded_on_sharded_path(self, two_miners, tmp_path):
        from repro.sim.events import StakeTopUp

        # 1,000 trials plan two shards, so the events must reach both.
        game = MiningGame(ProofOfWork(0.01), two_miners)
        boosted = game.simulate(
            horizon=200, trials=1000, seed=5, cache=tmp_path,
            events=(StakeTopUp(round_index=0, miner=0, amount=0.3),),
        )
        plain = game.simulate(
            horizon=200, trials=1000, seed=5, cache=tmp_path
        )
        assert (
            boosted.final_fractions().mean() > plain.final_fractions().mean()
        )

    def test_record_terminal_stakes_forwarded_both_paths(
        self, two_miners, tmp_path
    ):
        game = MiningGame(MultiLotteryPoS(0.01), two_miners)
        serial = game.simulate(
            horizon=50, trials=20, seed=1, record_terminal_stakes=False
        )
        sharded = game.simulate(
            horizon=50, trials=20, seed=1, record_terminal_stakes=False,
            cache=tmp_path,
        )
        assert serial.terminal_stakes is None
        assert sharded.terminal_stakes is None

    def test_unknown_kernel_raises_both_paths(self, two_miners):
        game = MiningGame(MultiLotteryPoS(0.01), two_miners)
        with pytest.raises(ValueError, match="kernel"):
            game.simulate(horizon=50, trials=20, seed=1, kernel="fast")
        with pytest.raises(ValueError, match="kernel"):
            game.simulate(
                horizon=50, trials=20, seed=1, workers=2, kernel="fast"
            )

    def test_play_forwards_events(self, two_miners):
        from repro.sim.events import StakeTopUp

        game = MiningGame(ProofOfWork(0.01), two_miners)
        report = game.play(
            horizon=200, trials=400, seed=5,
            events=(StakeTopUp(round_index=0, miner=0, amount=0.3),),
        )
        assert report.expectational.sample_mean > 0.25
