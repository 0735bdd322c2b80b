"""Perf contract: a disabled tracer costs <2% on the kernel hot loop.

Mirrors the ``bench_kernels`` smoke configuration (ML-PoS, the paper's
headline protocol).  The instrumented entry point
(:func:`~repro.sim.kernels.batched_advance` under the ambient
:data:`~repro.obs.NULL_TRACER`) is timed against calling the registered
kernel directly — the exact code the tracer guard wraps — so the
measured gap *is* the telemetry overhead, not run-to-run noise in the
kernel itself.  The two paths are timed in pairs, back to back, with
the order alternating from pair to pair: host speed that drifts over
the run moves both calls of a pair alike and cancels in the pair's
ratio, and the median ratio discards the pairs a scheduler hiccup hit.

Excluded from the default run by the ``-m "not perf"`` addopts; CI's
perf-smoke job runs it explicitly.
"""

import time

import numpy as np
import pytest

from repro.core.miners import Allocation
from repro.obs.trace import NULL_TRACER, get_tracer
from repro.protocols import MultiLotteryPoS
from repro.sim.kernels import batched_advance, find_kernel
from repro.sim.rng import RandomSource

pytestmark = pytest.mark.perf

# The bench_kernels --smoke configuration: ML-PoS, 4,000 trials,
# 600 rounds per advance.
TRIALS = 4_000
ROUNDS = 600
SEGMENTS = 1
PAIRS = 21
MAX_OVERHEAD = 0.02


def _elapsed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _paired_ratios(instrumented, direct, pairs=PAIRS):
    """``instrumented / direct`` time ratios, one per back-to-back pair,
    alternating which path runs first."""
    ratios = []
    for pair in range(pairs):
        if pair % 2:
            direct_s = _elapsed(direct)
            instrumented_s = _elapsed(instrumented)
        else:
            instrumented_s = _elapsed(instrumented)
            direct_s = _elapsed(direct)
        ratios.append(instrumented_s / direct_s)
    return ratios


class TestDisabledTracerOverhead:
    def test_ambient_default_is_disabled(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_disabled_tracer_under_two_percent_on_kernel_hot_loop(self):
        protocol = MultiLotteryPoS(reward=0.01)
        allocation = Allocation.two_miners(0.2)
        kernel = find_kernel(protocol)
        assert kernel is not None  # ML-PoS always has a fused kernel

        def run_instrumented():
            state = protocol.make_state(allocation, TRIALS)
            rng = RandomSource(77).spawn_one().generator()
            for _ in range(SEGMENTS):
                batched_advance(protocol, state, ROUNDS, rng)
            return state

        def run_direct():
            state = protocol.make_state(allocation, TRIALS)
            rng = RandomSource(77).spawn_one().generator()
            from repro.sim.kernels import ScratchBuffers

            state.scratch = ScratchBuffers()
            for _ in range(SEGMENTS):
                kernel(protocol, state, ROUNDS, rng, state.scratch, None)
            return state

        # Same bits either way — the guard must be observationally
        # invisible, not just cheap.
        np.testing.assert_array_equal(
            run_instrumented().stakes, run_direct().stakes
        )

        # Warm-up, then the median of the paired ratios.
        run_instrumented(), run_direct()
        ratios = _paired_ratios(run_instrumented, run_direct)
        overhead = float(np.median(ratios)) - 1.0
        assert overhead < MAX_OVERHEAD, (
            f"disabled-tracer overhead {overhead:.2%} exceeds "
            f"{MAX_OVERHEAD:.0%} (median of {len(ratios)} paired ratios; "
            f"range {min(ratios):.3f}-{max(ratios):.3f})"
        )
