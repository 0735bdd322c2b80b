"""Fused batched advance kernels for the Monte Carlo engine.

The naive :meth:`~repro.protocols.base.IncentiveProtocol.advance_many`
loops ``step`` in Python: every round pays an ``rng.random`` call, a
fresh ``np.cumsum`` and several ``(trials, miners)`` temporaries, so at
paper scale (10,000 trials over thousands of rounds per grid cell)
interpreter and allocator overhead — not arithmetic — dominates.  This
module fuses whole checkpoint segments into far fewer NumPy dispatches
while staying **bit-identical** to the per-round loop:

* **Pre-drawn uniform blocks** — ``rng.random((n, trials))`` fills
  an array in C order from the same bit stream as ``n`` sequential
  ``rng.random(trials)`` calls, so batching the draws consumes the
  generator identically and every downstream comparison sees the same
  uniforms.  Blocks are chunked (:data:`DEFAULT_CHUNK_ROUNDS` rounds,
  capped by :data:`DEFAULT_CHUNK_BUDGET_BYTES`) so peak memory stays
  bounded at 100k-trial scale.
* **Scratch-buffer reuse** — a :class:`ScratchBuffers` pool hangs off
  ``state.scratch`` and every inner-loop array op writes into a
  preallocated buffer (``np.cumsum(..., out=)``, ``np.divide(...,
  out=)``), so the steady-state loop allocates nothing.
* **Identical arithmetic** — kernels perform the same floating-point
  operations in the same order as the naive loop (verified by the
  differential tests in ``tests/sim/test_kernels.py``).  Where a
  kernel replaces a scatter ``a[rows, winners] += w`` with a one-hot
  masked add, the non-winning lanes receive ``+0.0``, which is a
  bitwise no-op for the non-negative stakes/rewards arrays.
* **Identical sampler calls** — kernels draw only through
  ``rng.random`` and ``rng.multinomial``, as the naive loop does.  The
  two-miner C-PoS proposer draw is
  :func:`~repro.protocols.base.binomial_from_uniforms` over one uniform
  per trial-epoch in both paths: the naive step calls
  ``rng.random(trials)`` every epoch and inverts each row's CDF; the
  kernel reads the same uniforms from its pre-drawn blocks and the
  same draws, mostly, from a lookup table (:func:`_binomial_by_lookup`).
  While ``P * min(share, 1 - share) <= 30`` (every figure's 32 shards)
  that inversion makes the draws NumPy's two-column
  ``rng.multinomial(P, shares)`` made before it;
  ``test_c_pos_two_miner_draws_match_multinomial`` pins this against a
  test-local multinomial loop.

Kernels are registered per concrete protocol class.  Lookup is by
*exact type* (plus explicitly registered aliases such as
:class:`~repro.protocols.extended.NeoPoS`): a user-defined subclass
with different dynamics silently falls back to the naive loop rather
than risk a wrong fused recurrence.

A configuration is fused only where an experiment runs it: the
figures, Table 1 and Section 6.4 run PoW, ML-PoS, SL-PoS, C-PoS,
FSL-PoS, withholding over FSL-PoS and the six Section 6.4 systems, and
each of those has a kernel here.  The rest run their protocol's own
per-round loop, which is the reference the differential tests compare
every kernel against: block-granular C-PoS has no kernel, and the
ML-PoS exact race and withholding over an inner without deadlines
(ML-PoS, PoW, NEO, Filecoin) take that loop from inside their class's
kernel.

:func:`batched_advance` is the single entry point; the engine's
``kernel="batched" | "naive"`` knob selects between it and the plain
``advance_many`` loop for differential testing.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple, Type

import numpy as np

from .._validation import ensure_positive_int
from ..obs.trace import get_tracer
from ..protocols.base import EnsembleState, IncentiveProtocol, count_true
from ..protocols.c_pos import CompoundPoS
from ..protocols.extended import (
    AlgorandPoS,
    EOSDelegatedPoS,
    FilecoinStorage,
    NeoPoS,
    VixifyPoS,
    WavePoS,
)
from ..protocols.fsl_pos import FairSingleLotteryPoS
from ..protocols.ml_pos import MultiLotteryPoS
from ..protocols.pow import ProofOfWork
from ..protocols.sl_pos import SingleLotteryPoS
from ..protocols.withholding import RewardWithholding

__all__ = [
    "KERNEL_MODES",
    "DEFAULT_CHUNK_ROUNDS",
    "DEFAULT_CHUNK_BUDGET_BYTES",
    "ScratchBuffers",
    "batched_advance",
    "ensure_kernel_mode",
    "find_kernel",
    "register_kernel",
]

#: Valid values of the engine/spec ``kernel`` knob.
KERNEL_MODES = ("batched", "naive")

#: Upper bound on rounds per pre-drawn uniform block.
DEFAULT_CHUNK_ROUNDS = 256

#: Cap on the bytes a single pre-drawn block may occupy; at wide trial
#: counts this, not DEFAULT_CHUNK_ROUNDS, bounds the chunk.  A fused
#: task runs thousands of trials in one call, and a larger block is
#: worker memory, not speed: at 64 MiB a 5,000-trial SL-PoS call drew
#: 20.5 MB blocks, which would lift a pool worker's peak RSS past the
#: dispatching process's.  At 2 MiB a 500-trial two-miner shard keeps
#: its 256-round block, and fused calls ran as fast or faster.
DEFAULT_CHUNK_BUDGET_BYTES = 2 << 20


def ensure_kernel_mode(kernel: str) -> str:
    """Validate a ``kernel`` knob value, returning it unchanged."""
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
        )
    return kernel


class ScratchBuffers:
    """A keyed pool of preallocated work arrays.

    Kernels request buffers by name; a buffer is (re)allocated only
    when first requested or when the requested shape/dtype changes, so
    across rounds — and across the many ``advance`` segments of one
    engine run — the inner loops allocate nothing.

    A buffer keeps its contents while its name keeps its shape and
    dtype.  Kernels overwrite a buffer before reading it, except the
    two-miner C-PoS lookup table, which depends on the shard count
    alone: it fills as shares reach new cells and stays, with a buffer
    requested ``zeroed`` recording the blocks built.
    """

    __slots__ = ("_arrays",)

    def __init__(self) -> None:
        self._arrays: Dict[str, np.ndarray] = {}

    def get(
        self,
        name: str,
        shape: Tuple[int, ...],
        dtype=np.float64,
        *,
        zeroed: bool = False,
    ) -> np.ndarray:
        """The buffer registered under ``name``, allocating on demand
        (zero-filled if ``zeroed``)."""
        array = self._arrays.get(name)
        if array is not None and array.shape == shape and array.dtype == dtype:
            return array  # the per-epoch path: no normalising on a hit
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = (np.zeros if zeroed else np.empty)(shape, dtype=dtype)
            self._arrays[name] = array
        return array

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(array.nbytes for array in self._arrays.values())

    def __len__(self) -> int:
        return len(self._arrays)

    def __repr__(self) -> str:
        return f"ScratchBuffers(buffers={len(self)}, nbytes={self.nbytes})"


# -- chunked pre-drawn uniform blocks -----------------------------------------


def _chunk_size(rounds: int, floats_per_round: int) -> int:
    """Rounds per pre-drawn block: :data:`DEFAULT_CHUNK_ROUNDS`, capped
    by the byte budget and by ``rounds``."""
    budget = DEFAULT_CHUNK_BUDGET_BYTES // (8 * max(1, floats_per_round))
    return max(1, min(DEFAULT_CHUNK_ROUNDS, int(budget), rounds))


def _uniform_blocks(
    rng: np.random.Generator,
    scratch: ScratchBuffers,
    name: str,
    rounds: int,
    round_shape: Tuple[int, ...],
) -> Iterator[np.ndarray]:
    """Yield ``(n, *round_shape)`` blocks of pre-drawn uniforms.

    ``rng.random(out=block)`` fills the block in C order from the same
    stream positions as ``n`` sequential ``rng.random(round_shape)``
    calls, so consuming blocks is bit-identical to the per-round draws
    of the naive loop — for any chunking.
    """
    per_round = 1
    for extent in round_shape:
        per_round *= extent
    size = _chunk_size(rounds, per_round)
    block = scratch.get(name, (size,) + tuple(round_shape))
    done = 0
    while done < rounds:
        count = min(size, rounds - done)
        view = block[:count]
        rng.random(out=view)
        yield view
        done += count


# -- per-trial totals on the transposed layout --------------------------------

#: Entries NumPy's pairwise summation adds as one unrolled block.
_PAIRWISE_BLOCK = 128


def _row_totals(rows: np.ndarray, out: np.ndarray, partials: np.ndarray) -> None:
    """``out[t] = rows[:, t].sum()`` bitwise as ``rows.T.sum(axis=1)``.

    The naive loop's ``stakes.sum(axis=1)`` adds each trial's
    contiguous row with NumPy's pairwise summation: under 8 entries one
    running sum in index order; from 8 to 128 entries eight partial
    sums (entry ``i`` into partial ``i % 8``, up to the last multiple
    of 8) combined as ``((p0 + p1) + (p2 + p3)) + ((p4 + p5) + (p6 +
    p7))``, then the remaining entries one by one; above 128 the sums
    of two halves split at a multiple of 8.  ``np.sum(rows, axis=0)``
    adds the ``(miners, trials)`` rows in index order, which agrees
    only below 8 miners.  ``partials`` is ``(8, trials)`` scratch.
    """
    count = len(rows)
    if count < 8:
        np.sum(rows, axis=0, out=out)
    elif count <= _PAIRWISE_BLOCK:
        whole = count - count % 8
        np.sum(rows[:whole].reshape(whole // 8, 8, -1), axis=0, out=partials)
        np.add(partials[0::2], partials[1::2], out=partials[0::2])
        np.add(partials[0::4], partials[2::4], out=partials[0::4])
        np.add(partials[0], partials[4], out=out)
        for row in rows[whole:]:
            np.add(out, row, out=out)
    else:
        half = count // 2 - count // 2 % 8
        _row_totals(rows[:half], out, partials)
        rest = np.empty_like(out)
        _row_totals(rows[half:], rest, partials)
        np.add(out, rest, out=out)


# -- registry -----------------------------------------------------------------

KernelFn = Callable[
    [IncentiveProtocol, EnsembleState, int, np.random.Generator,
     ScratchBuffers],
    None,
]

_KERNELS: Dict[Type[IncentiveProtocol], KernelFn] = {}


def register_kernel(*protocol_types: Type[IncentiveProtocol]):
    """Class decorator registering a fused kernel for exact types."""

    def decorator(fn: KernelFn) -> KernelFn:
        for protocol_type in protocol_types:
            _KERNELS[protocol_type] = fn
        return fn

    return decorator


def find_kernel(protocol: IncentiveProtocol) -> Optional[KernelFn]:
    """The fused kernel for ``protocol``'s exact class, or None.

    Exact-type lookup (no MRO walk): a subclass may redefine ``step``,
    and a fused recurrence for the parent would silently diverge from
    it.  Unknown classes fall back to the naive loop instead.
    """
    return _KERNELS.get(type(protocol))


def batched_advance(
    protocol: IncentiveProtocol,
    state: EnsembleState,
    rounds: int,
    rng: np.random.Generator,
) -> None:
    """Advance ``state`` by ``rounds`` rounds through the fused kernels.

    Bit-identical to ``protocol.advance_many(state, rounds, rng)`` —
    same final arrays, same generator position — for every registered
    protocol; unregistered protocols delegate to the naive loop.
    """
    rounds = ensure_positive_int("rounds", rounds)
    kernel = find_kernel(protocol)
    tracer = get_tracer()
    if kernel is None:
        if tracer.enabled:
            # Unregistered protocol: the segment runs the per-round
            # loop, so report it on the naive side of the time split.
            with tracer.span(
                "kernel.advance",
                mode="naive",
                protocol=protocol.name,
                rounds=rounds,
                trials=state.trials,
            ):
                protocol.advance_many(state, rounds, rng)
        else:
            protocol.advance_many(state, rounds, rng)
        return
    if state.scratch is None:
        state.scratch = ScratchBuffers()
    if tracer.enabled:
        with tracer.span(
            "kernel.advance",
            mode="batched",
            protocol=protocol.name,
            rounds=rounds,
            trials=state.trials,
        ):
            kernel(protocol, state, rounds, rng, state.scratch)
    else:
        kernel(protocol, state, rounds, rng, state.scratch)


# -- closed-form protocols ----------------------------------------------------


@register_kernel(ProofOfWork, NeoPoS, AlgorandPoS)
def _advance_closed_form(protocol, state, rounds, rng, scratch):
    """PoW/NEO (multinomial jump) and Algorand (deterministic jump)
    already advance whole segments in O(1) dispatches; delegate."""
    protocol.advance_many(state, rounds, rng)


# -- proportional lottery on compounding stakes (the Polya urn) ---------------


def _advance_polya_two(protocol, state, rounds, rng, scratch):
    """ML-PoS two-miner fast path: the paper's headline configuration.

    Per round the naive loop pays ~12 dispatches plus allocations; this
    recurrence pays 9 allocation-free dispatches on contiguous
    ``(trials,)`` columns.  Identities relied upon (all bitwise):

    * ``stakes.sum(axis=1)`` for two columns is ``s0 + s1``;
    * the first CDF entry is ``s0 / total`` and the last is forced to
      1.0, so with uniforms in ``[0, 1)`` the winner index is exactly
      ``draw > s0 / total``;
    * crediting via ``+= w * won`` adds ``+0.0`` on losing lanes — a
      no-op for the non-negative stakes/rewards arrays.
    """
    trials = state.trials
    reward = protocol.reward
    stakes_t = scratch.get("polya2_stakes_t", (2, trials))
    rewards_t = scratch.get("polya2_rewards_t", (2, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    stake_a, stake_b = stakes_t[0], stakes_t[1]
    reward_a, reward_b = rewards_t[0], rewards_t[1]
    total = scratch.get("polya2_total", (trials,))
    cdf_a = scratch.get("polya2_cdf_a", (trials,))
    gain_b = scratch.get("polya2_gain_b", (trials,))
    gain_a = scratch.get("polya2_gain_a", (trials,))
    for block in _uniform_blocks(
        rng, scratch, "polya2_draws", rounds, (trials,)
    ):
        for draws in block:
            np.add(stake_a, stake_b, out=total)
            np.divide(stake_a, total, out=cdf_a)
            np.greater(draws, cdf_a, out=gain_b)  # 1.0 where B wins
            np.multiply(gain_b, reward, out=gain_b)
            np.subtract(reward, gain_b, out=gain_a)
            np.add(reward_b, gain_b, out=reward_b)
            np.add(stake_b, gain_b, out=stake_b)
            np.add(reward_a, gain_a, out=reward_a)
            np.add(stake_a, gain_a, out=stake_a)
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    state.round_index += rounds


def _advance_polya_many(protocol, state, rounds, rng, scratch):
    """ML-PoS general-miner path on a transposed ``(miners, trials)``
    layout, so reductions and cumulative sums run along contiguous
    memory (axis-1 ops on ``(trials, miners)`` arrays are strided and
    no faster than the naive loop).  The per-trial total is
    ``np.sum(stakes_t, axis=0)``, which adds miners in index order;
    from 8 miners on the naive ``stakes.sum(axis=1)`` sums pairwise
    (see :func:`_row_totals`), so the totals can differ in the last
    bit.  Outputs still match because the total reaches nothing but
    the winner comparison ``draws > cdf``: a last-bit change in a CDF
    entry moves a winner only if a uniform lands within an ulp of it.
    The ten-miner differential tests pin the match at their seeds.

    Three identities carry the fusion beyond the one-hot formulation
    (all bitwise):

    * ``np.cumsum(..., axis=0)`` is the row recurrence
      ``cdf[m] = cdf[m-1] + shares[m]`` — running it as M-1 contiguous
      row adds gives the same values without the pathologically
      strided axis-0 cumsum dispatch;
    * the last CDF row is forced to 1.0 and uniforms live in
      ``[0, 1)``, so ``draws > cdf[-1]`` is always false — the last
      row's divide/compare never affects the winner count and is
      skipped outright;
    * the credit is a flat-index scatter on the ``(winner, trial)``
      pairs — exactly the naive loop's ``stakes[rows, winners] += w``
      on the transposed layout (each trial appears once per round, so
      the scatter is well-defined), replacing the four full
      ``(miners, trials)`` passes of a one-hot masked credit with two
      ``(trials,)``-sized gathers/scatters.

    Together these lift the many-miner grids from ~1.5x to >3x over
    the naive loop."""
    trials, miners = state.trials, state.miners
    reward = protocol.reward
    stakes_t = scratch.get("polya_stakes_t", (miners, trials))
    rewards_t = scratch.get("polya_rewards_t", (miners, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    stakes_flat = stakes_t.reshape(-1)
    rewards_flat = rewards_t.reshape(-1)
    total = scratch.get("polya_total", (trials,))
    cdf_t = scratch.get("polya_cdf_t", (miners, trials))
    above = scratch.get("polya_above", (miners, trials), np.bool_)
    count = scratch.get("polya_count", (trials,), np.uint8)
    flat_index = scratch.get("polya_flat_index", (trials,), np.intp)
    trial_index = scratch.get("polya_trial_index", (trials,), np.intp)
    trial_index[...] = np.arange(trials)
    for block in _uniform_blocks(
        rng, scratch, "polya_draws", rounds, (trials,)
    ):
        for draws in block:
            np.sum(stakes_t, axis=0, out=total)
            np.divide(stakes_t[:-1], total, out=cdf_t[:-1])
            for row in range(1, miners - 1):
                np.add(cdf_t[row], cdf_t[row - 1], out=cdf_t[row])
            np.greater(draws, cdf_t[:-1], out=above[:-1])
            winners = count_true(above[:-1], count)
            np.multiply(winners, trials, out=flat_index, dtype=np.intp)
            np.add(flat_index, trial_index, out=flat_index)
            rewards_flat[flat_index] += reward
            stakes_flat[flat_index] += reward
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    state.round_index += rounds


@register_kernel(MultiLotteryPoS)
def _advance_ml_pos(protocol, state, rounds, rng, scratch):
    """The proportional lottery, fused; the exact race (a tests-only
    configuration) runs its own per-round loop."""
    if protocol.exact_race:
        protocol.advance_many(state, rounds, rng)
    elif state.miners == 2:
        _advance_polya_two(protocol, state, rounds, rng, scratch)
    else:
        _advance_polya_many(protocol, state, rounds, rng, scratch)


@register_kernel(FilecoinStorage)
def _advance_filecoin(protocol, state, rounds, rng, scratch):
    """Filecoin's mixed mining power, fused on the transposed layout.

    The storage term is bitwise-constant across an advance (storage
    never changes and the naive loop recomputes the identical values
    every round), so ``theta * storage_shares`` is hoisted out of the
    loop; the per-round stake term, normalisation, inverse-CDF draw
    and credit all run allocation-free."""
    trials, miners = state.trials, state.miners
    reward = protocol.reward
    theta = protocol.storage_weight
    stake_weight = 1.0 - protocol.storage_weight
    stakes_t = scratch.get("filecoin_stakes_t", (miners, trials))
    rewards_t = scratch.get("filecoin_rewards_t", (miners, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    storage_t = scratch.get("filecoin_storage_t", (miners, trials))
    storage_t[...] = state.extra["storage"].T
    total = scratch.get("filecoin_total", (trials,))
    storage_term = scratch.get("filecoin_storage_term", (miners, trials))
    np.sum(storage_t, axis=0, out=total)
    np.divide(storage_t, total, out=storage_term)
    np.multiply(storage_term, theta, out=storage_term)
    power_t = scratch.get("filecoin_power_t", (miners, trials))
    cdf_t = scratch.get("filecoin_cdf_t", (miners, trials))
    above = scratch.get("filecoin_above", (miners, trials), np.bool_)
    count = scratch.get("filecoin_count", (trials,), np.uint8)
    one_hot = scratch.get("filecoin_one_hot", (miners, trials), np.bool_)
    gain_t = scratch.get("filecoin_gain_t", (miners, trials))
    columns = scratch.get("filecoin_columns", (miners, 1), np.int64)
    columns[...] = np.arange(miners)[:, None]
    for block in _uniform_blocks(
        rng, scratch, "filecoin_draws", rounds, (trials,)
    ):
        for draws in block:
            np.sum(stakes_t, axis=0, out=total)
            np.divide(stakes_t, total, out=power_t)
            np.multiply(power_t, stake_weight, out=power_t)
            np.add(storage_term, power_t, out=power_t)
            np.sum(power_t, axis=0, out=total)
            np.divide(power_t, total, out=power_t)
            np.cumsum(power_t, axis=0, out=cdf_t)
            cdf_t[-1, :] = 1.0
            np.greater(draws, cdf_t, out=above)
            winners = count_true(above, count)
            np.equal(columns, winners, out=one_hot)
            np.multiply(one_hot, reward, out=gain_t)
            np.add(rewards_t, gain_t, out=rewards_t)
            np.add(stakes_t, gain_t, out=stakes_t)
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    state.round_index += rounds


# -- earliest-deadline lotteries ----------------------------------------------


def _exponentiate_block(block: np.ndarray) -> None:
    """Turn a block of uniforms into exponential numerators, in place.

    ``-log1p(-u) = -ln(1 - u)`` — the FSL-PoS inverse transform.  The
    op sequence matches the naive sampler exactly, and the transform
    is elementwise, so hoisting it from the per-round loop to the
    whole pre-drawn block yields identical values."""
    np.negative(block, out=block)
    np.log1p(block, out=block)
    np.negative(block, out=block)


def _advance_deadline_two(
    protocol, state, rounds, rng, scratch, *, exponential: bool
):
    """Two-miner earliest-deadline fast path.

    ``argmin`` over two columns is exactly the strict comparison
    ``deadline_B < deadline_A`` (ties resolve to index 0 either way,
    and occur with probability zero), so a round reduces to two column
    divides, one compare and four adds on contiguous ``(trials,)``
    arrays — the ``+0.0`` on losing lanes is a bitwise no-op for the
    non-negative stakes/rewards."""
    trials = state.trials
    reward = protocol.reward
    stakes_t = scratch.get("deadline2_stakes_t", (2, trials))
    rewards_t = scratch.get("deadline2_rewards_t", (2, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    stake_a, stake_b = stakes_t[0], stakes_t[1]
    reward_a, reward_b = rewards_t[0], rewards_t[1]
    deadline_a = scratch.get("deadline2_a", (trials,))
    deadline_b = scratch.get("deadline2_b", (trials,))
    gain_b = scratch.get("deadline2_gain_b", (trials,))
    gain_a = scratch.get("deadline2_gain_a", (trials,))
    for block in _uniform_blocks(
        rng, scratch, "deadline_draws", rounds, (trials, 2)
    ):
        if exponential:
            _exponentiate_block(block)
        for numerators in block:
            np.divide(numerators[:, 0], stake_a, out=deadline_a)
            np.divide(numerators[:, 1], stake_b, out=deadline_b)
            np.less(deadline_b, deadline_a, out=gain_b)  # 1.0 where B wins
            np.multiply(gain_b, reward, out=gain_b)
            np.subtract(reward, gain_b, out=gain_a)
            np.add(reward_b, gain_b, out=reward_b)
            np.add(stake_b, gain_b, out=stake_b)
            np.add(reward_a, gain_a, out=reward_a)
            np.add(stake_a, gain_a, out=stake_a)
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    state.round_index += rounds


def _advance_deadline(
    protocol, state, rounds, rng, scratch, *, exponential: bool
):
    """SL-PoS (uniform deadlines) and FSL-PoS/Wave/Vixify (exponential
    deadlines): pre-draw ``(chunk, trials, miners)`` uniforms, compute
    deadlines in place, arg-min, credit via one-hot adds."""
    if state.miners == 2:
        _advance_deadline_two(
            protocol, state, rounds, rng, scratch,
            exponential=exponential,
        )
        return
    trials, miners = state.trials, state.miners
    reward = protocol.reward
    deadlines = scratch.get("deadline_buf", (trials, miners))
    winners = scratch.get("deadline_winners", (trials,), np.intp)
    one_hot = scratch.get("deadline_one_hot", (trials, miners), np.bool_)
    gain = scratch.get("deadline_gain", (trials, miners))
    columns = scratch.get("deadline_columns", (miners,), np.intp)
    columns[...] = np.arange(miners)
    for block in _uniform_blocks(
        rng, scratch, "deadline_draws", rounds, (trials, miners)
    ):
        if exponential:
            _exponentiate_block(block)
        for numerators in block:
            np.divide(numerators, state.stakes, out=deadlines)
            np.argmin(deadlines, axis=1, out=winners)
            np.equal(winners[:, None], columns, out=one_hot)
            np.multiply(one_hot, reward, out=gain)
            np.add(state.rewards, gain, out=state.rewards)
            np.add(state.stakes, gain, out=state.stakes)
    state.round_index += rounds


@register_kernel(SingleLotteryPoS)
def _advance_sl_pos(protocol, state, rounds, rng, scratch):
    _advance_deadline(
        protocol, state, rounds, rng, scratch, exponential=False
    )


@register_kernel(FairSingleLotteryPoS, WavePoS, VixifyPoS)
def _advance_fsl_pos(protocol, state, rounds, rng, scratch):
    _advance_deadline(
        protocol, state, rounds, rng, scratch, exponential=True
    )


# -- compound PoS -------------------------------------------------------------

#: Grid of the two-miner C-PoS lookup (:func:`_binomial_by_lookup`): a
#: row's ``p' = min(share, 1 - share)`` lies in cell ``floor(p' * 2 *
#: _LOOKUP_CELLS)`` and its uniform in bin ``floor(u * _LOOKUP_BINS)``.
#: Both scales are powers of two, so every cell and bin is exact.
_LOOKUP_CELLS = 1024
_LOOKUP_BINS = 1024
#: How far a table entry keeps from the CDF steps it counts.  The
#: inversion's CDF recurrence errs by under 1e-12 up to 1,000 shards.
_LOOKUP_MARGIN = 2.0**-30
#: Cells the table builds at a time, when a row first reaches one.
_LOOKUP_BLOCK = 64
_LOOKUP_BLOCKS = -(-(_LOOKUP_CELLS + 1) // _LOOKUP_BLOCK)


def _binomial_cdf(n: int, p: np.ndarray, depth: int) -> np.ndarray:
    """``cdf[k, i] = F_k`` of Bin(n, p[i]) for ``k < depth``: the
    operations of :func:`binomial_from_uniforms`'s recurrence, with no
    fold to ``p'``, run down each column by ``accumulate`` (about 0.1
    us a column, where a loop over rows costs about 1 us a row)."""
    q = 1.0 - p
    cdf = np.empty((depth, p.shape[0]))
    np.power(q, n, out=cdf[0])  # pmf_0
    k = np.arange(1, depth, dtype=np.float64)[:, None]
    np.multiply((n + 1 - k) / k, p / q, out=cdf[1:])  # pmf factors
    np.multiply.accumulate(cdf, axis=0, out=cdf)  # pmf_k
    np.add.accumulate(cdf, axis=0, out=cdf)  # F_k
    return cdf


def _bin_counts(thresholds: np.ndarray) -> np.ndarray:
    """``counts[j, b] = #{k : thresholds[k, j] <= b}`` for every bin."""
    bins = _LOOKUP_BINS
    cells = thresholds.shape[1]
    np.clip(thresholds, 0, bins, out=thresholds)
    flat = thresholds.astype(np.intp) + np.arange(cells) * (bins + 1)
    hist = np.bincount(flat.ravel(), minlength=cells * (bins + 1))
    return np.cumsum(
        hist.reshape(cells, bins + 1)[:, :bins], axis=1, dtype=np.int16
    )


def _build_lookup(n: int, table: np.ndarray, block: int) -> None:
    """Fill the cells of ``block``: entry ``[j, b]`` is the inversion's
    draw from Bin(n, p') for every ``p'`` in cell ``j`` and ``u`` in bin
    ``b`` or, where that rectangle straddles a CDF step, ``-1 - most``
    for the most the draw can be there.

    The exact CDF falls as ``p`` rises, so across the cell each ``F_k``
    lies between its values at the two edges, and the recurrence's
    rounding lies inside the margin.  The draw ``#{k : F_k < u}`` is
    therefore at least ``#{k : F_k(low edge) + margin < b / B}`` and at
    most ``#{k : F_k(high edge) - margin < (b + 1) / B}``; where the two
    counts agree, that is the draw.
    """
    bins, scale = _LOOKUP_BINS, 2.0 * _LOOKUP_CELLS
    start = block * _LOOKUP_BLOCK
    cells = np.arange(start, min(start + _LOOKUP_BLOCK, _LOOKUP_CELLS + 1))
    # Bin b surely counts step k from floor((F_k + margin) * B) + 1 on,
    # and may count it from floor((F_k - margin) * B) on.
    least = _bin_counts(
        np.floor((_binomial_cdf(n, cells / scale, n) + _LOOKUP_MARGIN) * bins)
        + 1
    )
    most = _bin_counts(
        np.floor(
            (_binomial_cdf(n, (cells + 1) / scale, n) - _LOOKUP_MARGIN) * bins
        )
    )
    table[start:start + cells.size] = np.where(least == most, least, -1 - most)


def _binomial_by_lookup(n, p, draws, out, scratch):
    """``binomial_from_uniforms(n, p, draws, out=out)``, bit for bit,
    mostly by table lookup.

    Each row reads the entry of its ``(p', u)`` cell and bin
    (:func:`_build_lookup`); the table is built once per state and
    shard count, a block of cells at a time as the shares first reach
    it.  The rows it leaves open (about 3% at 32 shards) count their own
    CDF rows, only up to the most their entries allow.  A row's draw
    depends on its own ``(p, u)`` alone either way."""
    rows = p.shape[0]
    # Entries run from -1 - n to n: a byte holds them up to 126 shards.
    table = scratch.get(
        f"cpos2_lookup_{n}",
        (_LOOKUP_CELLS + 1, _LOOKUP_BINS),
        np.int8 if n < 127 else np.int16,
    )
    built = scratch.get(
        f"cpos2_lookup_built_{n}", (_LOOKUP_BLOCKS,), np.bool_, zeroed=True
    )
    low = scratch.get("cpos2_low", (rows,))
    np.subtract(1.0, p, out=low)
    np.minimum(p, low, out=low)  # p', as the helper folds it
    scale = 2 * _LOOKUP_CELLS
    for block in range(
        int(low.min(initial=0.5) * scale) // _LOOKUP_BLOCK,
        int(low.max(initial=0.0) * scale) // _LOOKUP_BLOCK + 1,
    ):
        if not built[block]:
            _build_lookup(n, table, block)
            built[block] = True
    index = scratch.get("cpos2_index", (rows,), np.intp)
    column = scratch.get("cpos2_column", (rows,), np.intp)
    np.multiply(low, scale, out=index, casting="unsafe")  # cell
    np.multiply(index, _LOOKUP_BINS, out=index)
    np.multiply(draws, _LOOKUP_BINS, out=column, casting="unsafe")  # bin
    np.add(index, column, out=index)
    entry = scratch.get("cpos2_entry", (rows,), table.dtype)
    np.take(table.reshape(-1), index, out=entry, mode="clip")
    np.copyto(out, entry)
    flip = scratch.get("cpos2_flip", (rows,), np.bool_)
    np.greater(p, 0.5, out=flip)
    np.subtract(n, out, out=out, where=flip)
    open_rows = np.flatnonzero(np.less(entry, 0, out=flip))
    if open_rows.size:
        most = -1 - int(entry[open_rows].min())
        cdf = _binomial_cdf(n, low[open_rows], most)
        wins = np.less(cdf, draws[open_rows]).sum(axis=0)
        out[open_rows] = np.where(p[open_rows] > 0.5, n - wins, wins)


def _advance_c_pos_two(protocol, state, rounds, rng, scratch):
    """Two-miner C-PoS fast path: every headline C-PoS figure.

    Miner A's shard wins are :func:`binomial_from_uniforms` over one
    pre-drawn uniform per trial-epoch, read mostly from a lookup table
    (:func:`_binomial_by_lookup`), and miner B takes the other ``P -
    wins_a`` — the naive step's draw (module docstring, "Identical
    sampler calls").  Its uniforms come in blocks like every other
    kernel's, so a fused task fills each member's rows with one
    ``random(out=)`` per block and draws the whole width at once.
    The rest is the naive arithmetic on contiguous ``(2, trials)`` rows:
    ``stakes.sum(axis=1)`` for two columns is ``s0 + s1``, bitwise."""
    trials = state.trials
    proposer_reward = protocol.proposer_reward
    inflation_reward = protocol.inflation_reward
    shards = protocol.shards
    stakes_t = scratch.get("cpos2_stakes_t", (2, trials))
    rewards_t = scratch.get("cpos2_rewards_t", (2, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    stake_a, stake_b = stakes_t[0], stakes_t[1]
    total = scratch.get("cpos2_total", (trials,))
    shares_t = scratch.get("cpos2_shares_t", (2, trials))
    share_a = shares_t[0]
    wins_t = scratch.get("cpos2_wins_t", (2, trials), np.int64)
    wins_a, wins_b = wins_t[0], wins_t[1]
    income_t = scratch.get("cpos2_income_t", (2, trials))
    inflation_t = scratch.get("cpos2_inflation_t", (2, trials))
    for block in _uniform_blocks(
        rng, scratch, "cpos2_draws", rounds, (trials,)
    ):
        for draws in block:
            np.add(stake_a, stake_b, out=total)
            np.divide(stakes_t, total, out=shares_t)
            _binomial_by_lookup(shards, share_a, draws, wins_a, scratch)
            np.subtract(shards, wins_a, out=wins_b)
            np.multiply(wins_t, proposer_reward, out=income_t)
            np.divide(income_t, shards, out=income_t)
            np.multiply(shares_t, inflation_reward, out=inflation_t)
            np.add(income_t, inflation_t, out=income_t)
            np.add(rewards_t, income_t, out=rewards_t)
            np.add(stakes_t, income_t, out=stakes_t)
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T
    state.round_index += rounds


@register_kernel(CompoundPoS)
def _advance_c_pos(protocol, state, rounds, rng, scratch):
    """C-PoS epoch loop with scratch reuse.  The proposer draw depends
    on the evolving shares, so it is one sampler pass per epoch.  Two
    miners look their inversion draws up (:func:`_advance_c_pos_two`);
    more miners keep the naive step's ``rng.multinomial`` call, which is
    most of their cost.  The share/income arithmetic runs
    allocation-free apart from the sampler's output."""
    if state.miners == 2:
        _advance_c_pos_two(protocol, state, rounds, rng, scratch)
        return
    trials, miners = state.trials, state.miners
    proposer_reward = protocol.proposer_reward
    inflation_reward = protocol.inflation_reward
    shards = protocol.shards
    total = scratch.get("cpos_total", (trials, 1))
    shares = scratch.get("cpos_shares", (trials, miners))
    income = scratch.get("cpos_income", (trials, miners))
    inflation = scratch.get("cpos_inflation", (trials, miners))
    for _ in range(rounds):
        np.sum(state.stakes, axis=1, keepdims=True, out=total)
        np.divide(state.stakes, total, out=shares)
        shard_wins = rng.multinomial(shards, shares)
        np.multiply(shard_wins, proposer_reward, out=income)
        np.divide(income, shards, out=income)
        np.multiply(shares, inflation_reward, out=inflation)
        np.add(income, inflation, out=income)
        np.add(state.rewards, income, out=state.rewards)
        np.add(state.stakes, income, out=state.stakes)
        state.round_index += 1


# -- delegate committee -------------------------------------------------------


@register_kernel(EOSDelegatedPoS)
def _advance_eos(protocol, state, rounds, rng, scratch):
    """EOS epochs are deterministic given the shares; no draws to
    batch, but the share/income arithmetic runs allocation-free on the
    transposed layout (contiguous reductions)."""
    trials, miners = state.trials, state.miners
    flat = protocol._proposer_reward / miners
    inflation_reward = protocol._inflation_reward
    stakes_t = scratch.get("eos_stakes_t", (miners, trials))
    rewards_t = scratch.get("eos_rewards_t", (miners, trials))
    stakes_t[...] = state.stakes.T
    rewards_t[...] = state.rewards.T
    total = scratch.get("eos_total", (trials,))
    partials = scratch.get("eos_partials", (8, trials))
    income_t = scratch.get("eos_income_t", (miners, trials))
    for _ in range(rounds):
        _row_totals(stakes_t, total, partials)
        np.divide(stakes_t, total, out=income_t)
        np.multiply(income_t, inflation_reward, out=income_t)
        np.add(income_t, flat, out=income_t)
        np.add(rewards_t, income_t, out=rewards_t)
        if protocol.compound:
            np.add(stakes_t, income_t, out=stakes_t)
        state.round_index += 1
    state.stakes[...] = stakes_t.T
    state.rewards[...] = rewards_t.T


# -- reward withholding -------------------------------------------------------


#: Exact deadline inner type -> whether its deadlines are exponential.
_WITHHOLD_DEADLINES = {
    SingleLotteryPoS: False,
    FairSingleLotteryPoS: True,
    WavePoS: True,
    VixifyPoS: True,
}


@register_kernel(RewardWithholding)
def _advance_withholding(protocol, state, rounds, rng, scratch):
    """Vesting over a deadline inner (SL-PoS, FSL-PoS, Wave, Vixify):
    batch the inner lottery's ``(trials, miners)`` uniforms; replay the
    wrapper's credit/vesting logic round by round (vesting boundaries
    depend on the running round index).  Any other inner runs the
    wrapper's own per-round loop."""
    exponential = _WITHHOLD_DEADLINES.get(type(protocol.inner))
    if exponential is None:
        protocol.advance_many(state, rounds, rng)
        return
    trials, miners = state.trials, state.miners
    reward = protocol.reward
    period = protocol.vesting_period
    pending = state.extra["pending"]
    deadlines = scratch.get("withhold_deadlines", (trials, miners))
    winners = scratch.get("withhold_winners", (trials,), np.intp)
    one_hot = scratch.get("withhold_one_hot", (trials, miners), np.bool_)
    gain = scratch.get("withhold_gain", (trials, miners))
    columns = scratch.get("withhold_columns", (miners,), np.intp)
    columns[...] = np.arange(miners)
    for block in _uniform_blocks(
        rng, scratch, "withhold_draws", rounds, (trials, miners)
    ):
        if exponential:
            _exponentiate_block(block)
        for numerators in block:
            np.divide(numerators, state.stakes, out=deadlines)
            np.argmin(deadlines, axis=1, out=winners)
            np.equal(winners[:, None], columns, out=one_hot)
            np.multiply(one_hot, reward, out=gain)
            np.add(state.rewards, gain, out=state.rewards)
            np.add(pending, gain, out=pending)
            if (state.round_index + 1) % period == 0:
                state.stakes += pending
                pending[:] = 0.0
            state.round_index += 1
