"""Reproducible random-number streams for Monte Carlo simulation.

Every stochastic component in :mod:`repro` draws its randomness from a
:class:`numpy.random.Generator`.  This module centralises how those
generators are created so that

* a single integer seed reproduces an entire experiment,
* independent components (trials, nodes, experiments) get provably
  independent streams via :class:`numpy.random.SeedSequence` spawning,
* tests can inject fixed generators.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Union

import numpy as np

from .._validation import ensure_positive_int

__all__ = [
    "RandomSource",
    "TrialSplitGenerator",
    "make_generator",
    "spawn_generators",
]

SeedLike = Union[None, int, Sequence[int], np.random.SeedSequence, np.random.Generator]


def make_generator(seed: SeedLike = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from any seed-like value.

    Accepts ``None`` (fresh entropy), an integer, a sequence of
    integers, a :class:`~numpy.random.SeedSequence`, or an existing
    generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Create ``count`` statistically independent generators.

    Uses :meth:`numpy.random.SeedSequence.spawn` so that the streams do
    not overlap regardless of how many values each consumes.
    """
    count = ensure_positive_int("count", count)
    if isinstance(seed, np.random.Generator):
        # Derive a seed sequence from the generator's own bit stream so
        # existing generators can still fan out into children.
        children = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4)).spawn(count)
    elif isinstance(seed, np.random.SeedSequence):
        children = seed.spawn(count)
    else:
        children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.default_rng(child) for child in children]


class RandomSource:
    """A hierarchical, reproducible source of random generators.

    A :class:`RandomSource` wraps a :class:`numpy.random.SeedSequence`
    and hands out either a root generator or independent child sources.
    Experiments use one source per figure; the source then spawns one
    child per protocol, per repeat, or per node.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` draws fresh OS entropy (not reproducible);
        pass an integer for reproducible runs.

    Examples
    --------
    >>> source = RandomSource(7)
    >>> a, b = source.spawn(2)
    >>> a.generator().random() != b.generator().random()
    True
    """

    def __init__(self, seed: SeedLike = None) -> None:
        if isinstance(seed, RandomSource):
            seed = seed._sequence
        if isinstance(seed, np.random.Generator):
            seed = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4))
        if isinstance(seed, np.random.SeedSequence):
            self._sequence = seed
        else:
            self._sequence = np.random.SeedSequence(seed)
        self._generator: Optional[np.random.Generator] = None

    @property
    def entropy(self):
        """The root entropy of this source (for logging/reproduction)."""
        return self._sequence.entropy

    @property
    def sequence(self) -> np.random.SeedSequence:
        """The underlying seed sequence (for sharding/fingerprinting)."""
        return self._sequence

    def generator(self) -> np.random.Generator:
        """Return the (memoised) root generator of this source."""
        if self._generator is None:
            self._generator = np.random.default_rng(self._sequence)
        return self._generator

    def spawn(self, count: int) -> List["RandomSource"]:
        """Return ``count`` independent child sources."""
        count = ensure_positive_int("count", count)
        return [RandomSource(child) for child in self._sequence.spawn(count)]

    def spawn_one(self) -> "RandomSource":
        """Return a single independent child source."""
        return self.spawn(1)[0]

    def stream(self) -> Iterator["RandomSource"]:
        """Yield an unbounded stream of independent child sources."""
        while True:
            yield self.spawn_one()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(entropy={self._sequence.entropy!r})"


class TrialSplitGenerator:
    """One sampler over several members' generators, split by trial.

    A fused ensemble concatenates several independent ensembles along
    its trial axis; each member must still draw its own trials'
    variates from its own generator, in the order it would draw them
    alone.  This adapter offers the two samplers the simulation loops
    use — ``random`` and ``multinomial`` — and serves each call by
    cutting the trial axis into the members' row ranges and
    asking every member's generator for its rows in turn.  That keeps
    every member bit-identical to a run on its own, and leaves each
    generator where that run would leave it.

    The trial axis is axis 1 of a ``random(out=)`` block (the kernels'
    pre-drawn ``(rounds, trials, ...)`` uniforms) and axis 0 of a
    ``size=`` shape and of array parameters (per-trial counts or a
    stack of category laws).  A draw with no trial axis cannot be split
    and raises.

    Parameters
    ----------
    generators:
        One generator per member, in trial-axis order.
    trials:
        The members' trial counts, in the same order.
    """

    def __init__(
        self,
        generators: Sequence[np.random.Generator],
        trials: Sequence[int],
    ) -> None:
        if len(generators) != len(trials):
            raise ValueError(
                f"{len(generators)} generators for {len(trials)} members"
            )
        self._generators = list(generators)
        self._rows: List[slice] = []
        start = 0
        for count in trials:
            end = start + ensure_positive_int("trials", count)
            self._rows.append(slice(start, end))
            start = end
        #: Total trials across the members.
        self.trials = start
        self._block = np.empty(0)  # reused member block for out= draws

    def random(self, size=None, dtype=np.float64, out=None) -> np.ndarray:
        """Uniforms in ``[0, 1)``, each member's rows from its own stream."""
        if out is None:
            return self._joined("random", size, dtype=dtype)
        if out.ndim < 2 or out.shape[1] != self.trials:
            raise ValueError(
                f"out must have {self.trials} trials on axis 1, got shape "
                f"{out.shape}"
            )
        # A member's rows are a strided column block of ``out``, and the
        # generator fills only contiguous arrays: draw into a reused
        # contiguous block, then copy it into place.
        for generator, rows in zip(self._generators, self._rows):
            shape = (out.shape[0], rows.stop - rows.start) + out.shape[2:]
            count = int(np.prod(shape))
            if self._block.size < count or self._block.dtype != dtype:
                self._block = np.empty(count, dtype=dtype)
            block = self._block[:count].reshape(shape)
            generator.random(dtype=dtype, out=block)
            out[:, rows] = block
        return out

    def multinomial(self, n, pvals, size=None) -> np.ndarray:
        """Multinomial draws; array ``n`` and a stack of ``pvals`` laws
        carry trials on axis 0, a single 1-D law serves every trial."""
        return self._joined("multinomial", size, ((n, 1), (pvals, 2)))

    def _joined(self, method, size, params=(), **options) -> np.ndarray:
        """Concatenate each member's draw of its own rows.

        ``params`` pairs each positional parameter with the rank from
        which it carries trials on axis 0: a category law's last axis
        is its categories, so only a stack of laws has a trial axis.
        """
        split = [np.ndim(value) >= rank for value, rank in params]
        shape = None if size is None else tuple(np.atleast_1d(size))
        leading = [np.shape(value)[0] for (value, _), cut in zip(params, split) if cut]
        if shape is not None:
            leading.append(shape[0])
        if not leading:
            raise ValueError(
                f"{method} draw has no trial axis to split across members"
            )
        if any(extent != self.trials for extent in leading):
            raise ValueError(
                f"{method} draw spans {leading} rows, expected {self.trials} "
                "trials on its trial axis"
            )
        parts = []
        for generator, rows in zip(self._generators, self._rows):
            args = [
                value[rows] if cut else value
                for (value, _), cut in zip(params, split)
            ]
            if shape is not None:
                options["size"] = (rows.stop - rows.start,) + shape[1:]
            parts.append(getattr(generator, method)(*args, **options))
        return np.concatenate(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = [rows.stop - rows.start for rows in self._rows]
        return f"TrialSplitGenerator(trials={sizes})"
