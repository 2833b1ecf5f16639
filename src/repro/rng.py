"""Deterministic random-number plumbing.

Every stochastic component (topology placement, shadowing, fading, backoff)
draws from its own child generator spawned from a single root seed, so that

* results are bit-reproducible given a seed, and
* adding draws to one component never perturbs another component's stream.

The seed tree is made of :class:`numpy.random.SeedSequence` nodes; a
:class:`numpy.random.Generator` is built only for a leaf that draws
(:func:`spawn_seeds` walks the tree, :func:`make_rng` builds the leaf).
Interior nodes (a topology's root, its shadowing parent) never hold a
generator of their own.
"""

from __future__ import annotations

from typing import Iterator, Union

import numpy as np

from .obs import active as _obs_active


#: Anything a seed-tree node can be given as.
SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    # Same generator as ``default_rng(seed_seq)``, without its wrapper.
    return np.random.Generator(np.random.PCG64(seed_seq))


def make_rng(seed: SeedLike) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), a seed-tree node
    (:class:`numpy.random.SeedSequence`, e.g. from :func:`spawn_seeds`), an
    integer seed, or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    _obs_active().count("rng.generators_spawned")
    if isinstance(seed, np.random.SeedSequence):
        return _generator(seed)
    return np.random.default_rng(seed)


def spawn_seeds(seed: SeedLike, count: int) -> list[np.random.SeedSequence]:
    """The next ``count`` children of ``seed``'s seed-tree node, as nodes.

    ``make_rng(child)`` for each child is bit-identical to
    ``spawn(make_rng(seed), count)``, and a caller-held generator or
    :class:`~numpy.random.SeedSequence` advances its spawn counter exactly
    as :func:`spawn` would -- but no generator is built, so interior nodes
    of a tree cost only their hashing.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(seed, np.random.Generator):
        seed = seed.bit_generator.seed_seq
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(count)


def spawn(rng: SeedLike, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` statistically independent child generators of
    ``rng``'s seed-tree node (a generator or any :func:`spawn_seeds` input)."""
    children = spawn_seeds(rng, count)
    _obs_active().count("rng.generators_spawned", count)
    return [_generator(s) for s in children]


def derived_seed(root_seed: int, index: int) -> int:
    """Deterministic integer seed for component ``index`` under ``root_seed``.

    Topology ``i`` always receives the same seed regardless of how many
    topologies a sweep evaluates.
    """
    return int(np.random.SeedSequence((root_seed, index)).generate_state(1)[0])


def derived_seeds(root_seed: int, start: int, count: int) -> list[int]:
    """Batch of derived seeds for indices ``start .. start+count-1``.

    Identical values to :func:`derived_seed` at each index (and hence to a
    :func:`seed_stream` prefix), so batched sweeps reproduce serial ones
    bit-for-bit.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    _obs_active().count("rng.seeds_derived", count)
    return [derived_seed(root_seed, index) for index in range(start, start + count)]


def seed_stream(root_seed: int) -> Iterator[int]:
    """Yield an unbounded stream of derived integer seeds from ``root_seed``."""
    counter = 0
    while True:
        yield derived_seed(root_seed, counter)
        counter += 1
