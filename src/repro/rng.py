"""Deterministic random-number plumbing.

Every stochastic component (topology placement, shadowing, fading, backoff)
draws from its own child generator spawned from a single root seed, so that

* results are bit-reproducible given a seed, and
* adding draws to one component never perturbs another component's stream.

The seed tree is made of :class:`SeedNode` objects: a node is its run
entropy and spawn key, exactly as in :class:`numpy.random.SeedSequence`,
but building or spawning one hashes nothing.  :func:`spawn_seeds` walks
the tree; :func:`make_rngs` hashes a whole batch of leaves in one
vectorized pass (a uint32 array port of NumPy's ``SeedSequence`` pool
mixing) and builds each leaf's :class:`numpy.random.Generator` from the
precomputed state words.  Every stream is bit-identical to the one
``np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))``
draws.  Interior nodes (a topology's root, its shadowing parent) are never
hashed and never hold a generator.
"""

from __future__ import annotations

import secrets
from itertools import chain
from typing import Iterator, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .obs import active as _obs_active

#: Anything a seed-tree node can be given as.
SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, "SeedNode", None]

# NumPy's SeedSequence constants (pool size 4, 32-bit words).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` values of the hash-constant sequence
    ``init * mult**k mod 2**32``: call ``k`` of a hash xors with entry
    ``k`` and multiplies by entry ``k + 1``."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


_OTHERS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``hashmix`` of ``value`` against consecutive hash constants (the
    last axis walks the constant sequence)."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _mix_pools(words: np.ndarray) -> np.ndarray:
    """``(n, 4)`` entropy pools of ``(n, L)`` assembled entropy words,
    ``L >= 4`` (NumPy's ``mix_entropy``; a word below the pool size hashes
    like an explicit zero, so short entropy is zero-padded to 4)."""
    n_words = words.shape[1]
    # 4 initial hashes, 12 cross mixes, 4 per remaining word.
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * n_words)
    pool = _hashmix(words[:, :_POOL_SIZE], consts[: _POOL_SIZE + 1])
    k = _POOL_SIZE
    # Mix all bits together so late bits can affect earlier bits.
    for src, dsts in enumerate(_OTHERS):
        mixed = _hashmix(pool[:, src, None], consts[k : k + _POOL_SIZE])
        pool[:, dsts] = _mix(pool[:, dsts], mixed)
        k += _POOL_SIZE - 1
    # Remaining entropy: each word is mixed into every pool word.
    for src in range(_POOL_SIZE, n_words):
        pool = _mix(pool, _hashmix(words[:, src, None], consts[k : k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    return pool


def _entropy_words(value) -> list[int]:
    """``value`` as NumPy coerces seed entropy: little-endian 32-bit words
    of an int, concatenated over a sequence."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    if isinstance(value, (float, np.inexact)):
        raise TypeError("seed entropy must be integers")
    if type(value) is tuple and set(map(type, value)) <= {int}:
        if not value or (min(value) >= 0 and max(value) <= _MASK32):
            return list(value)  # a spawn key of one-word indices
    return [word for item in value for word in _entropy_words(item)]


class SeedNode(ISpawnableSeedSequence):
    """One node of the seed tree: run entropy plus a spawn key.

    Streams are those of ``np.random.SeedSequence(entropy,
    spawn_key=spawn_key)``; building or spawning a node hashes nothing.
    ``np.random.default_rng(node)`` works, but :func:`make_rngs` builds a
    batch of leaves with one hash.
    """

    __slots__ = ("entropy", "spawn_key", "n_children_spawned", "_words", "_state")

    pool_size = _POOL_SIZE

    def __init__(self, entropy, spawn_key: Sequence[int] = (), n_children_spawned: int = 0):
        self.entropy = entropy
        self.spawn_key = tuple(spawn_key)
        self.n_children_spawned = n_children_spawned
        #: Assembled entropy words, coerced on first use.
        self._words: tuple | None = None
        #: PCG64 seed words, filled by :func:`_hash_leaves`.
        self._state: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"SeedNode(entropy={self.entropy!r}, spawn_key={self.spawn_key!r})"

    def spawn(self, n_children: int) -> list[SeedNode]:
        start = self.n_children_spawned
        self.n_children_spawned += n_children
        # Every child's words are this node's prefix, then its own index.
        prefix = self._assembled() if self.spawn_key else self._prefix()
        children = []
        for i in range(start, start + n_children):
            child = SeedNode(self.entropy, self.spawn_key + (i,))
            child._words = prefix + ((i,) if i <= _MASK32 else tuple(_entropy_words(i)))
            children.append(child)
        return children

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if self._state is not None and n_words == 4 and dtype is np.uint64:
            # The request PCG64 makes: served from :func:`_hash_leaves`.
            return self._state
        return _generate_state(_pools([self]), n_words, dtype)[0]

    def _prefix(self) -> tuple:
        """The run entropy words, zero-padded to the pool size so a spawn
        key cannot collide with them, then the spawn key words."""
        run = _entropy_words(self.entropy)
        return tuple(run + [0] * (_POOL_SIZE - len(run)) + _entropy_words(self.spawn_key))

    def _assembled(self) -> tuple:
        """NumPy's assembled entropy words (unpadded without a spawn key)."""
        if self._words is None:
            self._words = (
                self._prefix() if self.spawn_key else tuple(_entropy_words(self.entropy))
            )
        return self._words


def _pools(nodes: Sequence[SeedNode]) -> np.ndarray:
    """``(len(nodes), 4)`` entropy pools, hashed in one pass per distinct
    assembled-entropy length (almost always one)."""
    words = [node._assembled() for node in nodes]
    lengths = np.array([len(w) for w in words])
    pools = np.empty((len(nodes), _POOL_SIZE), dtype=np.uint32)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        flat = np.fromiter(
            chain.from_iterable(words[i] for i in rows.tolist()),
            dtype=np.uint32,
            count=len(rows) * length,
        ).reshape(len(rows), length)
        if length < _POOL_SIZE:
            flat = np.pad(flat, ((0, 0), (0, _POOL_SIZE - length)))
        pools[rows] = _mix_pools(flat)
    return pools


def _generate_state(pools: np.ndarray, n_words: int, dtype=np.uint32) -> np.ndarray:
    """NumPy's ``generate_state`` of every pool row: ``(n, n_words)``."""
    dtype = np.dtype(dtype)
    if dtype == np.uint64:
        n_words *= 2
    elif dtype != np.uint32:
        raise ValueError("only support uint32 or uint64")
    cycle = np.arange(n_words) % _POOL_SIZE
    state = _hashmix(pools[:, cycle], _hash_constants(_INIT_B, _MULT_B, n_words))
    if dtype == np.uint64:
        state = np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)
    return state


def _hash_leaves(seeds) -> None:
    """Hash every not yet hashed :class:`SeedNode` among ``seeds`` in one
    pass; other entries are ignored."""
    pending = [s for s in seeds if isinstance(s, SeedNode) and s._state is None]
    if pending:
        states = _generate_state(_pools(pending), 4, np.uint64)
        states.flags.writeable = False
        for node, state in zip(pending, states):
            node._state = state


def _as_leaf(seed: SeedLike):
    if isinstance(seed, (np.random.Generator, SeedNode, np.random.SeedSequence)):
        return seed
    if seed is None:
        return SeedNode(secrets.randbits(32 * _POOL_SIZE))
    return SeedNode(seed)


def make_rngs(seeds: Sequence[SeedLike]) -> list[np.random.Generator]:
    """One :class:`numpy.random.Generator` per entry of ``seeds``, every
    seed-tree node among them hashed in one pass.

    An existing generator is returned unchanged; a node (:class:`SeedNode`,
    or a :class:`numpy.random.SeedSequence`), an integer seed or ``None``
    (OS entropy) gets a new generator, bit-identical to
    ``np.random.default_rng(seed)``.
    """
    leaves = [_as_leaf(seed) for seed in seeds]
    _hash_leaves(leaves)
    built = sum(not isinstance(leaf, np.random.Generator) for leaf in leaves)
    if built:
        _obs_active().count("rng.generators_spawned", built)
    return [
        leaf
        if isinstance(leaf, np.random.Generator)
        else np.random.Generator(np.random.PCG64(leaf))
        for leaf in leaves
    ]


def make_rng(seed: SeedLike) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``: the batch of
    one of :func:`make_rngs`."""
    return make_rngs([seed])[0]


def spawn_seeds(seed: SeedLike, count: int) -> list:
    """The next ``count`` children of ``seed``'s seed-tree node, as nodes.

    ``make_rng(child)`` for each child is bit-identical to
    ``spawn(make_rng(seed), count)``, and a caller-held generator,
    :class:`SeedNode` or :class:`~numpy.random.SeedSequence` advances its
    spawn counter exactly as :func:`spawn` would -- but nothing is hashed
    and no generator is built, so interior nodes of a tree cost nothing.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if isinstance(seed, np.random.Generator):
        seed = seed.bit_generator.seed_seq
    return _as_leaf(seed).spawn(count)


def spawn(rng: SeedLike, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` statistically independent child generators of
    ``rng``'s seed-tree node (a generator or any :func:`spawn_seeds` input)."""
    return make_rngs(spawn_seeds(rng, count))


def derived_seeds(root_seed: int, start: int, count: int) -> list[int]:
    """Deterministic integer seeds for components ``start .. start+count-1``
    under ``root_seed``, hashed in one pass.

    Topology ``i`` always receives the same seed regardless of how many
    topologies a sweep evaluates or how the indices are batched: each is
    the first state word of ``SeedSequence((root_seed, i))``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    _obs_active().count("rng.seeds_derived", count)
    return _derive(root_seed, start, count)


def derived_seed(root_seed: int, index: int) -> int:
    """Deterministic integer seed for component ``index`` under
    ``root_seed``: the batch of one of :func:`derived_seeds`."""
    return _derive(root_seed, index, 1)[0]


def _derive(root_seed: int, start: int, count: int) -> list[int]:
    if not count:
        return []
    nodes = [SeedNode((root_seed, index)) for index in range(start, start + count)]
    return _generate_state(_pools(nodes), 1)[:, 0].tolist()


def seed_stream(root_seed: int) -> Iterator[int]:
    """Yield an unbounded stream of derived integer seeds from ``root_seed``."""
    counter = 0
    while True:
        yield derived_seed(root_seed, counter)
        counter += 1
