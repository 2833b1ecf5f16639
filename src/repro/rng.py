"""Deterministic random-number plumbing.

Every stochastic component (topology placement, shadowing, fading, backoff)
draws from its own child stream spawned from a single root seed, so that

* results are bit-reproducible given a seed, and
* adding draws to one component never perturbs another component's stream.

A seed-tree node is its run entropy and spawn key, exactly as in
:class:`numpy.random.SeedSequence`, and naming one hashes nothing.  A
batch of nodes is a :class:`SeedBatch`: ``(n,)`` root entropies plus one
``(n, depth)`` spawn-key matrix, so spawning every row's children adds a
column and builds no objects.  :meth:`SeedBatch.state_words` hashes every
row in one vectorized pass (a uint32 array port of NumPy's
``SeedSequence`` pool mixing) into the ``(n, 4)`` PCG64 seed words.  A
leaf that draws uniforms only (placement) steps those states as arrays in
a :class:`PCG64Lanes`, one lane per row; a leaf that draws normals
(shadowing, fading, CSI, mobility, traffic) gets one
:class:`numpy.random.Generator` each, built from its row of state words
(:meth:`SeedBatch.generators`, :func:`make_rngs`).  :class:`SeedNode` is a
single node -- a batch of one -- for caller-held trees and
``np.random.default_rng(node)``.  Every stream is bit-identical to the one
``np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))``
draws.  Interior nodes (a topology's root, its shadowing parent) are never
hashed and never hold a generator.
"""

from __future__ import annotations

import secrets
from functools import cache
from itertools import chain
from typing import Sequence, Union

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
    """One node of the seed tree, run entropy plus a spawn key: the batch
    of one of :class:`SeedBatch`, for caller-held trees.

    Streams are those of ``np.random.SeedSequence(entropy,
    spawn_key=spawn_key)``; building or spawning a node hashes nothing.
    ``np.random.default_rng(node)`` works, but :func:`make_rngs` builds a
    list of leaves with one hash.
    """

    __slots__ = ("entropy", "spawn_key", "n_children_spawned", "_state")

    pool_size = _POOL_SIZE

    def __init__(self, entropy, spawn_key: Sequence[int] = (), n_children_spawned: int = 0):
        self.entropy = entropy
        self.spawn_key = tuple(spawn_key)
        self.n_children_spawned = n_children_spawned
        #: PCG64 seed words, when hashed with a batch.
        self._state: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"SeedNode(entropy={self.entropy!r}, spawn_key={self.spawn_key!r})"

    def spawn(self, n_children: int) -> list[SeedNode]:
        start = self.n_children_spawned
        self.n_children_spawned += n_children
        return [
            SeedNode(self.entropy, self.spawn_key + (i,))
            for i in range(start, start + n_children)
        ]

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if self._state is not None and n_words == 4 and dtype is np.uint64:
            # The request PCG64 makes: served from the batch hash.
            return self._state
        return SeedBatch.from_seeds([self]).state_words(n_words, dtype)[0]


def _pools(words: Sequence[tuple]) -> np.ndarray:
    """``(len(words), 4)`` entropy pools of assembled entropy word rows
    (each at least the pool size), one pass per distinct row length."""
    lengths = np.array([len(w) for w in words])
    pools = np.empty((len(words), _POOL_SIZE), dtype=np.uint32)
    for length in np.unique(lengths).tolist():
        rows = np.flatnonzero(lengths == length)
        flat = np.fromiter(
            chain.from_iterable(words[i] for i in rows.tolist()),
            dtype=np.uint32,
            count=len(rows) * length,
        ).reshape(len(rows), length)
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


def _node_parts(seed) -> tuple:
    """``(entropy, spawn_key, next child index, caller-held node or None)``
    of one :meth:`SeedBatch.from_seeds` entry."""
    if isinstance(seed, np.random.Generator):
        seed = seed.bit_generator.seed_seq
    node = _as_leaf(seed)
    if node.pool_size != _POOL_SIZE:
        raise ValueError(f"only SeedSequences of pool size {_POOL_SIZE} can be batched")
    held = node if node is seed else None
    return node.entropy, tuple(node.spawn_key), node.n_children_spawned, held


def _advance(node, count: int) -> None:
    """Advance a caller-held node's spawn counter as ``spawn(count)`` does."""
    if isinstance(node, SeedNode):
        node.n_children_spawned += count
    else:
        node.spawn(count)


def _objects(values) -> np.ndarray:
    values = list(values)
    return np.fromiter(values, dtype=object, count=len(values))


class SeedBatch:
    """``n`` seed-tree nodes as arrays: the batch form of :class:`SeedNode`.

    Row ``i`` is the node ``SeedSequence(entropy[i], spawn_key=root_key +
    tuple(keys[i]))``, where ``root_key`` is the spawn key of the node row
    ``i`` started from (empty for an integer seed) and :attr:`keys` is the
    ``(n, depth)`` matrix of child indices spawned since.  :meth:`spawn`
    adds a column and builds no objects; child ``j`` of row ``i`` is an
    index (``i * k + j`` for ``spawn(k)``).  :meth:`state_words` hashes
    every row in one pass, and a row becomes a stream only where it draws:
    :meth:`lanes` for uniforms, :meth:`generators` for anything else.
    """

    __slots__ = ("entropy", "keys", "_root_keys", "_prefix", "_prefix_len", "_next", "_held")

    def __init__(self, entropy, root_keys, prefix, prefix_len, keys, next_child, held=()):
        #: ``(n,)`` object array of root entropies.
        self.entropy = entropy
        #: ``(n, depth)`` uint64 child indices spawned under each root.
        self.keys = keys
        self._root_keys = root_keys
        #: Each root's assembled entropy words (run entropy zero-padded to
        #: the pool size, then its spawn key), zero-filled past
        #: ``_prefix_len``.
        self._prefix = prefix
        self._prefix_len = prefix_len
        #: Each row's next child index.
        self._next = next_child
        #: ``(row, node)`` pairs of caller-held nodes whose spawn counters
        #: advance with their rows'.
        self._held = tuple(held)

    @classmethod
    def from_seeds(cls, seeds) -> SeedBatch:
        """One row per seed: an int (or int sequence) entropy, ``None`` (OS
        entropy), a :class:`SeedNode`, a :class:`numpy.random.SeedSequence`
        or a generator (its seed sequence).  A row taken from a caller-held
        node or generator continues its spawn counter, and :meth:`spawn`
        advances it exactly as :func:`spawn_seeds` does.  A batch is
        returned unchanged."""
        if isinstance(seeds, SeedBatch):
            return seeds
        seeds = list(seeds)
        n = len(seeds)
        no_keys = np.empty((n, 0), dtype=np.uint64)
        if all(type(seed) is int for seed in seeds) and (
            n == 0 or (min(seeds) >= 0 and max(seeds) <= _MASK32)
        ):
            # The common case: one-word integer seeds.
            prefix = np.zeros((n, _POOL_SIZE), dtype=np.uint32)
            prefix[:, 0] = seeds
            return cls(
                _objects(seeds), None, prefix, np.full(n, _POOL_SIZE), no_keys,
                np.zeros(n, dtype=np.uint64),
            )
        parts = [_node_parts(seed) for seed in seeds]
        words = [_root_words(entropy, key) for entropy, key, _, _ in parts]
        lengths = np.array([len(w) for w in words], dtype=np.int64)
        prefix = np.zeros((n, int(lengths.max(initial=_POOL_SIZE))), dtype=np.uint32)
        prefix[np.arange(prefix.shape[1]) < lengths[:, None]] = np.fromiter(
            chain.from_iterable(words), dtype=np.uint32, count=int(lengths.sum())
        )
        keys = [key for _, key, _, _ in parts]
        return cls(
            _objects(entropy for entropy, _, _, _ in parts),
            _objects(keys) if any(keys) else None,
            prefix,
            lengths,
            no_keys,
            np.array([count for _, _, count, _ in parts], dtype=np.uint64),
            [(row, node) for row, (_, _, _, node) in enumerate(parts) if node is not None],
        )

    def __len__(self) -> int:
        return len(self._next)

    def __getitem__(self, rows) -> SeedBatch:
        """The rows ``rows`` (a slice or index array) as a batch of their
        own; its counters start at the parent's and advance separately."""
        index = np.arange(len(self))[rows]
        return self._rows(np.atleast_1d(index))

    def _rows(self, index: np.ndarray) -> SeedBatch:
        held = ()
        if self._held:
            owner = dict(self._held)
            held = [(new, owner[old]) for new, old in enumerate(index.tolist()) if old in owner]
        return SeedBatch(
            self.entropy[index],
            None if self._root_keys is None else self._root_keys[index],
            self._prefix[index],
            self._prefix_len[index],
            self.keys[index],
            self._next[index],
            held,
        )

    def spawn(self, counts) -> SeedBatch:
        """The next ``counts`` children of every row (an int, or one count
        per row), grouped by parent: spawning twice continues the
        counters.  Nothing is hashed and no node object is built."""
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64), (len(self),))
        if (counts < 0).any():
            raise ValueError("count must be non-negative")
        for row, node in self._held:
            # Read the counter now: a node repeated in the batch (or
            # spawned by its owner since) takes its children in row order.
            self._next[row] = node.n_children_spawned
            _advance(node, int(counts[row]))
        parents = np.repeat(np.arange(len(self)), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        index = self._next[parents] + (np.arange(len(parents)) - first).astype(np.uint64)
        self._next += counts.astype(np.uint64)
        children = self._rows(parents)
        children.keys = np.concatenate((children.keys, index[:, None]), axis=1)
        children._next = np.zeros(len(parents), dtype=np.uint64)
        children._held = ()
        return children

    def spawn_keys(self) -> list[tuple]:
        """Each row's full spawn key, as :class:`SeedSequence` names it."""
        keys = map(tuple, self.keys.tolist())
        if self._root_keys is None:
            return list(keys)
        return [root + key for root, key in zip(self._root_keys.tolist(), keys)]

    def state_words(self, n_words: int = 4, dtype=np.uint64) -> np.ndarray:
        """Every row's ``SeedSequence.generate_state(n_words, dtype)``,
        ``(n, n_words)``; the default is the PCG64 seed words.  Rows are
        hashed in one pass per distinct entropy length (almost always
        one)."""
        return _generate_state(self._pools(), n_words, dtype)

    def _pools(self) -> np.ndarray:
        if self.keys.size and int(self.keys.max()) > _MASK32:
            # Spawn indices past 32 bits take two words: assemble row by row.
            return _pools(
                [
                    tuple(self._prefix[i, :length].tolist()) + tuple(_entropy_words(key))
                    for i, (length, key) in enumerate(
                        zip(self._prefix_len.tolist(), map(tuple, self.keys.tolist()))
                    )
                ]
            )
        key_words = self.keys.astype(np.uint32)
        pools = np.empty((len(self), _POOL_SIZE), dtype=np.uint32)
        for length in np.unique(self._prefix_len).tolist():
            rows = np.flatnonzero(self._prefix_len == length)
            pools[rows] = _mix_pools(
                np.concatenate((self._prefix[rows, :length], key_words[rows]), axis=1)
            )
        return pools

    def lanes(self) -> PCG64Lanes:
        """One PCG64 uniform stream per row, stepped as arrays."""
        return PCG64Lanes(self.state_words())

    def generators(self) -> list[np.random.Generator]:
        """One :class:`numpy.random.Generator` per row, all rows hashed in
        one pass; each generator's ``seed_seq`` is the row's
        :class:`SeedNode`."""
        states = self.state_words()
        states.flags.writeable = False
        nodes = []
        for entropy, key, count, state in zip(
            self.entropy.tolist(), self.spawn_keys(), self._next.tolist(), states
        ):
            node = SeedNode(entropy, key, count)
            node._state = state
            nodes.append(node)
        if nodes:
            _obs_active().count("rng.generators_spawned", len(nodes))
        return [np.random.Generator(np.random.PCG64(node)) for node in nodes]


def _root_words(entropy, spawn_key) -> tuple:
    """A root node's assembled entropy words, its run entropy zero-padded
    to the pool size (NumPy's padding before a spawn key, and how a short
    run hashes without one)."""
    run = _entropy_words(entropy)
    return tuple(run + [0] * (_POOL_SIZE - len(run)) + _entropy_words(spawn_key))


# PCG64 (NumPy's ``pcg_setseq_128_xsl_rr_64``) on 64-bit limbs.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_LOW32 = np.uint64(_MASK32)
_U32, _U1, _U11, _U58, _U63, _U64 = (np.uint64(v) for v in (32, 1, 11, 58, 63, 64))
#: Steps one pass of :meth:`PCG64Lanes.random` computes per lane at most,
#: and the most ``(lane, step)`` states one pass holds.
_JUMPS = 1024
_PASS_STATES = 1 << 16


def _mul64(a, b):
    """Full 128-bit products of uint64 arrays, as ``(hi, lo)`` limbs."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    low, cross_a, cross_b = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> _U32) + (cross_a & _LOW32) + (cross_b & _LOW32)
    hi = a1 * b1 + (cross_a >> _U32) + (cross_b >> _U32) + (mid >> _U32)
    return hi, a * b


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """Products modulo 2**128 of 128-bit values held as limb pairs."""
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_hi * b_lo + a_lo * b_hi, lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _limbs(values) -> tuple[np.ndarray, np.ndarray]:
    values = list(values)
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


@cache
def _jump_table() -> tuple[np.ndarray, ...]:
    """``j`` LCG steps map a state ``s`` to ``mult[j - 1] * s + add[j - 1]
    * inc`` (mod 2**128), for ``j = 1 .. _JUMPS``: ``(mult_hi, mult_lo,
    add_hi, add_lo)``."""
    mult, add = [_PCG_MULT], [1]
    for _ in range(_JUMPS - 1):
        mult.append(mult[-1] * _PCG_MULT & _MASK128)
        add.append((add[-1] * _PCG_MULT + 1) & _MASK128)
    return (*_limbs(mult), *_limbs(add))


def _uniform(hi, lo) -> np.ndarray:
    """PCG64's XSL-RR output of each state, as ``Generator.random``'s
    double: ``(x >> 11) * 2**-53``."""
    x = hi ^ lo
    rot = hi >> _U58
    out = (x >> rot) | (x << ((_U64 - rot) & _U63))
    return (out >> _U11) * (1.0 / 9007199254740992.0)


class PCG64Lanes:
    """``n`` independent PCG64 streams, one lane each, stepped as uint64
    arrays.

    Lane ``i`` seeded with row ``i`` of ``state_words`` (``(n, 4)`` uint64,
    :meth:`SeedBatch.state_words`) is ``np.random.PCG64`` seeded from the
    same node, and :meth:`random` draws exactly the doubles that lane's
    ``Generator.random`` would.  Lanes step only when drawn, so each keeps
    its own position in its stream.
    """

    def __init__(self, state_words):
        words = np.asarray(state_words, dtype=np.uint64).reshape(-1, 4)
        # NumPy's pcg64_set_seed: the increment is ``seq << 1 | 1``; step
        # from state 0, add the initial state, step again.
        self._inc_hi = (words[:, 2] << _U1) | (words[:, 3] >> _U63)
        self._inc_lo = (words[:, 3] << _U1) | _U1
        hi, lo = _add128(self._inc_hi, self._inc_lo, words[:, 0], words[:, 1])
        mult_hi, mult_lo = _limbs([_PCG_MULT])
        hi, lo = _mul128(hi, lo, mult_hi, mult_lo)
        self._hi, self._lo = _add128(hi, lo, self._inc_hi, self._inc_lo)

    def __len__(self) -> int:
        return len(self._hi)

    def state(self, lane: int) -> dict:
        """Lane ``lane``'s state as ``PCG64.state["state"]`` reports it."""
        return {
            "state": int(self._hi[lane]) << 64 | int(self._lo[lane]),
            "inc": int(self._inc_hi[lane]) << 64 | int(self._inc_lo[lane]),
        }

    def random(self, shape, lanes=None) -> np.ndarray:
        """``Generator.random(shape)`` of each lane in ``lanes`` (an index
        array; every lane by default), stacked: ``(len(lanes), *shape)``.
        Other lanes do not step."""
        shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        count = int(np.prod(shape, dtype=np.int64))
        rows = slice(None) if lanes is None else np.asarray(lanes, dtype=np.int64)
        hi, lo = self._hi[rows], self._lo[rows]
        inc_hi, inc_lo = self._inc_hi[rows, None], self._inc_lo[rows, None]
        out = np.empty((len(hi), count))
        mult_hi, mult_lo, add_hi, add_lo = _jump_table()
        width = max(1, min(count, _JUMPS, _PASS_STATES // max(len(hi), 1)))
        for start in range(0, count, width):
            stop = min(start + width, count)
            steps = slice(0, stop - start)
            # Every state of the pass at once: j steps from (hi, lo).
            s_hi, s_lo = _mul128(hi[:, None], lo[:, None], mult_hi[steps], mult_lo[steps])
            s_hi, s_lo = _add128(
                s_hi, s_lo, *_mul128(inc_hi, inc_lo, add_hi[steps], add_lo[steps])
            )
            out[:, start:stop] = _uniform(s_hi, s_lo)
            hi, lo = s_hi[:, -1], s_lo[:, -1]
        if count:
            self._hi[rows], self._lo[rows] = hi, lo
        return out.reshape((len(out), *shape))


def _hash_leaves(seeds) -> None:
    """Hash every not yet hashed :class:`SeedNode` among ``seeds`` in one
    pass; other entries are ignored."""
    pending = [s for s in seeds if isinstance(s, SeedNode) and s._state is None]
    if pending:
        states = SeedBatch.from_seeds(pending).state_words()
        states.flags.writeable = False
        for node, state in zip(pending, states):
            node._state = state


def _as_leaf(seed: SeedLike):
    if isinstance(seed, (np.random.Generator, SeedNode, np.random.SeedSequence)):
        return seed
    if seed is None:
        return SeedNode(secrets.randbits(32 * _POOL_SIZE))
    return SeedNode(seed)


def make_rngs(seeds) -> list[np.random.Generator]:
    """One :class:`numpy.random.Generator` per entry of ``seeds``, every
    seed-tree node among them hashed in one pass.

    An existing generator is returned unchanged; a node (:class:`SeedNode`,
    or a :class:`numpy.random.SeedSequence`), an integer seed or ``None``
    (OS entropy) gets a new generator, bit-identical to
    ``np.random.default_rng(seed)``.  A :class:`SeedBatch` gets one
    generator per row (:meth:`SeedBatch.generators`).
    """
    if isinstance(seeds, SeedBatch):
        return seeds.generators()
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
    """The entropy ``(root_seed, index)`` is the root's words, then the
    index's one word (two past 32 bits): hashed as arrays, one pass per
    index width."""
    if not count:
        return []
    if start < 0:
        raise ValueError("expected non-negative integer")
    run = _entropy_words(root_seed)
    index = np.arange(start, start + count, dtype=np.uint64)
    low = index & _LOW32
    high = index >> _U32
    pools = np.empty((count, _POOL_SIZE), dtype=np.uint32)
    for rows, words in (
        (high == 0, (low,)),
        (high > 0, (low, high)),
    ):
        if rows.any():
            width = max(_POOL_SIZE, len(run) + len(words))
            flat = np.zeros((int(rows.sum()), width), dtype=np.uint32)
            flat[:, : len(run)] = run
            for k, column in enumerate(words):
                flat[:, len(run) + k] = column[rows]
            pools[rows] = _mix_pools(flat)
    return _generate_state(pools, 1)[:, 0].tolist()
