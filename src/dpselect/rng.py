"""Seeded random streams.

Every stochastic operation in this package draws from numpy's PCG64 bit
generator, keyed through ``SeedSequence`` so that distinct (seed, stream)
pairs yield statistically independent streams. Stream keys are plain
integers; callers name their streams with the constants below instead of
ad-hoc seed arithmetic, which keeps runs reproducible when new consumers
of randomness are added.

:func:`generator` and :func:`derive_seed` build one ``SeedSequence`` per
call. A training run needs three or four streams per step, so
:class:`RunStreams` runs numpy's ``SeedSequence`` hash (O'Neill's
``seed_seq`` mixing, plain uint32 arithmetic) vectorized over a chunk of
steps in [0, 2^32), and seeds a new ``PCG64`` with each step's generated
words. Every draw is bit-identical to the per-call functions; the tests
compare both against numpy's own classes. Model and step functions take
generators.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream identifiers. New consumers append; never renumber.
STREAM_DATA = 0
STREAM_INIT = 1
STREAM_BATCH = 2
STREAM_NOISE = 3
STREAM_DROPOUT = 4
STREAM_SCORE = 5

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
# Steps keyed per array pass; bounds the memory of a run's streams.
CHUNK_STEPS = 256


def _check_seed(seed) -> int:
    if seed is None:
        raise ValueError("a seed is required; None would draw from OS entropy")
    return seed


def generator(seed: int, *stream: int) -> np.random.Generator:
    """Return a PCG64 generator for ``seed`` on the given stream key."""
    ss = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(stream))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *stream: int) -> int:
    """Derive a child integer seed, e.g. for per-member training runs."""
    ss = np.random.SeedSequence(entropy=_check_seed(seed), spawn_key=tuple(stream))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _words(value) -> list[int]:
    """A non-negative integer as little-endian uint32 words, as SeedSequence splits it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("seeds and stream keys must be non-negative")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix_pool(words) -> list:
    """SeedSequence's entropy pool of at least ``_POOL_SIZE`` uint32 array words.

    A word every step shares has length 1 (numpy wraps arrays silently but
    warns on 0-d operands); the pool broadcasts to the per-step words.
    """
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ (out >> _XSHIFT)

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _generate(pool, n_words: int) -> list:
    """The first ``n_words`` uint32 words of ``SeedSequence.generate_state``."""
    h = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h
        out.append(value ^ (value >> _XSHIFT))
    return out


class _StepWords(ISeedSequence):
    """One step's seed: what ``SeedSequence.generate_state(4, np.uint64)``
    returns for its key, as one C-contiguous row that ``PCG64`` reads."""

    def __init__(self, row: np.ndarray):
        self._row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a step seeds only PCG64: four uint64 words")
        return self._row


class RunStreams:
    """The batch, dropout and noise streams of one training run.

    For a run seed ``s`` and step ``t``:

    * ``batch(t)`` draws as ``generator(s, STREAM_BATCH, t)``;
    * ``dropout(t, layer)`` as
      ``generator(derive_seed(s, STREAM_DROPOUT, t), STREAM_DROPOUT, layer)``,
      and with ``parent=STREAM_SCORE`` as the masks of Monte Carlo dropout
      pass ``t``;
    * ``noise(t)`` as ``generator(derive_seed(s, STREAM_NOISE, t))``.

    Steps are in [0, 2^32); others raise ``ValueError``. Each stream hashes
    the keys of :data:`CHUNK_STEPS` steps, from the first step asked for, in
    one array pass and keeps them until a step outside the chunk is asked
    for. Every call returns a new, independent ``Generator``.
    """

    def __init__(self, seed: int):
        words = _words(_check_seed(seed))
        self._entropy = words + [0] * (_POOL_SIZE - len(words))
        self._chunks: dict = {}

    def batch(self, t: int) -> np.random.Generator:
        return self._load((STREAM_BATCH, None), t)

    def dropout(self, t: int, layer: int, parent: int = STREAM_DROPOUT) -> np.random.Generator:
        return self._load((parent, (STREAM_DROPOUT, layer)), t)

    def noise(self, t: int) -> np.random.Generator:
        return self._load((STREAM_NOISE, ()), t)

    def _load(self, key: tuple, t: int) -> np.random.Generator:
        start, rows = self._chunks.get(key, (0, ()))
        if not 0 <= t - start < len(rows):
            t = operator.index(t)
            if not 0 <= t < 1 << 32:
                raise ValueError("steps must be in [0, 2^32)")
            start, rows = t, self._chunk_words(*key, t)
            self._chunks[key] = start, rows
        return np.random.Generator(np.random.PCG64(_StepWords(rows[t - start])))

    def _chunk_words(self, parent: int, child, start: int) -> np.ndarray:
        """The ``(steps, 4)`` uint64 PCG64 seeds of a chunk of steps from
        ``start``: ``SeedSequence(seed, spawn_key=(parent, t))``, or with
        ``child`` a tuple, the child ``SeedSequence(derive_seed(seed,
        parent, t), spawn_key=child)``."""
        steps = np.arange(start, min(start + CHUNK_STEPS, 1 << 32), dtype=np.uint32)
        shared = np.array(self._entropy + _words(parent), np.uint32)[:, None]
        pool = _mix_pool([*shared, steps])
        if child is not None:
            # The derived seed is two words. numpy zero-pads entropy to the
            # pool size when there is a spawn key; with none, the pool is
            # filled by hashing zeros, so a derived seed below 2^32 (one
            # word) hashes the same as its two zero-padded words either way.
            pad = [0] * (_POOL_SIZE - 2) + [w for key in child for w in _words(key)]
            pool = _mix_pool(_generate(pool, 2) + list(np.array(pad, np.uint32)[:, None]))
        # generate_state(4, np.uint64) pairs the words little-end first.
        words = np.stack(_generate(pool, 8), axis=1).astype(np.uint64)
        return words[:, 0::2] | words[:, 1::2] << 32
