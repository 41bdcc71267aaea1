"""Seeded random streams.

Every stochastic operation in this package draws from numpy's PCG64 bit
generator, keyed through ``SeedSequence`` so that distinct (seed, stream)
pairs yield statistically independent streams. Stream keys are plain
integers; callers name their streams with the constants below instead of
ad-hoc seed arithmetic, which keeps runs reproducible when new consumers
of randomness are added.

:func:`generator` and :func:`derive_seed` build one ``SeedSequence`` per
call. A training run needs three or four streams per step, so
:class:`RunStreams` derives the same streams for a whole run: it runs
numpy's ``SeedSequence`` hash (O'Neill's ``seed_seq`` mixing, plain uint32
arithmetic) vectorized over a chunk of steps, turns each step's key into a
PCG64 state with the PCG set-seq initialization, and loads that state into
a bit generator it reuses, for steps in [0, 2^32) (one uint32 key word).
Every draw is bit-identical to the per-call functions; the tests compare
both against numpy's own classes. Model and step functions take generators.
"""

from __future__ import annotations

import operator

import numpy as np

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
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
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


def _mul(a, b):
    """uint32 product; a Python int stays one until it meets an array."""
    out = a * b
    return out & _MASK32 if isinstance(out, int) else out


def _mix_pool(words) -> list:
    """SeedSequence's entropy pool of ``words``.

    Each word is a Python int (shared by every step) or a uint32 array (one
    entry per step); the pool entries come back in the same form.
    """
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = _mul(value, h)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = _mul(_MIX_MULT_L, x) - _mul(_MIX_MULT_R, y)
        out = out & _MASK32 if isinstance(out, int) else out
        return out ^ (out >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
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
        value = _mul(value, h)
        out.append(value ^ (value >> _XSHIFT))
    return out


def _pcg_states(words) -> list[tuple[int, int]]:
    """``(state, inc)`` of a ``PCG64`` seeded with eight generated words per step.

    PCG64 reads the four uint64 words as ``initstate`` and ``initseq``; the
    set-seq initialization then gives ``inc = 2 initseq + 1`` and
    ``state = (inc + initstate) * MULT + inc`` modulo 2^128.
    """
    u64 = [
        (lo.astype(np.uint64) | (hi.astype(np.uint64) << 32)).tolist()
        for lo, hi in zip(words[0::2], words[1::2])
    ]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*u64):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


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
    for. Each method loads the step's state into a bit generator of its own
    and returns the same ``Generator`` every time, so a returned generator
    is valid until the next call of the same method.
    """

    def __init__(self, seed: int):
        words = _words(_check_seed(seed))
        self._entropy = words + [0] * (_POOL_SIZE - len(words))
        self._chunks: dict = {}
        self._generators: dict = {}

    def batch(self, t: int) -> np.random.Generator:
        return self._load(("batch", STREAM_BATCH, None), t)

    def dropout(self, t: int, layer: int, parent: int = STREAM_DROPOUT) -> np.random.Generator:
        return self._load(("dropout", parent, (STREAM_DROPOUT, layer)), t)

    def noise(self, t: int) -> np.random.Generator:
        return self._load(("noise", STREAM_NOISE, ()), t)

    def _load(self, key: tuple, t: int) -> np.random.Generator:
        start, states = self._chunks.get(key, (0, ()))
        if not 0 <= t - start < len(states):
            t = operator.index(t)
            if not 0 <= t < 1 << 32:
                raise ValueError("steps must be in [0, 2^32)")
            start, states = t, self._chunk_states(*key[1:], t)
            self._chunks[key] = start, states
        gen = self._generators.get(key[0])
        if gen is None:
            gen = self._generators[key[0]] = np.random.Generator(np.random.PCG64(0))
        state, inc = states[t - start]
        gen.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def _chunk_states(self, parent: int, child, start: int) -> list[tuple[int, int]]:
        """States of a chunk of steps from ``start``: ``SeedSequence(seed,
        spawn_key=(parent, t))``, or with ``child`` a tuple, the child
        ``SeedSequence(derive_seed(seed, parent, t), spawn_key=child)``."""
        steps = np.arange(start, min(start + CHUNK_STEPS, 1 << 32), dtype=np.uint32)
        pool = _mix_pool([*self._entropy, *_words(parent), steps])
        if child is not None:
            # The derived seed is two words. numpy zero-pads entropy to the
            # pool size when there is a spawn key; with none, the pool is
            # filled by hashing zeros, so a derived seed below 2^32 (one
            # word) hashes the same as its two words either way.
            words = _generate(pool, 2)
            if child:
                words += [0] * (_POOL_SIZE - 2) + [w for key in child for w in _words(key)]
            pool = _mix_pool(words)
        return _pcg_states(_generate(pool, 8))
