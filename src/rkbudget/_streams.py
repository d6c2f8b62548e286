"""Random streams keyed by tuples of integers, seeded in one vectorised pass.

Every random stream of the program is keyed: trial ``t`` of a campaign with
seed ``s`` draws from ``np.random.default_rng((s, t))``, and draw ``i`` of a
toy study at dimension ``nv`` from ``np.random.default_rng((s, nv, i))``.
Building one ``default_rng`` per key costs a SeedSequence hash in Python
objects each time.  :class:`KeyedStreams` gives the same streams, bit for
bit, for a whole range of last key entries: it runs numpy's SeedSequence
hash (restated from ``numpy/random/bit_generator.pyx``) over that range as
uint32 array operations, and numpy's PCG64 seeds each stream from its words.

NEP 19 lets ``default_rng`` change between numpy versions;
``tests/test_streams.py`` holds these streams to ``default_rng`` bit for
bit, so such a change fails there.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator, Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
# SeedSequence: pool size, hash constants and mixing multipliers.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(part) -> list[int]:
    """SeedSequence's uint32 entropy words of one key entry, least significant first."""
    if isinstance(part, (float, np.inexact)):
        raise TypeError("seed must be integer")
    n = operator.index(part)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hash, whose multiplier moves on with every word hashed."""

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hash_words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ r >> 16


def _seed_words(key: Sequence[int], indices: range) -> np.ndarray:
    """``SeedSequence((*key, i)).generate_state(4, np.uint64)`` for each ``i``
    in ``indices``, as the rows of a ``(len(indices), 4)`` uint64 array."""
    if indices.step != 1 or indices.start < 0 or indices.stop > _MASK32 + 1:
        raise ValueError(f"stream indices must be a unit-step range within [0, 2**32), got {indices}")
    n = len(indices)
    # The last entry is one word for every index, so all keys hash alike.
    entropy = [np.full(n, word, np.uint32) for part in key for word in _words(part)]
    entropy.append(np.arange(indices.start, indices.start + n, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(n, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # Eight output words, paired little-endian into four uint64 words.
    out = _hasher(_INIT_B, _MULT_B)
    words = [out(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return np.stack([words[2 * k] | words[2 * k + 1] << 32 for k in range(_POOL_SIZE)], axis=1)


def _index_bytes(key: Sequence[int]) -> int:
    """The most bytes per index that building ``KeyedStreams(key, indices)``
    holds at once, besides a few kilobytes of array headers: the key's words
    and the index's as uint32 (4 bytes each), a zero word (4), the pool (16),
    the eight output words as uint64 (64), and the four paired words before
    and after stacking (64).  Once built, the streams hold 32 bytes per index."""
    return 152 + 4 * sum(len(_words(part)) for part in key)


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands PCG64 a given row of seed words, made on
    first use: importing ``numpy.random`` costs a CLI start about 10 ms."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # the four uint64 words PCG64 asks for

    return SeedWords


class KeyedStreams:
    """The streams ``np.random.default_rng((*key, i))`` for ``i`` in ``indices``.

    Iterating yields a new generator per index, in index order, in the state
    ``default_rng`` would give it, so streams taken together may be drawn in
    any order, and threads may iterate the same streams at once.  Key entries
    must be non-negative integers, with the errors ``default_rng`` raises for
    others.  The streams hold 32 bytes per index until iterated.  A slice
    gives the streams of ``indices[part]`` from the same rows of seed words,
    hashing nothing again.
    """

    def __init__(self, key: Sequence[int], indices: range):
        self._seed_words = _seed_words(key, indices)

    def __len__(self) -> int:
        return len(self._seed_words)

    def __getitem__(self, part: slice) -> KeyedStreams:
        streams = object.__new__(KeyedStreams)
        streams._seed_words = self._seed_words[part]
        return streams

    def __iter__(self) -> Iterator[np.random.Generator]:
        seed_words = _seed_words_type()
        for words in self._seed_words:
            yield np.random.Generator(np.random.PCG64(seed_words(words)))
