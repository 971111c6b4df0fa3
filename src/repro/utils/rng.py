"""Deterministic random-number management.

Every stochastic component in the repository (dataset synthesis, negative
sampling, client sampling/swapping, model initialization) draws from a
:class:`numpy.random.Generator` created here, so a single integer seed
reproduces an entire experiment end to end.

Cohort-wide keyed draws (:meth:`RngFactory.random_indexed`,
:meth:`RngFactory.iter_indexed`) seed many ``(name, key)`` streams at once
with a vectorised copy of NumPy's ``SeedSequence`` → ``PCG64`` seeding.
Its values are ``==`` to :meth:`RngFactory.spawn_indexed`'s for every key
(NEP 19 keeps both algorithms stable; ``tests/test_utils.py`` checks the
kernel against live NumPy so that a change would fail loudly).
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Tuple

# repro: disable=backend-purity -- this module is the keyed-stream chokepoint over numpy's Generator API
import numpy as np


def seeded_rng(seed: int | None = None) -> np.random.Generator:
    """Create a NumPy generator from an integer seed (or entropy if None)."""
    return np.random.default_rng(seed)


class RngFactory:
    """Produces independent, reproducible generators for named components.

    Each call to :meth:`spawn` derives a child seed from the base seed and
    the component name, so adding a new component never perturbs the
    random streams of existing ones — a property the regression tests rely
    on when comparing methods under "identical randomness".
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def spawn(self, name: str) -> np.random.Generator:
        """Return a generator unique to ``(base seed, name)``."""
        child_seed = np.random.SeedSequence([self.seed, _stable_hash(name)])
        return np.random.default_rng(child_seed)

    def spawn_indexed(self, name: str, index: int) -> np.random.Generator:
        """Return a generator unique to ``(base seed, name, index)``.

        Used for per-client randomness: client ``i`` in round ``t`` can ask
        for ``spawn_indexed("client-upload", i * T + t)``.
        """
        child_seed = np.random.SeedSequence([self.seed, _stable_hash(name), int(index)])
        return np.random.default_rng(child_seed)

    def random_indexed(self, name: str, keys) -> np.ndarray:
        """First ``random()`` draw of every ``spawn_indexed(name, key)`` stream.

        Equal to ``[self.spawn_indexed(name, k).random() for k in keys]``,
        computed for the whole key array in one vectorised pass.
        """
        state_hi, state_lo, inc_hi, inc_lo = _pcg64_seed_states(
            self.seed, _stable_hash(name), keys
        )
        state_hi, state_lo = _pcg64_step(state_hi, state_lo, inc_hi, inc_lo)
        # NumPy's next_double: the top 53 bits of one 64-bit output.
        return (_pcg64_output(state_hi, state_lo) >> np.uint64(11)) * (1.0 / 9007199254740992.0)

    def iter_indexed(self, name: str, keys) -> Iterator[np.random.Generator]:
        """Yield the ``spawn_indexed(name, key)`` stream for each key in order.

        Every key's stream is seeded in one vectorised pass; the iterator
        then yields *one reused* generator whose state it resets before
        each key.  Draw everything a key needs before advancing the
        iterator: the previous key's stream is gone once it does.
        """
        states = _pcg64_seed_states(self.seed, _stable_hash(name), keys)
        generator = np.random.Generator(np.random.PCG64(0))
        return _replay_states(generator, states)


def _replay_states(generator: np.random.Generator, states) -> Iterator[np.random.Generator]:
    bit_generator = generator.bit_generator
    # The setter copies the values out, so one dict serves every key; a
    # zero has_uint32 drops any buffered half-word of the previous key.
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for state_hi, state_lo, inc_hi, inc_lo in zip(*(column.tolist() for column in states)):
        pcg["state"] = (state_hi << 64) | state_lo
        pcg["inc"] = (inc_hi << 64) | inc_lo
        bit_generator.state = state
        yield generator


@functools.lru_cache(maxsize=None)
def _stable_hash(text: str) -> int:
    """A deterministic 63-bit hash (Python's ``hash`` is salted per process)."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) % (1 << 63)
    return value


# ----------------------------------------------------------------------
# Vectorised SeedSequence -> PCG64 seeding
# ----------------------------------------------------------------------
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier, as 64-bit halves.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)
_U64_32 = np.uint64(32)
_U64_MASK32 = np.uint64(_MASK32)

_Words = List[np.ndarray]


def _uint32_words(value: int) -> List[int]:
    """The uint32 words ``SeedSequence`` assembles from one entropy int."""
    value = int(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value: np.ndarray, hash_const: int) -> Tuple[np.ndarray, int]:
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _mix_entropy(entropy: _Words, size: int) -> _Words:
    """``SeedSequence.mix_entropy`` over columns of uint32 entropy words."""
    hash_const = _INIT_A
    pool: _Words = []
    for i in range(_POOL_SIZE):
        word = entropy[i] if i < len(entropy) else np.zeros(size, dtype=np.uint32)
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(entropy[i_src], hash_const)
            pool[i_dst] = _mix(pool[i_dst], mixed)
    return pool


def _generate_state(pool: _Words) -> _Words:
    """``SeedSequence.generate_state(4, np.uint64)`` as four uint64 columns."""
    hash_const = _INIT_B
    words: _Words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # Little-endian word pairs, as generate_state's '<u4' -> '<u8' view.
    return [words[2 * j] | (words[2 * j + 1] << _U64_32) for j in range(_POOL_SIZE)]


def _mul64(a: np.ndarray, b: np.uint64) -> Tuple[np.ndarray, np.ndarray]:
    """Full 128-bit products ``a * b`` as ``(high, low)`` uint64 halves."""
    a0, a1 = a & _U64_MASK32, a >> _U64_32
    b0, b1 = b & _U64_MASK32, b >> _U64_32
    p00, p01, p10, p11 = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    mid = (p00 >> _U64_32) + (p01 & _U64_MASK32) + (p10 & _U64_MASK32)
    low = (mid << _U64_32) | (p00 & _U64_MASK32)
    high = p11 + (p01 >> _U64_32) + (p10 >> _U64_32) + (mid >> _U64_32)
    return high, low


def _add128(a_hi, a_lo, b_hi, b_lo) -> Tuple[np.ndarray, np.ndarray]:
    low = a_lo + b_lo
    return a_hi + b_hi + (low < a_lo).astype(np.uint64), low


def _pcg64_step(state_hi, state_lo, inc_hi, inc_lo) -> Tuple[np.ndarray, np.ndarray]:
    """One LCG step, ``state * MULT + inc`` modulo 2**128."""
    high, low = _mul64(state_lo, _PCG_MULT_LO)
    high = high + state_hi * _PCG_MULT_LO + state_lo * _PCG_MULT_HI
    return _add128(high, low, inc_hi, inc_lo)


def _pcg64_output(state_hi: np.ndarray, state_lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output function of the (already stepped) state."""
    value = state_hi ^ state_lo
    rot = state_hi >> np.uint64(58)
    return (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))


def _pcg64_seed_states(seed: int, name_hash: int, keys) -> Tuple[np.ndarray, ...]:
    """``(state_hi, state_lo, inc_hi, inc_lo)`` of a freshly seeded
    ``default_rng(SeedSequence([seed, name_hash, key]))`` for every key."""
    keys = np.asarray(keys).reshape(-1)
    if keys.size and keys.dtype.kind not in "iu":
        raise TypeError(f"keys must be integers, got dtype {keys.dtype}")
    if keys.dtype.kind == "i" and keys.size and int(keys.min()) < 0:
        raise ValueError("expected non-negative integer")
    keys = keys.astype(np.uint64)
    out = np.empty((4, keys.size), dtype=np.uint64)
    prefix = _uint32_words(seed) + _uint32_words(name_hash)
    # SeedSequence feeds one uint32 word per 32 bits of a key's magnitude,
    # and the entropy length changes the mixing: one pass per word count.
    wide = keys > _U64_MASK32
    for rows, key_words in ((np.flatnonzero(~wide), 1), (np.flatnonzero(wide), 2)):
        if rows.size == 0:
            continue
        group = keys[rows]
        entropy = [np.full(rows.size, word, dtype=np.uint32) for word in prefix]
        entropy.append((group & _U64_MASK32).astype(np.uint32))
        if key_words == 2:
            entropy.append((group >> _U64_32).astype(np.uint32))
        init_hi, init_lo, seq_hi, seq_lo = _generate_state(_mix_entropy(entropy, rows.size))
        # pcg64_set_seed: inc = (seq << 1) | 1; state = 0 -> step -> += init -> step.
        inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        state_hi, state_lo = _add128(inc_hi, inc_lo, init_hi, init_lo)
        state_hi, state_lo = _pcg64_step(state_hi, state_lo, inc_hi, inc_lo)
        out[:, rows] = (state_hi, state_lo, inc_hi, inc_lo)
    return tuple(out)
