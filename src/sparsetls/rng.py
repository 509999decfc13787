"""Deterministic random streams for reproducible experiments.

The generator is a counter with a Weyl increment pushed through a 64-bit
avalanche mix (splitmix-style).  Output depends only on the 64-bit state,
never on platform word size or library version, so a fixed seed produces
the same draw sequence everywhere.  Streams for independent trials are
derived by mixing (master seed, scenario tag, trial index), which makes
results independent of trial execution order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_WEYL = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# salts for stream derivation (fractional parts of sqrt(2), sqrt(3), sqrt(5))
_SALT_SEED = 0x6A09E667F3BCC909
_SALT_TAG = 0xBB67AE8584CAA73B
_SALT_TRIAL = 0x3C6EF372FE94F82B

_U = np.uint64

# uniform blocks shorter than this are mixed word by word in exact
# integer arithmetic, which beats the fixed cost of the vectorized path
_SMALL_BLOCK = 16


def require_u64(value: int, name: str = "") -> None:
    """Raise ValueError unless 0 <= value < 2**64, the range of a master
    seed and of a trial index; `name`, when given, leads the message."""
    if not 0 <= value < 1 << 64:
        raise ValueError(f"{name} {value} is outside [0, 2**64)".lstrip())


def _mix64(z: int) -> int:
    """Avalanche finalizer on a 64-bit word (scalar, exact integer ops)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_block(z: np.ndarray) -> None:
    """Vectorized avalanche finalizer, in place on z with one work
    array; uint64 arithmetic wraps mod 2^64."""
    t = np.right_shift(z, _U(30))
    z ^= t
    z *= _U(_MIX1)
    np.right_shift(z, _U(27), out=t)
    z ^= t
    z *= _U(_MIX2)
    np.right_shift(z, _U(31), out=t)
    z ^= t


class RngStream:
    """Single-owner deterministic stream of 64-bit words.

    The k-th output is mix64(state0 + k * WEYL), so block and scalar draws
    produce the same sequence and blocks can be generated vectorized.
    uniform_block takes the scalar path for blocks shorter than
    _SMALL_BLOCK; both paths yield the same uniforms and stream state.
    """

    __slots__ = ("_state",)

    def __init__(self, state: int):
        self._state = state & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _WEYL) & _MASK64
        return _mix64(self._state)

    def _small_words(self, n: int) -> list[int]:
        """Next n words as Python ints, by the same mix as next_u64."""
        state = self._state
        words = []
        for _ in range(n):
            state = (state + _WEYL) & _MASK64
            words.append(_mix64(state))
        self._state = state
        return words

    def u64_block(self, n: int) -> np.ndarray:
        """Next n words as a uint64 array."""
        if n < 0:
            raise ValueError("block length must be non-negative")
        ks = np.arange(1, n + 1, dtype=np.uint64)
        ks *= _U(_WEYL)
        ks += _U(self._state)
        self._state = (self._state + n * _WEYL) & _MASK64
        _mix64_block(ks)
        return ks

    def uniform_block(self, n: int) -> np.ndarray:
        """n uniforms in (0, 1]; 53-bit mantissas, never exactly zero.

        The integer (w >> 11) + 1 is at most 2^53, so its conversion to a
        double and the power-of-two scaling are exact on either path.
        """
        if 0 <= n < _SMALL_BLOCK:
            return np.array([((w >> 11) + 1) * 2.0**-53 for w in self._small_words(n)])
        w = self.u64_block(n)
        w >>= _U(11)
        w += _U(1)
        return w * 2.0**-53

    def normal_block(self, n: int) -> np.ndarray:
        """n standard normals via the Box-Muller transform.

        Pairs are generated from consecutive uniform pairs; the transform is
        pinned (no ziggurat) so the value sequence is a pure function of the
        word stream.
        """
        half = (n + 1) // 2
        u = self.uniform_block(2 * half)
        radius, theta = u[:half], u[half:]
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        theta *= 2.0 * np.pi
        out = np.empty(2 * half)
        np.multiply(radius, np.cos(theta), out=out[0::2])
        np.multiply(radius, np.sin(theta, out=theta), out=out[1::2])
        return out[:n]

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via threshold rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) % bound
        while True:
            w = self.next_u64()
            if w >= limit:
                return w % bound


def derive_stream(master_seed: int, scenario_tag: int, trial_index: int) -> RngStream:
    """Stream for one (scenario, trial) cell of an experiment.

    The three inputs are folded through the avalanche mix with distinct
    salts, so streams for distinct (tag, trial) pairs are decorrelated and
    trials can run in any order (or in parallel) without changing results.
    A master seed or trial index outside [0, 2**64) raises ValueError.
    """
    require_u64(master_seed, "master_seed")
    require_u64(trial_index, "trial_index")
    h = _mix64(master_seed ^ _SALT_SEED)
    h = _mix64(h ^ ((scenario_tag + _SALT_TAG) & _MASK64))
    h = _mix64(h ^ ((trial_index + _SALT_TRIAL) & _MASK64))
    return RngStream(h)
