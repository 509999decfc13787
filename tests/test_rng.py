import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsetls.rng import RngStream, derive_stream

# frozen golden draws pin the stream algorithm itself
GOLDEN_7_0_0 = [
    776072758862317725,
    13345401134292734877,
    833858374858114902,
    17367643358614110630,
]


def draws(stream, count=64):
    return [stream.next_u64() for _ in range(count)]


def test_golden_sequence_is_stable():
    assert draws(derive_stream(7, 0, 0), 4) == GOLDEN_7_0_0


def test_same_cell_same_stream():
    assert draws(derive_stream(7, 0, 0)) == draws(derive_stream(7, 0, 0))


@pytest.mark.parametrize("seed, trial, name", [
    (-1, 0, "master_seed"), (2**64, 0, "master_seed"), (0, -1, "trial_index"), (0, 2**64, "trial_index"),
])
def test_seed_or_trial_outside_64_bits_is_rejected(seed, trial, name):
    # not reduced modulo 2**64: -1 would draw the stream of 2**64 - 1
    with pytest.raises(ValueError, match=rf"^{name} -?\d+ is outside \[0, 2\*\*64\)"):
        derive_stream(seed, 1, trial)


def test_largest_seed_and_trial_are_accepted():
    top = 2**64 - 1
    assert draws(derive_stream(top, 1, top), 4) != draws(derive_stream(0, 1, 0), 4)


def test_trial_index_changes_stream():
    a = draws(derive_stream(7, 0, 0))
    b = draws(derive_stream(7, 0, 1))
    assert a != b


def test_tag_and_seed_change_stream():
    assert draws(derive_stream(7, 1, 0)) != draws(derive_stream(7, 0, 0))
    assert draws(derive_stream(7, 1, 0)) != draws(derive_stream(8, 1, 0))


def test_block_matches_scalar_draws():
    block = RngStream(999).u64_block(257)
    scalar = draws(RngStream(999), 257)
    assert list(block) == scalar


def test_block_draws_advance_state():
    s = RngStream(5)
    first = s.u64_block(10)
    second = s.u64_block(10)
    assert list(first) != list(second)
    assert list(np.concatenate([first, second])) == draws(RngStream(5), 20)


SMALL_LENGTHS = list(range(1, 18)) + [40]


@pytest.mark.parametrize("k", SMALL_LENGTHS)
def test_small_block_matches_scalar_draws_and_state(k):
    # short blocks take the scalar-integer path; words and the state left
    # behind must match k scalar draws
    s = RngStream(2024)
    block = s.u64_block(k)
    expected = draws(RngStream(2024), k + 3)
    assert block.dtype == np.uint64
    assert list(block) == expected[:k]
    assert draws(s, 3) == expected[k:]


@pytest.mark.parametrize("k", SMALL_LENGTHS)
def test_small_uniform_block_is_prefix_of_large_block(k):
    # the scalar path must give the vectorized path's uniforms bit for bit,
    # and leave the stream where k vectorized draws would
    s = RngStream(77)
    small = s.uniform_block(k)
    large = RngStream(77).uniform_block(64)
    assert small.dtype == np.float64
    assert small.tobytes() == large[:k].tobytes()
    assert s.uniform_block(64 - k).tobytes() == large[k:].tobytes()


def test_block_rejects_negative_length():
    with pytest.raises(ValueError):
        RngStream(0).u64_block(-1)
    with pytest.raises(ValueError):
        RngStream(0).uniform_block(-1)


def test_uniform_block_is_open_zero_closed_one():
    u = RngStream(42).uniform_block(100_000)
    assert u.min() > 0.0
    assert u.max() <= 1.0


def test_normal_block_odd_length_prefix_of_even():
    a = RngStream(17).normal_block(7)
    b = RngStream(17).normal_block(8)
    assert np.array_equal(a, b[:7])


def test_normal_block_moments():
    z = RngStream(1).normal_block(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_below_rejects_bad_bound():
    with pytest.raises(ValueError):
        RngStream(0).below(0)


@given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=0, max_value=2**64 - 1))
def test_below_stays_in_range(bound, state):
    assert 0 <= RngStream(state).below(bound) < bound


def test_below_is_roughly_uniform():
    s = RngStream(3)
    counts = np.bincount([s.below(8) for _ in range(80_000)], minlength=8)
    assert counts.min() > 9_000  # expected 10_000 per bucket


class TestInPlaceBlocks:
    """u64_block, uniform_block and normal_block fill their blocks in place.
    Each must give, bit for bit, what the expressions that made a new array
    at every operation gave, copied here verbatim, and leave the stream in
    the same state."""

    LENGTHS = [16, 17, 800, 16000, 16001]

    @staticmethod
    def mix(z):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    @classmethod
    def u64(cls, stream, n):
        state = stream._state
        ks = np.uint64(state) + np.uint64(0x9E3779B97F4A7C15) * np.arange(1, n + 1, dtype=np.uint64)
        stream._state = (state + n * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        return cls.mix(ks)

    @classmethod
    def uniform(cls, stream, n):
        w = cls.u64(stream, n)
        return ((w >> np.uint64(11)) + np.uint64(1)) * 2.0**-53

    @classmethod
    def normal(cls, stream, n):
        half = (n + 1) // 2
        u = cls.uniform(stream, 2 * half)
        radius = np.sqrt(-2.0 * np.log(u[:half]))
        theta = (2.0 * np.pi) * u[half:]
        out = np.empty(2 * half)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out[:n]

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("kind", ["u64", "uniform", "normal"])
    def test_same_bits_and_state_as_new_arrays(self, kind, n):
        for state in (0, 2024, 2**64 - 1, derive_stream(7, 2, 3)._state):
            got_stream, want_stream = RngStream(state), RngStream(state)
            block = getattr(got_stream, f"{kind}_block")
            for length in (n, n + 1, n):
                got, want = block(length), getattr(self, kind)(want_stream, length)
                assert got.dtype == want.dtype and got.shape == (length,)
                assert got.tobytes() == want.tobytes(), (kind, n, state)
                assert got_stream._state == want_stream._state
