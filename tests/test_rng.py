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
