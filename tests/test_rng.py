import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskcover.rng import Xoshiro256StarStar, splitmix64


def test_splitmix64_reference_vector():
    # first output from seed 0, as published with the reference C code
    _, out = splitmix64(0)
    assert out == 0xE220A8397B1DCDAF


def test_splitmix64_stream_progresses():
    state, a = splitmix64(12345)
    state2, b = splitmix64(state)
    assert a != b
    assert state2 != state


def test_same_seed_same_stream():
    a = Xoshiro256StarStar(99)
    b = Xoshiro256StarStar(99)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_differ():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_random_unit_interval():
    rng = Xoshiro256StarStar(7)
    vals = [rng.random() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    # crude uniformity sanity, not a statistical test
    assert 0.45 < sum(vals) / len(vals) < 0.55


def test_uniform_range():
    rng = Xoshiro256StarStar(3)
    vals = [rng.uniform(-5.0, 5.0) for _ in range(1000)]
    assert all(-5.0 <= v < 5.0 for v in vals)


def test_randint_inclusive_bounds():
    rng = Xoshiro256StarStar(11)
    vals = [rng.randint(2, 4) for _ in range(200)]
    assert set(vals) == {2, 3, 4}


@pytest.mark.parametrize("lo, hi", [(5, 4), (5, 3), (5, 2), (0, -100)])
def test_randint_rejects_an_empty_range(lo, hi):
    rng = Xoshiro256StarStar(11)
    with pytest.raises(ValueError):
        rng.randint(lo, hi)


def test_randint_single_value_range():
    rng = Xoshiro256StarStar(11)
    assert [rng.randint(5, 5) for _ in range(20)] == [5] * 20


@given(st.integers(-(2**70), 2**70), st.integers(0, 300))
def test_random_array_is_the_scalar_stream(seed, count):
    batched = Xoshiro256StarStar(seed)
    scalar = Xoshiro256StarStar(seed)
    values = batched.random_array(count)
    assert values.dtype == np.float64 and values.shape == (count,)
    assert [v.hex() for v in values.tolist()] == [scalar.random().hex() for _ in range(count)]
    # the state is left where count scalar draws leave it
    assert batched.next_u64() == scalar.next_u64()


def test_random_array_rejects_a_negative_count():
    with pytest.raises(ValueError):
        Xoshiro256StarStar(1).random_array(-1)
