"""The generator and the feature hash are pinned algorithms; these values
were frozen from an independent C implementation of the same definitions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ontosearch.rng import SplitMix64, fnv1a64, uniform_array

# Reference outputs of splitmix64 for a handful of seeds.
REFERENCE_STREAMS = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
        1961750202426094747,
    ],
    7: [
        7191089600892374487,
        309689372594955804,
        16616101746815609346,
        10753165928301472203,
        8346079845500723674,
    ],
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ],
}

# FNV-1a 64 over UTF-8 bytes.
REFERENCE_HASHES = {
    b"": 14695981039346656037,
    b"a": 12638187200555641996,
    b"pain": 245781590524341909,
    b"<pain>": 6970496904892067683,
    b"headache": 4912110075549106416,
    b"Weakness - general": 12641536946754004789,
}


@pytest.mark.parametrize("seed,expected", sorted(REFERENCE_STREAMS.items()))
def test_splitmix64_reference_vectors(seed, expected):
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(5)] == expected


@pytest.mark.parametrize("data,expected", sorted(REFERENCE_HASHES.items()))
def test_fnv1a64_reference_vectors(data, expected):
    assert fnv1a64(data) == expected


def test_same_seed_same_stream():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=1000))
def test_randrange_in_bounds(seed, n):
    rng = SplitMix64(seed)
    assert all(0 <= rng.randrange(n) < n for _ in range(20))


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randrange(0)


def test_randrange_covers_small_range():
    rng = SplitMix64(3)
    seen = {rng.randrange(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_randrange_roughly_uniform():
    rng = SplitMix64(11)
    n, draws = 5, 50_000
    counts = [0] * n
    for _ in range(draws):
        counts[rng.randrange(n)] += 1
    expected = draws / n
    # chi-square with 4 dof; 30 is far beyond the 0.999 quantile
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 30


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(50))
    a, b = items.copy(), items.copy()
    SplitMix64(9).shuffle(a)
    SplitMix64(9).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


def test_random_unit_interval():
    rng = SplitMix64(1)
    values = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.4 < math.fsum(values) / len(values) < 0.6


@given(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=0, max_value=64),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e6, max_value=1e6),
)
def test_uniform_array_equals_scalar_draws(seed, count, lo, hi):
    rng = SplitMix64(seed)
    expected = np.array([rng.uniform(lo, hi) for _ in range(count)], dtype=np.float64)
    got = uniform_array(seed, count, lo, hi)
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tobytes() == expected.tobytes()
