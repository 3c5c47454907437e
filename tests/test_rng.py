"""The generator and the feature hash are pinned algorithms; these values
were frozen from an independent C implementation of the same definitions."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontosearch import rng as rng_module
from ontosearch.embedder import SubwordEmbedder
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


@pytest.mark.parametrize("count", [
    rng_module._DRAW_BLOCK - 1, rng_module._DRAW_BLOCK, rng_module._DRAW_BLOCK + 1,
    3 * rng_module._DRAW_BLOCK + 7,
])
@pytest.mark.parametrize("seed, lo, hi", [(-5, -0.25, 0.75), (2**64 - 1, 3.0, -1e6)])
def test_uniform_array_across_block_edges_equals_scalar_draws(count, seed, lo, hi):
    """The draws are made a block at a time: each block starts where the
    last one stopped."""
    rng = SplitMix64(seed)
    expected = np.array([rng.uniform(lo, hi) for _ in range(count)], dtype=np.float64)
    assert uniform_array(seed, count, lo, hi).tobytes() == expected.tobytes()


# sha256 of the default 32,768 x 64 subword table's float64 bytes, frozen
# from the unblocked implementation
TABLE_DIGESTS = {
    0: "2a12d4bfe1fe6ebafc61149c66f63728436a165f81ad5e0ecb5cbae0a29174fb",
    1: "1f7c6c7062386dcaaf13dc0ae187dfd6387922ce874289f03df20f9ced1a5ab3",
}


@pytest.mark.parametrize("seed", sorted(TABLE_DIGESTS))
def test_default_table_is_pinned(seed):
    table = SubwordEmbedder(seed=seed).table
    assert table.shape == (32768, 64) and table.flags.c_contiguous
    assert hashlib.sha256(table.tobytes()).hexdigest() == TABLE_DIGESTS[seed]


def scalar_shuffle(rng, items):
    """Fisher-Yates with one ``randrange`` a swap, descending index order."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


# bounds from 1 up, large ones, and ones just past 2^63, where about half of
# all draws are rejected
BOUNDS = st.one_of(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=2**64 - 1),
    st.integers(min_value=2**63 + 1, max_value=2**63 + 1000),
)


@given(st.integers(min_value=-(2**63), max_value=2**64 - 1),
       st.lists(BOUNDS, max_size=1000), st.integers(min_value=0, max_value=3),
       st.sampled_from([1, 7, rng_module._DRAW_BLOCK]))
@settings(max_examples=150, deadline=None)
def test_randrange_array_equals_scalar_draws(seed, bounds, next_draws, block):
    """The same values as one ``randrange`` a bound, and the generator left
    where those calls leave it, whatever the block size of the draws."""
    ours, scalar = SplitMix64(seed), SplitMix64(seed)
    with mock.patch.object(rng_module, "_DRAW_BLOCK", block):
        got = ours.randrange_array(bounds)
    assert got.dtype == np.uint64 and got.shape == (len(bounds),)
    assert got.tolist() == [scalar.randrange(n) for n in bounds]
    assert ([ours.next_u64() for _ in range(next_draws)]
            == [scalar.next_u64() for _ in range(next_draws)])


def test_randrange_array_rejection_path_is_taken():
    """Past 2^63 about half of all draws are rejected, so a long run of
    such bounds goes through the scalar continuation many times."""
    bounds = [2**63 + 1] * 200
    rng = SplitMix64(5)
    expected = [rng.randrange(n) for n in bounds]
    ours = SplitMix64(5)
    assert ours.randrange_array(bounds).tolist() == expected
    assert ours._state == rng._state
    # the state is seed + draws * GAMMA: 200 accepted draws, over 50 rejected
    draws = (rng._state - 5) * pow(0x9E3779B97F4A7C15, -1, 2**64) % 2**64
    assert draws > 250


def test_randrange_array_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randrange_array([3, 0, 2])


@given(st.integers(min_value=-(2**63), max_value=2**64 - 1),
       st.integers(min_value=0, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_shuffle_equals_scalar_shuffle(seed, n):
    ours, scalar = SplitMix64(seed), SplitMix64(seed)
    a, b = list(range(n)), list(range(n))
    ours.shuffle(a)
    scalar_shuffle(scalar, b)
    assert a == b
    assert ours.next_u64() == scalar.next_u64()


def test_shuffle_past_one_block_equals_scalar_shuffle():
    n = 3 * rng_module._DRAW_BLOCK + 5
    ours, scalar = SplitMix64(2**64 - 1), SplitMix64(2**64 - 1)
    a, b = list(range(n)), list(range(n))
    ours.shuffle(a)
    scalar_shuffle(scalar, b)
    assert a == b
    assert ours.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("extra", [-1, 0, 1, 2, rng_module._DRAW_BLOCK + 1])
def test_shuffle_at_block_edges_equals_scalar_shuffle(extra):
    n = rng_module._DRAW_BLOCK + extra
    ours, scalar = SplitMix64(11), SplitMix64(11)
    a, b = list(range(n)), list(range(n))
    ours.shuffle(a)
    scalar_shuffle(scalar, b)
    assert a == b
    assert ours.next_u64() == scalar.next_u64()


def test_shuffle_draws_one_block_of_bounds_at_a_time():
    """The swap indices are drawn at most ``_DRAW_BLOCK`` at a time, so the
    shuffle's temporaries stay small however long the sequence."""
    n = 2 * rng_module._DRAW_BLOCK + 3
    drawn = []
    draw = SplitMix64.randrange_array

    def recording(self, bounds):
        drawn.append(len(bounds))
        return draw(self, bounds)

    with mock.patch.object(SplitMix64, "randrange_array", recording):
        SplitMix64(4).shuffle(list(range(n)))
    assert max(drawn) <= rng_module._DRAW_BLOCK
    assert sum(drawn) == n - 1
