import collections

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vmguard.rng import MASK64, SplitMix64, fresh_seed

# Published reference stream for this generator, seed 0.
SEED0_STREAM = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_seed_zero_matches_reference_stream():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_STREAM


def test_same_seed_same_stream():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(32)] == \
        [b.next_u64() for _ in range(32)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(8)] != \
        [b.next_u64() for _ in range(8)]


def test_seed_is_masked_to_64_bits():
    a = SplitMix64(5)
    b = SplitMix64(5 + (1 << 64))
    assert a.next_u64() == b.next_u64()


@given(st.integers(min_value=0, max_value=MASK64), st.integers(1, 10_000))
def test_randrange_stays_in_bounds(seed, n):
    rng = SplitMix64(seed)
    for _ in range(20):
        assert 0 <= rng.randrange(n) < n


def test_randrange_rejects_nonpositive_bound():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_randrange_small_bound_covers_all_values():
    rng = SplitMix64(99)
    seen = collections.Counter(rng.randrange(4) for _ in range(1000))
    assert sorted(seen) == [0, 1, 2, 3]
    # crude uniformity: no value under 15% or over 35%
    for count in seen.values():
        assert 150 <= count <= 350


@given(st.integers(min_value=0, max_value=MASK64),
       st.lists(st.integers(), min_size=1, max_size=30, unique=True),
       st.data())
def test_sample_draws_distinct_subset(seed, pop, data):
    k = data.draw(st.integers(0, len(pop)))
    got = SplitMix64(seed).sample(pop, k)
    assert len(got) == k
    assert len(set(got)) == k
    assert set(got) <= set(pop)


def test_sample_of_everything_is_a_permutation():
    pop = list(range(10))
    got = SplitMix64(7).sample(pop, 10)
    assert sorted(got) == pop
    assert got != pop  # astronomically unlikely to be identity for this seed


def test_sample_too_large_raises():
    with pytest.raises(ValueError):
        SplitMix64(0).sample([1, 2], 3)


def test_choice_from_singleton_and_empty():
    assert SplitMix64(0).choice([42]) == 42
    with pytest.raises(IndexError):
        SplitMix64(0).choice([])


def test_spawn_streams_are_distinct_and_deterministic():
    parent_a = SplitMix64(777)
    parent_b = SplitMix64(777)
    child_a = parent_a.spawn()
    child_b = parent_b.spawn()
    assert [child_a.next_u64() for _ in range(8)] == \
        [child_b.next_u64() for _ in range(8)]
    sibling = parent_a.spawn()
    assert sibling.next_u64() != child_b.next_u64()


def test_fresh_seed_fits_in_64_bits():
    for _ in range(16):
        assert 0 <= fresh_seed() <= MASK64
