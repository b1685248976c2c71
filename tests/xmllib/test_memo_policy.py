"""The content caches' eviction policy: least recently used.

``ContentCache`` keeps what gets read again.  A hit makes its entry the
most recently used; an insert into a full cache evicts exactly one entry,
the least recently used; re-putting a present key refreshes it.  These
tests pin the policy on throwaway caches, outside the registry the
message-path caches live in.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest

from repro.xmllib import memo
from repro.xmllib.memo import ContentCache


@pytest.fixture(autouse=True)
def private_registry(monkeypatch):
    # Constructing a cache registers it; keep these out of cache_stats().
    monkeypatch.setattr(memo, "_CACHES", {})


def filled(capacity: int) -> ContentCache:
    cache = ContentCache("test.policy", capacity)
    for i in range(capacity):
        cache.put(f"k{i}", i)
    return cache


@pytest.mark.parametrize("capacity", [2, 3, 8, 64])
def test_key_hit_within_capacity_inserts_survives_any_number_of_one_shots(capacity):
    cache = ContentCache("test.policy", capacity)
    cache.put("hot", "value")
    one_shot = 0
    for _ in range(50):
        for _ in range(capacity - 1):
            cache.put(("one-shot", one_shot), one_shot)
            one_shot += 1
        assert cache.get("hot") == "value"
    assert cache.stats.hits == 50 and cache.stats.misses == 0


def test_insert_into_full_cache_evicts_exactly_the_least_recently_used():
    cache = filled(4)
    assert cache.get("k0") == 0  # k0 is now the most recently used
    cache.put("new", "n")
    assert len(cache) == 4
    assert cache.get("k1") is None
    assert [cache.get(key) for key in ("k0", "k2", "k3", "new")] == [0, 2, 3, "n"]


def test_reput_refreshes_without_growing():
    cache = filled(4)
    cache.put("k0", "again")
    assert len(cache) == 4
    cache.put("new", "n")
    assert cache.get("k0") == "again"
    assert cache.get("k1") is None


def test_matches_a_reference_lru_and_never_exceeds_capacity():
    rng = random.Random(21)
    for capacity in (2, 5, 16):
        cache = ContentCache("test.policy", capacity)
        model: OrderedDict = OrderedDict()
        for step in range(2000):
            key = rng.randrange(3 * capacity)
            if rng.random() < 0.5:
                expected = model.get(key)
                if expected is not None:
                    model.move_to_end(key)
                assert cache.get(key) == expected
            else:
                model[key] = step
                model.move_to_end(key)
                if len(model) > capacity:
                    model.popitem(last=False)
                cache.put(key, step)
            assert len(cache) == len(model) <= capacity


def test_hit_and_miss_counting():
    cache = ContentCache("test.policy", 2)
    assert cache.get("absent") is None
    cache.put("k", "v")
    assert cache.get("k") == "v"
    assert cache.get("k") == "v"
    assert cache.stats.as_dict() == {"hits": 2, "misses": 1}
    assert memo.cache_stats() == {"test.policy": {"hits": 2, "misses": 1}}


@pytest.mark.parametrize("capacity", [-1, 0, 1])
def test_capacity_below_two_is_rejected(capacity):
    with pytest.raises(ValueError, match="capacity must be >= 2"):
        ContentCache("test.policy", capacity)
