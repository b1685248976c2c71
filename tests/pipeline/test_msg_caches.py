"""Cache observability on the message path (DESIGN.md §16).

The content-keyed caches expose hit/miss counters precisely so tier-1
can pin the behaviour the msgperf bench depends on: in a two-message
soak the second, identical message is served from the c14n/DSig caches,
while a mutated message keys differently and misses.  And the caches
must be wall-clock-only — the virtual cost ledger of a soak run with
caching enabled is bit-identical to one run under
:func:`caching_disabled`.
"""

from __future__ import annotations

import pytest

from repro.apps.counter.deploy import (
    CounterScenario,
    build_wsrf_rig,
)
from repro.bench.msgperf import WARMUP_SIGNATURE_MISSES, run_soak, signature_cache_misses
from repro.container.security import SecurityMode
from repro.crypto import CertificateAuthority, sign_element, verify_element
from repro.experiments import ExperimentEngine
from repro.experiments.cli import DEFAULT_RESULTS_DIR
from repro.experiments.registry import cell_values
from repro.sim.costs import CostModel
from repro.xmllib import element
from repro.xmllib.element import content_key
from repro.xmllib.memo import (
    cache_stats,
    caching_disabled,
    clear_caches,
    get_cache,
    reset_cache_stats,
)


def x509_rig():
    return build_wsrf_rig(
        CounterScenario(mode=SecurityMode.X509, colocated=False, costs=CostModel())
    )


class TestTwoMessageSoak:
    @pytest.fixture()
    def soak_stats(self):
        """Run create + two identical Gets; return stats bracketing Get #2."""
        clear_caches()
        rig = x509_rig()
        counter = rig.client.create()
        rig.client.get(counter)  # message 1: populates every cache
        reset_cache_stats()
        rig.client.get(counter)  # message 2: should ride the caches
        stats = cache_stats()
        return rig, counter, stats

    def test_second_message_hits_the_signature_caches(self, soak_stats):
        _rig, _counter, stats = soak_stats
        assert stats["dsig.sign"]["hits"] > 0
        assert stats["dsig.sign"]["misses"] == 0
        assert stats["dsig.verify"]["hits"] > 0
        assert stats["dsig.verify"]["misses"] == 0
        assert stats["c14n.text"]["misses"] == 0

    def test_mutated_message_misses(self, soak_stats):
        rig, counter, _ = soak_stats
        # Distinct content (set then get: the resource value changed, so
        # Body bytes differ) must key fresh signatures, not reuse cached ones.
        reset_cache_stats()
        rig.client.set(counter, 5)
        rig.client.get(counter)
        stats = cache_stats()
        assert stats["dsig.sign"]["misses"] > 0

    def test_counters_visible_per_cache(self):
        clear_caches()
        reset_cache_stats()
        ca = CertificateAuthority.create(seed=7)
        cert, keypair = ca.issue_identity("alice", seed=11)
        body = element("{urn:t}Body", "payload")
        sign_element(body, keypair, cert)
        assert get_cache("dsig.sign").stats.misses == 1
        sign_element(body, keypair, cert)
        assert get_cache("dsig.sign").stats.hits == 1
        body.append("mutated")
        sign_element(body, keypair, cert)
        assert get_cache("dsig.sign").stats.misses == 2

    def test_digest_target_text_is_not_cached(self):
        # dsig.digest caches the only value derived from a signed body's
        # canonical text, so c14n.text keeps SignedInfo and TBS text only.
        clear_caches()
        ca = CertificateAuthority.create(seed=7)
        cert, keypair = ca.issue_identity("alice", seed=11)
        body = element("{urn:t}Body", "fresh payload")
        verify_element(body, sign_element(body, keypair, cert), keypair.public)
        key = content_key(body)
        assert get_cache("c14n.text").get(key) is None
        assert get_cache("dsig.digest").get(key) is not None


class TestSoakMissGuard:
    def test_cached_soak_misses_only_during_warm_up(self):
        reset_cache_stats()
        run_soak(5)
        stats = cache_stats()
        assert signature_cache_misses(stats) == []
        stats["dsig.verify"]["misses"] += 1
        assert signature_cache_misses(stats) == [
            f"dsig.verify missed after the warm-up ({WARMUP_SIGNATURE_MISSES + 1} misses, "
            f"expected {WARMUP_SIGNATURE_MISSES})"
        ]


class TestCachesAreWallClockOnly:
    def test_soak_ledger_identical_cached_vs_uncached(self):
        def soak():
            rig = x509_rig()
            counter = rig.client.create()
            for _ in range(3):
                rig.client.get(counter)
            rig.client.set(counter, 2)
            value = rig.client.get(counter)
            return value, rig.deployment.network.clock.now, rig.deployment.network.metrics.total_bytes

        clear_caches()
        cached = soak()
        with caching_disabled():
            uncached = soak()
        assert cached == uncached

    def test_soak_virtual_cost_matches_the_committed_record(self):
        # A pure function of the seeded rig: a few soak messages reproduce
        # the committed msgperf record's virtual ms/op exactly, in both modes.
        record = ExperimentEngine(DEFAULT_RESULTS_DIR).load_record("msgperf")
        committed = cell_values(record, run="all")["soak"]
        assert run_soak(5)["virtual_ms_per_op"] == committed["cached"]["virtual_ms_per_op"]
        uncached = run_soak(2, uncached=True)["virtual_ms_per_op"]
        assert uncached == committed["uncached"]["virtual_ms_per_op"]
