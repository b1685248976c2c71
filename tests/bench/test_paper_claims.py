"""Paper claims that no single experiment spec's record can carry.

A claim over one spec's record is a ``Predicate`` on that spec, gated by
``tests/experiments/test_records.py`` against the committed record and
by ``python -m repro experiments --check`` against a fresh run.  What is
left lives here:

* cross-spec claims — Figures 3 and 4 read against Figure 2;
* mechanism ablations — a modified cost model, outside every spec's
  fixed grid: disable the mechanism the paper credits and the
  observation must disappear;
* run-twice determinism of the reliability and workload runners.
"""

import pytest

from repro.apps.counter.deploy import CounterScenario, build_wsrf_rig
from repro.bench import measure_hello_world, measure_virtual
from repro.bench.reliability import run_counter_reliability, run_giab_reliability
from repro.bench.workload import GridWorkload, run_workload_wsrf
from repro.container import SecurityMode
from repro.sim.costs import CostModel

BASE = CostModel()
STACKS = ("wsrf", "transfer")
CRUD = ("Get", "Set", "Create", "Destroy")


def hello(stack: str, mode=SecurityMode.NONE, costs: CostModel | None = None):
    """One co-located hello-world row (the Figures 2-4 cells compared here)."""
    return measure_hello_world(stack, mode, colocated=True, costs=costs)


@pytest.fixture(scope="module")
def colocated():
    """Co-located rows per (mode, stack): Figures 2, 3 and 4 side by side."""
    return {
        (mode, stack): hello(stack, mode)
        for mode in (SecurityMode.NONE, SecurityMode.HTTPS, SecurityMode.X509)
        for stack in STACKS
    }


class TestFigure3AgainstFigure2:
    def test_https_close_to_nosec_thanks_to_session_cache(self, colocated):
        """"Due to socket caching, HTTPS performance is much faster": warm
        HTTPS adds only a small delta over plain HTTP."""
        for stack in STACKS:
            for op in CRUD:
                delta = (
                    colocated[SecurityMode.HTTPS, stack][op]
                    - colocated[SecurityMode.NONE, stack][op]
                )
                assert 0 <= delta < 8.0, (stack, op, delta)

    def test_cold_handshake_would_dominate(self):
        """Force every HTTPS exchange to a full handshake → the "socket
        caching" result disappears."""
        cold = BASE.replace(tls_resume=BASE.tls_handshake)
        warm = hello("wsrf", SecurityMode.HTTPS)
        uncached = hello("wsrf", SecurityMode.HTTPS, costs=cold)
        assert uncached["Get"] > warm["Get"] + BASE.tls_handshake / 2


class TestFigure4AgainstFigure2:
    def test_signing_dominates(self, colocated):
        """Every operation is at least 3x its no-security time."""
        for stack in STACKS:
            for op in (*CRUD, "Notify"):
                signed = colocated[SecurityMode.X509, stack][op]
                assert signed > 3 * colocated[SecurityMode.NONE, stack][op], (stack, op)

    def test_relative_differences_fade(self, colocated):
        """"The performance differences between the two underlying systems
        tend to fade in significance": percentage-wise gaps between the
        stacks shrink under signing."""

        def gap(mode, op):
            wsrf, transfer = colocated[mode, "wsrf"][op], colocated[mode, "transfer"][op]
            return abs(wsrf - transfer) / max(wsrf, transfer)

        for op in ("Get", "Set"):
            assert gap(SecurityMode.X509, op) < gap(SecurityMode.NONE, op), op

    def test_signature_counts(self):
        """A signed round trip carries exactly two signatures (request and
        response), each verified once."""
        rig = build_wsrf_rig(CounterScenario(SecurityMode.X509, colocated=True))
        counter = rig.client.create(0)
        trace = measure_virtual(rig.deployment, "Get", lambda: rig.client.get(counter))
        assert trace.signatures == 2
        assert trace.verifications == 2


class TestMechanismAblations:
    def test_without_cache_wsrf_set_advantage_vanishes(self):
        """Charge cache hits like full DB reads → WSRF's Set loses its edge
        (the paper credits "write-through resource caching")."""
        no_cache = BASE.replace(cache_hit=BASE.db_read)
        with_cache = hello("wsrf")
        without_cache = hello("wsrf", costs=no_cache)
        assert with_cache["Set"] < hello("transfer")["Set"]
        assert without_cache["Set"] > with_cache["Set"] + 0.9 * (BASE.db_read - BASE.cache_hit)

    def test_without_tcp_receiver_notify_gap_vanishes(self):
        """Give WS-Eventing the same per-delivery overhead as the embedded
        HTTP server → Notify parity (the TCP-vs-HTTP issue is the cause)."""
        same_delivery = BASE.replace(notify_tcp_overhead=BASE.notify_http_overhead)
        wsrf = hello("wsrf")
        assert hello("transfer")["Notify"] < 0.8 * wsrf["Notify"]
        assert hello("transfer", costs=same_delivery)["Notify"] > 0.85 * wsrf["Notify"]

    def test_signing_cost_is_the_x509_story(self):
        """Set RSA costs to zero → the X.509 figure collapses towards the
        no-security one."""
        free_crypto = BASE.replace(rsa_sign=0.0, rsa_verify=0.0, security_policy_check=0.0)
        plain = hello("wsrf")
        assert hello("wsrf", SecurityMode.X509)["Get"] > 5 * plain["Get"]
        assert hello("wsrf", SecurityMode.X509, costs=free_crypto)["Get"] < 2 * plain["Get"]

    def test_create_vs_set_needs_slow_inserts(self):
        """The one calibration-sensitive ordering: WS-Transfer's "Create
        slowest" holds iff insert ≳ read+update (true for Xindice: "Creating
        resources ... is always slower than reading or updating them")."""
        baseline = hello("transfer")
        assert baseline["Create"] > baseline["Set"]
        flipped = hello("transfer", costs=BASE.replace(db_insert=BASE.db_insert * 0.5))
        assert flipped["Create"] < flipped["Set"]


class TestRunTwice:
    """DESIGN §9's contract: same seed + same ops ⇒ identical results."""

    def test_counter_reliability_cell_reproduces_exactly(self):
        first = run_counter_reliability("wsrf", 0.10)
        assert run_counter_reliability("wsrf", 0.10).fingerprint == first.fingerprint

    def test_giab_reliability_cell_reproduces_exactly(self):
        first = run_giab_reliability("transfer", 0.10)
        assert run_giab_reliability("transfer", 0.10).fingerprint == first.fingerprint

    def test_workload_run_deterministic(self):
        workload = GridWorkload(seed=11, n_jobs=4)
        first = run_workload_wsrf(workload)
        second = run_workload_wsrf(workload)
        assert (first.virtual_ms, first.messages) == (second.virtual_ms, second.messages)

    def test_workload_generation_deterministic(self):
        assert GridWorkload(seed=3).items == GridWorkload(seed=3).items
        assert GridWorkload(seed=3).items != GridWorkload(seed=4).items
