"""Exact-expiry clock boundaries, on both stacks, through the real wire.

The two stacks historically disagreed at the instant a lease lapses: WSRF
timers eager-destroy at ``fire_at <= now`` while WS-Eventing records used
to survive until ``now > expires``.  These tests pin the unified inclusive
boundary — *at* the expiry tick the lease is dead on both stacks — plus
the matching renewal rule (renewing TO the current tick is rejected).
"""

import pytest

from repro.apps.counter.deploy import (
    CounterScenario,
    build_transfer_rig,
    build_wsrf_rig,
)
from repro.container import SecurityMode
from repro.soap import SoapFault
from repro.testkit.comparators import fault_family


@pytest.fixture(params=["wsrf", "transfer"])
def rig(request):
    scenario = CounterScenario(mode=SecurityMode.NONE, colocated=True)
    builder = build_wsrf_rig if request.param == "wsrf" else build_transfer_rig
    built = builder(scenario)
    built.stack = request.param
    return built


def _subscribe(rig, counter, expires):
    if rig.stack == "wsrf":
        return rig.client.subscribe(counter, rig.consumer, termination_time=expires)
    return rig.client.subscribe(counter, rig.consumer, expires=expires)


class TestExpiryTick:
    def test_lease_is_dead_exactly_at_its_expiry_instant(self, rig):
        counter = rig.client.create(1)
        clock = rig.deployment.network.clock
        deadline = clock.now + 10_000.0
        subscription = _subscribe(rig, counter, deadline)
        # Shortly before the boundary: alive and reporting a finite lease.
        # (The status request itself costs virtual time, so leave room for
        # its wire costs to not cross the deadline.)
        rig.deployment.network.kernel.run(until=deadline - 1_000.0)
        assert rig.client.subscription_status(subscription) != ""
        # At the boundary, not past it: dead on both stacks.
        rig.deployment.network.kernel.run(until=deadline)
        with pytest.raises(SoapFault) as outcome:
            rig.client.subscription_status(subscription)
        assert fault_family(outcome.value) == "unknown-resource"

    def test_exact_tick_semantics_at_the_substrate(self):
        """The inclusive boundary itself, with no wire costs in the way:
        a WS-Eventing record whose Expires equals `now` is already
        expired, exactly when a WSRF timer at the same instant has fired."""
        from repro.eventing.store import SubscriptionRecord

        record = SubscriptionRecord(
            identifier="s", source_address="svc", notify_to="client", expires=500.0
        )
        assert not record.expired(now=499.999)
        assert record.expired(now=500.0)
        assert record.expired(now=500.001)

    def test_renew_after_expiry_faults_unknown_resource(self, rig):
        counter = rig.client.create(1)
        clock = rig.deployment.network.clock
        deadline = clock.now + 10_000.0
        subscription = _subscribe(rig, counter, deadline)
        rig.deployment.network.kernel.run(until=deadline)
        with pytest.raises(SoapFault) as outcome:
            rig.client.renew_subscription(subscription, clock.now + 60_000.0)
        assert fault_family(outcome.value) == "unknown-resource"

    def test_unsubscribe_after_expiry_faults_unknown_resource(self, rig):
        counter = rig.client.create(1)
        clock = rig.deployment.network.clock
        deadline = clock.now + 10_000.0
        subscription = _subscribe(rig, counter, deadline)
        rig.deployment.network.kernel.run(until=deadline + 1.0)
        with pytest.raises(SoapFault) as outcome:
            rig.client.unsubscribe(subscription)
        assert fault_family(outcome.value) == "unknown-resource"


class TestRenewalBoundary:
    def test_renewing_to_the_current_tick_is_rejected(self, rig):
        """A lease instant equal to `now` is dead-on-arrival (inclusive
        boundary), so both stacks refuse it as an invalid lease time."""
        counter = rig.client.create(1)
        subscription = _subscribe(rig, counter, None)
        now = rig.deployment.network.clock.now
        with pytest.raises(SoapFault) as outcome:
            rig.client.renew_subscription(subscription, now)
        assert fault_family(outcome.value) == "invalid-lease-time"

    def test_renewing_to_the_future_extends_the_lease(self, rig):
        counter = rig.client.create(1)
        clock = rig.deployment.network.clock
        first = clock.now + 10_000.0
        subscription = _subscribe(rig, counter, first)
        rig.client.renew_subscription(subscription, first + 50_000.0)
        rig.deployment.network.kernel.run(until=first + 1.0)
        # Outlived its original deadline thanks to the renewal.
        assert rig.client.subscription_status(subscription) != ""

    def test_renewing_to_infinity_never_lapses(self, rig):
        counter = rig.client.create(1)
        clock = rig.deployment.network.clock
        deadline = clock.now + 10_000.0
        subscription = _subscribe(rig, counter, deadline)
        rig.client.renew_subscription(subscription, None)
        rig.deployment.network.kernel.run(until=deadline + 1_000_000.0)
        status = rig.client.subscription_status(subscription)
        assert status.lower() in ("", "infinity", "never")


class TestGetStatusVocabulary:
    def test_finite_lease_reports_a_number(self, rig):
        counter = rig.client.create(1)
        deadline = rig.deployment.network.clock.now + 10_000.0
        subscription = _subscribe(rig, counter, deadline)
        assert float(rig.client.subscription_status(subscription)) == deadline

    def test_infinite_lease_reports_infinity(self, rig):
        counter = rig.client.create(1)
        subscription = _subscribe(rig, counter, None)
        status = rig.client.subscription_status(subscription)
        assert status.lower() in ("", "infinity", "never")
