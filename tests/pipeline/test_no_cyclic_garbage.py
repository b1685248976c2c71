"""Signed requests leave no cyclic garbage behind.

Every message tree is freed by reference counting once its request is
done: nothing on the message path builds a reference cycle.  Cyclic
garbage is freed only by the cyclic collector, whose passes cost more as
the heap grows, so a soak would spend a growing and machine-dependent
share of its wall time collecting it.
"""

from __future__ import annotations

import gc

import pytest

from repro.apps.counter.deploy import CounterScenario, build_transfer_rig, build_wsrf_rig
from repro.container.security import SecurityMode
from repro.sim.costs import CostModel


@pytest.mark.parametrize("build", [build_wsrf_rig, build_transfer_rig], ids=["wsrf", "transfer"])
def test_signed_requests_leave_no_cyclic_garbage(build):
    rig = build(CounterScenario(mode=SecurityMode.X509, colocated=False, costs=CostModel()))
    counter = rig.client.create()
    rig.client.get(counter)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # Fresh values: each Set and the Get after it miss the caches and
        # run the whole c14n, digest, RSA and parse path.
        for value in (5, 6):
            rig.client.set(counter, value)
            assert rig.client.get(counter) == value
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
