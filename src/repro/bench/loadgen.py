"""Open-loop load generation against the counter rigs.

Binds the generic engine in :mod:`repro.sim.loadgen` to the paper's two
stacks: a seeded request mix drawn from the testkit op-DSL
(:class:`~repro.testkit.ops.GetCounter` / ``SetCounter``) is marshalled
into real SOAP requests and spawned on the deployment's kernel at
pre-scheduled Poisson arrival instants.  Overlapping requests
interleave on the shared virtual clock; the server host's worker pool
queues what it cannot serve, and the report shows what the paper's
single-request bars cannot: p95 latency growth and queue depth as
offered load approaches the stack's service rate.

The ``loadgen`` experiment spec sweeps :data:`BENCH_RATES` on both stacks
(``python -m repro experiments --run loadgen``) and records
``results/BENCH_loadgen.json``.
"""

from __future__ import annotations

import random

from repro.apps.counter.deploy import (
    SERVER_HOST,
    CounterScenario,
    build_transfer_rig,
    build_wsrf_rig,
)
from repro.apps.counter.transfer_service import counter_representation
from repro.container.security import SecurityMode
from repro.sim.errors import SimError
from repro.sim.loadgen import LoadResult, arrival_times, run_open_loop
from repro.testkit.ops import GetCounter, Op, SetCounter
from repro.transfer.service import actions as wxf_actions
from repro.wsrf.properties import actions as rp_actions
from repro.xmllib import element, ns

STACKS = ("wsrf", "transfer")

#: Offered loads swept by the BENCH trajectory (requests per virtual
#: second).  The high end saturates a single worker in X.509 mode, so the
#: trajectory shows the knee, not just the flat region.
BENCH_RATES = (10.0, 20.0, 40.0)
BENCH_REQUESTS = 60
BENCH_SEED = 1405

#: The fixed rig every run drives: the paper's hardest counter mode
#: (X.509 signing, distributed), one server worker with a bounded queue,
#: Poisson arrivals and an 80/20 Get/Set mix.
MODE = SecurityMode.X509
COLOCATED = False
WORKERS = 1
QUEUE_LIMIT = 64
PROCESS = "poisson"
READ_FRACTION = 0.8


def draw_ops(
    n: int, seed: int, read_fraction: float = READ_FRACTION, name: str = "c0"
) -> list[Op]:
    """A seeded get/set mix over one counter, as op-DSL values."""
    if not 0.0 <= read_fraction <= 1.0:
        raise SimError(f"read fraction must be in [0, 1]: {read_fraction}")
    rng = random.Random(seed)
    ops: list[Op] = []
    for _ in range(n):
        if rng.random() < read_fraction:
            ops.append(GetCounter(name))
        else:
            ops.append(SetCounter(name, rng.randrange(1000)))
    return ops


def op_request(stack: str, op: Op, counter_epr):
    """Marshal one abstract op into ``(epr, action, body)`` for ``stack``.

    Mirrors the counter client proxies (§4.1.3): the WSRF stack speaks
    WS-ResourceProperties documents, the Transfer stack raw Get/Put
    representations.
    """
    if isinstance(op, GetCounter):
        if stack == "wsrf":
            return (
                counter_epr,
                rp_actions.GET,
                element(f"{{{ns.WSRF_RP}}}GetResourceProperty", "Value"),
            )
        return counter_epr, wxf_actions.GET, element(f"{{{ns.WXF}}}Get")
    if isinstance(op, SetCounter):
        if stack == "wsrf":
            return (
                counter_epr,
                rp_actions.SET,
                element(
                    f"{{{ns.WSRF_RP}}}SetResourceProperties",
                    element(
                        f"{{{ns.WSRF_RP}}}Update",
                        element(f"{{{ns.COUNTER}}}Value", op.value),
                    ),
                ),
            )
        return (
            counter_epr,
            wxf_actions.PUT,
            element(f"{{{ns.WXF}}}Put", counter_representation(op.value)),
        )
    raise SimError(f"loadgen cannot marshal op kind {op.kind!r}")


def run_load(
    stack: str,
    *,
    rate_per_sec: float,
    requests: int = BENCH_REQUESTS,
    seed: int = BENCH_SEED,
) -> LoadResult:
    """One open-loop run: a fresh rig, one counter, ``requests`` arrivals."""
    if stack not in STACKS:
        raise SimError(f"unknown stack {stack!r}; expected one of {STACKS}")
    scenario = CounterScenario(MODE, COLOCATED)
    rig = build_wsrf_rig(scenario) if stack == "wsrf" else build_transfer_rig(scenario)
    counter = rig.client.create(0)
    kernel = rig.deployment.network.kernel
    kernel.configure_pool(SERVER_HOST, WORKERS, QUEUE_LIMIT)
    soap = rig.client.soap
    ops = draw_ops(requests, seed)
    arrivals = arrival_times(
        requests, rate_per_sec, PROCESS, seed, start=kernel.clock.now
    )

    def make_task(i: int):
        epr, action, body = op_request(stack, ops[i], counter)
        return soap.invoke_task(epr, action, body)

    return run_open_loop(
        kernel, arrivals, make_task,
        offered_per_sec=rate_per_sec, name=f"{stack}-req",
    )
