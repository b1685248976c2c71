"""RELIAB — reliability sweep substrate (extension, DESIGN §9).

The paper measured both stacks on a perfect LAN; this runner makes the
wire lossy (:class:`~repro.sim.faults.FaultSpec`) and drives each stack's
counter-notification and Grid-in-a-Box job paths through the WS-RM layer
(:mod:`repro.reliable`), producing per-cell totals the RELIAB bench
tables and asserts: delivered / retransmitted / duplicate-suppressed /
dead-lettered counts and the latency overhead reliability costs.

The accounting invariant every cell must satisfy is
:attr:`ReliabilityResult.ledger_closed`: every assigned message number
ends delivered or dead-lettered — nothing is silently lost.  Cells are
deterministic: same stack + loss rate ⇒ identical
:attr:`ReliabilityResult.fingerprint` (seeded RNG, fixed draw count,
fixed-width ids; see DESIGN §9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.counter.deploy import (
    CounterScenario,
    build_transfer_rig,
    build_wsrf_rig,
)
from repro.apps.giab.jobs import JobSpec
from repro.apps.giab.vo import build_transfer_vo, build_wsrf_vo
from repro.container.security import SecurityMode
from repro.reliable import RetryExhausted, RetryPolicy
from repro.sim.faults import FaultSpec
from repro.soap import SoapFault

#: The sweep the RELIAB bench runs on both stacks.
LOSS_RATES = (0.0, 0.01, 0.05, 0.10)

#: One extra attempt over the default: at 10% loss the four-attempt
#: default still dead-letters the odd message, which is exactly what the
#: dead-letter columns are there to show — but the job flows should
#: mostly survive, so the bench policy retries a little harder.
BENCH_POLICY = RetryPolicy(max_attempts=5, base_backoff_ms=20.0, jitter_ms=4.0)


@dataclass(frozen=True)
class ReliabilityResult:
    """Totals for one (stack, loss-rate) sweep cell."""

    stack: str
    loss_rate: float
    operations: int
    completed: int
    virtual_ms: float
    #: Notification path (ReliableNotifier + consumer-side deduper).
    notifications_delivered: int
    notification_retransmissions: int
    notifications_dead_lettered: int
    notifications_assigned: int
    duplicates_suppressed: int
    #: Request path (the user proxy's ReliableChannel).
    requests_delivered: int
    request_retransmissions: int
    #: Whole-deployment dead-letter log (requests + notifications).
    dead_letters_total: int
    #: What the fault injector actually did.
    messages_lost: int
    messages_duplicated: int
    connections_reset: int

    @property
    def ledger_closed(self) -> bool:
        """Every assigned notification ended delivered or dead-lettered."""
        return (
            self.notifications_delivered + self.notifications_dead_lettered
            == self.notifications_assigned
        )

    @property
    def fingerprint(self) -> tuple:
        """Everything a same-seed rerun must reproduce exactly."""
        return (
            self.virtual_ms,
            self.completed,
            self.notifications_delivered,
            self.notification_retransmissions,
            self.notifications_dead_lettered,
            self.duplicates_suppressed,
            self.requests_delivered,
            self.request_retransmissions,
            self.dead_letters_total,
            self.messages_lost,
            self.messages_duplicated,
            self.connections_reset,
        )


def _collect(
    stack: str,
    loss_rate: float,
    deployment,
    notifiers,
    consumer,
    channel,
    operations: int,
    completed: int,
    virtual_ms: float,
) -> ReliabilityResult:
    faults = deployment.network.faults
    return ReliabilityResult(
        stack=stack,
        loss_rate=loss_rate,
        operations=operations,
        completed=completed,
        virtual_ms=virtual_ms,
        notifications_delivered=sum(n.delivered for n in notifiers),
        notification_retransmissions=sum(n.retransmissions for n in notifiers),
        notifications_dead_lettered=sum(n.dead_lettered for n in notifiers),
        notifications_assigned=sum(n.assigned for n in notifiers),
        duplicates_suppressed=consumer.duplicates,
        requests_delivered=channel.delivered,
        request_retransmissions=channel.retransmissions,
        dead_letters_total=len(deployment.dead_letters),
        messages_lost=faults.messages_lost,
        messages_duplicated=faults.messages_duplicated,
        connections_reset=faults.connections_reset,
    )


# -- counter notifications ---------------------------------------------------


def run_counter_reliability(
    stack: str,
    loss_rate: float,
    n_sets: int = 20,
    policy: RetryPolicy = BENCH_POLICY,
) -> ReliabilityResult:
    """``n_sets`` counter Sets (each firing a notification) over a wire
    with ``FaultSpec.lossy(loss_rate)`` faults.  Setup (create/subscribe)
    runs on a clean wire so every cell measures the same work."""
    scenario = CounterScenario(
        mode=SecurityMode.NONE, colocated=False, reliability=policy
    )
    if stack == "wsrf":
        rig = build_wsrf_rig(scenario)
        notifier = rig.service.reliable_deliverer
    elif stack == "transfer":
        rig = build_transfer_rig(scenario)
        notifier = rig.service.notifications.deliverer
    else:
        raise ValueError(f"unknown stack {stack!r}")

    clock = rig.deployment.network.clock
    counter = rig.client.create(initial=0)
    rig.client.subscribe(counter, rig.consumer)
    rig.deployment.network.faults.set_default(FaultSpec.lossy(loss_rate))

    completed = 0
    start = clock.now
    for value in range(n_sets):
        try:
            rig.client.set(counter, value)
        except (RetryExhausted, SoapFault):
            continue  # dead-lettered (and recorded); the sweep goes on
        completed += 1
    return _collect(
        stack,
        loss_rate,
        rig.deployment,
        [notifier],
        rig.consumer,
        rig.client.soap,
        operations=n_sets,
        completed=completed,
        virtual_ms=clock.now - start,
    )


# -- Grid-in-a-Box jobs ------------------------------------------------------

_JOB = JobSpec("sort", ("input.dat",), 500.0)


def _run_job_wsrf(vo) -> bool:
    sites = vo.client.get_available_resources(_JOB.command)
    if not sites:
        return False
    site = sites[0]
    reservation = vo.client.make_reservation(site["host"])
    directory = vo.client.create_data_directory(site["data_address"])
    vo.client.upload_file(directory, "input.dat", "x" * 2048)
    job = vo.client.start_job(site["exec_address"], reservation, directory, _JOB)
    vo.client.subscribe_job_exit(job, vo.consumer)
    # Job run time passes; the exit notification fires from the timer.
    network = vo.deployment.network
    network.kernel.run(until=network.clock.now + _JOB.run_time_ms + 500)
    vo.client.destroy(directory)
    return True


def _run_job_transfer(vo) -> bool:
    sites = vo.client.get_available_resources(_JOB.command)
    if not sites:
        return False
    site = sites[0]
    vo.client.make_reservation(site["host"])
    vo.client.upload_file(site["data_address"], "input.dat", "x" * 2048)
    job = vo.client.start_job(site["exec_address"], _JOB)
    vo.client.subscribe_job_exit(site["exec_address"], job, vo.consumer)
    network = vo.deployment.network
    network.kernel.run(until=network.clock.now + _JOB.run_time_ms + 500)
    vo.client.delete_file(site["data_address"], "input.dat")
    vo.client.unreserve(site["host"])
    return True


def run_giab_reliability(
    stack: str,
    loss_rate: float,
    n_jobs: int = 3,
    policy: RetryPolicy = BENCH_POLICY,
) -> ReliabilityResult:
    """``n_jobs`` full job flows (reserve → upload → run → exit
    notification → cleanup) over a ``FaultSpec.lossy(loss_rate)`` wire.
    VO setup and admin registration run on a clean wire.  X.509-signed
    like Figure 6 — the GiaB flows key per-user state off the
    authenticated sender DN, so there is no unsigned variant."""
    if stack == "wsrf":
        vo = build_wsrf_vo(reliability=policy)
        run_job = _run_job_wsrf
        notifiers = [
            pair.exec_service.reliable_deliverer for pair in vo.nodes.values()
        ]
    elif stack == "transfer":
        vo = build_transfer_vo(reliability=policy)
        run_job = _run_job_transfer
        notifiers = [
            pair.exec_service.notifications.deliverer for pair in vo.nodes.values()
        ]
    else:
        raise ValueError(f"unknown stack {stack!r}")

    clock = vo.deployment.network.clock
    vo.deployment.network.faults.set_default(FaultSpec.lossy(loss_rate))

    completed = 0
    start = clock.now
    for _ in range(n_jobs):
        try:
            if run_job(vo):
                completed += 1
        except (RetryExhausted, SoapFault):
            continue  # a leg died after retries; dead-letters tell the story
    return _collect(
        stack,
        loss_rate,
        vo.deployment,
        notifiers,
        vo.consumer,
        vo.client.soap,
        operations=n_jobs,
        completed=completed,
        virtual_ms=clock.now - start,
    )
