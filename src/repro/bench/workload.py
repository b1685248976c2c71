"""Synthetic Grid workload generation and execution.

The paper measures single operations; a real VO sees streams of users
submitting jobs.  :class:`GridWorkload` generates a deterministic job mix
(seeded RNG: applications, input sizes, run times), and the runners execute
the same workload end-to-end on either stack, producing totals a bench can
compare — the workload-level view of Figure 6's per-operation story.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.apps.giab.jobs import JobSpec
from repro.apps.giab.vo import TransferVo, WsrfVo, build_transfer_vo, build_wsrf_vo
from repro.container.security import SecurityMode
from repro.sim.costs import CostModel


@dataclass(frozen=True)
class WorkItem:
    """One user job: which application, how much input, how long it runs."""

    application: str
    input_kb: int
    run_time_ms: float
    produces_output: bool


@dataclass
class GridWorkload:
    """A deterministic stream of work items."""

    seed: int = 42
    n_jobs: int = 10
    applications: tuple[str, ...] = ("sort", "blast", "render")
    items: list[WorkItem] = field(default_factory=list)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        for _ in range(self.n_jobs):
            self.items.append(
                WorkItem(
                    application=rng.choice(self.applications),
                    input_kb=rng.choice((4, 16, 64)),
                    run_time_ms=float(rng.randint(50, 400)),
                    produces_output=rng.random() < 0.5,
                )
            )


@dataclass
class WorkloadResult:
    """Outcome of running a workload on one stack."""

    completed: int = 0
    skipped_no_resource: int = 0
    virtual_ms: float = 0.0
    messages: int = 0
    signatures: int = 0

    @property
    def ms_per_job(self) -> float:
        return self.virtual_ms / self.completed if self.completed else float("inf")


def run_workload_wsrf(
    workload: GridWorkload,
    mode: SecurityMode = SecurityMode.X509,
    costs: CostModel | None = None,
) -> WorkloadResult:
    """Execute every work item on the WSRF VO, sequentially (one user)."""
    vo = build_wsrf_vo(mode=mode, costs=costs)
    return _run(workload, vo, _submit_wsrf)


def run_workload_transfer(
    workload: GridWorkload,
    mode: SecurityMode = SecurityMode.X509,
    costs: CostModel | None = None,
) -> WorkloadResult:
    vo = build_transfer_vo(mode=mode, costs=costs)
    return _run(workload, vo, _submit_transfer)


def _run(workload: GridWorkload, vo, submit) -> WorkloadResult:
    network = vo.deployment.network
    result = WorkloadResult()
    start = network.clock.now
    messages0 = network.metrics.total_messages
    for item in workload.items:
        if submit(vo, item):
            result.completed += 1
        else:
            result.skipped_no_resource += 1
    result.virtual_ms = network.clock.now - start
    result.messages = network.metrics.total_messages - messages0
    return result


def _spec(item: WorkItem) -> JobSpec:
    return JobSpec(
        item.application,
        ("input.dat",),
        item.run_time_ms,
        0,
        ("output.dat",) if item.produces_output else (),
    )


def _submit_wsrf(vo: WsrfVo, item: WorkItem) -> bool:
    sites = vo.client.get_available_resources(item.application)
    if not sites:
        return False
    site = sites[0]
    reservation = vo.client.make_reservation(site["host"])
    directory = vo.client.create_data_directory(site["data_address"])
    vo.client.upload_file(directory, "input.dat", "x" * (item.input_kb * 1024))
    vo.client.start_job(site["exec_address"], reservation, directory, _spec(item))
    # Let the job finish; the reservation auto-releases on exit.
    network = vo.deployment.network
    network.kernel.run(until=network.clock.now + item.run_time_ms + 10)
    vo.client.destroy(directory)
    return True


def _submit_transfer(vo: TransferVo, item: WorkItem) -> bool:
    sites = vo.client.get_available_resources(item.application)
    if not sites:
        return False
    site = sites[0]
    vo.client.make_reservation(site["host"])
    vo.client.upload_file(site["data_address"], "input.dat", "x" * (item.input_kb * 1024))
    vo.client.start_job(site["exec_address"], _spec(item))
    network = vo.deployment.network
    network.kernel.run(until=network.clock.now + item.run_time_ms + 10)
    vo.client.delete_file(site["data_address"], "input.dat")
    if item.produces_output:
        vo.client.delete_file(site["data_address"], "output.dat")
    # Manual lifetime management: forget this and the site stays blocked.
    vo.client.unreserve(site["host"])
    return True
