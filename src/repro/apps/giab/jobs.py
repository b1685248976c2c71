"""Simulated process substrate for the ExecServices.

The paper's ExecService spawns real Windows processes; here jobs are
clock-driven simulations (DESIGN.md §2): a spawned process runs for the
virtual duration its job description declares, then exits with the declared
code, firing a completion callback the owning ExecService turns into a
notification.  Kill cancels the timer.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.kernel import Timer
from repro.sim.network import Network
from repro.xmllib import element, ns, text_of
from repro.xmllib.element import XmlElement


class JobState(enum.Enum):
    PENDING = "Pending"
    RUNNING = "Running"
    EXITED = "Exited"
    KILLED = "Killed"


@dataclass(frozen=True)
class JobSpec:
    """A parsed job description.

    ``output_files`` names files the job leaves in its working directory on
    exit — Figure 5's "Data input/output" arrow between the ExecService and
    its co-located DataService, which clients later survey via the
    directory listing.
    """

    command: str
    arguments: tuple[str, ...] = ()
    run_time_ms: float = 100.0
    exit_code: int = 0
    output_files: tuple[str, ...] = ()

    def to_xml(self) -> XmlElement:
        node = element(
            f"{{{ns.GIAB}}}Job",
            element(f"{{{ns.GIAB}}}Command", self.command),
            element(f"{{{ns.GIAB}}}RunTime", repr(self.run_time_ms)),
            element(f"{{{ns.GIAB}}}ExitCode", self.exit_code),
        )
        for arg in self.arguments:
            node.append(element(f"{{{ns.GIAB}}}Argument", arg))
        for name in self.output_files:
            node.append(element(f"{{{ns.GIAB}}}OutputFile", name))
        return node

    @classmethod
    def from_xml(cls, node: XmlElement) -> "JobSpec":
        command = text_of(node.find_local("Command"))
        if not command:
            raise ValueError("job description has no Command")
        run_time = float(text_of(node.find_local("RunTime"), "100"))
        exit_code = int(text_of(node.find_local("ExitCode"), "0"))
        arguments = tuple(a.text().strip() for a in node.element_children() if a.tag.local == "Argument")
        outputs = tuple(
            o.text().strip() for o in node.element_children() if o.tag.local == "OutputFile"
        )
        return cls(command, arguments, run_time, exit_code, outputs)


@dataclass
class ProcessHandle:
    """One spawned (simulated) process."""

    pid: int
    spec: JobSpec
    working_dir: str
    started_at: float
    state: JobState = JobState.RUNNING
    exit_code: int | None = None
    exited_at: float | None = None
    _timer: Timer | None = field(default=None, repr=False)

    def running_time(self, now: float) -> float:
        end = self.exited_at if self.exited_at is not None else now
        return max(0.0, end - self.started_at)


class ProcessSpawner:
    """The per-host "Proc Spawn Win Service" from Figure 5."""

    def __init__(self, network: Network):
        self.network = network
        self._pids = itertools.count(1000)
        self.processes: dict[int, ProcessHandle] = {}

    def spawn(
        self,
        spec: JobSpec,
        working_dir: str,
        on_exit: Callable[[ProcessHandle], None] | None = None,
    ) -> ProcessHandle:
        """Start a process; charges the spawn cost and schedules its exit."""
        self.network.charge(self.network.costs.process_spawn, "job.spawn")
        handle = ProcessHandle(
            pid=next(self._pids),
            spec=spec,
            working_dir=working_dir,
            started_at=self.network.clock.now,
        )
        self.processes[handle.pid] = handle

        def exit_now() -> None:
            if handle.state is not JobState.RUNNING:
                return
            handle.state = JobState.EXITED
            handle.exit_code = spec.exit_code
            handle.exited_at = self.network.clock.now
            if on_exit is not None:
                on_exit(handle)

        handle._timer = self.network.kernel.call_after(
            spec.run_time_ms, exit_now, label=f"job-exit:{handle.pid}"
        )
        return handle

    def kill(self, pid: int) -> bool:
        """Terminate a running process; True if it was still running."""
        handle = self.processes.get(pid)
        if handle is None or handle.state is not JobState.RUNNING:
            return False
        handle.state = JobState.KILLED
        handle.exit_code = -9
        handle.exited_at = self.network.clock.now
        if handle._timer is not None:
            self.network.kernel.cancel(handle._timer)
        return True

    def get(self, pid: int) -> ProcessHandle | None:
        return self.processes.get(pid)

    def reap(self, pid: int) -> None:
        """Forget a finished process (ExecService Destroy cleanup)."""
        handle = self.processes.pop(pid, None)
        if handle is not None and handle.state is JobState.RUNNING:
            self.processes[pid] = handle
            raise RuntimeError(f"refusing to reap running pid {pid}")
