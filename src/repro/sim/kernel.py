"""The concurrent discrete-event kernel: tasks, effects, pools, timers.

Until this module existed, every request ran to completion on the single
virtual timeline — "two requests in flight" could not even be expressed.
The kernel turns :mod:`repro.sim` into a true discrete-event engine while
leaving every single-request cost ledger bit-identical (DESIGN.md §14):

* **One heap** — a priority queue of ``(time, seq, action)`` holding both
  task events and timers, with the monotonic ``seq`` breaking ties in
  post order, so runs are deterministic down to event order.  Time passes
  in one place, :meth:`Kernel._advance`, which runs every due entry with
  the clock set to that entry's instant; :meth:`Clock.charge
  <repro.sim.clock.Clock.charge>` and :meth:`Kernel.run` both call it.
* **Tasks** — cooperative generators yielding :class:`Effect` values:
  :class:`Delay` sleeps virtual time, :class:`Work` runs a synchronous
  stage and sleeps its measured cost, :class:`Acquire`/:class:`Release`
  bracket a per-host worker slot.
* **Worker pools** — each simulated host serves requests from a bounded
  FIFO queue with ``workers`` slots.  Queueing delay (enqueue → grant) is
  measured separately from service time, which is charged only *after*
  dequeue — the paper's single-request bars stay intact while saturation
  becomes observable as queue growth.
* **Timers** — :meth:`Kernel.call_at`/:meth:`call_after` post callbacks
  that run under the sanitizer's ``<timer>`` pseudo-host.

Two drivers execute a task generator, and two regimes keep the goldens
safe:

* :meth:`Kernel.run_sync` drives one request eagerly: charges advance
  the clock immediately and timers fire mid-charge, exactly like the
  legacy serial path.  The same happens in the event loop while **one
  task** is live.
* With **two or more live tasks** the event loop runs a stage under
  :meth:`Clock.defer_charges`: its synchronous computation is virtually
  instantaneous, its accumulated cost becomes one :class:`Delay`, and
  other tasks' events interleave inside that window.  Per-category cost
  totals are unchanged — only the wall-clock *shape* (overlap, queueing)
  differs, which is the point.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Generator, Iterable

from repro.sim.clock import Clock
from repro.sim.errors import QueueFull, SimError
from repro.sim.metrics import SampleSet, SpanRecorder
from repro.sim.sanitizer import TIMER_HOST

__all__ = [
    "Acquire",
    "Delay",
    "Effect",
    "Kernel",
    "QueueFull",
    "Release",
    "Task",
    "Timer",
    "Work",
    "WorkerPool",
]


# -- effects -----------------------------------------------------------------


class Effect:
    """Base class for everything a task may yield to the kernel."""

    __slots__ = ()


@dataclass(frozen=True)
class Delay(Effect):
    """Sleep ``ms`` of virtual time; other tasks run inside the window."""

    ms: float


@dataclass(frozen=True)
class Work(Effect):
    """Run ``fn()`` as one atomic stage and sleep its charged cost.

    The stage's synchronous computation — SOAP marshalling, signing, a
    container dispatch — executes unchanged; the kernel measures what it
    charged (deferred mode) or lets it charge directly (eager mode) and
    resumes the task with ``fn``'s return value.  Exceptions raised by
    ``fn`` are re-thrown *into* the task at the yield point, after any
    partial cost (a lost message still paid its wire time) has elapsed.
    """

    fn: Callable[[], object]
    label: str = ""


@dataclass(frozen=True)
class Acquire(Effect):
    """Wait for a worker slot on ``host``'s pool; resumes with the
    queueing delay in ms.  Raises :class:`QueueFull` in the task when the
    pool's bounded FIFO is saturated."""

    host: str


@dataclass(frozen=True)
class Release(Effect):
    """Give the worker slot on ``host`` back (hands it to the queue head)."""

    host: str


# -- tasks -------------------------------------------------------------------


@dataclass
class Task:
    """One cooperative task: a generator plus its lifecycle bookkeeping."""

    gen: Generator
    name: str
    tid: int
    #: Virtual instant the task was scheduled to start (its arrival).
    scheduled_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: Total time spent waiting in worker-pool queues.
    queueing_delay_ms: float = 0.0
    result: object = None
    error: BaseException | None = None
    done: bool = False
    #: Per-task span recorder, swapped into the shared metrics while the
    #: task runs so interleaved requests cannot corrupt each other's trees.
    tracer: SpanRecorder = field(default_factory=SpanRecorder)

    @property
    def ok(self) -> bool:
        return self.done and self.error is None

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion time (queueing included)."""
        if self.finished_at is None:
            raise SimError(f"task {self.name!r} has not finished")
        return self.finished_at - self.scheduled_at


@dataclass
class Timer:
    """Handle for a callback on the kernel's heap; pass to :meth:`Kernel.cancel`."""

    fire_at: float
    cancelled: bool = False


class WorkerPool:
    """A host's request servers: ``workers`` slots + a bounded FIFO queue.

    Service time is charged by the task *after* its :class:`Acquire` is
    granted (i.e. on dequeue); the time between enqueue and grant is the
    queueing delay, recorded per pool in :attr:`waits` and on the task.
    """

    def __init__(self, host: str, workers: int = 1, queue_limit: int = 16) -> None:
        if workers < 1:
            raise SimError(f"pool for {host!r} needs at least one worker")
        if queue_limit < 0:
            raise SimError(f"pool for {host!r} needs a non-negative queue limit")
        self.host = host
        self.workers = workers
        self.queue_limit = queue_limit
        self.busy = 0
        self._queue: deque[tuple[Task, float]] = deque()
        #: High-water mark of the FIFO queue (the saturation signal).
        self.max_depth = 0
        #: Queueing delays (enqueue → grant), one sample per queued grant.
        self.waits = SampleSet()
        self.granted = 0
        self.rejected = 0

    @property
    def depth(self) -> int:
        return len(self._queue)


class Kernel:
    """The discrete-event engine owning one clock's timeline.

    The kernel's heap is the clock's only schedule: a clock belongs to at
    most one kernel, and its charges advance through :meth:`_advance`.
    """

    def __init__(self, network=None, clock: Clock | None = None) -> None:
        if clock is None:
            if network is None:
                raise SimError("Kernel needs a network or a clock")
            clock = network.clock
        if clock._kernel is not None:
            raise SimError("the clock already belongs to a kernel")
        clock._kernel = self
        self.network = network
        self.clock = clock
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._tid = itertools.count()
        self.tasks: list[Task] = []
        #: Unfinished spawned tasks; 1 selects the eager (serial) regime.
        self._live = 0
        self.current: Task | None = None
        self._in_stage = False
        self._pools: dict[str, WorkerPool] = {}
        #: Requests completed through :meth:`run_sync`.
        self.sync_requests = 0

    # -- worker pools --------------------------------------------------------

    def pool(self, host: str) -> WorkerPool:
        """The host's worker pool, created with the defaults on first use."""
        existing = self._pools.get(host)
        if existing is None:
            existing = WorkerPool(host)
            self._pools[host] = existing
        return existing

    def configure_pool(self, host: str, workers: int, queue_limit: int) -> WorkerPool:
        """Size a host's pool before load arrives (replaces any default)."""
        self._pools[host] = WorkerPool(host, workers, queue_limit)
        return self._pools[host]

    def max_queue_depths(self) -> dict[str, int]:
        """Per-host high-water queue depth (the saturation report)."""
        return {host: pool.max_depth for host, pool in sorted(self._pools.items())}

    # -- scheduling ----------------------------------------------------------

    def _post(self, at: float, action: Callable[[], None]) -> None:
        heapq.heappush(
            self._heap, (max(at, self.clock.now), next(self._seq), action)
        )

    def spawn(self, gen: Generator, name: str = "task", *, at: float | None = None) -> Task:
        """Schedule a task generator to start at ``at`` (default now)."""
        start = self.clock.now if at is None else at
        task = Task(gen=gen, name=name, tid=next(self._tid), scheduled_at=start)
        self.tasks.append(task)
        self._live += 1
        self._post(start, lambda: self._begin(task))
        return task

    def call_at(self, fire_at: float, callback: Callable[[], None], label: str = "timer") -> Timer:
        """Post ``callback`` to run at ``fire_at`` under the sanitizer's
        ``<timer>`` pseudo-host (expiry is the one legitimate cross-host
        mutation channel besides the wire).

        A deadline in the past fires at the current instant.  The timer
        fires during *any* advance past its deadline — a kernel event, a
        serial request's charge, or ``run(until=...)`` — so the lease
        expiries every golden ledger was pinned against still fire
        mid-charge.  Returns a handle for :meth:`cancel`.
        """
        timer = Timer(fire_at)
        network = self.network

        def fire() -> None:
            if timer.cancelled:
                return
            if network is None:
                callback()
                return
            with network.sanitizer_scope(TIMER_HOST, f"kernel:{label}"):
                callback()

        self._post(fire_at, fire)
        return timer

    def call_after(self, delay_ms: float, callback: Callable[[], None], label: str = "timer") -> Timer:
        return self.call_at(self.clock.now + delay_ms, callback, label)

    def cancel(self, timer: Timer) -> None:
        """Cancel a timer returned by :meth:`call_at`/:meth:`call_after`
        (idempotent; a cancelled timer is skipped, never fired)."""
        timer.cancelled = True

    # -- the event loop ------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Let virtual time pass.

        Without ``until``, run heap entries in ``(time, seq)`` order until
        no spawned task is live; timers due later stay pending.  With
        ``until``, run every entry due by then and leave the clock there
        — the only public way to let time pass without charging it.
        """
        if until is None:
            while self._live and self._heap:
                self._advance(self._heap[0][0])
            return
        if until < self.clock.now:
            raise SimError(
                f"clock cannot move backwards ({until} < {self.clock.now})"
            )
        self._advance(until)

    def _advance(self, until: float) -> None:
        """Run every heap entry due by ``until`` in ``(time, seq)`` order,
        the clock set to each entry's instant, then move the clock to
        ``until``.  Entries at one instant run in the order they were
        posted, so a timer and a task event tie by post order."""
        clock = self.clock
        heap = self._heap
        while heap and heap[0][0] <= until:
            at, _seq, action = heapq.heappop(heap)
            clock._now = at
            action()
        # An entry that charged may have carried the clock past ``until``.
        clock._now = max(clock._now, until)

    # -- task stepping -------------------------------------------------------

    def _begin(self, task: Task) -> None:
        task.started_at = self.clock.now
        self._step(task, None, None)

    def _swap_tracer(self, task: Task):
        if self.network is None:
            return None
        metrics = self.network.metrics
        previous = metrics.tracer
        metrics.tracer = task.tracer
        return (metrics, previous)

    def _restore_tracer(self, swapped) -> None:
        if swapped is not None:
            metrics, previous = swapped
            metrics.tracer = previous

    def _step(self, task: Task, payload, thrown: BaseException | None) -> None:
        previous_task, self.current = self.current, task
        swapped = self._swap_tracer(task)
        try:
            try:
                effect = (
                    task.gen.throw(thrown)
                    if thrown is not None
                    else task.gen.send(payload)
                )
            except StopIteration as stop:
                self._finish(task, stop.value, None)
                return
            except BaseException as exc:
                self._finish(task, None, exc)
                return
            try:
                self._dispatch(task, effect)
            except Exception as exc:
                # A refused effect (a nested stage, a release without an
                # acquire) is the task's error, thrown in at this instant
                # like a negative Delay's: the task still ends.
                self._resume_later(self.clock.now, task, thrown=exc)
        finally:
            self._restore_tracer(swapped)
            self.current = previous_task

    def _finish(self, task: Task, result, error: BaseException | None) -> None:
        task.result = result
        task.error = error
        task.done = True
        task.finished_at = self.clock.now
        self._live -= 1

    def _resume_later(self, at: float, task: Task, payload=None, thrown=None) -> None:
        self._post(at, lambda: self._step(task, payload, thrown))

    # -- effect dispatch -----------------------------------------------------

    def _dispatch(self, task: Task, effect: Effect) -> None:
        if isinstance(effect, Work):
            self._run_stage(task, effect)
        elif isinstance(effect, Delay):
            if effect.ms < 0:
                self._resume_later(
                    self.clock.now, task,
                    thrown=SimError(f"cannot delay negative time: {effect.ms}"),
                )
            else:
                self._resume_later(self.clock.now + effect.ms, task)
        elif isinstance(effect, Acquire):
            self._acquire(task, self.pool(effect.host))
        elif isinstance(effect, Release):
            self._release(self.pool(effect.host))
            self._resume_later(self.clock.now, task)
        else:
            self._resume_later(
                self.clock.now, task,
                thrown=SimError(f"task yielded a non-effect: {effect!r}"),
            )

    def _run_stage(self, task: Task, work: Work) -> None:
        """Execute one stage; eager when this is the only live task."""
        if self._in_stage:
            raise SimError("kernel stages cannot nest")
        eager = self._live == 1
        thrown: BaseException | None = None
        payload: object = None
        self._in_stage = True
        try:
            if eager:
                # Fast path: charges advance the clock immediately, timers
                # fire mid-charge — bit-identical to the serial regime.
                try:
                    payload = work.fn()
                except BaseException as exc:
                    thrown = exc
                resume_at = self.clock.now
            else:
                # Concurrent regime: the stage computes instantaneously,
                # then its accumulated cost elapses as one schedulable
                # delay other tasks interleave into.
                with self.clock.defer_charges() as pending:
                    try:
                        payload = work.fn()
                    except BaseException as exc:
                        thrown = exc
                resume_at = self.clock.now + pending.ms
        finally:
            self._in_stage = False
        self._resume_later(resume_at, task, payload, thrown)

    # -- pool mechanics ------------------------------------------------------

    def _acquire(self, task: Task, pool: WorkerPool) -> None:
        if pool.busy < pool.workers:
            pool.busy += 1
            pool.granted += 1
            pool.waits.add(0.0)
            self._resume_later(self.clock.now, task, payload=0.0)
            return
        if pool.depth >= pool.queue_limit:
            pool.rejected += 1
            self._resume_later(
                self.clock.now, task, thrown=QueueFull(pool.host, pool.queue_limit)
            )
            return
        pool._queue.append((task, self.clock.now))
        pool.max_depth = max(pool.max_depth, pool.depth)

    def _release(self, pool: WorkerPool) -> None:
        if pool._queue:
            # Hand the slot straight to the queue head: service time is
            # charged by the dequeued task from this instant on.
            waiter, enqueued_at = pool._queue.popleft()
            wait = self.clock.now - enqueued_at
            waiter.queueing_delay_ms += wait
            pool.granted += 1
            pool.waits.add(wait)
            self._resume_later(self.clock.now, waiter, payload=wait)
            return
        if pool.busy <= 0:
            raise SimError(f"release without acquire on pool {pool.host!r}")
        pool.busy -= 1

    # -- the eager driver ----------------------------------------------------

    def run_sync(self, gen: Generator) -> object:
        """Drive one request generator to completion, eagerly.

        Every stage charges the clock directly (timers fire mid-charge)
        and the result or exception surfaces synchronously, so cost
        ledgers match the serial path by construction.  Pools are real
        only for a top-level request with nothing in flight.  A server
        out-call nested in a stage, or a call made while tasks are live,
        skips them: its cost belongs to whatever is already running.
        """
        outer_stage = self._in_stage
        real_pools = not outer_stage and self._live == 0
        held: list[WorkerPool] = []
        payload: object = None
        thrown: BaseException | None = None
        try:
            while True:
                try:
                    effect = (
                        gen.throw(thrown) if thrown is not None else gen.send(payload)
                    )
                except StopIteration as stop:
                    self.sync_requests += 1
                    return stop.value
                payload, thrown = None, None
                if isinstance(effect, Work):
                    self._in_stage = True
                    try:
                        payload = effect.fn()
                    except BaseException as exc:
                        thrown = exc
                    finally:
                        self._in_stage = outer_stage
                elif isinstance(effect, Acquire):
                    payload = 0.0
                    if not real_pools:
                        continue
                    pool = self.pool(effect.host)
                    if pool.busy >= pool.workers:
                        thrown = SimError(
                            f"pool {effect.host!r} busy during a synchronous request"
                        )
                    else:
                        pool.busy += 1
                        pool.granted += 1
                        pool.waits.add(0.0)
                        held.append(pool)
                elif isinstance(effect, Release):
                    if not real_pools:
                        continue
                    pool = self.pool(effect.host)
                    if pool in held:
                        held.remove(pool)
                    self._release(pool)
                elif isinstance(effect, Delay):
                    if effect.ms < 0:
                        thrown = SimError(f"cannot delay negative time: {effect.ms}")
                    else:
                        self.clock.charge(effect.ms)
                else:
                    thrown = SimError(
                        f"{type(effect).__name__} is not available in a "
                        "synchronous request"
                    )
        finally:
            # A request abandoned mid-flight (generator raised) must not
            # leak its worker slot.
            for pool in held:
                self._release(pool)

    # -- helpers -------------------------------------------------------------

    def gather(self, tasks: Iterable[Task]) -> list[object]:
        """Results of finished tasks, re-raising the first failure."""
        results = []
        for task in tasks:
            if not task.done:
                raise SimError(f"task {task.name!r} has not finished")
            if task.error is not None:
                raise task.error
            results.append(task.result)
        return results
