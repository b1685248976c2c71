"""The benchmark's workloads: one class each, one instance per stack.

A workload instance deploys one stack (X.509 signing, distributed placement, the
paper's most expensive configuration) and runs its workload through that
stack's public client API.  Every reply is checked against a Python model
of the operation; a fault, a reply the model rejects, a rejected request or
a missing job-exit notification counts as a failed op.  Timing and
sequencing live in ``run.py``: a workload only deploys, warms up, runs one
*unit* of work at a time and reports its virtual-time fingerprint.

All inputs come from the run's ``--seed``; both stacks see the same op
stream.  WORKLOADS.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from time import perf_counter

from repro.addressing.epr import EndpointReference
from repro.apps.counter.deploy import (
    SERVER_HOST,
    CounterScenario,
    build_transfer_rig,
    build_wsrf_rig,
)
from repro.apps.counter.transfer_service import counter_value
from repro.apps.giab.jobs import JobSpec, JobState
from repro.apps.giab.vo import GIAB_HOSTS, build_transfer_vo, build_wsrf_vo
from repro.bench.loadgen import draw_ops, op_request
from repro.bench.workload import GridWorkload
from repro.container.security import SecurityMode
from repro.eventing.source import actions as wse_actions
from repro.sim.kernel import Work
from repro.sim.loadgen import LoadResult, arrival_times, run_open_loop
from repro.testkit.ops import GetCounter, SetCounter
from repro.transfer.service import TRANSFER_RESOURCE_ID
from repro.wsrf.resource import RESOURCE_ID
from repro.xmllib import element, ns, text_of
from repro.xmllib.memo import clear_caches

STACKS = ("wsrf", "transfer")

#: Returned by :meth:`Workload.call` when the op raised.
FAILED = object()


def derive(seed: int, *labels: object) -> int:
    """The seed of one named random stream of a run."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


class Workload:
    """One stack under one workload."""

    #: Units after which the fingerprint is compared with the pinned one;
    #: a timed phase always runs at least this many.
    PIN_UNITS = 1
    #: Seams this workload never calls in its timed phase (the traced run
    #: fails if any other seam records zero calls).
    UNUSED_SEAMS: frozenset[str] = frozenset()

    def __init__(self, stack: str, seed: int, tracer=None) -> None:
        if stack not in STACKS:
            raise ValueError(f"unknown stack {stack!r}; expected one of {STACKS}")
        self.stack = stack
        self.seed = seed
        self.tracer = tracer
        #: Set by the runner for the timed phase: only then are op wall
        #: times kept.
        self.timed = False
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        # Neither stack may inherit the other's cache state.
        clear_caches()
        self.deploy()

    # -- what each workload defines -------------------------------------------

    def deploy(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the timed phase to be over (untimed)."""

    # -- ops and failures -----------------------------------------------------

    def call(self, fn, *args):
        """One client op: timed when the phase is, a failure if it raises."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = f"{self.stack}:{self.attempted}"
        start = perf_counter()
        try:
            reply = fn(*args)
        except Exception as exc:  # a fault or an escaped exception: the op failed
            self.fail(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return FAILED
        if self.timed:
            self.latencies_ms.append((perf_counter() - start) * 1e3)
        return reply

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)

    def drop_telemetry(self) -> None:
        """Forget finished requests' span trees, as a long-running
        deployment would.  Kept, they grow memory and GC time with every op
        a run completes, so a faster change would read worse on
        ``peak_rss_mb``.  Nothing in a run reads them, and no request is in
        flight between units."""
        self.network.metrics.tracer.clear()
        self.network.kernel.tasks.clear()

    # -- fingerprint --------------------------------------------------------

    @property
    def network(self):
        return self.deployment.network

    def snapshot(self) -> tuple[float, int, int]:
        metrics = self.network.metrics
        return self.network.clock.now, metrics.total_messages, metrics.total_bytes

    def fingerprint(self, since: tuple[float, int, int]) -> dict:
        """Virtual-time outputs since ``since``: a wall-clock change must
        never move them."""
        now, messages, n_bytes = self.snapshot()
        return {
            "units": self.units,
            "virtual_ms": round(now - since[0], 6),
            "messages": messages - since[1],
            "bytes": n_bytes - since[2],
        }

    @property
    def ops(self) -> int:
        """Client ops completed in the timed phase."""
        return len(self.latencies_ms)


# -- counter-mix ------------------------------------------------------------------

OP_CHUNK = 500
COUNTER_WARMUP_OPS = 40


def counter_ops(seed: int):
    """An endless seeded 80/20 Get/Set stream, drawn like ``draw_ops``.

    ``draw_ops`` values repeat (``randrange(1000)``), and a repeated value
    hits the message caches, so a longer run would get ever cheaper.  The
    k-th Set therefore writes ``k * 1000`` plus its drawn value: every Set,
    and the Get after it, carries a value no earlier op carried.
    """
    sets = 0
    for chunk in itertools.count():
        for op in draw_ops(OP_CHUNK, derive(seed, "ops", chunk)):
            if isinstance(op, SetCounter):
                sets += 1
                op = SetCounter(op.name, sets * 1000 + op.value)
            yield op


def counter_rig(stack: str):
    scenario = CounterScenario(SecurityMode.X509, colocated=False)
    return build_wsrf_rig(scenario) if stack == "wsrf" else build_transfer_rig(scenario)


class CounterMix(Workload):
    """The Hello-World counter, closed loop, one client."""

    PIN_UNITS = 200
    UNUSED_SEAMS = frozenset({"sim.kernel_run", "xmldb.query"})

    def deploy(self) -> None:
        self.rig = counter_rig(self.stack)
        self.deployment = self.rig.deployment
        self.counter = self.rig.client.create(0)
        self.value = 0
        self.stream = counter_ops(self.seed)

    def warm_up(self) -> None:
        for op in itertools.islice(self.stream, COUNTER_WARMUP_OPS):
            self.apply(op)

    def unit(self) -> None:
        self.apply(next(self.stream))
        self.units += 1

    def apply(self, op) -> None:
        client = self.rig.client
        if isinstance(op, SetCounter):
            if self.call(client.set, self.counter, op.value) is not FAILED:
                self.value = op.value
            return
        got = self.call(client.get, self.counter)
        if got is not FAILED and got != self.value:
            self.fail(f"get returned {got}, the last set was {self.value}")


# -- giab-jobs --------------------------------------------------------------------

APPLICATIONS = sorted({app for apps in GIAB_HOSTS.values() for app in apps})
#: Figure 6's job (``repro.bench.giab.JOB``).  ``GridWorkload``'s own 50 to
#: 400 ms would let a job shorter than about 190 virtual ms exit before its
#: exit subscription is stored, and its notification could never arrive.
RUN_TIME_MS = 250.0
JOB_CHUNK = 100
GIAB_WARMUP_JOBS = 2


def grid_jobs(seed: int, label: str):
    """An endless seeded job stream, drawn by ``GridWorkload``: the repo's
    Grid-in-a-Box job mix (sort, blast or render; 4, 16 or 64 KiB of
    input; half the jobs write an output file)."""
    for chunk in itertools.count():
        yield from GridWorkload(seed=derive(seed, label, chunk), n_jobs=JOB_CHUNK).items


class GiabJobs(Workload):
    """A Grid-in-a-Box VO driven by one user, one job cycle per unit."""

    PIN_UNITS = 10

    def deploy(self) -> None:
        self.vo = build_wsrf_vo() if self.stack == "wsrf" else build_transfer_vo()
        self.deployment = self.vo.deployment
        self.jobs = 0
        self.items = grid_jobs(self.seed, "jobs")
        self.job_rng = random.Random(derive(self.seed, "jobs"))

    def warm_up(self) -> None:
        items = grid_jobs(self.seed, "warmup")
        rng = random.Random(derive(self.seed, "warmup"))
        for item in itertools.islice(items, GIAB_WARMUP_JOBS):
            self.cycle(item, rng)

    def unit(self) -> None:
        self.cycle(next(self.items), self.job_rng)
        self.units += 1

    def finish(self) -> None:
        for app in APPLICATIONS:
            self.discover(app)

    def cycle(self, item, rng: random.Random) -> None:
        # Draw everything first, so a failed step cannot shift later jobs.
        # The input is seeded random text, so no two uploads are alike.
        content = rng.randbytes(item.input_kb * 512).hex()
        pick = rng.random()
        self.jobs += 1
        name = f"job{self.jobs}.dat"
        outputs = (f"job{self.jobs}.out",) if item.produces_output else ()
        spec = JobSpec(item.application, (name,), RUN_TIME_MS, 0, outputs)
        sites = self.discover(item.application)
        if not sites:
            return
        site = sites[int(pick * len(sites))]
        if self.stack == "wsrf":
            self.wsrf_job(site, name, content, spec)
        else:
            self.transfer_job(site, name, content, spec)

    def discover(self, app: str) -> list[dict]:
        """Step 1; no job is running, so every host offering ``app`` is free."""
        sites = self.call(self.vo.client.get_available_resources, app)
        if sites is FAILED:
            return []
        hosts = sorted(site["host"] for site in sites)
        expected = sorted(host for host, apps in GIAB_HOSTS.items() if app in apps)
        if hosts != expected:
            self.fail(f"{app} is offered by {hosts}, expected {expected}")
        return sites

    def wsrf_job(self, site: dict, name: str, content: str, spec: JobSpec) -> None:
        client = self.vo.client
        reservation = self.call(client.make_reservation, site["host"])
        if reservation is FAILED:
            return
        directory = self.call(client.create_data_directory, site["data_address"])
        if directory is FAILED:
            return
        if self.call(client.upload_file, directory, name, content) is FAILED:
            return
        job = self.call(client.start_job, site["exec_address"], reservation, directory, spec)
        if job is FAILED:
            return
        subscription = self.call(client.subscribe_job_exit, job, self.vo.consumer)
        if subscription is FAILED:
            return
        key = job.property(RESOURCE_ID)

        def is_exit(note) -> bool:
            _topic, payload = note
            job_epr = EndpointReference.from_xml(payload.find_local("JobEPR"))
            return (
                job_epr.property(RESOURCE_ID) == key
                and payload.find_local("ExitCode").text().strip() == "0"
            )

        self.await_exit(spec, job, is_exit)
        self.call(client.destroy, subscription)
        # The reservation is destroyed by the job's exit (checked by the
        # next discovery); the directory is ours to remove.
        if self.delete_files(directory, spec):
            self.call(client.destroy, directory)

    def transfer_job(self, site: dict, name: str, content: str, spec: JobSpec) -> None:
        client = self.vo.client
        if self.call(client.make_reservation, site["host"]) is FAILED:
            return
        if self.call(client.upload_file, site["data_address"], name, content) is FAILED:
            return
        job = self.call(client.start_job, site["exec_address"], spec)
        if job is FAILED:
            return
        subscription = self.call(
            client.subscribe_job_exit, site["exec_address"], job, self.vo.consumer
        )
        if subscription is FAILED:
            return
        key = job.property(TRANSFER_RESOURCE_ID)
        self.await_exit(
            spec,
            job,
            lambda event: event.get("job") == key
            and event.find_local("ExitCode").text().strip() == "0",
        )
        self.call(self.unsubscribe, subscription)
        if self.delete_files(site["data_address"], spec):
            self.call(client.unreserve, site["host"])

    def delete_files(self, directory, spec: JobSpec) -> bool:
        """Step 7: the input, and the output the job must have left."""
        return all(
            self.call(self.vo.client.delete_file, directory, name) is not FAILED
            for name in (*spec.arguments, *spec.output_files)
        )

    def unsubscribe(self, subscription: EndpointReference) -> None:
        """WS-Eventing Unsubscribe; the Grid-in-a-Box client has no method for it."""
        self.vo.client.soap.invoke(
            subscription, wse_actions.UNSUBSCRIBE, element(f"{{{ns.WSE}}}Unsubscribe")
        )

    def await_exit(self, spec: JobSpec, job: EndpointReference, is_exit) -> None:
        """Step 6: let the kernel run the job to completion.  Exactly one
        notification, for this job, with exit code 0, must arrive, and the
        job must then report that it exited."""
        received = self.vo.consumer.received
        before = len(received)
        kernel = self.network.kernel
        kernel.run(until=self.network.clock.now + spec.run_time_ms + 1.0)
        arrived = received[before:]
        if len(arrived) != 1 or not is_exit(arrived[0]):
            self.fail(f"expected one exit notification for job {self.jobs}, got {len(arrived)}")
        status = self.call(self.vo.client.job_status, job)
        if status is not FAILED and status != JobState.EXITED.value:
            self.fail(f"job {self.jobs} reports {status!r} after its exit notification")


# -- counter-load -----------------------------------------------------------------

OFFERED_PER_SEC = 15.0
ROUND_REQUESTS = 150
LOAD_WARMUP_REQUESTS = 30


def counter_reply_value(stack: str, reply) -> int:
    """The value in a Get reply body, decoded as the stack's client does."""
    if stack == "wsrf":
        return int(text_of(reply.find(f"{{{ns.COUNTER}}}Value")))
    return counter_value(next(reply.element_children()))


class CounterLoad(Workload):
    """The counter mix, open loop: rounds of seeded Poisson arrivals."""

    PIN_UNITS = 2
    UNUSED_SEAMS = frozenset({"container.invoke", "sim.kernel_run_sync", "xmldb.query"})

    def deploy(self) -> None:
        self.rig = counter_rig(self.stack)
        self.deployment = self.rig.deployment
        self.counter = self.rig.client.create(0)
        # One worker; the queue holds a whole round, so nothing is rejected.
        self.network.kernel.configure_pool(SERVER_HOST, 1, ROUND_REQUESTS)
        self.stream = counter_ops(self.seed)
        #: Values the counter may hold between rounds.
        self.carried = {0}
        #: Wall time from each timed round's first spawn until the kernel
        #: drained; ``ops_per_s`` divides by this.
        self.window_s = 0.0
        self.load = LoadResult(offered_per_sec=OFFERED_PER_SEC)

    def warm_up(self) -> None:
        self.open_loop(LOAD_WARMUP_REQUESTS, "warmup")

    def unit(self) -> None:
        self.open_loop(ROUND_REQUESTS, self.units)
        self.units += 1

    @property
    def ops(self) -> int:
        """Requests completed in the timed rounds."""
        return self.load.completed

    def open_loop(self, n: int, label: object) -> None:
        kernel = self.network.kernel
        ops = list(itertools.islice(self.stream, n))
        arrivals = arrival_times(
            n, OFFERED_PER_SEC, "poisson", derive(self.seed, "arrivals", label),
            start=kernel.clock.now,
        )
        soap = self.rig.client.soap
        tracer = self.tracer

        def make_task(i: int):
            task = soap.invoke_task(*op_request(self.stack, ops[i], self.counter))
            # The traced run leaves requests unwrapped, so no benchmark
            # code runs inside Kernel.run; its spans name their request
            # from the kernel's stepping task instead.
            return task if tracer is not None else self.request(task)

        self.attempted += n
        first_task = len(kernel.tasks)
        if tracer is not None:
            tracer.op, tracer.kernel = f"{self.stack}:round{label}", kernel
        start = perf_counter()
        try:
            result = run_open_loop(
                kernel, arrivals, make_task,
                offered_per_sec=OFFERED_PER_SEC, name=f"{self.stack}:round{label}",
            )
        finally:
            if tracer is not None:
                tracer.kernel = None
        if self.timed:
            self.window_s += perf_counter() - start
            self.merge(result)
        accounted = result.completed + result.rejected + result.failed
        if accounted != n:
            self.fail(f"{n} requests attempted, {accounted} accounted for")
        for _ in range(result.rejected):
            self.fail("request rejected by the server queue")
        for error in result.errors:
            self.fail(f"request failed: {error}")
        done = [
            (task.finished_at, task.result) if task.ok else None
            for task in kernel.tasks[first_task:]
        ]
        if len(done) != n:
            self.fail(f"{n} requests spawned, the kernel ran {len(done)} tasks")
            return
        self.check_history(ops, arrivals, done)

    def request(self, gen):
        """Drive one request for the kernel, timing only its own stages.

        Other requests' stages interleave with this one, so its wall time
        is the sum of its own generator steps and ``Work`` stages.
        """
        own = [0.0]

        def timed(fn):
            def stage():
                start = perf_counter()
                try:
                    return fn()
                finally:
                    own[0] += perf_counter() - start

            return stage

        payload = thrown = None
        while True:
            start = perf_counter()
            try:
                effect = gen.throw(thrown) if thrown is not None else gen.send(payload)
            except StopIteration as stop:
                own[0] += perf_counter() - start
                if self.timed:
                    self.latencies_ms.append(own[0] * 1e3)
                return stop.value
            own[0] += perf_counter() - start
            if isinstance(effect, Work):
                effect = Work(timed(effect.fn), effect.label)
            try:
                payload, thrown = (yield effect), None
            except Exception as exc:  # the kernel throws stage failures back in
                payload, thrown = None, exc

    def check_history(self, ops, arrivals, done) -> None:
        """Each Get must return a value some Set could have left.

        With requests in flight together, "the latest Set" is any Set that
        began before the Get ended and was not certainly overwritten -
        by a Set that began after it ended - before the Get began.
        """
        writes = [
            (arrivals[i], done[i][0], op.value)
            for i, op in enumerate(ops)
            if isinstance(op, SetCounter) and done[i] is not None
        ]
        # When each write is certainly overwritten (inf: it may be last).
        overwritten = [
            min((end2 for start2, end2, _ in writes if start2 > end), default=float("inf"))
            for _, end, _ in writes
        ]
        for i, op in enumerate(ops):
            if not isinstance(op, GetCounter) or done[i] is None:
                continue
            start, end = arrivals[i], done[i][0]
            allowed = {
                value for (w_start, _, value), gone in zip(writes, overwritten)
                if w_start < end and gone >= start
            }
            if not any(w_end < start for _, w_end, _ in writes):
                allowed |= self.carried
            got = counter_reply_value(self.stack, done[i][1])
            if got not in allowed:
                self.fail(f"get returned {got}, possible values were {sorted(allowed)}")
        if writes:
            self.carried = {
                value for (_, _, value), gone in zip(writes, overwritten) if gone == float("inf")
            }

    def merge(self, result: LoadResult) -> None:
        load = self.load
        if not load.completed:
            load.first_arrival = result.first_arrival
        load.completed += result.completed
        load.rejected += result.rejected
        load.failed += result.failed
        load.latencies = load.latencies.merge(result.latencies)
        load.queueing = load.queueing.merge(result.queueing)
        load.last_completion = result.last_completion
        load.max_queue_depth = result.max_queue_depth
        load.messages += result.messages

    def fingerprint(self, since) -> dict:
        fingerprint = super().fingerprint(since)
        summary = self.load.summary()
        fingerprint["load"] = {
            "completed": summary["completed"],
            "latency_p50_ms": summary["latency"].get("p50_ms"),
            "latency_p95_ms": summary["latency"].get("p95_ms"),
            "latency_p99_ms": summary["latency"].get("p99_ms"),
            "max_queue_depth": max(summary["max_queue_depth"].values(), default=0),
        }
        return fingerprint


WORKLOADS = {
    "counter-mix": CounterMix,
    "giab-jobs": GiabJobs,
    "counter-load": CounterLoad,
}
