"""The discrete-event kernel: scheduling, effects, pools, timers."""

import pytest

from repro.sim import (
    Acquire,
    Clock,
    Delay,
    Kernel,
    QueueFull,
    Release,
    SimError,
    Work,
)


def fresh_kernel():
    return Kernel(clock=Clock())


class TestScheduling:
    def test_events_run_in_time_order(self):
        kernel = fresh_kernel()
        order = []

        def task(label, ms):
            yield Delay(ms)
            order.append((label, kernel.clock.now))

        kernel.spawn(task("late", 30.0))
        kernel.spawn(task("early", 10.0))
        kernel.spawn(task("mid", 20.0))
        kernel.run()
        assert order == [("early", 10.0), ("mid", 20.0), ("late", 30.0)]

    def test_simultaneous_events_keep_fifo_order(self):
        # Deterministic tie-breaking: the (time, seq) heap resolves equal
        # instants by spawn order, run after run.
        kernel = fresh_kernel()
        order = []

        def task(label):
            yield Delay(5.0)
            order.append(label)

        for label in ("a", "b", "c", "d"):
            kernel.spawn(task(label))
        kernel.run()
        assert order == ["a", "b", "c", "d"]

    def test_spawn_at_absolute_instant(self):
        kernel = fresh_kernel()
        seen = []

        def task():
            seen.append(kernel.clock.now)
            return "done"
            yield  # pragma: no cover - marks this def as a generator

        spawned = kernel.spawn(task(), at=42.0)
        kernel.run()
        assert seen == [42.0]
        assert spawned.result == "done"
        assert spawned.scheduled_at == 42.0

    def test_run_until_stops_early_and_advances(self):
        kernel = fresh_kernel()
        done = []

        def task():
            yield Delay(100.0)
            done.append(True)

        kernel.spawn(task())
        kernel.run(until=50.0)
        assert not done
        assert kernel.clock.now == 50.0
        kernel.run()
        assert done

    def test_negative_delay_is_a_sim_error(self):
        kernel = fresh_kernel()

        def task():
            yield Delay(-1.0)

        spawned = kernel.spawn(task())
        kernel.run()
        assert isinstance(spawned.error, SimError)

    def test_non_effect_yield_is_a_sim_error(self):
        kernel = fresh_kernel()

        def task():
            yield "not an effect"

        spawned = kernel.spawn(task())
        kernel.run()
        assert isinstance(spawned.error, SimError)

    def test_gather_reraises_first_failure(self):
        kernel = fresh_kernel()

        def ok():
            yield Delay(1.0)
            return 1

        def bad():
            yield Delay(2.0)
            raise RuntimeError("boom")

        tasks = [kernel.spawn(ok()), kernel.spawn(bad())]
        kernel.run()
        with pytest.raises(RuntimeError, match="boom"):
            kernel.gather(tasks)


class TestWorkStages:
    def test_single_task_charges_eagerly(self):
        # With one live task the stage advances the clock directly — the
        # serial regime the golden ledgers were pinned against.
        kernel = fresh_kernel()
        observed = []

        def task():
            def stage():
                kernel.clock.charge(7.0)
                observed.append(kernel.clock.now)
                return "v"

            value = yield Work(stage)
            return value

        spawned = kernel.spawn(task())
        kernel.run()
        assert spawned.result == "v"
        assert observed == [7.0]
        assert not kernel.clock.deferring

    def test_concurrent_stages_defer_and_interleave(self):
        # Two tasks, each one 10ms stage: under deferral the second task's
        # stage starts at its arrival instant, not after the first stage.
        kernel = fresh_kernel()
        starts = []

        def task(label):
            def stage():
                starts.append((label, kernel.clock._now))
                kernel.clock.charge(10.0)

            yield Work(stage)

        kernel.spawn(task("a"), at=0.0)
        kernel.spawn(task("b"), at=1.0)
        kernel.run()
        # b's stage computed at its own arrival (t=1), inside a's window.
        assert starts == [("a", 0.0), ("b", 1.0)]
        assert kernel.clock.now == 11.0

    def test_stage_sees_locally_elapsed_time(self):
        # Deadline math inside a deferred stage must match the serial
        # regime: now includes the pending charges.
        kernel = fresh_kernel()
        seen = []

        def charging(label):
            def stage():
                kernel.clock.charge(5.0)
                seen.append((label, kernel.clock.now))
                kernel.clock.charge(5.0)
                seen.append((label, kernel.clock.now))

            yield Work(stage)

        kernel.spawn(charging("a"))
        kernel.spawn(charging("b"))
        kernel.run()
        assert ("a", 5.0) in seen and ("a", 10.0) in seen

    def test_stage_exception_rethrown_into_task(self):
        kernel = fresh_kernel()

        def task():
            try:
                yield Work(lambda: (_ for _ in ()).throw(ValueError("bad")))
            except ValueError:
                return "caught"

        spawned = kernel.spawn(task())
        kernel.run()
        assert spawned.result == "caught"

    def test_failed_stage_still_pays_partial_cost(self):
        # A stage that charges then raises (a lost message paid wire time)
        # must elapse the charged portion before the throw lands.
        kernel = fresh_kernel()

        def task(label):
            def stage():
                kernel.clock.charge(8.0)
                raise RuntimeError("lost")

            try:
                yield Work(stage)
            except RuntimeError:
                return kernel.clock.now

        a = kernel.spawn(task("a"))
        b = kernel.spawn(task("b"))
        kernel.run()
        assert a.result == 8.0
        assert b.result == 8.0  # b's stage also ran at t=0, concurrently


class TestWorkerPools:
    def test_second_request_queues_and_measures_wait(self):
        kernel = fresh_kernel()
        waits = {}

        def request(label):
            wait = yield Acquire("opteron1")
            waits[label] = wait
            yield Delay(10.0)  # service time after the grant
            yield Release("opteron1")

        kernel.spawn(request("first"), at=0.0)
        kernel.spawn(request("second"), at=2.0)
        kernel.run()
        assert waits["first"] == 0.0
        assert waits["second"] == 8.0  # arrived at 2, granted at 10
        pool = kernel.pool("opteron1")
        assert pool.max_depth == 1
        assert pool.granted == 2

    def test_queue_overflow_throws_queue_full(self):
        kernel = fresh_kernel()
        kernel.configure_pool("h", workers=1, queue_limit=1)
        outcomes = {}

        def request(label):
            try:
                yield Acquire("h")
            except QueueFull as exc:
                outcomes[label] = exc
                return
            yield Delay(10.0)
            yield Release("h")
            outcomes[label] = "served"

        for i, label in enumerate(("a", "b", "c")):
            kernel.spawn(request(label), at=float(i))
        kernel.run()
        assert outcomes["a"] == "served"
        assert outcomes["b"] == "served"  # waited in the queue
        assert isinstance(outcomes["c"], QueueFull)
        assert outcomes["c"].host == "h"
        assert kernel.pool("h").rejected == 1

    def test_queue_grants_in_fifo_order(self):
        kernel = fresh_kernel()
        kernel.configure_pool("h", workers=1, queue_limit=8)
        order = []

        def request(label):
            yield Acquire("h")
            yield Delay(5.0)
            yield Release("h")
            order.append(label)

        for i, label in enumerate(("a", "b", "c", "d")):
            kernel.spawn(request(label), at=float(i))
        kernel.run()
        assert order == ["a", "b", "c", "d"]

    def test_release_without_acquire_is_a_sim_error(self):
        kernel = fresh_kernel()

        def task():
            yield Release("h")

        spawned = kernel.spawn(task())
        kernel.run()
        assert spawned.done
        assert isinstance(spawned.error, SimError)
        assert "release without acquire" in str(spawned.error)

    def test_task_queueing_delay_accumulates(self):
        kernel = fresh_kernel()

        def request():
            yield Acquire("h")
            yield Delay(10.0)
            yield Release("h")

        kernel.spawn(request(), at=0.0)
        waiter = kernel.spawn(request(), at=3.0)
        kernel.run()
        assert waiter.queueing_delay_ms == 7.0
        assert waiter.latency_ms == 17.0  # 7 queued + 10 service


class TestKernelTimers:
    def test_call_at_interleaves_with_tasks(self):
        kernel = fresh_kernel()
        order = []

        def task():
            yield Delay(10.0)
            order.append(("task", kernel.clock.now))

        kernel.call_at(5.0, lambda: order.append(("timer", kernel.clock.now)))
        kernel.spawn(task())
        kernel.run()
        assert order == [("timer", 5.0), ("task", 10.0)]

    def test_timer_and_task_event_at_one_instant_run_in_post_order(self):
        # One heap: entries due at the same instant run in the order they
        # were posted, whether they are timers or task events.
        kernel = fresh_kernel()
        order = []

        def task():
            yield Delay(5.0)
            order.append("task")

        kernel.call_at(5.0, lambda: order.append("early timer"))
        kernel.spawn(task())
        kernel.run(until=1.0)  # the task has posted its wake-up at 5
        kernel.call_at(5.0, lambda: order.append("late timer"))
        kernel.run(until=5.0)
        assert order == ["early timer", "task", "late timer"]

    def test_run_without_until_leaves_later_timers_pending(self):
        kernel = fresh_kernel()
        fired = []

        def task():
            yield Delay(10.0)

        kernel.call_at(50.0, lambda: fired.append(kernel.clock.now))
        kernel.spawn(task())
        kernel.run()
        assert (fired, kernel.clock.now) == ([], 10.0)
        kernel.run(until=60.0)
        assert fired == [50.0]

    def test_timer_request_during_live_stages_loses_no_task(self):
        # A timer's request charges 10 ms while two tasks are live.  The
        # stages that fall due inside that charge cannot nest in it: each
        # such task ends with the SimError instead of being dropped, the
        # request completes, and run() leaves nothing live.
        kernel = fresh_kernel()
        completed = []

        def task():
            for _ in range(3):
                yield Work(lambda: kernel.clock.charge(2.0))

        def request():
            yield Work(lambda: kernel.clock.charge(10.0))
            return "sent"

        kernel.call_at(1.0, lambda: completed.append(kernel.run_sync(request())))
        tasks = [kernel.spawn(task(), "a"), kernel.spawn(task(), "b")]
        kernel.run()
        assert completed == ["sent"]
        assert all(spawned.done for spawned in tasks)
        for spawned in tasks:
            assert isinstance(spawned.error, SimError)
            assert "cannot nest" in str(spawned.error)
        assert kernel._live == 0


class TestRunSync:
    def test_drives_request_to_completion(self):
        kernel = fresh_kernel()

        def request():
            yield Acquire("h")
            value = yield Work(lambda: kernel.clock.charge(5.0) or "ok")
            yield Release("h")
            return value

        assert kernel.run_sync(request()) == "ok"
        assert kernel.clock.now == 5.0
        assert kernel.pool("h").busy == 0
        assert kernel.sync_requests == 1

    def test_nested_call_skips_pools(self):
        # A server out-call inside a stage runs eagerly without taking a
        # worker slot; the enclosing stage is still a stage afterwards.
        kernel = fresh_kernel()
        seen = {}

        def out_call():
            yield Acquire("h")
            value = yield Work(lambda: kernel.clock.charge(3.0) or 9)
            yield Release("h")
            return value

        def handle():
            seen["value"] = kernel.run_sync(out_call())
            seen["in_stage"] = kernel._in_stage

        def request():
            yield Acquire("h")
            yield Work(handle)
            yield Release("h")

        kernel.run_sync(request())
        assert seen == {"value": 9, "in_stage": True}
        assert not kernel._in_stage
        assert kernel.clock.now == 3.0
        assert kernel.pool("h").granted == 1  # the outer request's slot only

    def test_call_while_tasks_live_skips_pools(self):
        kernel = fresh_kernel()

        def holder():
            yield Acquire("h")
            yield Delay(10.0)
            yield Release("h")

        kernel.spawn(holder())
        kernel.run(until=1.0)  # the task holds h's only worker

        def request():
            yield Acquire("h")
            value = yield Work(lambda: "ok")
            yield Release("h")
            return value

        assert kernel.run_sync(request()) == "ok"
        assert kernel.pool("h").granted == 1

    def test_abandoned_request_releases_its_worker(self):
        kernel = fresh_kernel()

        def request():
            yield Acquire("h")
            raise RuntimeError("mid-flight failure")

        with pytest.raises(RuntimeError):
            kernel.run_sync(request())
        assert kernel.pool("h").busy == 0

    def test_exceptions_propagate_synchronously(self):
        kernel = fresh_kernel()

        def request():
            yield Work(lambda: (_ for _ in ()).throw(ValueError("bad")))

        with pytest.raises(ValueError, match="bad"):
            kernel.run_sync(request())


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        def run_once():
            kernel = fresh_kernel()
            kernel.clock.reseed(99)
            trace = []

            def task(i):
                yield Delay(kernel.clock.rng.uniform(0, 20))
                yield Acquire("h")
                yield Delay(5.0)
                yield Release("h")
                trace.append((i, kernel.clock.now))

            for i in range(6):
                kernel.spawn(task(i))
            kernel.run()
            return trace

        assert run_once() == run_once()
