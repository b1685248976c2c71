"""Unit and property tests for the virtual clock, and for the timers its
charges fire from the kernel's heap."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Clock, Kernel, SimError


def kernel_at(start: float = 0.0) -> Kernel:
    """A kernel over a fresh clock starting at ``start``."""
    return Kernel(clock=Clock(start=start))


class TestCharge:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_charge_advances(self):
        clock = Clock()
        clock.charge(5.0)
        clock.charge(2.5)
        assert clock.now == 7.5

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Clock().charge(-1)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_monotonic_under_any_charge_sequence(self, charges):
        clock = Clock()
        last = clock.now
        for ms in charges:
            clock.charge(ms)
            assert clock.now >= last
            last = clock.now


class TestTimers:
    def test_timer_fires_during_charge(self):
        kernel = kernel_at()
        clock = kernel.clock
        fired = []
        kernel.call_at(10.0, lambda: fired.append(clock.now))
        clock.charge(5.0)
        assert fired == []
        clock.charge(10.0)
        assert fired == [10.0]
        assert clock.now == 15.0

    def test_timers_fire_in_deadline_order(self):
        kernel = kernel_at()
        fired = []
        kernel.call_at(20.0, lambda: fired.append("b"))
        kernel.call_at(10.0, lambda: fired.append("a"))
        kernel.call_at(30.0, lambda: fired.append("c"))
        kernel.run(until=25.0)
        assert fired == ["a", "b"]
        kernel.run(until=35.0)
        assert fired == ["a", "b", "c"]

    def test_same_deadline_fifo(self):
        kernel = kernel_at()
        fired = []
        kernel.call_at(10.0, lambda: fired.append(1))
        kernel.call_at(10.0, lambda: fired.append(2))
        kernel.run(until=10.0)
        assert fired == [1, 2]

    def test_cancel(self):
        kernel = kernel_at()
        fired = []
        timer = kernel.call_at(10.0, lambda: fired.append(1))
        kernel.cancel(timer)
        kernel.run(until=20.0)
        assert fired == []

    def test_cancel_idempotent(self):
        kernel = kernel_at()
        timer = kernel.call_at(10.0, lambda: None)
        kernel.cancel(timer)
        kernel.cancel(timer)
        kernel.run(until=20.0)

    def test_past_deadline_fires_at_now(self):
        kernel = kernel_at(100)
        fired = []
        kernel.call_at(5.0, lambda: fired.append(kernel.clock.now))
        kernel.clock.charge(0.0)
        assert fired == [100.0]

    def test_schedule_after(self):
        kernel = kernel_at(10)
        fired = []
        kernel.call_after(5.0, lambda: fired.append(kernel.clock.now))
        kernel.clock.charge(10)
        assert fired == [15.0]

    def test_timer_scheduling_timer(self):
        kernel = kernel_at()
        fired = []

        def first():
            fired.append("first")
            kernel.call_at(kernel.clock.now + 1, lambda: fired.append("second"))

        kernel.call_at(10, first)
        kernel.run(until=20)
        assert fired == ["first", "second"]

    def test_a_clock_belongs_to_one_kernel(self):
        kernel = kernel_at()
        with pytest.raises(SimError, match="already belongs"):
            Kernel(clock=kernel.clock)


class TestSimErrors:
    def test_backwards_advance_raises_sim_error(self):
        kernel = kernel_at(100)
        with pytest.raises(SimError, match="cannot move backwards"):
            kernel.run(until=50.0)
        assert kernel.clock.now == 100.0  # the timeline did not silently rewind

    def test_negative_charge_raises_sim_error(self):
        clock = Clock()
        with pytest.raises(SimError, match="negative"):
            clock.charge(-1.0)

    def test_sim_error_is_a_value_error(self):
        # Call sites predating SimError catch ValueError; keep them working.
        assert issubclass(SimError, ValueError)


class TestDeferredCharges:
    def test_charges_accumulate_without_advancing(self):
        clock = Clock()
        with clock.defer_charges() as pending:
            clock.charge(5.0)
            clock.charge(7.0)
            assert pending.ms == 12.0
            assert clock.now == 12.0  # locally-elapsed view inside the stage
            assert clock._now == 0.0  # the shared timeline has not moved
        assert clock.now == 0.0  # the kernel owns the eventual advance

    def test_deferred_timers_do_not_fire(self):
        kernel = kernel_at()
        clock = kernel.clock
        fired = []
        kernel.call_at(3.0, lambda: fired.append(clock.now))
        with clock.defer_charges():
            clock.charge(10.0)
            assert fired == []  # stages are atomic; timers wait for the sleep
        kernel.run(until=10.0)
        assert fired == [3.0]

    def test_deferral_cannot_nest(self):
        clock = Clock()
        with clock.defer_charges():
            with pytest.raises(SimError, match="cannot nest"):
                with clock.defer_charges():
                    pass

    def test_deferring_property(self):
        clock = Clock()
        assert not clock.deferring
        with clock.defer_charges():
            assert clock.deferring
        assert not clock.deferring
