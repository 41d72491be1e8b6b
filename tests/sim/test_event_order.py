"""The event queue's ordering contract: events fire in exact ``(t, seq)`` order.

``seq`` is the schedule order, so equal-time events fire first-scheduled
first.  The suite drives random schedules through a real
:class:`~repro.sim.Simulator` — pushes (``timeout``, ``succeed``)
interleaved with pops (a driver process that waits between bursts) — and
checks the firing order against a sorted-list reference.  It also pins
``step()`` ≡ ``run()`` and the delay guards of both scheduling paths.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimulationError, Simulator

# Small repeated delays make same-time collisions (the FIFO case) common.
_DELAYS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    st.just(1e6),  # far-future outlier
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), _DELAYS),
        st.tuples(st.just("succeed"), st.just(0.0)),
        st.tuples(st.just("wait"), _DELAYS),
    ),
    min_size=1,
    max_size=80,
)


def _schedule(sim, ops, fired, expected):
    """Start a driver process that replays *ops* on *sim*.

    Every event the driver schedules (its own waits included) appends its
    ``(t, k)`` to *expected* at push time — ``k`` is the push order — and
    to *fired* when it fires, together with the clock at firing.
    """
    counter = [0]

    def track(ev, t):
        k = counter[0]
        counter[0] += 1
        expected.append((t, k))
        ev.callbacks.append(lambda _ev, t=t, k=k: fired.append((t, k, sim.now)))
        return ev

    def driver():
        for op, delay in ops:
            if op == "timeout":
                track(sim.timeout(delay), sim.now + delay)
            elif op == "succeed":
                track(sim.event(), sim.now).succeed()
            else:
                yield track(sim.timeout(delay), sim.now + delay)

    sim.process(driver())


def _run(ops, mode):
    sim = Simulator()
    fired, expected = [], []
    _schedule(sim, ops, fired, expected)
    if mode == "run":
        sim.run()
    elif mode == "step":
        while sim.peek() < math.inf:
            sim.step()
    else:  # "bounded": stop half way, then finish
        sim.run(until=25.0)
        sim.run()
    return fired, expected, (sim.now, sim.events_processed, sim._seq)


@given(ops=_OPS)
@settings(max_examples=80, deadline=None)
def test_random_schedules_drain_in_t_seq_order(ops):
    fired, expected, _ = _run(ops, "run")
    assert [(t, k) for t, k, _ in fired] == sorted(expected)
    # Each event fires exactly at its scheduled time.
    assert all(now == t for t, _, now in fired)


@given(ops=_OPS)
@settings(max_examples=40, deadline=None)
def test_step_loop_matches_run(ops):
    assert _run(ops, "step") == _run(ops, "run")


@given(ops=_OPS)
@settings(max_examples=40, deadline=None)
def test_bounded_run_matches_full_run(ops):
    fired, expected, (now, events, seq) = _run(ops, "bounded")
    ref_fired, _, (ref_now, ref_events, ref_seq) = _run(ops, "run")
    assert fired == ref_fired
    assert (events, seq) == (ref_events, ref_seq)
    # run(until=...) leaves the clock at *until* if the queue ran dry first.
    assert now == max(ref_now, 25.0)


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i, delay in enumerate([5.0, 0.0, 5.0, 0.0, 5.0]):
        sim.timeout(delay).callbacks.append(lambda _ev, i=i: order.append(i))
    ev = sim.event()
    ev.callbacks.append(lambda _ev: order.append("succeed"))
    ev.succeed()  # zero delay, scheduled after the two 0.0 timeouts
    sim.run()
    assert order == [1, 3, "succeed", 0, 2, 4]


@pytest.mark.parametrize("bad", [-1.0, -1e-12, float("nan"), float("inf")])
def test_bad_delays_rejected(bad):
    sim = Simulator()
    with pytest.raises(SimulationError, match="delay"):
        sim.timeout(bad)
    with pytest.raises(SimulationError, match="delay"):
        sim._push(sim.event(), bad)
    # The guards fire before anything is scheduled.
    assert sim.peek() == math.inf
    assert sim._seq == 0
