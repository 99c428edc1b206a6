"""``Simulator.sleep``: a fixed-delay wait that allocates nothing.

A process that yields ``sim.sleep(d)`` must be indistinguishable from
one that yields ``sim.timeout(d)``: same wake time, same position among
same-timestamp events, same interrupt behaviour.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Resource, SimulationError, Simulator

# One process's program: a list of operations.
#   ("wait", d)          wait d ns
#   ("hold", r, d)       take a slot of resource r, wait d ns, release it
#   ("spawn", d)         start a child process that waits d ns
#   ("interrupt", p)     interrupt process p if it is alive
DELAYS = st.integers(min_value=0, max_value=3)  # small: same-time storms
OPS = st.one_of(
    st.tuples(st.just("wait"), DELAYS),
    st.tuples(st.just("hold"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("spawn"), DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
)
PROGRAMS = st.lists(st.lists(OPS, min_size=1, max_size=8), min_size=1, max_size=5)
CAPACITIES = st.tuples(st.integers(1, 2), st.integers(1, 2))


def _run(programs, capacities, use_sleep):
    """Run ``programs``: the (time, process, step, what) log and the
    final clock."""
    sim = Simulator()
    wait = sim.sleep if use_sleep else sim.timeout
    resources = [Resource(sim, capacity) for capacity in capacities]
    procs = []
    log = []

    def child(name, delay):
        yield wait(delay)
        log.append((sim.now, name, 0, "child"))

    def body(pid, ops):
        for step, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "wait":
                    yield wait(op[1])
                elif kind == "hold":
                    resource = resources[op[1]]
                    request = resource.request()
                    try:
                        yield request
                    except Interrupt:
                        resource.release(request)
                        raise
                    try:
                        yield wait(op[2])
                    finally:
                        resource.release(request)
                elif kind == "spawn":
                    sim.process(child(f"{pid}.{step}", op[1]))
                else:
                    target = procs[op[1] % len(procs)]
                    if target.is_alive:
                        target.interrupt((pid, step))
                log.append((sim.now, pid, step, kind))
            except Interrupt as intr:
                log.append((sim.now, pid, step, ("interrupted", intr.cause)))

    for pid, ops in enumerate(programs):
        procs.append(sim.process(body(pid, ops)))
    sim.run()
    return log, sim.now


@settings(max_examples=300, deadline=None)
@given(programs=PROGRAMS, capacities=CAPACITIES)
def test_sleep_replays_timeout_event_order(programs, capacities):
    assert _run(programs, capacities, use_sleep=True) == _run(
        programs, capacities, use_sleep=False
    )


def test_sleep_wakes_after_delay_and_truncates():
    sim = Simulator()
    log = []

    def proc():
        yield sim.sleep(5)
        log.append(sim.now)
        yield sim.sleep(2.9)
        log.append(sim.now)
        yield sim.sleep(0)
        log.append(sim.now)

    sim.process(proc())
    sim.run()
    assert log == [5, 7, 7]


def test_interrupting_a_sleeper_delivers_once_and_drops_the_stale_wake():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.sleep(100)
            log.append(("woke", sim.now))
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        # The wake queued for t=100 is stale: this sleep must run its
        # full 200 ns, and nothing else may resume the process.
        yield sim.sleep(200)
        log.append(("slept", sim.now))

    p = sim.process(sleeper())

    def interrupter():
        yield sim.sleep(10)
        p.interrupt("now")

    sim.process(interrupter())
    sim.run()
    assert log == [("interrupted", 10, "now"), ("slept", 210)]
    assert not p.is_alive


@pytest.mark.parametrize("kind", ["sleep", "timeout"])
def test_interrupt_raised_before_the_wait_detaches_it(kind):
    """A self-interrupt lands at the next wait; that wait must not
    resume the process a second time."""
    sim = Simulator()
    wait = getattr(sim, kind)
    log = []

    def proc():
        me.interrupt("self")
        try:
            yield wait(5)
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        yield wait(10)
        log.append(("slept", sim.now))

    me = sim.process(proc())
    sim.run()
    assert log == [("interrupted", 0, "self"), ("slept", 10)]


def test_negative_sleep_raises_in_the_caller():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.sleep(-1)
    caught = []

    def proc():
        try:
            yield sim.sleep(-5)
        except SimulationError as exc:
            caught.append(str(exc))
        yield sim.sleep(3)

    sim.process(proc())
    sim.run()
    assert caught and "negative" in caught[0]
    assert sim.now == 3


def test_sleep_token_of_another_simulator_raises():
    sim, other = Simulator(), Simulator()

    def proc():
        yield other.sleep(5)

    p = sim.process(proc())
    with pytest.raises(SimulationError, match="another simulator"):
        sim.run(until=p)


def test_run_until_a_time_with_processes_asleep():
    sim = Simulator()
    ticks = []

    def ticker():
        while True:
            yield sim.sleep(100)
            ticks.append(sim.now)

    sim.process(ticker())
    sim.run(until=250)
    assert sim.now == 250
    assert ticks == [100, 200]
    sim.run(until=400)
    assert ticks == [100, 200, 300, 400]


def test_finished_processes_leave_no_cyclic_garbage():
    """The figure harness pauses the cyclic GC around a cell, so a
    finished process (with its wake entry) must be freed by refcounting."""
    def run():
        sim = Simulator()
        slot = Resource(sim)

        def proc(index):
            request = slot.request()
            yield request
            yield sim.sleep(index % 3)
            slot.release(request)
            yield sim.timeout(1)

        for index in range(50):
            sim.process(proc(index))
        sim.run()

    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
