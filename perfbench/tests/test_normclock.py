"""Sensitivity of the normalized metrics.

Normalization must divide out the machine's speed and nothing else: a
known amount of extra work inside a timed call must show up in full,
and so must time the client spends waiting for the interpreter lock.
"""

import math
import statistics
import threading
import time
from types import SimpleNamespace

import pytest

import run
import world
from normclock import NormClock, percentile, reference_loop, tail
from workloads import Browse

from repro.sparql.evaluator import Evaluator

#: Iterations of the added busy loop: several reference units.
BUSY_ITERATIONS = 60_000
#: Longer than the interpreter's 5 ms switch interval, so a competing
#: thread always takes the lock at least once during the call.
LONG_PASSES = 20


class FakeWorkload:
    """The run loop's view of a workload, minus the world: op ``i``
    runs ``bodies[i % len(bodies)]`` and is timed as that body's kind."""

    name = "fake"
    OP_KINDS = READ_KINDS = BUSY_KINDS = ("op",)
    NAMED = {}
    BLOCK = TRACED_BLOCKS = 1

    def __init__(self, ops, bodies):
        self.schedule = [(kind,) for kind in bodies] * (ops // len(bodies))
        self.bodies = bodies
        self.store = SimpleNamespace(generation=0)

    def setup(self, clock):
        return 1.0, 1.0

    def warm_up(self):
        pass

    def execute(self, index, op, record):
        began = time.perf_counter()
        self.bodies[op[0]]()
        record(op[0], began, time.perf_counter())

    def finish(self):
        return []


def p50_ms(bodies, ops=60):
    """Normalized median ms of each body, run interleaved."""
    workload = FakeWorkload(ops, bodies)
    result, clock = run.execute(workload, seconds=60.0)
    assert len(result.done) == ops and not result.failures
    times = {kind: [] for kind in bodies}
    for _, kind, began, ended in result.intervals:
        times[kind].append(clock.normalize(began, ended) * 1000.0)
    return {kind: statistics.median(v) for kind, v in times.items()}


def busy_loop() -> float:
    """Fixed floating-point work, unlike the reference loop's dict
    updates, that allocates no tracked objects."""
    total = 0.0
    for i in range(BUSY_ITERATIONS):
        total += math.sqrt(i)
    return total


def busy_loop_ms(repeats=30):
    """Normalized median ms of ``busy_loop`` on its own."""
    clock = NormClock()
    clock.sample()
    spans = []
    for _ in range(repeats):
        began = time.perf_counter()
        busy_loop()
        spans.append((began, time.perf_counter()))
        clock.sample()
    return statistics.median(
        clock.normalize(b, e) * 1000.0 for b, e in spans
    )


def browse_metrics(workdir, seconds=6.0):
    workload = Browse(seed=5, workdir=workdir)
    try:
        result, clock = run.execute(workload, seconds)
        assert not result.failures
        return run.end_to_end(workload, result, clock)
    finally:
        workload.close()


def test_added_busy_loop_rises_by_its_own_cost(monkeypatch, tmp_path):
    # An album request runs exactly one query, so a busy loop added to
    # every Evaluator.evaluate call adds one loop to read_p50_ms.
    monkeypatch.setattr(world, "BUILDS", 1)
    plain = browse_metrics(tmp_path)
    evaluate = Evaluator.evaluate

    def slowed(self, query):
        busy_loop()
        return evaluate(self, query)

    monkeypatch.setattr(Evaluator, "evaluate", slowed)
    slow = browse_metrics(tmp_path)
    monkeypatch.undo()
    cost = busy_loop_ms()
    assert cost > 2.0
    rise = slow["read_p50_ms"] - plain["read_p50_ms"]
    assert rise == pytest.approx(cost, rel=0.3)


def test_gil_contention_is_not_divided_out():
    def body():
        reference_loop(LONG_PASSES)

    quiet = p50_ms({"op": body}, ops=30)["op"]
    stop = threading.Event()

    def burn():
        while not stop.is_set():
            reference_loop()

    burner = threading.Thread(target=burn)
    burner.start()
    try:
        contended = p50_ms({"op": body}, ops=30)["op"]
    finally:
        stop.set()
        burner.join(timeout=10)
    assert not burner.is_alive()
    assert contended > 1.5 * quiet


def test_interval_must_be_bracketed():
    clock = NormClock()
    began = time.perf_counter()
    clock.sample()
    with pytest.raises(ValueError):
        clock.normalize(began, time.perf_counter())


def test_samples_inside_an_interval_count():
    clock = NormClock()
    clock.sample()
    began = time.perf_counter()
    clock.sample()
    clock.sample()
    ended = time.perf_counter()
    clock.sample()
    expected = 1e-3 * 4 / sum(clock.samples)
    assert clock.factor(began, ended) == pytest.approx(expected)


def test_percentile_and_tail():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.5) == pytest.approx(50.5)
    assert percentile(values, 0.9) == pytest.approx(90.1)
    q, value = tail(values)
    assert q == pytest.approx(0.9)
    assert value == pytest.approx(statistics.quantiles(
        values, n=10, method="inclusive")[-1])
