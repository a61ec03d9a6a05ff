"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload browse --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout: the program is imported from ``src``
next to this directory. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are diagnostics. With ``--trace 0`` the metrics are
the end-to-end ones, timed untraced; with ``--trace 1`` they are the
per-layer ones from a run with every layer entry point wrapped.

All times are speed-normalized (see ``normclock``): milliseconds and
seconds of a machine whose reference loop takes exactly 1 ms. Raw
wall-clock figures are printed as diagnostics only.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from layers import ENTRY_NAMES, LayerTracer
from normclock import NormClock, percentile, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: store directories and traces.
WORKDIR = ROOT / ".perfbench"

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
)


def per_layer_metrics() -> List[Tuple[str, str]]:
    metrics: List[Tuple[str, str]] = []
    for name in ENTRY_NAMES:
        metrics.append((f"{name}.calls_per_op", "count"))
        metrics.append((f"{name}.self_ms_per_op", "ms"))
    metrics += [
        ("store.quads_committed_per_op", "count"),
        ("store.generations_per_op", "count"),
    ]
    metrics += [
        ("trace.traced_throughput_ops_s", "1/s"),
        ("trace.untraced_throughput_ops_s", "1/s"),
        ("trace.overhead_pct", "%"),
    ]
    return metrics


class Run:
    """What one pass over a workload's schedule recorded."""

    def __init__(self) -> None:
        self.intervals: List[Tuple[int, str, float, float]] = []
        self.done: List[int] = []
        self.failures: List[Tuple[int, str]] = []
        #: traced op index -> store generations it advanced
        self.traced: Dict[int, int] = {}
        #: ops in the traced prefix that were not traced
        self.untraced: List[int] = []
        self.setup_s = 0.0
        self.setup_raw_s = 0.0


def execute(workload, seconds: float, tracer=None):
    """Set up, warm up, then run ops until ``seconds`` have passed.

    A traced run runs its traced prefix instead, however long that
    takes, so its call counts cover the same ops on every run.
    """
    clock = NormClock()
    run = Run()
    run.setup_s, run.setup_raw_s = workload.setup(clock)
    workload.warm_up()
    gc.collect()
    prefix = 0
    if tracer is not None:
        prefix = 2 * workload.TRACED_BLOCKS * workload.BLOCK
    clock.sample()
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(workload.schedule):
        if (index >= prefix if tracer is not None
                else time.perf_counter() >= deadline):
            break
        traced = index < prefix and (index // workload.BLOCK) % 2 == 1

        def record(kind: str, began: float, ended: float) -> None:
            run.intervals.append((index, kind, began, ended))

        generation = workload.store.generation
        try:
            if traced:
                with tracer.op(index, op[0]):
                    workload.execute(index, op, record)
            else:
                workload.execute(index, op, record)
        except Exception as exc:  # a failed op is counted, not fatal
            run.failures.append((index, f"{type(exc).__name__}: {exc}"))
        if traced:
            run.traced[index] = workload.store.generation - generation
        elif index < prefix:
            run.untraced.append(index)
        run.done.append(index)
        clock.tick()
    clock.sample()
    run.failures.extend(workload.finish())
    return run, clock


def _percentiles(values: Sequence[float], *qs: float) -> List[float]:
    return [percentile(values, q) for q in qs]


def end_to_end(workload, run: Run, clock) -> Dict[str, float]:
    normalized: Dict[str, List[float]] = defaultdict(list)
    raw: Dict[str, List[float]] = defaultdict(list)
    busy: Dict[int, float] = defaultdict(float)
    for index, kind, began, ended in run.intervals:
        seconds = clock.normalize(began, ended)
        normalized[kind].append(seconds * 1000.0)
        raw[kind].append((ended - began) * 1000.0)
        if kind in workload.BUSY_KINDS:
            busy[index] += seconds

    def pooled(source, kinds):
        return [v for kind in kinds for v in source[kind]]

    ops, reads = pooled(normalized, workload.OP_KINDS), \
        pooled(normalized, workload.READ_KINDS)
    metrics = {
        "setup_s": run.setup_s,
        "throughput_ops_s": len(run.done) / sum(busy.values()),
    }
    metrics["op_p50_ms"], metrics["op_p90_ms"] = \
        _percentiles(ops, 0.5, 0.9)
    metrics["read_p50_ms"], metrics["read_p90_ms"] = \
        _percentiles(reads, 0.5, 0.9)

    print(f"setup: {run.setup_s:.4f} s normalized, "
          f"{run.setup_raw_s:.4f} s raw (per-call medians of builds)")
    raw_ops = pooled(raw, workload.OP_KINDS)
    raw_reads = pooled(raw, workload.READ_KINDS)
    print("raw wall ms: op p50={:.3f} p90={:.3f}, read p50={:.3f} "
          "p90={:.3f}".format(*_percentiles(raw_ops, 0.5, 0.9),
                              *_percentiles(raw_reads, 0.5, 0.9)))
    for name, (kind, q) in workload.NAMED.items():
        value, = _percentiles(normalized[kind], q)
        print(f"{name} = {value:.4f} ms (n={len(normalized[kind])})")
    q, value = tail(ops)
    print(f"op tail: p{q * 100:.2f} = {value:.4f} ms over {len(ops)} "
          f"samples, {len(ops) - int(q * len(ops))} beyond it")
    samples = sorted(clock.samples)
    print(f"reference: {len(samples)} samples, median "
          f"{samples[len(samples) // 2] * 1000:.4f} ms, range "
          f"{samples[0] * 1000:.4f}-{samples[-1] * 1000:.4f} ms")
    return metrics


def per_layer(workload, run: Run, clock, tracer) -> Dict[str, float]:
    factors = {op: clock.factor(began, ended)
               for op, (began, ended) in tracer.op_windows().items()}
    traced = sorted(run.traced)
    count = max(len(traced), 1)
    totals = tracer.layer_totals(traced, factors)
    metrics: Dict[str, float] = {}
    for name in ENTRY_NAMES:
        calls, own, _ = totals[name]
        metrics[f"{name}.calls_per_op"] = calls / count
        metrics[f"{name}.self_ms_per_op"] = own * 1000.0 / count
    metrics["store.quads_committed_per_op"] = \
        totals["store.apply"][2] / count
    metrics["store.generations_per_op"] = \
        sum(run.traced.values()) / count

    busy: Dict[int, float] = defaultdict(float)
    for index, kind, began, ended in run.intervals:
        if kind in workload.BUSY_KINDS:
            busy[index] += clock.normalize(began, ended)
    traced_tp = len(traced) / sum(busy[i] for i in traced)
    untraced_tp = len(run.untraced) / sum(busy[i] for i in run.untraced)
    metrics["trace.traced_throughput_ops_s"] = traced_tp
    metrics["trace.untraced_throughput_ops_s"] = untraced_tp
    metrics["trace.overhead_pct"] = (untraced_tp / traced_tp - 1) * 100.0
    print(f"traced ops: {len(traced)}, untraced prefix ops: "
          f"{len(run.untraced)}, spans: {len(tracer.spans)}")
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, schedule_digest

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(WORKLOADS)})")
    workdir = WORKDIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    print(f"workload={workload.name} seed={args.seed} "
          f"schedule={schedule_digest(workload.schedule)}")
    tracer = None
    if args.trace:
        tracer = LayerTracer()
        tracer.install()
    try:
        run, clock = execute(workload, args.seconds, tracer)
        if tracer is None:
            metrics = end_to_end(workload, run, clock)
            units = dict(END_TO_END)
        else:
            metrics = per_layer(workload, run, clock, tracer)
            units = dict(per_layer_metrics())
            spans = WORKDIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    failed_ops = {index for index, _ in run.failures}
    failed = min(len(failed_ops), len(run.done))
    for index, message in run.failures[:10]:
        print(f"FAILED op {index}: {message}")
    print(f"ops: {len(run.done)} attempted, {failed} failed, "
          f"failed_share={failed / max(len(run.done), 1):.6f}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.done),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
