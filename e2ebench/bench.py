"""Measure one workload: the operations, their checks and the metrics.

An *operation* is one simulation run (single-run workloads) or one whole
figure sweep. Every benchmark run first simulates :data:`PIN_SEED` once
and compares its digest with the pinned one, which also warms the
process; then it repeats operations at ``--seed`` until ``--seconds``
have passed and reports medians. Every operation is checked, and one that
fails counts as failed against the number attempted. Operations at one
seed must also agree on their digest.

With ``trace=False`` the metrics are the end-to-end ones: simulated slots
per reference second (tracing off; :mod:`e2ebench.hostspeed` scales each
operation's wall time to a reference host), set-up time of a fresh
interpreter, and peak resident memory. With ``trace=True`` the first half
of the time runs untraced and the second half traced, and the metrics are
the per-layer ones of :mod:`e2ebench.tracing`, plus the ratio of the two
halves' rates.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import uuid
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.bench import _provenance
from repro.obs.profiler import clock_ns

from e2ebench.hostspeed import HostSpeed
from e2ebench.tracing import (
    LayerTotals,
    SpanRecorder,
    install_sweep_tracing,
    instrument,
    layer_metrics,
    split_traced_summary,
    sweep_metrics,
)
from e2ebench.workloads import (
    OPERATION_ERRORS,
    PIN_SEED,
    PINNED_DIGESTS,
    SWEEP_WORKERS,
    WORKLOADS,
    SingleRun,
    Sweep,
    build_engine,
    check_summary,
    check_sweep,
    run_sweep,
    summary_digest,
    sweep_points,
    worker_count,
)

__all__ = [
    "OUT_DIR",
    "Outcome",
    "OpResult",
    "measure",
    "build_only",
    "unit_of",
    "provenance",
]

#: Where results and span files go, inside the checkout; ignored by git.
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"
RUN_SCRIPT = Path(__file__).resolve().parent / "run.py"

#: Fresh interpreters timed per set-up measurement (median reported).
SETUP_RUNS = 3

_UNITS = {
    "slots_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "trace.overhead_ratio": "ratio",
    "sched.productive_round_ratio": "ratio",
    "fabric.fanout_per_transfer": "cells/input",
    "sweep.point_s_p50": "s",
    "sweep.point_s_max": "s",
    "sweep.overhead_s": "s",
}


def unit_of(metric: str) -> str:
    """Unit of a metric, as ``BENCHMARK.json`` declares it."""
    if metric in _UNITS:
        return _UNITS[metric]
    return "us/slot" if "us_per_slot" in metric else "count"


@dataclass
class Outcome:
    """Operations attempted and failed in one benchmark run."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Digest of every operation that passed its checks, in order.
    digests: list[str] = field(default_factory=list)
    provenance: dict[str, Any] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.errors.append(reason)


@dataclass
class OpResult:
    """One operation that passed its checks."""

    digest: str
    slots: int
    #: Host seconds the simulation ran: ``engine.run``, or ``run_figure``;
    #: when the host was sampled, with the sampler's chunks taken out.
    wall_s: float
    #: Host seconds of the whole operation, building and checks included.
    op_s: float
    #: Sweeps only: each point's ``(start_ns, seconds)``.
    points: list[tuple[int, float]] = field(default_factory=list)
    totals: LayerTotals = field(default_factory=LayerTotals)
    #: Host speed while the simulation ran (1.0 is the reference host);
    #: None when it was not sampled.
    speed: float | None = None

    @property
    def rate(self) -> float:
        """Slots per wall second."""
        return self.slots / self.wall_s

    @property
    def reference_rate(self) -> float:
        """Slots per second on the reference host."""
        assert self.speed is not None, "host speed was not sampled"
        return self.rate / self.speed


# ---------------------------------------------------------------------- #
# Operations
# ---------------------------------------------------------------------- #
class _Window:
    """Wall time of one simulation, sampling the host when asked to."""

    def __init__(self, sample: bool) -> None:
        self.host = HostSpeed() if sample else None
        self.wall_s = 0.0
        self.speed: float | None = None
        self._start = 0

    def __enter__(self) -> _Window:
        # Start each simulation on a collected heap, so that no operation
        # pays for its predecessors' garbage.
        gc.collect()
        if self.host is not None:
            self.host.start()
        self._start = clock_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.host is None:
            self.wall_s = (clock_ns() - self._start) / 1e9
            return
        self.host.stop()
        self.wall_s = self.host.elapsed_ns / 1e9
        self.speed = self.host.speed


def _single_op(
    work: SingleRun,
    seed: int,
    slots: int,
    recorder: SpanRecorder | None,
    sample: bool = False,
) -> OpResult:
    op_start = clock_ns()
    engine = build_engine(work, seed, num_slots=slots)
    if recorder is not None:
        instrument(engine, recorder)
    with _Window(sample) as window:
        summary = engine.run()
    check_summary(summary, slots)
    digest = summary_digest(summary)
    op_s = (clock_ns() - op_start) / 1e9
    return OpResult(digest, slots, window.wall_s, op_s, speed=window.speed)


def _sweep_op(
    work: Sweep, seed: int, slots: int, traced: bool, sample: bool = False
) -> OpResult:
    op_start = clock_ns()
    expected = len(sweep_points(work, seed, slots_per_point=slots))
    install_sweep_tracing(traced)
    try:
        with _Window(sample) as window:
            summaries = run_sweep(work, seed, slots_per_point=slots)
    finally:
        install_sweep_tracing(False)
    totals = LayerTotals()
    points = []
    if traced:
        plain = []
        for summary in summaries:
            summary, point_totals, start_ns, elapsed_ns = split_traced_summary(
                summary
            )
            plain.append(summary)
            totals.add(point_totals)
            points.append((start_ns, elapsed_ns / 1e9))
        summaries = plain
    digest = check_sweep(summaries, expected)
    slots_run = sum(s.slots_run for s in summaries)
    op_s = (clock_ns() - op_start) / 1e9
    return OpResult(
        digest, slots_run, window.wall_s, op_s, points, totals, window.speed
    )


def _attempt(outcome: Outcome, op: Callable[[], OpResult]) -> OpResult | None:
    """Run one operation, counting it; None when it failed a check."""
    outcome.attempted += 1
    try:
        result = op()
    except OPERATION_ERRORS as exc:
        outcome.fail(f"{type(exc).__name__}: {exc}")
        return None
    outcome.digests.append(result.digest)
    return result


def _repeat(
    outcome: Outcome, op: Callable[[], OpResult], deadline_ns: int
) -> list[OpResult]:
    """Attempt ``op`` at least once and until the deadline."""
    results = [_attempt(outcome, op)]
    while clock_ns() < deadline_ns:
        results.append(_attempt(outcome, op))
    return [r for r in results if r is not None]


# ---------------------------------------------------------------------- #
# Set-up and memory
# ---------------------------------------------------------------------- #
def build_only(name: str, seed: int) -> None:
    """Build what one operation of ``name`` needs, and nothing more."""
    work = WORKLOADS[name]
    if isinstance(work, SingleRun):
        build_engine(work, seed)
    else:
        sweep_points(work, seed)


def _setup_seconds(name: str, seed: int) -> float:
    """Median time of fresh interpreters that import and build, in
    seconds on the reference host.

    This process samples the host while it waits for each interpreter,
    and both run on one CPU, so the samples see the core the interpreter
    runs on; the samples' time is taken out of the interpreter's.
    """
    cmd = [
        sys.executable, str(RUN_SCRIPT), "--setup-only",
        "--workload", name, "--seed", str(seed),
    ]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for _ in range(SETUP_RUNS):
            host = HostSpeed()
            host.start()
            try:
                subprocess.run(
                    cmd, check=True, timeout=120, stdout=subprocess.DEVNULL
                )
            finally:
                host.stop()
            times.append(host.reference_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    """Peak RSS of this process, which ran every operation."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------- #
# One benchmark run
# ---------------------------------------------------------------------- #
def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    length: int | None = None,
    pins: dict[str, str] | None = None,
) -> tuple[dict[str, Any], Outcome]:
    """Run workload ``name`` and return ``(result, outcome)``.

    ``result`` holds what the benchmark prints: ``correct``,
    ``attempted``, ``failed`` and ``metrics``. ``length`` overrides the
    workload's slots (per point, for sweeps) for quick tests; the pinned
    digests apply at the default length unless ``pins`` replaces them.
    """
    work = WORKLOADS[name]
    sweep = isinstance(work, Sweep)
    default = work.slots_per_point if sweep else work.num_slots
    slots = length if length is not None else default
    if pins is None:
        pins = PINNED_DIGESTS if slots == default else {}
    trace_id = uuid.uuid4().hex
    outcome = Outcome(provenance=provenance(name, seed, trace, trace_id))
    metrics: dict[str, float] = {}

    def op(
        at: int, recorder: SpanRecorder | None = None, sample: bool = False
    ) -> Callable[[], OpResult]:
        if sweep:
            return lambda: _sweep_op(work, at, slots, recorder is not None, sample)
        return lambda: _single_op(work, at, slots, recorder, sample)

    if not trace:
        metrics["setup_s"] = _setup_seconds(name, seed)

    pinned = pins.get(name)
    pin_run = _attempt(outcome, op(PIN_SEED))
    if pin_run is not None and pinned is not None and pin_run.digest != pinned:
        outcome.fail(
            f"digest {pin_run.digest} at seed {PIN_SEED} is not the pinned {pinned}"
        )

    first = len(outcome.digests)
    start = clock_ns()
    budget_ns = int(seconds * 1e9)
    if not trace:
        runs = _repeat(outcome, op(seed, sample=True), start + budget_ns)
        if runs:
            metrics["slots_per_s"] = statistics.median(
                r.reference_rate for r in runs
            )
            outcome.provenance["host_speed"] = statistics.median(
                r.speed for r in runs if r.speed is not None
            )
            outcome.provenance["wall_slots_per_s"] = statistics.median(
                r.rate for r in runs
            )
        metrics["peak_rss_mb"] = _peak_rss_mb()
    else:
        plain = _repeat(outcome, op(seed), start + budget_ns // 2)
        recorder = SpanRecorder(trace_id)
        traced = _repeat(outcome, op(seed, recorder), start + budget_ns)
        if plain and traced:
            metrics.update(_trace_metrics(plain, traced, recorder, sweep))
        _write_spans(name, seed, recorder, traced if sweep else None)
    seen = outcome.digests[first:]
    for digest in seen[1:]:
        if digest != seen[0]:
            outcome.fail(f"digest {digest} differs from {seen[0]} at one seed")

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": unit_of(key)}
            for key, value in sorted(metrics.items())
        },
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as log:
        log.write(json.dumps({"provenance": outcome.provenance, "result": result}))
        log.write("\n")
    return result, outcome


def _trace_metrics(
    plain: list[OpResult],
    traced: list[OpResult],
    recorder: SpanRecorder,
    sweep: bool,
) -> dict[str, float]:
    metrics = {
        "trace.overhead_ratio": statistics.median(r.rate for r in plain)
        / statistics.median(r.rate for r in traced)
    }
    if sweep:
        totals = LayerTotals()
        for r in traced:
            totals.add(r.totals)
        ops = [([t for _start, t in r.points], r.op_s) for r in traced]
        workers = SWEEP_WORKERS
    else:
        totals = recorder.totals()
        ops = [([r.wall_s], r.op_s) for r in traced]
        workers = 1
    metrics.update(layer_metrics(totals, sum(r.slots for r in traced)))
    metrics.update(sweep_metrics(ops, workers))
    return metrics


def _write_spans(
    name: str, seed: int, recorder: SpanRecorder, sweeps: list[OpResult] | None
) -> None:
    """Put the traced run's spans on disk. A sweep's layers are traced
    per point, which sends home totals, so its file holds one span per
    point."""
    for r in sweeps or ():
        for start_ns, seconds in r.points:
            recorder.add("sweep.point", start_ns, start_ns + int(seconds * 1e9))
    recorder.write(
        OUT_DIR / f"spans-{name}.jsonl.gz", {"workload": name, "seed": seed}
    )


def provenance(name: str, seed: int, trace: bool, trace_id: str) -> dict[str, Any]:
    """Where and on what a result was measured."""
    return {
        **_provenance(),
        "nproc": worker_count(),
        "workload": name,
        "seed": seed,
        "trace": trace,
        "trace_id": trace_id,
    }
