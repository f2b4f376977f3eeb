"""Per-layer spans recorded from outside the simulator.

Nothing under ``src/`` knows it is traced. :func:`instrument` replaces, on
the objects built for one run, the public methods each layer exposes with
wrappers that record a span per call: name, parent span, start and end in
:func:`repro.obs.profiler.clock_ns` nanoseconds. The switch, engine,
backend, scheduler, crossbar and collector look these methods up on the
instance every slot, so an instance attribute intercepts every call.

Spans stay in memory for the whole traced run and share one trace id;
:meth:`SpanRecorder.write` puts them on disk when the run ends. A layer's
self time is its spans' durations minus the parts their child spans
cover; because the root span wraps ``engine.run``, the self times of all
layers add up to the traced wall time exactly.

Counts are taken at the same boundaries from the calls' arguments and
return values. They depend only on the simulated slot stream, so they
repeat exactly for a fixed seed.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.experiments import sweep as sweep_module
from repro.experiments.spec import SweepPoint
from repro.obs.profiler import clock_ns
from repro.sim import runner as runner_module
from repro.sim.engine import SimulationEngine
from repro.stats.summary import SimulationSummary

__all__ = [
    "ROOT_SPAN",
    "SpanRecorder",
    "LayerTotals",
    "instrument",
    "layer_metrics",
    "sweep_metrics",
    "traced_sweep_point",
    "install_sweep_tracing",
    "split_traced_summary",
]

#: Span around ``engine.run``; its self time is the engine's own loop.
ROOT_SPAN = "engine.run"

#: Key under which a traced sweep point ships its layer totals home in
#: ``SimulationSummary.telemetry`` (stripped again before any check).
_SWEEP_KEY = "e2ebench"


class SpanRecorder:
    """In-memory spans of one traced run, plus the counts taken with them.

    Span ``i`` is ``(names[name_ids[i]], parents[i], starts[i], ends[i])``;
    parent -1 marks a root. Typed arrays keep a run's spans at 26 bytes
    each, so a traced run can hold millions.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.names: list[str] = []
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a finished root span (one measured elsewhere)."""
        self._record(self._name_id(name), -1, start_ns, end_ns)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _record(self, name_id: int, parent: int, start_ns: int, end_ns: int) -> None:
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.starts.append(start_ns)
        self.ends.append(end_ns)

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        count: Callable[[Counter[str], tuple[Any, ...], Any], None] | None = None,
    ) -> None:
        """Replace ``obj.attr`` by a span-recording wrapper, if it exists."""
        inner = getattr(obj, attr, None)
        if inner is None:
            return
        name_id = self._name_id(name)
        open_spans, ends, counts = self._open, self.ends, self.counts
        record = self._record

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(ends)
            record(name_id, open_spans[-1] if open_spans else -1, clock_ns(), 0)
            open_spans.append(index)
            try:
                out = inner(*args, **kwargs)
            finally:
                ends[index] = clock_ns()
                open_spans.pop()
            if count is not None:
                count(counts, args, out)
            return out

        setattr(obj, attr, traced)

    def _spans(self) -> Iterator[tuple[str, int, int, int]]:
        names = self.names
        return (
            (names[n], p, s, e)
            for n, p, s, e in zip(self.name_ids, self.parents, self.starts, self.ends)
        )

    def totals(self) -> "LayerTotals":
        """Self time per span name, traced wall time, and the counts."""
        child_ns = [0] * len(self)
        wall_ns = 0
        for name, parent, start, end in self._spans():
            if parent >= 0:
                child_ns[parent] += end - start
            elif name == ROOT_SPAN:
                wall_ns += end - start
        self_ns: Counter[str] = Counter()
        for index, (name, _parent, start, end) in enumerate(self._spans()):
            self_ns[name] += end - start - child_ns[index]
        return LayerTotals(self_ns, Counter(self.counts), wall_ns)

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Write a header line, then one ``[name, parent, start_ns,
        end_ns]`` line per span, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps({"trace_id": self.trace_id, **header}) + "\n")
            for span in self._spans():
                out.write(json.dumps(span) + "\n")


@dataclass
class LayerTotals:
    """Summed self nanoseconds, counts and root-span wall nanoseconds of
    one or more traced runs."""

    self_ns: Counter[str] = field(default_factory=Counter)
    counts: Counter[str] = field(default_factory=Counter)
    wall_ns: int = 0

    def add(self, other: "LayerTotals") -> None:
        """Fold another run's totals into these."""
        self.self_ns.update(other.self_ns)
        self.counts.update(other.counts)
        self.wall_ns += other.wall_ns


# ---------------------------------------------------------------------- #
# Counting hooks: (counts, call args, return value)
# ---------------------------------------------------------------------- #
def _count_arrivals(counts: Counter[str], _args: tuple[Any, ...], out: Any) -> None:
    counts["packets"] += sum(1 for pkt in out if pkt is not None)


def _count_admit(counts: Counter[str], _args: tuple[Any, ...], _out: Any) -> None:
    counts["admit_calls"] += 1


def _count_decision(counts: Counter[str], _args: tuple[Any, ...], out: Any) -> None:
    counts["rounds"] += out.rounds
    counts["productive_rounds"] += sum(1 for g in out.round_grants if g > 0)


def _count_commit(counts: Counter[str], args: tuple[Any, ...], _out: Any) -> None:
    decision = args[0]
    counts["commit_cells"] += sum(g.fanout for g in decision.grants.values())


def _count_transfer(counts: Counter[str], _args: tuple[Any, ...], out: Any) -> None:
    drivers = [d for d in out.driver if d >= 0]
    counts["fabric_cells"] += len(drivers)
    counts["fabric_inputs"] += len(set(drivers))


def instrument(engine: SimulationEngine, recorder: SpanRecorder) -> None:
    """Wrap every layer boundary of one engine's objects.

    Methods a component does not have (an output-queued switch has no
    scheduler or crossbar) are skipped, so one call serves every switch
    the sweep builds.
    """
    wrap = recorder.wrap
    wrap(engine, "run", ROOT_SPAN)
    wrap(engine.traffic, "next_slot", "traffic.next_slot", _count_arrivals)
    wrap(engine.collector, "on_slot", "stats.on_slot")
    switch = engine.switch
    wrap(switch, "step", "switch.step")
    backend = getattr(switch, "_backend", None)
    if backend is not None:
        wrap(backend, "admit", "kernel.admit", _count_admit)
        wrap(backend, "schedule", "kernel.schedule")
        wrap(backend, "commit", "kernel.commit", _count_commit)
    scheduler = getattr(switch, "scheduler", None)
    if scheduler is not None:
        for entry in ("schedule_state", "schedule_vectorized", "schedule"):
            wrap(scheduler, entry, "sched.decide", _count_decision)
    crossbar = getattr(switch, "crossbar", None)
    if crossbar is not None:
        wrap(crossbar, "configure", "fabric.configure", _count_transfer)
        wrap(crossbar, "configure_drivers", "fabric.configure", _count_transfer)
        wrap(crossbar, "release", "fabric.release")


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
#: metric name -> span name whose self time it reports, per slot.
_TIME_METRICS = {
    "traffic.next_slot.us_per_slot": "traffic.next_slot",
    "kernel.admit.us_per_slot": "kernel.admit",
    "sched.decide.us_per_slot": "sched.decide",
    "kernel.schedule.self_us_per_slot": "kernel.schedule",
    "kernel.commit.us_per_slot": "kernel.commit",
    "fabric.configure.us_per_slot": "fabric.configure",
    "fabric.release.us_per_slot": "fabric.release",
    "switch.step.self_us_per_slot": "switch.step",
    "stats.on_slot.us_per_slot": "stats.on_slot",
    "engine.self_us_per_slot": ROOT_SPAN,
}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: LayerTotals, slots: int) -> dict[str, float]:
    """Per-slot self times (µs) and per-slot counts from traced totals."""
    out = {
        metric: _ratio(totals.self_ns[span], slots) / 1e3
        for metric, span in _TIME_METRICS.items()
    }
    out["trace.wall_us_per_slot"] = _ratio(totals.wall_ns, slots) / 1e3
    counts = totals.counts
    out["traffic.packets_per_slot"] = _ratio(counts["packets"], slots)
    out["kernel.admit.calls_per_slot"] = _ratio(counts["admit_calls"], slots)
    out["sched.rounds_per_slot"] = _ratio(counts["rounds"], slots)
    out["sched.productive_round_ratio"] = _ratio(
        counts["productive_rounds"], counts["rounds"]
    )
    out["kernel.commit.cells_per_slot"] = _ratio(counts["commit_cells"], slots)
    out["fabric.fanout_per_transfer"] = _ratio(
        counts["fabric_cells"], counts["fabric_inputs"]
    )
    return out


def sweep_metrics(
    operations: list[tuple[list[float], float]], workers: int
) -> dict[str, float]:
    """Point-time distribution over traced operations, each given as
    ``(point seconds, operation seconds)``, and the overhead around the
    points: the median over operations of operation time minus point
    time per worker.

    A single run is a one-point sweep on one worker; its overhead is
    building the run and checking its results.
    """
    times = sorted(t for point_s, _op_s in operations for t in point_s)
    return {
        "sweep.points": float(len(operations[0][0])),
        "sweep.point_s_p50": statistics.median(times),
        "sweep.point_s_max": times[-1],
        "sweep.overhead_s": statistics.median(
            op_s - sum(point_s) / workers for point_s, op_s in operations
        ),
    }


# ---------------------------------------------------------------------- #
# Sweeps: each point is traced where run_figure runs it
# ---------------------------------------------------------------------- #
_run_point = sweep_module.run_sweep_point


def traced_sweep_point(point: SweepPoint) -> SimulationSummary:
    """``run_sweep_point`` with every engine it builds instrumented.

    Runs where ``run_figure`` runs the point: a pool worker, or the
    calling process when the points run serially. The point's layer totals and wall time ride
    home in the summary's ``telemetry`` field, which a plain sweep leaves
    empty; :func:`split_traced_summary` takes them out again.
    """
    recorders: list[SpanRecorder] = []

    def traced_engine(*args: Any, **kwargs: Any) -> SimulationEngine:
        engine = SimulationEngine(*args, **kwargs)
        recorder = SpanRecorder(trace_id="")
        instrument(engine, recorder)
        recorders.append(recorder)
        return engine

    runner_module.SimulationEngine = traced_engine  # type: ignore[misc]
    try:
        start = clock_ns()
        summary = _run_point(point)
        elapsed_ns = clock_ns() - start
    finally:
        runner_module.SimulationEngine = SimulationEngine  # type: ignore[misc]
    totals = LayerTotals()
    for recorder in recorders:
        totals.add(recorder.totals())
    return replace(
        summary,
        telemetry={
            _SWEEP_KEY: {
                "totals": totals,
                "start_ns": start,
                "elapsed_ns": elapsed_ns,
            }
        },
    )


def install_sweep_tracing(enabled: bool) -> None:
    """Route ``run_figure``'s points through :func:`traced_sweep_point`
    (or back to the plain ``run_sweep_point``)."""
    sweep_module.run_sweep_point = (  # type: ignore[assignment]
        traced_sweep_point if enabled else _run_point
    )


def split_traced_summary(
    summary: SimulationSummary,
) -> tuple[SimulationSummary, LayerTotals, int, int]:
    """``(plain summary, layer totals, start_ns, elapsed_ns)`` of one
    traced point."""
    data = summary.telemetry[_SWEEP_KEY]  # type: ignore[index]
    return (
        replace(summary, telemetry=None),
        data["totals"],
        data["start_ns"],
        data["elapsed_ns"],
    )
