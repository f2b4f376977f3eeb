"""The telemetry bundle handed to the simulation engine.

A :class:`Telemetry` object groups the three observability concerns —
metrics registry, slot tracer, phase profiler — plus an optional progress
reporter. The engine takes ``telemetry=None`` by default and runs with no
telemetry observer; passing any Telemetry adds a
:class:`~repro.obs.observer.TelemetryObserver` to its slot loop. Each
component individually degrades to a null object, so
``Telemetry(profile=True)`` profiles without tracing and vice versa.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import NOOP_PROFILER, NoopProfiler, PhaseProfiler
from repro.obs.progress import ProgressReporter
from repro.obs.tracer import NOOP_TRACER, NoopTracer, SlotTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sinks import MetricSink

__all__ = ["Telemetry", "aggregate_telemetry"]


class Telemetry:
    """Everything the engine needs to observe one run.

    Parameters
    ----------
    registry:
        Metrics registry to record counters into (fresh one by default).
    tracer:
        A :class:`~repro.obs.tracer.SlotTracer` for per-slot JSONL records
        (default: the no-op tracer).
    profile:
        Collect the phase-level wall-clock breakdown.
    progress:
        A :class:`~repro.obs.progress.ProgressReporter` for heartbeat
        lines (default: none).
    sinks:
        :class:`~repro.obs.sinks.MetricSink` receivers of streaming
        registry snapshots (default: none).
    snapshot_every:
        Emit a periodic snapshot to the sinks every N slots (0 = only
        the final snapshot). Ignored when there are no sinks.
    """

    __slots__ = (
        "registry", "tracer", "profiler", "progress", "sinks",
        "snapshot_every",
    )

    def __init__(
        self,
        *,
        registry: MetricsRegistry | None = None,
        tracer: SlotTracer | NoopTracer | None = None,
        profile: bool = False,
        progress: ProgressReporter | None = None,
        sinks: Sequence["MetricSink"] = (),
        snapshot_every: int = 0,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.profiler: PhaseProfiler | NoopProfiler = (
            PhaseProfiler() if profile else NOOP_PROFILER
        )
        self.progress = progress
        self.sinks = tuple(sinks)
        self.snapshot_every = snapshot_every

    # ------------------------------------------------------------------ #
    def to_dict(self, *, slots: int | None = None) -> dict[str, object]:
        """Serializable snapshot: metrics plus (when profiled) the phase
        breakdown. This is what lands in ``SimulationSummary.telemetry``
        and crosses process boundaries."""
        out: dict[str, object] = {"metrics": self.registry.to_dict()}
        if self.profiler.enabled:
            out["profile"] = self.profiler.report(slots)
        return out

    def emit_snapshot(
        self,
        *,
        slot: int | None = None,
        kind: str = "periodic",
        faults: dict | None = None,
        **context: object,
    ) -> None:
        """Push one registry snapshot to every sink.

        No-op without sinks, so callers can emit unconditionally. Extra
        keyword arguments land as top-level context keys in the snapshot
        (e.g. ``algorithm=...``, ``round=...``).
        """
        if not self.sinks:
            return
        snapshot: dict[str, object] = {
            "kind": kind,
            "slot": slot,
            "metrics": self.registry.to_dict(),
        }
        if faults is not None:
            snapshot["faults"] = faults
        snapshot.update(context)
        for sink in self.sinks:
            sink.emit(snapshot)

    def flush(self) -> None:
        """Flush the tracer's stream (end-of-run hook; close stays with
        whoever opened the sink)."""
        self.tracer.flush()

    def close(self) -> None:
        """Close the tracer and the metric sinks (for bundles that own
        their output files)."""
        self.tracer.close()
        for sink in self.sinks:
            sink.close()


def aggregate_telemetry(summaries) -> MetricsRegistry:
    """Merge the telemetry sections of many summaries into one registry.

    Sweep workers run in separate processes and each returns its own
    registry snapshot inside ``SimulationSummary.telemetry``; this folds
    them associatively (counters add, gauges keep peaks, histograms sum
    buckets). Summaries without a telemetry section are skipped.
    """
    registry = MetricsRegistry()
    for summary in summaries:
        section = getattr(summary, "telemetry", None)
        if section and "metrics" in section:
            registry.merge_dict(section["metrics"])
    return registry
