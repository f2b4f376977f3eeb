"""The engine's telemetry slot observer.

A :class:`~repro.obs.telemetry.Telemetry` bundle becomes one
:class:`TelemetryObserver` per engine run. It owns the registry's metric
names (``sim.*`` counters, ``kernel.*`` series harvested through the
kernel seam) plus the JSONL trace records, progress heartbeats and sink
snapshots. Phase profiling is not an observer: the engine binds its loop
callables through :meth:`~repro.obs.profiler.PhaseProfiler.timed`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.obs.tracer import build_slot_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.telemetry import Telemetry
    from repro.packet import Packet
    from repro.switch.base import SlotResult

__all__ = ["TelemetryObserver"]


class TelemetryObserver:
    """Per-slot telemetry for one engine run.

    Construction registers the run's metrics (labelled with the
    algorithm), probes the switch's kernel seam and starts the progress
    reporter, so build it right before slot 0.
    """

    def __init__(
        self,
        telemetry: "Telemetry",
        switch: Any,
        *,
        algorithm: str,
        injector: Any = None,
    ) -> None:
        self.telemetry = telemetry
        self.switch = switch
        self.algorithm = algorithm
        self.injector = injector
        self.tracer = telemetry.tracer if telemetry.tracer.enabled else None
        self.progress = progress = telemetry.progress
        self.heartbeat_every = progress.every if progress is not None else 0
        if progress is not None:
            progress.start()
        self.snapshot_every = telemetry.snapshot_every if telemetry.sinks else 0

        labels = {"algorithm": algorithm}
        registry = telemetry.registry
        self.c_slots = registry.counter("sim.slots", **labels)
        self.c_packets = registry.counter("sim.packets_offered", **labels)
        self.c_offered = registry.counter("sim.cells_offered", **labels)
        self.c_delivered = registry.counter("sim.cells_delivered", **labels)
        self.c_splits = registry.counter("sim.fanout_splits", **labels)
        self.c_reclaimed = registry.counter("sim.buffer_reclamations", **labels)
        self.c_dropped = registry.counter("sim.cells_dropped", **labels)
        self.c_lost_grants = registry.counter("sim.grants_lost", **labels)
        self.g_backlog = registry.gauge("sim.backlog", **labels)
        self.h_rounds = registry.histogram("sim.rounds_per_slot", **labels)

        # Kernel-seam counters: backends that implement the
        # harvest_slot_stats() contract (both built-ins do) expose the
        # same keys regardless of representation, so object and
        # vectorized runs emit identical kernel.* series — the
        # equivalence harness compares the registries to prove it. An
        # empty probe dict means "no kernel seam" (e.g. a third-party
        # switch) and the block is skipped for the whole run.
        harvest = getattr(switch, "harvest_slot_stats", None)
        self.harvest = harvest if harvest is not None and harvest() else None
        if self.harvest is not None:
            self.g_live = registry.gauge("kernel.live_cells", **labels)
            self.g_residue = registry.gauge("kernel.residue_cells", **labels)
            self.g_voq_peak = registry.gauge("kernel.voq_peak", **labels)
            self.g_hol_age = registry.gauge("kernel.hol_age", **labels)
            self.h_residue = registry.histogram("kernel.residue_occupancy", **labels)
            self.h_grants = registry.histogram("kernel.grants_per_round", **labels)

    def on_slot(
        self,
        slot: int,
        arrivals: "Sequence[Packet | None]",
        result: "SlotResult",
    ) -> None:
        """Record one stepped slot: counters, kernel series, trace
        record, heartbeat and periodic snapshot."""
        packets = cells = 0
        for pkt in arrivals:
            if pkt is not None:
                packets += 1
                cells += pkt.fanout
        backlog = self.switch.total_backlog()
        self.c_slots.inc()
        self.c_packets.inc(packets)
        self.c_offered.inc(cells)
        self.c_delivered.inc(result.cells_delivered)
        self.c_splits.inc(result.splits)
        self.c_reclaimed.inc(result.reclaimed)
        if result.dropped_packets:
            self.c_dropped.inc(result.cells_dropped)
        if result.grants_lost:
            self.c_lost_grants.inc(result.grants_lost)
        self.g_backlog.set(backlog)
        if result.requests_made:
            self.h_rounds.observe(result.rounds)
        if self.harvest is not None:
            stats = self.harvest()
            residue = stats["residue_cells"]
            self.g_live.set(stats["live_cells"])
            self.g_residue.set(residue)
            self.g_voq_peak.set(stats["voq_peak"])
            self.h_residue.observe(residue)
            oldest = stats["oldest_hol_ts"]
            if oldest is not None:
                self.g_hol_age.set(slot - oldest)
            for grants in result.round_grants:
                self.h_grants.observe(grants)
        if self.tracer is not None:
            self.tracer.emit(build_slot_record(slot, arrivals, result, backlog))
        if self.heartbeat_every and (slot + 1) % self.heartbeat_every == 0:
            self.progress.emit(slot + 1, backlog)
        if self.snapshot_every and (slot + 1) % self.snapshot_every == 0:
            self.telemetry.emit_snapshot(
                slot=slot + 1,
                kind="periodic",
                algorithm=self.algorithm,
                faults=self._faults(),
            )

    def finish(self, slots_run: int, unstable: bool) -> None:
        """Close out the run: final heartbeat, final snapshot, flush."""
        if self.progress is not None:
            self.progress.finish(slots_run, self.switch.total_backlog())
        if self.telemetry.sinks:
            self.telemetry.emit_snapshot(
                slot=slots_run,
                kind="final",
                algorithm=self.algorithm,
                unstable=unstable,
                faults=self._faults(),
            )
        self.telemetry.flush()

    def _faults(self) -> dict | None:
        return self.injector.report() if self.injector is not None else None
