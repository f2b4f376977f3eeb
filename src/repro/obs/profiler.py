"""Phase-level wall-clock attribution for the simulation loop.

The engine's slot cycle has four phases — traffic generation, the switch's
schedule-and-transmit step, statistics collection, and invariant/stability
checks. :class:`PhaseProfiler` accumulates ``time.perf_counter_ns`` deltas
per phase and reports totals, shares and per-slot costs, answering "where
does a run actually spend its time" before any optimisation PR.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["PHASES", "PhaseProfiler", "NoopProfiler", "NOOP_PROFILER", "clock_ns"]

#: The one sanctioned wall-clock read (`repro.lint` rule DET001): code
#: outside repro/obs that legitimately needs timing — kernel benchmarks,
#: for one — imports this alias instead of the time module, keeping
#: every wall-clock dependency explicit and greppable.
clock_ns = time.perf_counter_ns

#: Canonical engine phases, in slot-cycle order.
PHASES: tuple[str, ...] = ("traffic_gen", "schedule", "stats", "invariants")


class PhaseProfiler:
    """Accumulates nanoseconds per named phase."""

    __slots__ = ("_ns",)

    enabled = True

    def __init__(self) -> None:
        self._ns: dict[str, int] = {}

    def add(self, phase: str, ns: int) -> None:
        """Attribute ``ns`` nanoseconds of wall-clock to ``phase``."""
        self._ns[phase] = self._ns.get(phase, 0) + ns

    def timed(self, phase: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so every call's wall-clock is attributed to ``phase``.

        The engine binds its slot-loop callables through this once per
        profiled run, so the loop itself carries no timing code. The
        phase is registered (at 0 ns) as soon as it is wrapped, so a
        phase whose callable never runs still shows in the report.
        """
        ns = self._ns
        ns.setdefault(phase, 0)
        clock = clock_ns

        def timed_call(*args: Any) -> Any:
            start = clock()
            out = fn(*args)
            ns[phase] += clock() - start
            return out

        return timed_call

    def total_ns(self, phase: str | None = None) -> int:
        """Nanoseconds recorded for one phase (or all phases summed)."""
        if phase is not None:
            return self._ns.get(phase, 0)
        return sum(self._ns.values())

    def report(self, slots: int | None = None) -> dict[str, object]:
        """Breakdown dict: per-phase totals, shares and per-slot costs.

        ``slots`` (the number of simulated slots) enables the per-slot
        column; share is each phase's fraction of the profiled total.
        A non-positive ``slots`` (0-slot run) is treated as unknown so
        the breakdown never divides by zero.
        """
        if slots is not None and slots <= 0:
            slots = None
        total = self.total_ns()
        phases: dict[str, dict[str, float]] = {}
        ordered = [p for p in PHASES if p in self._ns]
        ordered += sorted(p for p in self._ns if p not in PHASES)
        for phase in ordered:
            ns = self._ns[phase]
            entry: dict[str, float] = {
                "total_ms": ns / 1e6,
                "share": ns / total if total else 0.0,
            }
            if slots:
                entry["per_slot_us"] = ns / slots / 1e3
            phases[phase] = entry
        out: dict[str, object] = {"total_ms": total / 1e6, "phases": phases}
        if slots:
            out["slots"] = slots
            if total:
                out["slots_per_sec"] = slots / (total / 1e9)
        return out


class NoopProfiler:
    """Null-object profiler for the disabled path."""

    __slots__ = ()

    enabled = False

    def add(self, phase: str, ns: int) -> None:
        """Discard the observation (profiling is off)."""

    def total_ns(self, phase: str | None = None) -> int:
        """Always 0 (profiling is off)."""
        return 0

    def report(self, slots: int | None = None) -> dict[str, object]:
        """An empty breakdown (profiling is off)."""
        return {"total_ms": 0.0, "phases": {}}


#: Shared singleton null profiler.
NOOP_PROFILER = NoopProfiler()
