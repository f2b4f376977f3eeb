"""Workloads of the end-to-end benchmark and the correctness checks on them.

A *single-run* workload is one FIFOMS simulation on the vectorized kernel
backend at a stable operating point; one operation builds the switch,
traffic model and engine exactly as :func:`repro.sim.runner.run_simulation`
does and runs it. The *sweep* workload is one whole ``run_figure`` of the
paper's Fig. 4 grid on the default (object) backend, its points run
serially. Why each workload exists is in ``README.md`` next to this file.

Every operation is checked. For any seed: the engine's conservation audit
passed (``engine.run`` raises otherwise), no cell was dropped, the carried
load matches the offered load on every stable run, and the single-run
workloads stayed stable. For :data:`PIN_SEED` the simulated fields must
also hash to the digest pinned in :data:`PINNED_DIGESTS`; both kernel
backends are bit-exact, so one digest serves both.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from typing import Any

from repro.analysis.loads import (
    bernoulli_arrival_probability,
    uniform_arrival_probability,
)
from repro.errors import ReproError
from repro.experiments import get_figure, run_figure
from repro.experiments.spec import SweepPoint
from repro.report.export import summaries_to_csv
from repro.schedulers.registry import make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_traffic
from repro.stats.summary import SimulationSummary
from repro.utils.rng import RngStreams

__all__ = [
    "ALGORITHM",
    "BACKEND",
    "WARMUP_FRACTION",
    "OPERATION_ERRORS",
    "PIN_SEED",
    "PINNED_DIGESTS",
    "SWEEP_WORKERS",
    "WORKLOADS",
    "SingleRun",
    "Sweep",
    "CheckFailure",
    "worker_count",
    "build_engine",
    "summary_digest",
    "check_summary",
    "sweep_points",
    "run_sweep",
    "check_sweep",
]

#: Seed whose results are pinned; every benchmark run simulates it once.
PIN_SEED = 2004

#: Largest tolerated relative gap between carried and offered load on a
#: stable run. Over the measured half of a run the two differ only by the
#: backlog change, which stays under 2% at every single-run workload.
LOAD_TOLERANCE = 0.05

#: Highest sweep load whose points must carry what they are offered. At
#: 1k slots a point close to saturation (TATRA from ~0.8 on N = 16) can
#: run its whole length without tripping the growth detector while its
#: backlog climbs, so the load check stops below that region.
SWEEP_CHECKED_LOAD = 0.75


#: Workers of the sweep. A pool on a host of a few CPUs times the OS
#: scheduler as much as the simulator, so the points run serially in the
#: measuring process, where :class:`e2ebench.hostspeed.HostSpeed` sees them.
SWEEP_WORKERS = 1


class CheckFailure(Exception):
    """An operation's simulated results failed a correctness check."""


#: What every single-run workload simulates, and on which backend.
ALGORITHM = "fifoms"
BACKEND = "vectorized"
WARMUP_FRACTION = 0.5


@dataclass(frozen=True)
class SingleRun:
    """One :data:`ALGORITHM` run on :data:`BACKEND`."""

    num_ports: int
    traffic_spec: dict[str, Any]
    num_slots: int


@dataclass(frozen=True)
class Sweep:
    """One whole ``run_figure`` on the default backend."""

    figure_id: str
    slots_per_point: int


WORKLOADS: dict[str, SingleRun | Sweep] = {
    "fig4_n16": SingleRun(
        num_ports=16,
        traffic_spec={
            "model": "bernoulli",
            "p": bernoulli_arrival_probability(16, 0.8, 0.2),
            "b": 0.2,
        },
        num_slots=8000,
    ),
    "unicast_n16": SingleRun(
        num_ports=16,
        traffic_spec={
            "model": "uniform",
            "p": uniform_arrival_probability(0.8, 1),
            "max_fanout": 1,
        },
        num_slots=4000,
    ),
    "mcast_n64": SingleRun(
        num_ports=64,
        traffic_spec={
            "model": "bernoulli",
            "p": bernoulli_arrival_probability(64, 0.8, 0.2),
            "b": 0.2,
        },
        num_slots=3000,
    ),
    "fig4_sweep": Sweep(figure_id="fig4", slots_per_point=1000),
}

#: sha256 of :func:`summary_digest` (single runs) or of the figure CSV
#: (sweeps) at :data:`PIN_SEED` and each workload's default length.
PINNED_DIGESTS: dict[str, str] = {
    "fig4_n16": "41ecf38ff1fe8632642a0d7b3a69f050914850dabe46403ea20d67efa78740b9",
    "unicast_n16": "f8f944bb28612a3e2db6511ed34c378e9d315486281c706808f3c5a170f07b6f",
    "mcast_n64": "1723be4835d758000cf7bd0c4978316c6323ae916fd363efd7ab6d486df4ee60",
    "fig4_sweep": "26af44b6f4b09cc32714052cd95b606542912db78c563237f0f0111fcf2a2640",
}


def worker_count() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------- #
# Single runs
# ---------------------------------------------------------------------- #
def build_engine(
    work: SingleRun, seed: int, *, num_slots: int | None = None,
    backend: str = BACKEND,
) -> SimulationEngine:
    """Switch, traffic and engine for one run, built the way
    :func:`~repro.sim.runner.run_simulation` builds them."""
    slots = num_slots if num_slots is not None else work.num_slots
    streams = RngStreams(seed)
    traffic = build_traffic(
        work.traffic_spec, work.num_ports, rng=streams.get("traffic")
    )
    config = SimulationConfig(
        num_slots=slots,
        warmup_fraction=WARMUP_FRACTION,
        stability_window=max(100, slots // 100),
    )
    switch = make_switch(
        ALGORITHM, work.num_ports, rng=streams.get("scheduler"), backend=backend
    )
    # sanitize=False: an exported REPRO_SANITIZE must not change what is timed.
    return SimulationEngine(
        switch, traffic, config, seed=seed, algorithm_name=ALGORITHM,
        sanitize=False,
    )


def summary_digest(summary: SimulationSummary) -> str:
    """sha256 over every simulated field of a summary."""
    fields = summary.to_dict()
    fields.pop("telemetry")
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _check_load(summary: SimulationSummary) -> None:
    offered, carried = summary.offered_load, summary.carried_load
    if not abs(carried - offered) <= LOAD_TOLERANCE * offered:
        raise CheckFailure(
            f"{summary.algorithm} seed {summary.seed}: carried load "
            f"{carried:.4f} is not within {LOAD_TOLERANCE:.0%} of offered "
            f"load {offered:.4f}"
        )


def check_summary(summary: SimulationSummary, num_slots: int) -> None:
    """Raise :class:`CheckFailure` unless a single run checks out."""
    if summary.unstable or summary.slots_run != num_slots:
        raise CheckFailure(
            f"seed {summary.seed}: unstable after {summary.slots_run} of "
            f"{num_slots} slots"
        )
    if summary.cells_dropped:
        raise CheckFailure(
            f"seed {summary.seed}: {summary.cells_dropped} cells dropped"
        )
    _check_load(summary)


# ---------------------------------------------------------------------- #
# Sweeps
# ---------------------------------------------------------------------- #
def sweep_points(
    work: Sweep, seed: int, *, slots_per_point: int | None = None
) -> list[SweepPoint]:
    """The figure's grid, as ``run_figure`` materializes it."""
    slots = slots_per_point if slots_per_point is not None else work.slots_per_point
    return get_figure(work.figure_id).points(num_slots=slots, seed=seed)


def run_sweep(
    work: Sweep, seed: int, *, slots_per_point: int | None = None
) -> list[SimulationSummary]:
    """One whole figure on the default backend, its points run one after
    another in this process (:data:`SWEEP_WORKERS`)."""
    spec = get_figure(work.figure_id)
    slots = slots_per_point if slots_per_point is not None else work.slots_per_point
    result = run_figure(spec, num_slots=slots, seed=seed, workers=SWEEP_WORKERS)
    if result.failures:
        raise CheckFailure(f"{len(result.failures)} sweep points failed")
    return result.all_summaries()


def check_sweep(summaries: list[SimulationSummary], expected: int) -> str:
    """Check a sweep's summaries and return the sha256 of its CSV.

    Points past saturation stop early as unstable by design; the load
    check applies to stable points up to :data:`SWEEP_CHECKED_LOAD`, and
    no point may carry more than it was offered.
    """
    if len(summaries) != expected:
        raise CheckFailure(f"{len(summaries)} of {expected} sweep points ran")
    for summary in summaries:
        if summary.cells_dropped:
            raise CheckFailure(
                f"{summary.algorithm} seed {summary.seed}: "
                f"{summary.cells_dropped} cells dropped"
            )
        load = summary.traffic["effective_load"]
        if not summary.unstable and load <= SWEEP_CHECKED_LOAD + 1e-9:
            _check_load(summary)
        elif summary.carried_load > (1 + LOAD_TOLERANCE) * summary.offered_load:
            raise CheckFailure(
                f"{summary.algorithm} seed {summary.seed}: carried load "
                f"{summary.carried_load:.4f} exceeds offered load "
                f"{summary.offered_load:.4f}"
            )
    csv = summaries_to_csv(replace(s, telemetry=None) for s in summaries)
    return hashlib.sha256(csv.encode()).hexdigest()


#: Exceptions an operation may raise that count as a failed operation:
#: the engine's conservation audit and sweep-point errors are ReproErrors.
OPERATION_ERRORS = (CheckFailure, ReproError)
