"""Smoke and determinism tests of the end-to-end benchmark itself.

Run with ``python -m pytest e2ebench -q`` from the root of the checkout.
Workloads run at tiny lengths with no time budget (one operation per
phase), so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.runner import run_simulation

from e2ebench.bench import _single_op, _sweep_op, measure
from e2ebench.hostspeed import REF_CHUNK_NS, HostSpeed
from e2ebench.run import WORKLOAD_NAMES
from e2ebench.workloads import (
    ALGORITHM,
    PIN_SEED,
    PINNED_DIGESTS,
    WARMUP_FRACTION,
    WORKLOADS,
    SingleRun,
    build_engine,
    summary_digest,
)

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Slots per run (per point for the sweep) in these tests.
TINY = {"fig4_n16": 400, "unicast_n16": 400, "mcast_n64": 300, "fig4_sweep": 300}

COUNT_METRICS = (
    "traffic.packets_per_slot",
    "kernel.admit.calls_per_slot",
    "sched.rounds_per_slot",
    "sched.productive_round_ratio",
    "kernel.commit.cells_per_slot",
    "fabric.fanout_per_transfer",
)

TIME_METRICS = (
    "traffic.next_slot.us_per_slot",
    "kernel.admit.us_per_slot",
    "sched.decide.us_per_slot",
    "kernel.schedule.self_us_per_slot",
    "kernel.commit.us_per_slot",
    "fabric.configure.us_per_slot",
    "fabric.release.us_per_slot",
    "switch.step.self_us_per_slot",
    "stats.on_slot.us_per_slot",
    "engine.self_us_per_slot",
)


def _tiny(name: str, seed: int, trace: bool, **kwargs):
    return measure(name, seed, 0, trace, length=TINY[name], **kwargs)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert WORKLOAD_NAMES == tuple(WORKLOADS)
    assert BENCHMARK["paths"] == ["e2ebench"]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_declared_metric(name, trace):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    result, outcome = _tiny(name, 1, trace)
    assert result["correct"], outcome.errors
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in declared} == {
        key: metric["unit"] for key, metric in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_tampered_digest_is_a_failed_run():
    result, outcome = _tiny("fig4_n16", 1, True, pins={"fig4_n16": "0" * 64})
    assert not result["correct"]
    assert result["failed"] == 1
    assert "pinned" in outcome.errors[0]


def test_other_seed_changes_arrivals_not_metric_names():
    first, one = _tiny("unicast_n16", 1, True)
    second, two = _tiny("unicast_n16", 2, True)
    assert one.digests[-1] != two.digests[-1]
    assert first["metrics"].keys() == second["metrics"].keys()
    assert (
        first["metrics"]["traffic.packets_per_slot"]
        != second["metrics"]["traffic.packets_per_slot"]
    )


@pytest.mark.parametrize("name", ["mcast_n64", "fig4_sweep"])
def test_counts_repeat_exactly_for_a_fixed_seed(name):
    runs = [_tiny(name, 3, True)[0]["metrics"] for _ in range(2)]
    for metric in COUNT_METRICS:
        assert runs[0][metric]["value"] == runs[1][metric]["value"], metric
        assert runs[0][metric]["value"] > 0, metric


@pytest.mark.parametrize("name", ["fig4_n16", "fig4_sweep"])
def test_layer_self_times_add_up_to_traced_wall(name):
    metrics = _tiny(name, 1, True)[0]["metrics"]
    layers = sum(metrics[m]["value"] for m in TIME_METRICS)
    assert layers == pytest.approx(metrics["trace.wall_us_per_slot"]["value"])


@pytest.mark.parametrize(
    "name", [n for n, w in WORKLOADS.items() if isinstance(w, SingleRun)]
)
def test_build_matches_run_simulation_on_both_backends(name):
    work = WORKLOADS[name]
    slots = TINY[name]
    reference = run_simulation(
        ALGORITHM, work.num_ports, work.traffic_spec, num_slots=slots,
        warmup_fraction=WARMUP_FRACTION, seed=5, backend="vectorized",
        sanitize=False,
    )
    for backend in ("vectorized", "object"):
        summary = build_engine(work, 5, num_slots=slots, backend=backend).run()
        assert summary_digest(summary) == summary_digest(reference), backend


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_pinned_digest_holds_at_default_length(name):
    work = WORKLOADS[name]
    if isinstance(work, SingleRun):
        assert _single_op(work, PIN_SEED, work.num_slots, None).digest == (
            PINNED_DIGESTS[name]
        )
        reference = build_engine(work, PIN_SEED, backend="object").run()
        assert summary_digest(reference) == PINNED_DIGESTS[name]
    else:
        result = _sweep_op(work, PIN_SEED, work.slots_per_point, False)
        assert result.digest == PINNED_DIGESTS[name]


def test_without_simulator_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "e2ebench", tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "fig4_n16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_takes_its_chunks_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    host = HostSpeed()
    host.start()
    total = 0
    for i in range(2_000_000):
        total += i & 7
    host.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert host.chunks >= 1 and 0 < host.chunk_ns
    assert 0 < host.elapsed_ns
    # Each chunk's speed is at least the speed of the chunks taken together
    # when some chunk was slower, so the mean is at least the pooled speed.
    assert host.speed >= REF_CHUNK_NS * host.chunks / host.chunk_ns * (1 - 1e-12)
    assert host.reference_s() == pytest.approx(host.elapsed_ns / 1e9 * host.speed)


def test_sampled_operation_reports_rate_on_the_reference_host():
    work = WORKLOADS["fig4_n16"]
    plain = _single_op(work, 1, TINY["fig4_n16"], None)
    sampled = _single_op(work, 1, TINY["fig4_n16"], None, sample=True)
    assert plain.speed is None and sampled.speed is not None
    assert sampled.digest == plain.digest
    assert sampled.reference_rate == pytest.approx(sampled.rate / sampled.speed)
