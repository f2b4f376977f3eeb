"""The one slot loop: cadences, observers and faults never change results.

The engine has a single per-slot loop (there is no ``slot_chunk``
batching). These tests pin it against a hand-driven per-slot reference
loop at several invariant-check cadences, check that the cadences land
on the right slots, that an unstable run stops at the same slot with or
without observers, and that faulted runs advance the injector every
slot.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.obs import Telemetry
from repro.sanitize import SanitizerSuite
from repro.schedulers.registry import make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_traffic, run_simulation
from repro.utils.rng import RngStreams

TRAFFIC = {"model": "bernoulli", "p": 0.4, "b": 0.3}


def _engine(algorithm, backend, *, slots=1500, check_every=0):
    streams = RngStreams(11)
    cfg = SimulationConfig(
        num_slots=slots,
        warmup_fraction=0.5,
        stability_window=700,  # deliberately coprime-ish with the cadences
        check_invariants_every=check_every,
    )
    switch = make_switch(
        algorithm, 8, rng=streams.get("scheduler"), backend=backend
    )
    traffic = build_traffic(TRAFFIC, 8, rng=streams.get("traffic"))
    return SimulationEngine(switch, traffic, cfg, seed=11)


def _reference_summary(algorithm, backend, *, slots=1500):
    """Drive a fresh engine's parts by hand: the textbook per-slot loop."""
    engine = _engine(algorithm, backend, slots=slots)
    switch, traffic, collector = engine.switch, engine.traffic, engine.collector
    for slot in range(slots):
        arrivals = traffic.next_slot()
        result = switch.step(arrivals, slot)
        collector.on_slot(slot, arrivals, result, switch.queue_sizes())
    engine.slots_run = slots
    return engine._summarize(False)


class TestChunkedEquivalence:
    @pytest.mark.parametrize("algorithm", ["fifoms", "islip", "oqfifo"])
    @pytest.mark.parametrize("chunk", [2, 7, 64, 5000])
    def test_bit_identical_to_per_slot_loop(self, algorithm, chunk):
        # ``chunk`` is the invariant-check cadence of the engine run.
        engine = _engine(algorithm, "object", check_every=chunk)
        summary = engine.run()
        assert engine.observers == ()
        reference = _reference_summary(algorithm, "object")
        assert summary.to_json() == reference.to_json()

    def test_vectorized_backend_chunked(self):
        summary = _engine("fifoms", "vectorized", check_every=32).run()
        reference = _reference_summary("fifoms", "vectorized")
        assert summary.to_json() == reference.to_json()

    def test_chunks_respect_invariant_cadence(self):
        # check_invariants_every=13 does not divide the 700-slot
        # stability window: checks land after every 13th slot only.
        engine = _engine("fifoms", "object", check_every=13)
        switch = engine.switch
        checked_at: list[int] = []
        real_check = switch.check_invariants

        def spy_check():
            checked_at.append(switch.current_slot)
            real_check()

        switch.check_invariants = spy_check
        engine.run()
        assert checked_at == list(range(12, 1500, 13))

    def test_unstable_run_stops_at_same_slot(self):
        overload = {"model": "bernoulli", "p": 0.95, "b": 0.9}
        cfg = SimulationConfig(
            num_slots=4000,
            warmup_fraction=0.0,
            stability_window=200,
            max_backlog=300,
        )
        base = run_simulation("siq-fifo", 8, overload, seed=3, config=cfg)
        observed = run_simulation(
            "siq-fifo", 8, overload, seed=3, config=cfg,
            telemetry=Telemetry(profile=True),
            sanitize=SanitizerSuite(deep_every=50),
        )
        assert base.unstable and observed.unstable
        assert base.slots_run < 4000 and base.slots_run % 200 == 0
        assert replace(observed, telemetry=None).to_json() == base.to_json()


class TestChunkPlumbing:
    def test_invalid_slot_chunk_rejected(self, capsys):
        # The removed knob fails loudly everywhere instead of being
        # silently ignored.
        with pytest.raises(TypeError, match="slot_chunk"):
            SimulationConfig(slot_chunk=8)
        with pytest.raises(TypeError, match="slot_chunk"):
            run_simulation("fifoms", 4, TRAFFIC, num_slots=10, slot_chunk=8)
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "-a", "fifoms", "-n", "4", "--slot-chunk", "8"])
        assert exc.value.code == 2
        assert "--slot-chunk" in capsys.readouterr().err

    def test_chunked_loop_skipped_with_faults(self):
        # Fault injection is negotiated slot by slot: the loop advances
        # the injector once per slot, in order, before stepping it.
        from repro.faults.scenarios import build_fault_injector

        injector = build_fault_injector(
            "input-outage", num_ports=8, num_slots=600, rng=RngStreams(5)
        )
        advanced: list[int] = []
        real_advance = injector.advance

        def spy_advance(slot):
            advanced.append(slot)
            return real_advance(slot)

        injector.advance = spy_advance
        summary = run_simulation(
            "fifoms", 8, TRAFFIC, seed=5,
            config=SimulationConfig(num_slots=600, warmup_fraction=0.0),
            faults=injector,
        )
        assert summary.slots_run == 600
        assert advanced == list(range(600))
