"""The vectorized ("fast") kernel backend: exact parity and behaviour.

Parity goes through :func:`repro.kernel.equivalence.run_case`, which runs
both backends from one seed and requires identical summaries, per-slot
digests, final state and telemetry. Behaviour is checked on the
vectorized backend through the ordinary engine and runner.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.kernel.equivalence import EquivalenceCase, run_case
from repro.schedulers.registry import make_switch
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_traffic, run_simulation
from repro.traffic.trace import TraceTraffic
from repro.utils.rng import RngStreams

from conftest import make_packet


def _parity(algorithm, traffic, *, seed, slots=2500, ports=8):
    case = EquivalenceCase(algorithm, traffic, seed=seed)
    return run_case(case, num_ports=ports, num_slots=slots)


def _vectorized(algorithm, packets, num_slots, **switch_kwargs):
    switch = make_switch(algorithm, 4, backend="vectorized", **switch_kwargs)
    cfg = SimulationConfig(
        num_slots=num_slots, warmup_fraction=0.0, stability_window=0
    )
    return SimulationEngine(switch, TraceTraffic(4, packets), cfg).run()


class TestExactParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fifoms_bernoulli(self, seed):
        traffic = {"model": "bernoulli", "p": 0.3, "b": 0.3}
        assert _parity("fifoms", traffic, seed=seed).ok

    def test_fifoms_heavy_load(self):
        traffic = {"model": "bernoulli", "p": 0.55, "b": 0.3}
        assert _parity("fifoms", traffic, seed=9).ok

    def test_fifoms_unicast(self):
        traffic = {"model": "uniform", "p": 0.8, "max_fanout": 1}
        assert _parity("fifoms", traffic, seed=3).ok

    @pytest.mark.parametrize("seed", [0, 1])
    def test_islip_bernoulli(self, seed):
        traffic = {"model": "bernoulli", "p": 0.25, "b": 0.3}
        assert _parity("islip", traffic, seed=seed).ok

    def test_islip_burst(self):
        traffic = {"model": "burst", "e_off": 60, "e_on": 8, "b": 0.4}
        assert _parity("islip", traffic, seed=4).ok

    def test_unknown_algorithm(self):
        traffic = {"model": "bernoulli", "p": 0.2, "b": 0.3}
        with pytest.raises(ConfigurationError):
            _parity("no-such-algo", traffic, seed=0, slots=100, ports=4)

    def test_formerly_unpaired_algorithm_now_works(self):
        # Any vectorized registry pairing runs both backends, not just
        # the paper's FIFOMS/iSLIP pair.
        traffic = {"model": "bernoulli", "p": 0.2, "b": 0.3}
        assert _parity("wba", traffic, seed=0, slots=400, ports=4).ok


class TestFastEngineBehaviour:
    def test_deterministic_multicast_scenario(self):
        pkts = [make_packet(0, (0, 1, 2), 0)]
        s = _vectorized("fifoms", pkts, 3, tie_break="lowest_input")
        assert s.cells_delivered == 3
        assert s.average_output_delay == pytest.approx(1.0)
        assert s.average_input_delay == pytest.approx(1.0)
        assert s.final_backlog == 0

    def test_islip_splits_multicast(self):
        pkts = [make_packet(0, (0, 1, 2), 0)]
        s = _vectorized("islip", pkts, 5)
        assert s.cells_delivered == 3
        # One copy per slot: delays 1, 2, 3.
        assert s.average_output_delay == pytest.approx(2.0)
        assert s.average_input_delay == pytest.approx(3.0)

    def test_random_tiebreak_statistical_sanity(self):
        """Random-tie vectorized FIFOMS must track the reference closely
        in distribution even though its tie-break draws differ."""
        spec = {"model": "bernoulli", "p": 0.4, "b": 0.3}
        cfg = SimulationConfig(
            num_slots=6000, warmup_fraction=0.5, stability_window=0
        )

        def run(tie_seed, backend):
            traffic = build_traffic(spec, 8, rng=RngStreams(1).get("traffic"))
            switch = make_switch("fifoms", 8, rng=tie_seed, backend=backend)
            return SimulationEngine(switch, traffic, cfg).run()

        fast = run(2, "vectorized")
        ref = run(1, "object")
        assert fast.average_output_delay == pytest.approx(
            ref.average_output_delay, rel=0.1
        )
        assert fast.average_queue_size == pytest.approx(
            ref.average_queue_size, rel=0.2
        )

    def test_instability_detection(self):
        cfg = SimulationConfig(
            num_slots=4000, warmup_fraction=0.0, max_backlog=500, stability_window=50
        )
        s = run_simulation(
            "fifoms", 8, {"model": "bernoulli", "p": 1.0, "b": 0.9},
            seed=0, config=cfg, backend="vectorized",
        )
        assert s.unstable
        assert s.slots_run < 4000

    def test_bad_tiebreak(self):
        with pytest.raises(ConfigurationError, match="tie_break"):
            make_switch("fifoms", 4, backend="vectorized", tie_break="coin")


class TestRunFastSimulation:
    def test_fast_runner_matches_reference_statistically(self):
        spec = {"model": "bernoulli", "p": 0.35, "b": 0.3}
        fast = run_simulation(
            "fifoms", 8, spec, num_slots=6000, seed=4, backend="vectorized"
        )
        ref = run_simulation("fifoms", 8, spec, num_slots=6000, seed=4)
        # Identical traffic stream (same named RNG streams): offered
        # counts match exactly; delays match statistically.
        assert fast.cells_offered == ref.cells_offered
        assert fast.average_output_delay == pytest.approx(
            ref.average_output_delay, rel=0.1
        )

    def test_tatra_fast_runner_exact(self):
        spec = {"model": "uniform", "p": 0.4, "max_fanout": 3}
        first = run_simulation("tatra", 8, spec, num_slots=4000, seed=9)
        second = run_simulation("tatra", 8, spec, num_slots=4000, seed=9)
        # TATRA is deterministic: same seed -> bit-identical summaries.
        assert first.to_json() == second.to_json()

    def test_unknown_fast_algorithm(self):
        # TATRA is object-only: asking for its vectorized backend fails
        # at build time instead of silently running the object model.
        with pytest.raises(ConfigurationError, match="tatra"):
            run_simulation(
                "tatra", 8, {"model": "bernoulli", "p": 0.1, "b": 0.2},
                backend="vectorized",
            )
