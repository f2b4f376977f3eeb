"""TATRA on its one (object) backend: determinism and behaviour.

TATRA declares itself object-only, so there is no second backend to
compare against; the parity checks here require two independent runs of
the same seeded workload to agree field for field.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import Packet
from repro.schedulers.tatra import TATRAScheduler
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.runner import run_simulation
from repro.switch.single_queue import SingleInputQueueSwitch
from repro.traffic.trace import TraceTraffic

from conftest import make_packet


def _twice(spec, num_slots, seed):
    return [
        run_simulation("tatra", 8, spec, num_slots=num_slots, seed=seed)
        for _ in range(2)
    ]


class TestExactParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bernoulli_multicast(self, seed):
        first, second = _twice({"model": "bernoulli", "p": 0.3, "b": 0.3}, 2500, seed)
        assert first.to_json() == second.to_json()

    def test_unicast(self):
        spec = {"model": "uniform", "p": 0.5, "max_fanout": 1}
        first, second = _twice(spec, 2500, 4)
        assert first.to_json() == second.to_json()

    def test_near_saturation(self):
        # Past TATRA's stability point: the unstable flag and the early
        # stop must also agree exactly.
        spec = {"model": "uniform", "p": 0.8, "max_fanout": 1}
        first, second = _twice(spec, 4000, 5)
        assert first.unstable == second.unstable
        assert first.to_json() == second.to_json()


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    horizon = draw(st.integers(min_value=1, max_value=12))
    packets = []
    for slot in range(horizon):
        for i in range(n):
            if draw(st.booleans()):
                dests = draw(
                    st.sets(
                        st.integers(min_value=0, max_value=n - 1),
                        min_size=1,
                        max_size=n,
                    )
                )
                packets.append(Packet(i, tuple(dests), slot))
    return n, horizon, packets


def _run_trace(n, packets, cfg):
    return SimulationEngine(
        SingleInputQueueSwitch(n, TATRAScheduler(n)),
        TraceTraffic(n, packets),
        cfg,
        algorithm_name="tatra",
    ).run()


@settings(max_examples=30, deadline=None)
@given(traces())
def test_fast_tatra_bit_identical_on_any_trace(trace):
    """Property form: determinism on arbitrary hypothesis-drawn traces."""
    n, horizon, packets = trace
    cells = sum(p.fanout for p in packets)
    cfg = SimulationConfig(
        num_slots=horizon + cells + 2, warmup_fraction=0.0, stability_window=0
    )
    first = _run_trace(n, packets, cfg)
    second = _run_trace(n, packets, cfg)
    assert first.to_json() == second.to_json()
    assert first.final_backlog == 0  # the horizon drains every cell


class TestFastTATRABehaviour:
    def test_hol_blocking_visible(self):
        """The engine preserves the architecture's defining pathology."""
        pkts = [
            make_packet(0, (0,), 0),
            make_packet(1, (0,), 0),
            make_packet(0, (2,), 1),
            make_packet(1, (3,), 1),
        ]
        cfg = SimulationConfig(
            num_slots=6, warmup_fraction=0.0, stability_window=0
        )
        s = _run_trace(4, pkts, cfg)
        assert s.cells_delivered == 4
        # The loser's second packet waits a slot: mean input delay > 1.25.
        assert s.average_input_delay > 1.25
