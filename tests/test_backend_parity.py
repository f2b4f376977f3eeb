"""Object-vs-vectorized parity for every newly vectorized pairing.

One :func:`repro.kernel.equivalence.run_case` per registry pairing at a
moderate and a heavy load: both kernel backends must produce identical
summaries, per-slot digests, final state and telemetry from the same
seed. (The original FIFOMS/iSLIP pair has its own deeper suites; TATRA
is object-only and covered by the demotion tests.)
"""

from __future__ import annotations

import pytest

from repro.kernel.equivalence import EquivalenceCase, run_case

#: Pairings whose vectorized path arrived after FIFOMS and iSLIP.
NEWLY_VECTORIZED = (
    "pim",
    "maxweight-lqf",
    "maxweight-ocf",
    "wba",
    "siq-fifo",
    "greedy-mcast",
    "oqfifo",
    "fifoms-prio",
    "cioq-islip",
    "2drr",
    "serena",
    "cicq",
    "eslip",
)

#: (p, b) Bernoulli operating points: moderate and near-saturation.
LOADS = ((0.3, 0.3), (0.6, 0.4))


@pytest.mark.parametrize("load", LOADS, ids=["moderate", "heavy"])
@pytest.mark.parametrize("algorithm", NEWLY_VECTORIZED)
def test_backends_identical_on_pinned_trace(algorithm, load):
    p, b = load
    case = EquivalenceCase(
        algorithm, {"model": "bernoulli", "p": p, "b": b}, seed=42
    )
    assert run_case(case, num_ports=8, num_slots=1200).ok
