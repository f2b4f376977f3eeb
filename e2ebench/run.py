"""End-to-end benchmark of the simulator at the paper's operating points.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload fig4_n16 --seed 1 --seconds 20 --trace 0

It prints the provenance, then every metric by name with its unit, and as
its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` gives the end-to-end metrics, ``--trace 1``
the per-layer ones. The exit code is 0 when every operation passed its
checks, 1 when one failed, and 2 when the simulator's sources are not
next to the benchmark. ``--setup-only`` imports the simulator, builds one
operation's objects and exits; the benchmark times it in fresh
interpreters for ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["main"]

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fig4_n16", "unicast_n16", "mcast_n64", "fig4_sweep")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"e2ebench: no simulator sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench.bench import build_only, measure

    if args.setup_only:
        build_only(args.workload, args.seed)
        return 0
    result, outcome = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print("provenance: " + json.dumps(outcome.provenance, sort_keys=True))
    for error in outcome.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
