"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0

``--trace 0`` times the end-to-end metrics; ``--trace 1`` is a separate
run that replays the workload's inputs through the program's public
functions with spans and reports the per-layer metrics.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
earlier lines carry provenance and details.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, provenance, require_checkout, work_dir  # noqa: E402

WORKLOADS = ("serve", "campaign")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant-wrong",
        action="store_true",
        help="corrupt one expected answer (the benchmark's own smoke test)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def dispatch(args: argparse.Namespace, work: Path) -> dict:
    """The campaign drives a CLI process and needs no event loop; each
    serve run uses exactly one loop for everything it does."""
    if args.workload == "campaign":
        if args.trace:
            import traced

            return traced.run_campaign(args.seed, args.seconds, work)
        import campaign

        return campaign.run(args.seed, args.seconds, work, args.plant_wrong)
    if args.trace:
        import traced

        return asyncio.run(traced.run_serve(args.seed, args.seconds, work))
    import serve

    return asyncio.run(serve.run(args.seed, args.seconds, work, args.plant_wrong))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        require_checkout()
        work = work_dir()
        try:
            print(json.dumps({"provenance": provenance(args.seed)}), flush=True)
            outcome = dispatch(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": outcome.get("detail", {})}, sort_keys=True))
    metrics = {
        name: {"value": float(value), "unit": unit}
        for name, (value, unit) in outcome["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": outcome["failed"] == 0,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
