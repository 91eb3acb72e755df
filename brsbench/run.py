"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 brsbench/run.py --workload coverage-exact --seed 1 --seconds 20 --trace 0

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones.  Diagnostics (sample counts, gap ratios,
mismatches, guard failures) go to standard error.  Exits non-zero when the
program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from brsbench import common  # noqa: E402

WORKLOADS = {
    "coverage-exact": "brsbench.wl_coverage",
    "maxrs-columnar": "brsbench.wl_maxrs",
    "serve-explore": "brsbench.wl_explore",
    "serve-ingest": "brsbench.wl_ingest",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.ensure_src_on_path()

    import importlib

    from brsbench import runner

    ctx = common.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
    )
    result = runner.run(ctx, importlib.import_module(WORKLOADS[args.workload]))
    report = {
        "errors": result.errors,
        "mismatches": result.ledger.mismatches,
        "diagnostics": result.diagnostics,
    }
    print(json.dumps(report, default=str), file=sys.stderr)
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
