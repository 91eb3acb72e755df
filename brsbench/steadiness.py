"""Measure run-to-run spread: run workloads over several seeds.

Usage (from the root of a checkout)::

    python3 brsbench/steadiness.py --workloads coverage-exact serve-ingest --seeds 1-10

For each workload and end-to-end metric it prints the median over the
runs and the spread, ``(Q3 - Q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound from
``BENCHMARK.json``.  The raw result lines and stderr diagnostics are
appended to ``.brsbench_work/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = ROOT / ".brsbench_work" / "steadiness.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        values = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True)
            wall = time.perf_counter() - t0
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            diag = proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "{}"
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({
                    "workload": workload, "seed": seed,
                    "wall_s": wall, "result": line, "stderr": diag,
                }) + "\n")
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={line['correct']}"
                  f" attempted={line['attempted']} failed={line['failed']}", flush=True)
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            measured = json.loads(diag).get("diagnostics", {}).get("measured", {})
            for name, value in measured.items():
                if isinstance(value, list):
                    # (value, unit) pairs; the per-set-up factor lists are skipped.
                    if not isinstance(value[1], str):
                        continue
                    value = value[0]
                values.setdefault("measured." + name, []).append(value)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:40s} median={med:12.4f} spread={spread:7.4f}"
                  f" bound={bounds.get(name)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
