"""coverage-exact: exact solves of the paper's coverage score families.

Why: ROADMAP profiles 87% of coverage time in ``core.sweep`` and the
coverage evaluator, and ``columnar.kernels`` does nothing here.  The
timed call is ``repro.columnar_best_region(dataset, f, a, b)``, which
today falls back to object-path SliceBRS; a vectorised coverage kernel
behind that entry point is measured by the same call with no change here.

Inputs: the registry analogs at their fixed seeds — diversity on
``yelp_like`` (dense, prunes well) and ``meetup_like`` (plateau, prunes
badly), RIS influence on ``gowalla_like`` with 2000 RR sets.  Query sizes
are ``k*q`` for k in {1, 2, 5}: each (dataset, k) cell runs the fixed
sizes ``k * (1 + 0.005 j)``, j = 0..11, and the seed sets their order.
A fixed set keeps every seed's mix the same, so seeds agree on latency
percentiles and reference answers are reused across seeds.

Reference: object-path ``SliceBRS`` at slice width 0.5 b (the timed route
uses 1.0 b), plus a re-score of each reported region.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

import numpy as np

from brsbench.common import (
    Context, Ledger, ReferenceCache, Stopwatch, peak_rss_mib, same_score,
)
from brsbench.runner import Pass

NAME = "coverage-exact"
#: Set-ups per untraced run; its set-up is three solves, as noisy as any.
SETUP_REPEATS = 7
DATASETS = ("yelp", "meetup", "gowalla")
KS = (1, 2, 5)
N_RR_SETS = 2000
WARMUP_K = 3.0


def _generate() -> Dict[str, Any]:
    from repro.datasets.registry import gowalla_like, meetup_like, yelp_like

    return {"yelp": yelp_like(), "meetup": meetup_like(), "gowalla": gowalla_like()}


def make_inputs(ctx: Context) -> Dict[str, Any]:
    return {}


def fresh(ctx: Context, inputs: Any) -> Dict[str, Any]:
    # New dataset objects per set-up, so cached score functions and
    # columns from an earlier set-up are never reused.
    return _generate()


def setup(ctx: Context, inputs: Any, datasets: Dict[str, Any], rec: Any) -> Dict[str, Any]:
    import repro

    fns = {
        "yelp": datasets["yelp"].score_function(),
        "meetup": datasets["meetup"].score_function(),
        "gowalla": datasets["gowalla"].score_function(n_rr_sets=N_RR_SETS, seed=0),
    }
    for ds in datasets.values():
        ds.columns()
    if rec is not None:
        rec.phase = "warmup"
    for name in DATASETS:
        a, b = datasets[name].query(WARMUP_K)
        repro.columnar_best_region(datasets[name], fns[name], a, b)
    return {"datasets": datasets, "fns": fns}


def close(inst: Any) -> None:
    pass


def script(ctx: Context, inputs: Any) -> List[Tuple[str, float]]:
    per_cell = ctx.count(rate=0.6, reduced=1)
    rng = random.Random(ctx.seed)
    ops: List[Tuple[str, float]] = []
    for name in DATASETS:
        for k in KS:
            ops.extend((name, round(k * (1 + 0.005 * j), 6)) for j in range(per_cell))
    rng.shuffle(ops)
    return ops


def execute(ctx: Context, inst: Dict[str, Any], ops: List[Tuple[str, float]], rec: Any) -> Pass:
    import repro

    datasets, fns = inst["datasets"], inst["fns"]
    sized = [(name, datasets[name].query(k)) for name, k in ops]
    results = []
    watch = Stopwatch(ctx.calibrator)
    watch.begin()
    for name, (a, b) in sized:
        watch.start()
        res = repro.columnar_best_region(datasets[name], fns[name], a, b)
        watch.stop("cold")
        watch.calibrate()
        results.append(res)
    watch.end()
    rss = peak_rss_mib()
    counts = {"slabs": 0, "slabs_searched": 0, "candidates": 0, "pushes": 0}
    for res in results:
        counts["slabs"] += res.stats.n_slabs
        counts["slabs_searched"] += res.stats.n_slabs_searched
        counts["candidates"] += res.stats.n_candidates
        counts["pushes"] += res.stats.n_pushes
    answers = [
        (name, k, res.status, res.score, res.point.x, res.point.y, a, b)
        for (name, k), (_, (a, b)), res in zip(ops, sized, results)
    ]
    return Pass(watch=watch, n_ops=len(ops), answers=answers, rss_mib=rss, counts=counts)


def rescore(ds: Any, f: Any, x: float, y: float, a: float, b: float) -> float:
    """``f.value`` over the objects strictly inside the region."""
    xs = np.fromiter((p.x for p in ds.points), dtype=np.float64)
    ys = np.fromiter((p.y for p in ds.points), dtype=np.float64)
    inside = np.flatnonzero(
        (xs > x - b / 2) & (xs < x + b / 2) & (ys > y - a / 2) & (ys < y + a / 2)
    )
    return float(f.value([int(i) for i in inside]))


def check(ctx: Context, inputs: Any, result: Pass, ledger: Ledger) -> None:
    from repro.core.slicebrs import SliceBRS

    datasets = _generate()
    fns = {
        "yelp": datasets["yelp"].score_function(),
        "meetup": datasets["meetup"].score_function(),
        "gowalla": datasets["gowalla"].score_function(n_rr_sets=N_RR_SETS, seed=0),
    }
    refs = ReferenceCache(NAME)
    for name, k, status, score, x, y, a, b in result.answers:
        ds, f = datasets[name], fns[name]
        want = refs.get(
            f"{name}:{k!r}",
            lambda: SliceBRS(theta=0.5).solve(ds.points, f, a, b).score,
        ) + ctx.ref_offset
        if status != "ok":
            ledger.fail(f"{name} k={k}: status {status}")
        elif not same_score(score, want):
            ledger.wrong(f"{name} k={k}: score {score} != reference {want}")
        elif not same_score(rescore(ds, f, x, y, a, b), score):
            ledger.wrong(f"{name} k={k}: region re-scores differently from {score}")
        else:
            ledger.ok()
    refs.save()
