"""maxrs-columnar: SUM (MaxRS) solves on the columnar plane at 100k objects.

Why: uniform data leaves every slice to be scanned, so
``columnar.kernels`` does all the work while ``core.sweep`` and the
coverage evaluator sit idle.  This is the bypass workload for a coverage
kernel, and the one a change to the SUM kernel must not slow down.

Inputs: ``datasets.synthetic.uniform_dataset`` with 100 000 objects in a
10 000 x 10 000 space at a fixed seed.  The run's seed draws five weight
fields of integers from 1 to 8 (every route's sum is then exact in
float64) and the order of a fixed set of ``k*q`` queries: for k in
{1, 2, 5}, the 36 sizes ``k * (1 + 0.001 j)``, j = 0..35, query j on
field ``j mod 5``.  How fast a solve prunes depends on its weight field;
with one field per run, a run's p90 moved by up to 30% either side of
the median from one seed to the next, and five fields average that out.

Each set-up builds its own ``ColumnarDataset`` from copies of the
generated coordinates, so each pays for the columns and the sorted
views its warm-up solve builds.

Reference: ``columnar_oe_maxrs`` with the same weights, compared for exact
equality, plus a re-score of each reported region with ``f.value``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

import numpy as np

from brsbench.common import Context, Ledger, Stopwatch, peak_rss_mib
from brsbench.runner import Pass

NAME = "maxrs-columnar"
#: Set-ups per untraced run (each takes a fraction of a second).
SETUP_REPEATS = 7
N_OBJECTS = 100_000
DATA_SEED = 5
KS = (1, 2, 5)
#: Weight fields per run (see the module docstring).
FIELDS = 5
WARMUP_K = 3.0


def _space() -> Any:
    from repro.geometry.rect import Rect

    return Rect(0.0, 10_000.0, 0.0, 10_000.0)


def make_inputs(ctx: Context) -> Dict[str, Any]:
    from repro.datasets.synthetic import uniform_dataset

    draws = np.random.default_rng(ctx.seed).integers(1, 9, size=(FIELDS, N_OBJECTS))
    data = uniform_dataset(N_OBJECTS, _space(), seed=DATA_SEED)
    return {"data": data, "weights": [[float(w) for w in row] for row in draws]}


def fresh(ctx: Context, inputs: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray]:
    # Copies of the generated coordinates: every set-up builds its own
    # columns and sorted views, none reuses an earlier set-up's.
    data = inputs["data"]
    return data.xs.copy(), data.ys.copy()


def setup(ctx: Context, inputs: Dict[str, Any], coords: Any, rec: Any) -> Dict[str, Any]:
    import repro
    from repro.columnar import ColumnarDataset
    from repro.datasets.registry import query_size

    data = ColumnarDataset(*coords)
    fs = [repro.SumFunction(N_OBJECTS, w) for w in inputs["weights"]]
    if rec is not None:
        rec.phase = "warmup"
    a, b = query_size(_space(), N_OBJECTS, WARMUP_K)
    repro.columnar_best_region(data, fs[0], a, b)
    return {"data": data, "fs": fs}


def close(inst: Any) -> None:
    pass


def script(ctx: Context, inputs: Any) -> List[Tuple[int, float]]:
    per_k = ctx.count(rate=1.8, reduced=1)
    rng = random.Random(ctx.seed)
    ops = [(j % FIELDS, k * (1 + 0.001 * j)) for k in KS for j in range(per_k)]
    rng.shuffle(ops)
    return ops


def execute(ctx: Context, inst: Dict[str, Any], ops: List[Tuple[int, float]], rec: Any) -> Pass:
    import repro
    from repro.datasets.registry import query_size

    data, fs = inst["data"], inst["fs"]
    sized = [(field, query_size(_space(), N_OBJECTS, k)) for field, k in ops]
    results = []
    watch = Stopwatch(ctx.calibrator)
    watch.begin()
    for field, (a, b) in sized:
        watch.start()
        res = repro.columnar_best_region(data, fs[field], a, b)
        watch.stop("cold")
        watch.calibrate()
        results.append(res)
    watch.end()
    rss = peak_rss_mib()
    counts = {
        "columnar_slabs": sum(r.stats.n_slabs for r in results),
        "columnar_slabs_searched": sum(r.stats.n_slabs_searched for r in results),
        "columnar_candidates": sum(r.stats.n_candidates for r in results),
    }
    answers = [
        (field, res.status, res.score, res.point.x, res.point.y, a, b)
        for (field, (a, b)), res in zip(sized, results)
    ]
    return Pass(watch=watch, n_ops=len(ops), answers=answers, rss_mib=rss, counts=counts)


def check(ctx: Context, inputs: Dict[str, Any], result: Pass, ledger: Ledger) -> None:
    import repro

    data, weights = inputs["data"], inputs["weights"]
    fs = [repro.SumFunction(N_OBJECTS, w) for w in weights]
    for field, status, score, x, y, a, b in result.answers:
        f = fs[field]
        want = repro.columnar_oe_maxrs(data, a, b, weights=weights[field]).score + ctx.ref_offset
        inside = (
            (data.xs > x - b / 2) & (data.xs < x + b / 2)
            & (data.ys > y - a / 2) & (data.ys < y + a / 2)
        )
        if status != "ok":
            ledger.fail(f"field {field} a={a} b={b}: status {status}")
        elif score != want:
            ledger.wrong(f"field {field} a={a} b={b}: score {score} != reference {want}")
        elif f.value([int(i) for i in np.flatnonzero(inside)]) != score:
            ledger.wrong(f"field {field} a={a} b={b}: region re-scores differently from {score}")
        else:
            ledger.ok()
