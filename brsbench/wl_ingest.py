"""serve-ingest: live ingest into a served dataset while a panel is re-asked.

Why: the only workload where ``ingest``, ``index`` inserts and the write
side of ``serve.cache`` and ``serve.store`` run.  A read-side gain that
costs writes (for example serving from columns that must be rebuilt on
every ``mutation_seq``) shows here.

Set-up: an in-process ``AsyncServeEngine`` (2 workers, 4 shards) on
``yelp_like`` with a synchronous ``IngestPipeline`` attached to its store
and cache.  Flush policy: the write-ahead log is fsync'd on every append,
which is the pipeline's durability contract, so write latency includes
one fsync per batch.

Inputs: the space is cut into a 5 x 4 panel of focus tiles, each with a
seeded 200 x 200 hot box strictly inside it.  Each cycle:

* appends one regional batch at one tile's hot box: 5 seeded inserts
  (1-3 tags each) plus deletes of the 5 objects this workload inserted at
  that box on its previous visit, so the dataset size stays level (the
  warm-up visits every box once, insert-only);
* re-asks every tile of the panel.  Tiles the batch's bounding box
  touches (closed test) are cold; untouched tiles are warm.  The split is
  decided from the batch, not from what the cache did, so over-eviction
  shows as slower warm queries.

Every tile is visited equally often, in a seeded order.

Reference: the harness keeps its own model of the dataset (initial
objects, plus inserts, minus deletes) and solves each cold tile with
in-process ``best_region`` over the model's focus subset; warm answers
must equal the tile's reference at its current model version.  Every
reported region is re-scored over the model, writes must become visible
with the model's alive set, and the size must stay level.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Tuple

from brsbench.common import (
    WORK, Context, Ledger, Stopwatch, parse_prometheus, peak_rss_mib, same_score,
)
from brsbench.runner import Pass

NAME = "serve-ingest"
#: Set-ups per untraced run (their spread is small).
SETUP_REPEATS = 3
DATASET = "yelp"
COLS, ROWS = 5, 4
BOX = 200.0
N_INSERTS = 5
VOCAB = 60
#: k per tile (cycled): rectangle sides are sqrt(k) unit queries.
TILE_KS = (1.0, 2.0, 5.0)

Box = Tuple[float, float, float, float]


def _tiles(space: Any) -> List[Box]:
    w = (space.x_max - space.x_min) / COLS
    h = (space.y_max - space.y_min) / ROWS
    return [
        (space.x_min + c * w, space.x_min + (c + 1) * w,
         space.y_min + r * h, space.y_min + (r + 1) * h)
        for r in range(ROWS) for c in range(COLS)
    ]


def make_inputs(ctx: Context) -> Dict[str, Any]:
    from repro.datasets.registry import yelp_like

    ds = yelp_like()
    tiles = _tiles(ds.space)
    rng = random.Random(ctx.seed)
    boxes = []
    for x0, x1, y0, y1 in tiles:
        bx = rng.uniform(x0 + 1, x1 - 1 - BOX)
        by = rng.uniform(y0 + 1, y1 - 1 - BOX)
        boxes.append((bx, bx + BOX, by, by + BOX))
    unit = math.sqrt((ds.space.width * ds.space.height) / len(ds.points))
    sizes = [
        float(round(unit * math.sqrt(TILE_KS[t % len(TILE_KS)])))
        for t in range(len(tiles))
    ]
    visits = ctx.count(rate=0.25, reduced=1)
    order = [t for t in range(len(tiles)) for _ in range(visits)]
    rng.shuffle(order)

    def inserts(tile: int) -> List[Tuple[float, float, List[int]]]:
        x0, x1, y0, y1 = boxes[tile]
        return [
            (rng.uniform(x0, x1), rng.uniform(y0, y1),
             sorted(rng.sample(range(VOCAB), rng.randint(1, 3))))
            for _ in range(N_INSERTS)
        ]

    warmup = [(t, inserts(t)) for t in range(len(tiles))]
    cycles = [(t, inserts(t)) for t in order]
    return {
        "dataset": ds, "tiles": tiles, "sizes": sizes,
        "warmup": warmup, "cycles": cycles,
    }


def fresh(ctx: Context, inputs: Any) -> None:
    return None


def script(ctx: Context, inputs: Dict[str, Any]) -> List[Tuple[int, List[Any]]]:
    return inputs["cycles"]


class Instance:
    """Engine + store + cache + pipeline, and the insert ids per tile."""

    def __init__(self, inputs: Dict[str, Any], wal_path: Any, rec: Any) -> None:
        from repro.ingest import IngestLog, IngestPipeline, live_from_diversity
        from repro.serve.aio import AsyncServeEngine
        from repro.serve.cache import ResultCache
        from repro.serve.model import QueryRequest
        from repro.serve.store import DatasetStore

        ds = inputs["dataset"]
        live = live_from_diversity(ds)
        self.store = DatasetStore()
        points, _, fn = live.snapshot()
        self.store.add_points(DATASET, points, fn, fn_key="coverage", space=ds.space)
        self.cache = ResultCache()
        self.engine = AsyncServeEngine(self.store, cache=self.cache).start_background()
        self.pipe = IngestPipeline(
            live, IngestLog(wal_path), store=self.store, cache=self.cache,
            dataset_id=DATASET, registry=self.engine.registry,
        )
        self.requests = [
            QueryRequest(dataset=DATASET, a=size, b=size, focus=tile)
            for tile, size in zip(inputs["tiles"], inputs["sizes"])
        ]
        self.last_ids: Dict[int, List[int]] = {}
        if rec is not None:
            rec.phase = "warmup"
        for tile, ins in inputs["warmup"]:
            self.append(tile, ins)
        for request in self.requests:
            self.engine.query(request, timeout=300)

    def events(self, tile: int, ins: List[Any]) -> Tuple[List[Any], List[int]]:
        from repro.ingest.events import Delete, Insert

        deletes = [Delete(i) for i in self.last_ids.get(tile, [])]
        first = self.pipe.live.n_total
        self.last_ids[tile] = list(range(first, first + len(ins)))
        return deletes + [Insert(x, y, payload=tags) for x, y, tags in ins], [
            d.obj_id for d in deletes
        ]

    def append(self, tile: int, ins: List[Any]) -> Any:
        events, _ = self.events(tile, ins)
        return self.pipe.append(events)

    def close(self) -> None:
        self.pipe.close()
        self.engine.close()


def setup(ctx: Context, inputs: Dict[str, Any], prepared: Any, rec: Any) -> Instance:
    folder = WORK / "ingest"
    folder.mkdir(parents=True, exist_ok=True)
    wal = folder / "wal.jsonl"
    if wal.exists():
        wal.unlink()
    return Instance(inputs, wal, rec)


def close(inst: Instance) -> None:
    inst.close()


def batch_box(inst: Instance, tile: int, ins: List[Any], deleted: List[int]) -> Box:
    xs = [x for x, _, _ in ins] + [inst.pipe.live.point_of(i).x for i in deleted]
    ys = [y for _, y, _ in ins] + [inst.pipe.live.point_of(i).y for i in deleted]
    return min(xs), max(xs), min(ys), max(ys)


def touches(box: Box, focus: Box) -> bool:
    """Closed rectangle intersection, the cache's regional test."""
    return box[0] <= focus[1] and focus[0] <= box[1] and box[2] <= focus[3] and focus[2] <= box[3]


def split(box: Box, tiles: List[Box]) -> List[bool]:
    """Per tile: is it cold (touched by the batch) after this batch?"""
    return [touches(box, tile) for tile in tiles]


def _counts(inst: Instance) -> Dict[str, int]:
    values = parse_prometheus(inst.engine.prometheus_text())
    stats = inst.cache.stats
    return {
        "slabs": int(values.get("brs_slabs_total", 0)),
        "slabs_searched": int(values.get("brs_slabs_searched_total", 0)),
        "candidates": int(values.get("brs_candidates_total", 0)),
        "pushes": int(values.get("brs_sweep_pushes_total", 0)),
        "exact_solves": int(values.get("brs_serve_exact_solves_total", 0)),
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "cache_evictions": stats.evictions,
        "cache_invalidations": stats.invalidations,
        "wal_batches": int(inst.pipe.log.last_seq) + 1,
    }


def execute(ctx: Context, inst: Instance, cycles: List[Any], rec: Any) -> Pass:
    tiles = [r.focus for r in inst.requests]
    before = _counts(inst)
    log: List[Any] = []
    watch = Stopwatch(ctx.calibrator)
    watch.begin()
    for tile, ins in cycles:
        events, deleted = inst.events(tile, ins)
        box = batch_box(inst, tile, ins, deleted)
        if rec is not None:
            rec.batch_box = box
        watch.start()
        batch = inst.pipe.append(events)
        watch.stop("write")
        hot = split(box, tiles)
        responses = []
        for request, is_cold in zip(inst.requests, hot):
            watch.start()
            response = inst.engine.query(request, timeout=300)
            watch.stop("cold" if is_cold else "warm")
            responses.append(response)
        log.append((tile, ins, deleted, batch.batch_id, hot, responses))
        watch.calibrate()
    watch.end()
    rss = peak_rss_mib()
    after = _counts(inst)
    answers = []
    for tile, ins, deleted, batch_id, hot, responses in log:
        state = inst.pipe.batch_status(batch_id).state
        answers.append((
            tile, deleted, state, hot,
            [(r.status, r.score, r.center, r.object_ids) for r in responses],
        ))
    answers.append(("final", inst.pipe.live.n_alive, inst.pipe.live.alive_ids()))
    n_ops = len(cycles) * (1 + len(tiles))
    return Pass(
        watch=watch, n_ops=n_ops, answers=answers, rss_mib=rss,
        counts={k: after[k] - before[k] for k in after},
    )


class Model:
    """The harness's own account of the dataset: id -> (x, y, tags)."""

    def __init__(self, ds: Any) -> None:
        self.objects = {
            i: (p.x, p.y, frozenset(tags))
            for i, (p, tags) in enumerate(zip(ds.points, ds.tag_sets))
        }
        self.next_id = len(ds.points)
        self.last_ids: Dict[int, List[int]] = {}

    def apply(self, tile: int, ins: List[Any]) -> List[int]:
        deleted = self.last_ids.get(tile, [])
        for i in deleted:
            del self.objects[i]
        ids = list(range(self.next_id, self.next_id + len(ins)))
        for i, (x, y, tags) in zip(ids, ins):
            self.objects[i] = (x, y, frozenset(tags))
        self.next_id += len(ins)
        self.last_ids[tile] = ids
        return deleted

    def focus_ids(self, focus: Box) -> List[int]:
        x0, x1, y0, y1 = focus
        return sorted(
            i for i, (x, y, _) in self.objects.items()
            if x0 < x < x1 and y0 < y < y1
        )


def check(ctx: Context, inputs: Dict[str, Any], result: Pass, ledger: Ledger) -> None:
    from repro.core.brs import best_region
    from repro.functions.coverage import CoverageFunction
    from repro.geometry.point import Point

    model = Model(inputs["dataset"])
    for tile, ins in inputs["warmup"]:
        model.apply(tile, ins)
    level = len(model.objects)
    tiles, sizes = inputs["tiles"], inputs["sizes"]
    version = [0] * len(tiles)
    refs: Dict[Tuple[int, int], float] = {}
    cycles = inputs["cycles"]
    *per_cycle, final = result.answers
    for (tile, ins), (_, deleted, state, hot, responses) in zip(cycles, per_cycle):
        expect_deleted = model.apply(tile, ins)
        if state != "visible" or deleted != expect_deleted:
            ledger.fail(f"batch at tile {tile}: state {state}, deleted {deleted}")
        else:
            ledger.ok()
        for t, is_cold in enumerate(hot):
            if is_cold:
                version[t] += 1
        for t, (status, score, center, object_ids) in enumerate(responses):
            tag = f"tile {t} ({'cold' if hot[t] else 'warm'})"
            if status != "ok":
                ledger.fail(f"{tag}: status {status}")
                continue
            ids = model.focus_ids(tiles[t])
            fn = CoverageFunction([model.objects[i][2] for i in ids])
            a = b = sizes[t]
            key = (t, version[t])
            if key not in refs:
                points = [Point(model.objects[i][0], model.objects[i][1]) for i in ids]
                refs[key] = best_region(points, fn, a, b).score
            want = refs[key] + ctx.ref_offset
            x, y = center
            inside = [
                j for j, i in enumerate(ids)
                if x - b / 2 < model.objects[i][0] < x + b / 2
                and y - a / 2 < model.objects[i][1] < y + a / 2
            ]
            if not same_score(score, want):
                ledger.wrong(f"{tag}: score {score} != reference {want}")
            elif sorted(ids[j] for j in inside) != sorted(object_ids) or not same_score(
                fn.value(inside), score
            ):
                ledger.wrong(f"{tag}: region re-scores differently from {score}")
            else:
                ledger.ok()
    _, n_alive, alive_ids = final
    if n_alive != level or sorted(alive_ids) != sorted(model.objects):
        ledger.wrong(f"final alive set differs from the model ({n_alive} vs {level})")
