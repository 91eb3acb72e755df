"""serve-explore: one analyst's refine-and-rerun loop over HTTP.

Why: the only workload that runs transport, admission, the fair queue,
the cache hit path, and ``QuerySolver``'s shard and focus solve.  HTTP
hardening and collapsing the duplicate serve engines land on those
layers; a faster solver kernel on the serving path shows here as cold
latency.

Inputs: ``yelp_like`` and ``gowalla_like`` at their registry seeds,
written as JSON dataset files; ``repro-brs serve`` runs unmodified in
its own process on them (default engine: async, 2 workers, 4 shards).
The client is ``ServeClient``, one connection at a time, in a closed
loop: each cold request is followed by a warm one.

* Cold requests ask a rectangle for the first time.  They are a fixed
  set of 52 per dataset in which every request has its own ``k`` (so its
  own cache key) near 1, 2 or 5; every fourth is unfocused and the others
  carry a focus window of 15%, 25% or 40% of the space's extent around a
  fixed anchor object.  The seed sets their order.  A fixed set keeps
  every seed's mix the same and lets reference answers be reused.
* Warm requests re-ask a rectangle the session already had answered,
  picked by the seed among those answered so far.

Reference: in-process ``best_region`` (object-path SliceBRS) over the
focus subset of the served dataset, plus a re-score of every reported
region; warm answers must also equal their cold answer.
"""

from __future__ import annotations

import os
import random
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from brsbench.common import (
    BENCH_DIR, ROOT, WORK, Context, Ledger, ReferenceCache, Stopwatch,
    parse_prometheus, peak_rss_mib, same_score,
)
from brsbench.runner import Pass

NAME = "serve-explore"
#: Set-ups per untraced run (each starts a server; their spread is small).
SETUP_REPEATS = 3
DATASETS = ("yelp", "gowalla")
KS = (1.0, 2.0, 5.0)
FOCUS_SIZES = (0.15, 0.25, 0.4)
N_RR_SETS = 2000  # what the server builds for an influence file
START_TIMEOUT = 120.0

Focus = Optional[Tuple[float, float, float, float]]
Op = Tuple[str, str, float, Focus]  # (kind, dataset, k, focus)


def _generate() -> Dict[str, Any]:
    from repro.datasets.registry import gowalla_like, yelp_like

    return {"yelp": yelp_like(), "gowalla": gowalla_like()}


def _functions(datasets: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "yelp": datasets["yelp"].score_function(),
        "gowalla": datasets["gowalla"].score_function(n_rr_sets=N_RR_SETS, seed=0),
    }


def make_inputs(ctx: Context) -> Dict[str, Any]:
    from repro.io.json_io import save_dataset

    datasets = _generate()
    folder = WORK / "explore"
    folder.mkdir(parents=True, exist_ok=True)
    files = []
    for name in DATASETS:
        path = folder / f"{name}.json"
        save_dataset(datasets[name], path)
        files.append(str(path))
    return {"datasets": datasets, "files": files}


def fresh(ctx: Context, inputs: Any) -> None:
    return None


def _pool(name: str, ds: Any, size: int) -> List[Tuple[float, Focus]]:
    """The dataset's fixed set of (k, focus) cold requests."""
    rng = random.Random(f"pool:{name}")
    space = ds.space
    width, height = space.x_max - space.x_min, space.y_max - space.y_min
    pool: List[Tuple[float, Focus]] = []
    for j in range(size):
        k = round(KS[j % len(KS)] * (1 + 0.004 * j), 6)
        if j % 4 == 3:
            pool.append((k, None))
            continue
        frac = FOCUS_SIZES[(j // 4) % len(FOCUS_SIZES)]
        p = ds.points[rng.randrange(len(ds.points))]
        half_w, half_h = frac * width / 2, frac * height / 2
        pool.append((k, (
            float(round(max(space.x_min, p.x - half_w))),
            float(round(min(space.x_max, p.x + half_w))),
            float(round(max(space.y_min, p.y - half_h))),
            float(round(min(space.y_max, p.y + half_h))),
        )))
    return pool


def script(ctx: Context, inputs: Dict[str, Any]) -> List[Op]:
    per_dataset = ctx.count(rate=2.6, reduced=4)
    rng = random.Random(ctx.seed)
    colds = [
        (name, k, focus)
        for name in DATASETS
        for k, focus in _pool(name, inputs["datasets"][name], per_dataset)
    ]
    rng.shuffle(colds)
    ops: List[Op] = []
    for i, (name, k, focus) in enumerate(colds):
        ops.append(("cold", name, k, focus))
        again = colds[rng.randrange(i + 1)]
        ops.append(("warm", *again))
    return ops


class Server:
    """``repro-brs serve`` in its own process, with a client bound to it."""

    def __init__(self, files: List[str], trace_out: Optional[str], warmup_routes: int) -> None:
        from repro.serve.client import ServeClient

        WORK.mkdir(parents=True, exist_ok=True)
        self.log_path = WORK / "explore" / "server.log"
        self.trace_out = trace_out
        cmd = [sys.executable, "-u", str(BENCH_DIR / "serve_launcher.py")]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out, "--warmup-routes", str(warmup_routes)]
        cmd += ["--", *files, "--port", "0"]
        self._log = open(self.log_path, "w", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, cwd=str(ROOT), env=env
        )
        deadline = time.perf_counter() + START_TIMEOUT
        url = None
        while url is None:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.close()
                raise RuntimeError(
                    f"server did not start: {self.log_path.read_text()[-2000:]}"
                )
            found = re.search(r"listening on (http://\S+)", self.log_path.read_text())
            if found:
                url = found.group(1)
            else:
                time.sleep(0.005)
        self.client = ServeClient(url, timeout=120.0)
        while not self.client.healthy():
            if time.perf_counter() > deadline:
                self.close()
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)

    def peak_rss_mib(self) -> float:
        return peak_rss_mib(self.proc.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()


def _request(name: str, k: float, focus: Focus) -> Any:
    from repro.serve.model import QueryRequest

    return QueryRequest(dataset=name, k=k, focus=focus)


WARMUP: Tuple[Tuple[str, float, Focus], ...] = (
    ("yelp", 3.3, None),
    ("gowalla", 3.3, None),
    ("yelp", 1.7, (3000.0, 7000.0, 3000.0, 7000.0)),
    ("gowalla", 1.7, (3000.0, 7000.0, 3000.0, 7000.0)),
    ("yelp", 3.3, None),
)


def setup(ctx: Context, inputs: Dict[str, Any], prepared: Any, rec: Any) -> Server:
    trace_out = str(WORK / "explore" / "server-trace.json") if rec is not None else None
    server = Server(inputs["files"], trace_out, warmup_routes=len(WARMUP))
    for name, k, focus in WARMUP:
        server.client.query(_request(name, k, focus))
    return server


def close(server: Server) -> None:
    server.close()


_COUNTERS = {
    "slabs": "brs_slabs_total",
    "slabs_searched": "brs_slabs_searched_total",
    "candidates": "brs_candidates_total",
    "pushes": "brs_sweep_pushes_total",
    "exact_solves": "brs_serve_exact_solves_total",
}


def _counters(server: Server) -> Dict[str, int]:
    """Work counters from ``/metrics`` and cache counters from ``/v1/stats``."""
    values = parse_prometheus(server.client.metrics_text())
    out = {key: int(values.get(metric, 0)) for key, metric in _COUNTERS.items()}
    cache = server.client.stats()["cache"]
    for key in ("hits", "misses", "evictions", "invalidations"):
        out[f"cache_{key}"] = int(cache.get(key, 0))
    return out


def execute(ctx: Context, server: Server, ops: List[Op], rec: Any) -> Pass:
    from repro.serve.client import ServeClientError

    before = _counters(server)
    requests = [_request(name, k, focus) for _, name, k, focus in ops]
    responses: List[Any] = []
    watch = Stopwatch(ctx.calibrator)
    latencies: List[float] = []
    watch.begin()
    for (kind, _, _, _), request in zip(ops, requests):
        watch.start()
        try:
            response = server.client.query(request)
        except ServeClientError as exc:
            response = exc
        watch.stop(kind)
        latencies.append(watch.wall[kind][-1])
        watch.calibrate()
        responses.append(response)
    watch.end()
    after = _counters(server)
    rss = server.peak_rss_mib()
    counts = {key: after[key] - before[key] for key in after}
    answers = []
    for (kind, name, k, focus), response in zip(ops, responses):
        if isinstance(response, Exception):
            answers.append((kind, name, k, focus, "transport", str(response)))
        else:
            answers.append((
                kind, name, k, focus, response.status, response.canonical_bytes(),
            ))
    server_rec = None
    if rec is not None:
        from brsbench import tracing

        server.close()
        server_rec = tracing.load(server.trace_out)
    return Pass(
        watch=watch, n_ops=len(ops), answers=answers,
        rss_mib=rss, counts=counts, client_latencies=latencies,
        server_rec=server_rec,
    )


def _reference(ds: Any, fn: Any, a: float, b: float, focus: Focus) -> float:
    from repro.core.brs import best_region
    from repro.functions.reduced import reduce_over_cover

    ids = _focus_ids(ds, focus)
    points = [ds.points[i] for i in ids]
    sub = reduce_over_cover(fn, [[i] for i in ids])
    return best_region(points, sub, a, b).score


def _focus_ids(ds: Any, focus: Focus) -> List[int]:
    if focus is None:
        return list(range(len(ds.points)))
    x0, x1, y0, y1 = focus
    return [i for i, p in enumerate(ds.points) if x0 < p.x < x1 and y0 < p.y < y1]


def check(ctx: Context, inputs: Dict[str, Any], result: Pass, ledger: Ledger) -> None:
    import json

    from repro.io.json_io import load_dataset
    from repro.serve.model import quantize

    # The served snapshot: the files the server loaded, read back the same
    # way (a JSON round trip rebuilds the social graph, so RR sets drawn
    # over it differ from the generator's in-memory graph).
    datasets = {
        name: load_dataset(path) for name, path in zip(DATASETS, inputs["files"])
    }
    fns = _functions(datasets)
    refs = ReferenceCache(NAME)
    first: Dict[Tuple[str, float, Focus], bytes] = {}
    for kind, name, k, focus, status, body in result.answers:
        tag = f"{kind} {name} k={k} focus={focus}"
        if status != "ok":
            ledger.fail(f"{tag}: {status} {body!r}"[:300])
            continue
        doc = json.loads(body)
        ds, fn = datasets[name], fns[name]
        a, b = ds.query(k)
        if (doc["a"], doc["b"]) != (quantize(a), quantize(b)):
            ledger.wrong(f"{tag}: served size {doc['a']}x{doc['b']} for k={k}")
            continue
        want = refs.get(
            f"{name}:{k!r}:{focus!r}",
            lambda: _reference(ds, fn, doc["a"], doc["b"], focus),
        ) + ctx.ref_offset
        x, y = doc["center"]
        half_a, half_b = doc["a"] / 2, doc["b"] / 2
        inside = [
            i for i in _focus_ids(ds, focus)
            if x - half_b < ds.points[i].x < x + half_b
            and y - half_a < ds.points[i].y < y + half_a
        ]
        key = (name, k, focus)
        if not same_score(doc["score"], want):
            ledger.wrong(f"{tag}: score {doc['score']} != reference {want}")
        elif sorted(inside) != sorted(doc["object_ids"]) or not same_score(
            fn.value(inside), doc["score"]
        ):
            ledger.wrong(f"{tag}: region re-scores differently from {doc['score']}")
        elif kind == "warm" and first.get(key, body) != body:
            ledger.wrong(f"{tag}: re-ask answered differently from the first ask")
        else:
            ledger.ok()
        first.setdefault(key, body)
    refs.save()
