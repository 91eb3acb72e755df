"""Traced runs: time calls into each layer's public functions from outside.

The program is not modified.  :func:`install` wraps each entry point in
:data:`TARGETS` where its callers look it up (module attributes in every
loaded ``repro`` module that hold the original object, or the method on
its class), and records into a :class:`Recorder`:

* per (phase, span name): call count, busy time, and self time (busy time
  minus the time of wrapped calls made inside it, per thread);
* per (phase, span name, parent span name): call counts, for "calls of X
  made from Y" counts such as shard solves under the served solve;
* raw duration samples for the few names reported as percentiles;
* counters fed by argument/result hooks (kernel input bytes, cache hits,
  eviction precision, queue wait).

Everything stays in memory and is written out at the end; the per-layer
metrics are computed by :func:`layer_metrics`.  End-to-end metrics never
come from a traced run.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from brsbench.common import percentile

# Durations for these span names are kept sample by sample (for p50s).
SAMPLED = {"serve.aio.http.route", "serve.cache.get"}


class Recorder:
    """In-memory span aggregates, counters and samples, keyed by phase."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.agg: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        self.parent_calls: Dict[Tuple[str, str, str], int] = defaultdict(int)
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.samples: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        self.batch_box: Optional[Tuple[float, float, float, float]] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._admitted: Dict[int, Tuple[str, float]] = {}
        self._routes_seen = 0
        self.warmup_routes: Optional[int] = None

    # -- recording -------------------------------------------------------

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> List[Any]:
        stack = self._stack()
        parent = stack[-1][0] if stack else ""
        frame = [name, time.perf_counter(), 0.0, parent, self.phase]
        stack.append(frame)
        return frame

    def leave(self, frame: List[Any]) -> float:
        dur = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += dur
        name, phase, parent = frame[0], frame[4], frame[3]
        with self._lock:
            cell = self.agg[(phase, name)]
            cell[0] += 1
            cell[1] += dur
            cell[2] += dur - frame[2]
            self.parent_calls[(phase, name, parent)] += 1
            if name in SAMPLED:
                self.samples[(phase, name)].append(dur)
        return dur

    def count(self, name: str, n: float = 1.0) -> None:
        with self._lock:
            self.counters[(self.phase, name)] += n

    # -- serialisation (the server process writes its recorder out) -------

    def to_json(self) -> Dict[str, Any]:
        return {
            "agg": [[p, n, *v] for (p, n), v in self.agg.items()],
            "parent_calls": [
                [p, n, par, c] for (p, n, par), c in self.parent_calls.items()
            ],
            "counters": [[p, n, v] for (p, n), v in self.counters.items()],
            "samples": [[p, n, v] for (p, n), v in self.samples.items()],
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "Recorder":
        rec = cls()
        for p, n, c, total, self_t in doc["agg"]:
            rec.agg[(p, n)] = [c, total, self_t]
        for p, n, par, c in doc["parent_calls"]:
            rec.parent_calls[(p, n, par)] = c
        for p, n, v in doc["counters"]:
            rec.counters[(p, n)] = v
        for p, n, v in doc["samples"]:
            rec.samples[(p, n)] = list(v)
        return rec

    def merge(self, other: "Recorder") -> None:
        for key, (c, total, self_t) in other.agg.items():
            cell = self.agg[key]
            cell[0] += c
            cell[1] += total
            cell[2] += self_t
        for key, c in other.parent_calls.items():
            self.parent_calls[key] += c
        for key, v in other.counters.items():
            self.counters[key] += v
        for key, v in other.samples.items():
            self.samples[key].extend(v)

    # -- queries ---------------------------------------------------------

    def calls(self, name: str, phase: str = "timed") -> int:
        return int(self.agg.get((phase, name), [0, 0.0, 0.0])[0])

    def busy(self, name: str, phase: str = "timed") -> float:
        return float(self.agg.get((phase, name), [0, 0.0, 0.0])[1])

    def self_time(self, name: str, phase: str = "timed") -> float:
        return float(self.agg.get((phase, name), [0, 0.0, 0.0])[2])

    def calls_under(self, name: str, parent: str, phase: str = "timed") -> int:
        return int(self.parent_calls.get((phase, name, parent), 0))

    def busy_under(self, name: str, parent: str, phase: str = "timed") -> float:
        """Busy time of ``name`` calls made directly under ``parent``,
        pro rata by call count (all calls of one name cost alike here)."""
        n = self.calls(name, phase)
        return self.busy(name, phase) * self.calls_under(name, parent, phase) / n if n else 0.0

    def counter(self, name: str, phase: str = "timed") -> float:
        return float(self.counters.get((phase, name), 0.0))

    def sampled(self, name: str, phase: str = "timed") -> List[float]:
        return list(self.samples.get((phase, name), []))


# -- hooks (argument/result inspection) --------------------------------------


def _nbytes(args: Sequence[Any]) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in args)


def _kernel_pre(rec: Recorder, args: tuple, kwargs: dict) -> None:
    rec.count("columnar.kernels.bytes_in", _nbytes(args) + _nbytes(list(kwargs.values())))


def _cache_get_post(rec: Recorder, state: Any, result: Any) -> None:
    rec.count("serve.cache.hits" if result is not None else "serve.cache.misses")


def _invalidate_pre(rec: Recorder, args: tuple, kwargs: dict) -> Any:
    cache, dataset = args[0], args[1]
    with cache._lock:
        return cache, dataset, [k for k in cache._data if k.dataset == dataset]


def _invalidate_post(rec: Recorder, state: Any, result: Any) -> None:
    """Eviction precision: of the entries this call evicted, how many had
    a focus the batch's own bounding box touches (closed test)."""
    cache, dataset, before = state
    with cache._lock:
        evicted = [k for k in before if k not in cache._data]
    rec.count("serve.cache.evicted", len(evicted))
    box = rec.batch_box
    if box is None:
        return
    x0, x1, y0, y1 = box
    rec.count("serve.cache.evicted_touched", sum(
        1 for key in evicted
        if key.focus is not None
        and x0 <= key.focus[1] and key.focus[0] <= x1
        and y0 <= key.focus[3] and key.focus[2] <= y1
    ))


def _submit_post(rec: Recorder, state: Any, future: Any) -> None:
    if not future.done():
        with rec._lock:
            rec._admitted[id(future)] = (rec.phase, time.perf_counter())


def _run_spec_pre(rec: Recorder, args: tuple, kwargs: dict) -> None:
    planned = args[2] if len(args) > 2 else kwargs["planned"]
    with rec._lock:
        admitted = rec._admitted.pop(id(planned.future), None)
    if admitted is not None:
        phase, t0 = admitted
        with rec._lock:
            rec.samples[(phase, "serve.aio.engine.queue_wait")].append(
                time.perf_counter() - t0
            )


def _columns_pre(rec: Recorder, args: tuple, kwargs: dict) -> None:
    entry = args[0]
    if entry._columns is None or entry._columns_key != (
        entry.version, entry.mutation_seq
    ):
        rec.count("serve.store.columns_builds")


def _route_pre(rec: Recorder, args: tuple, kwargs: dict) -> None:
    """Server-side phase switch: the first ``warmup_routes`` query
    requests are the harness's warm-up pass, the rest are timed."""
    method, path = args[1], args[2]
    if method == "POST" and path == "/v1/query":
        with rec._lock:
            rec._routes_seen += 1
            if rec.warmup_routes is not None:
                rec.phase = (
                    "warmup" if rec._routes_seen <= rec.warmup_routes else "timed"
                )


# -- targets -----------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    Attributes:
        module: module defining it.
        attr: ``name`` or ``Class.method``.
        span: span name (the repo's module path plus the function).
        kind: ``"span"`` (timed, on the span stack), ``"count"`` (call
            count only, for the hottest calls), or ``"async"``.
        pre / post: optional argument and result hooks.
    """

    module: str
    attr: str
    span: str
    kind: str = "span"
    pre: Optional[Callable[..., Any]] = None
    post: Optional[Callable[..., Any]] = None


TARGETS: Tuple[Target, ...] = (
    Target("repro.core.sweep", "scan_slabs", "core.sweep.scan_slabs"),
    Target("repro.core.sweep", "search_slab", "core.sweep.search_slab"),
    Target("repro.core.slicebrs", "SliceBRS.solve", "core.slicebrs.solve"),
    Target("repro.functions.coverage", "CoverageEvaluator.push",
           "functions.coverage.evaluator_ops", kind="count"),
    Target("repro.functions.coverage", "CoverageEvaluator.pop",
           "functions.coverage.evaluator_ops", kind="count"),
    Target("repro.core.coverbrs", "CoverBRS.solve", "core.coverbrs.solve"),
    Target("repro.cover.quadtree_cover", "select_cover", "cover.select"),
    Target("repro.columnar.solvers", "columnar_best_region",
           "columnar.solvers.best_region"),
    Target("repro.columnar.solvers", "columnar_slicebrs",
           "columnar.solvers.slicebrs"),
    Target("repro.columnar.kernels", "grouped_sweep",
           "columnar.kernels.grouped_sweep", pre=_kernel_pre),
    Target("repro.columnar.kernels", "maximal_intervals",
           "columnar.kernels.maximal_intervals"),
    Target("repro.columnar.kernels", "assign_slices",
           "columnar.kernels.assign_slices", pre=_kernel_pre),
    Target("repro.functions.weighted_sum", "SumFunction.value",
           "functions.weighted_sum.value"),
    Target("repro.influence.ris", "generate_rr_sets", "influence.ris.rr_sets"),
    Target("repro.io.json_io", "load_dataset", "io.json_io.load"),
    Target("repro.serve.aio.http", "AsyncBRSServer._route",
           "serve.aio.http.route", kind="async", pre=_route_pre),
    Target("repro.serve.aio.engine", "AsyncServeEngine.submit_threadsafe",
           "serve.aio.engine.submit", post=_submit_post),
    Target("repro.serve.aio.engine", "AsyncServeEngine._run_spec",
           "serve.aio.engine.run_spec", pre=_run_spec_pre),
    Target("repro.serve.cache", "ResultCache.get", "serve.cache.get",
           post=_cache_get_post),
    Target("repro.serve.cache", "ResultCache.invalidate_region",
           "serve.cache.invalidate_region", pre=_invalidate_pre,
           post=_invalidate_post),
    Target("repro.serve.solvecore", "QuerySolver.solve", "serve.solvecore.solve"),
    Target("repro.serve.model", "QueryResponse.to_json", "serve.model.to_json"),
    Target("repro.serve.store", "DatasetStore.apply_regional",
           "serve.store.apply_regional"),
    Target("repro.serve.store", "ServedDataset.columns", "serve.store.columns",
           pre=_columns_pre),
    Target("repro.ingest.pipeline", "IngestPipeline.append",
           "ingest.pipeline.append"),
    Target("repro.ingest.wal", "IngestLog.append_batch", "ingest.wal.append_batch"),
    Target("repro.ingest.live", "LiveDataset.apply", "ingest.live.apply"),
    Target("repro.ingest.live", "LiveDataset.snapshot", "ingest.live.snapshot"),
    Target("repro.index.rtree", "RTree.insert", "index.rtree.insert"),
    Target("repro.index.quadtree", "Quadtree.insert", "index.quadtree.insert"),
    Target("repro.index.grid", "GridIndex.insert", "index.grid.insert"),
)


def _make_wrapper(rec: Recorder, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
    name, pre, post = target.span, target.pre, target.post
    if target.kind == "count":
        def counted(*args: Any, **kwargs: Any) -> Any:
            rec.count(name)
            return fn(*args, **kwargs)
        return counted
    if target.kind == "async":
        async def awaited(*args: Any, **kwargs: Any) -> Any:
            if pre is not None:
                pre(rec, args, kwargs)
            phase = rec.phase
            t0 = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                with rec._lock:
                    cell = rec.agg[(phase, name)]
                    cell[0] += 1
                    cell[1] += dur
                    cell[2] += dur
                    if args[1] == "POST" and args[2] == "/v1/query":
                        rec.samples[(phase, name)].append(dur)
        return awaited

    def spanned(*args: Any, **kwargs: Any) -> Any:
        state = pre(rec, args, kwargs) if pre is not None else None
        frame = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(frame)
        if post is not None:
            post(rec, state, result)
        return result
    return spanned


class Installation:
    """The patches one :func:`install` made; :meth:`undo` reverts them."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Any, str, Any]] = []

    def undo(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(rec: Recorder) -> Installation:
    """Wrap every entry point in :data:`TARGETS` where its callers look it up.

    Functions are replaced in every loaded ``repro`` module whose
    attribute is the original object (``from x import f`` copies
    included); methods are replaced on their class.  Call after importing
    the program, so the copies exist to be found.
    """
    done = Installation()
    for target in TARGETS:
        module = importlib.import_module(target.module)
        if "." in target.attr:
            cls_name, meth = target.attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            done.patches.append((cls, meth, original))
            setattr(cls, meth, _make_wrapper(rec, target, original))
            continue
        original = getattr(module, target.attr)
        wrapper = _make_wrapper(rec, target, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    done.patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
    return done


def import_program() -> None:
    """Import every program module a target or caller lives in."""
    for name in (
        "repro", "repro.cli", "repro.serve.aio", "repro.serve.aio.http",
        "repro.ingest", "repro.core.coverbrs", "repro.core.slicebrs",
        "repro.cover.quadtree_cover", "repro.columnar.solvers",
        "repro.datasets.registry", "repro.io.json_io", "repro.influence.ris",
    ):
        importlib.import_module(name)


# -- per-layer metrics -------------------------------------------------------

#: name -> unit, in report order.  Every traced run reports all of them;
#: layers a workload leaves idle read 0.
LAYER_UNITS: Dict[str, str] = {
    "core.sweep.scan_slab_s": "s",
    "core.sweep.search_mr_s": "s",
    "core.sweep.slabs": "count",
    "core.sweep.slabs_searched": "count",
    "core.sweep.candidates": "count",
    "core.sweep.pushes": "count",
    "core.slicebrs.solve_s": "s",
    "core.slicebrs.slab_search_ratio": "ratio",
    "functions.coverage.evaluator_ops": "count",
    "core.coverbrs.seed_s": "s",
    "cover.select_s": "s",
    "columnar.solvers.solve_s": "s",
    "columnar.solvers.fallbacks": "count",
    "columnar.solvers.slabs": "count",
    "columnar.solvers.slabs_searched": "count",
    "columnar.solvers.candidates": "count",
    "columnar.kernels.grouped_sweep_s": "s",
    "columnar.kernels.grouped_sweep_calls": "count",
    "columnar.kernels.maximal_intervals_s": "s",
    "columnar.kernels.maximal_intervals_calls": "count",
    "columnar.kernels.assign_slices_s": "s",
    "columnar.kernels.assign_slices_calls": "count",
    "columnar.kernels.bytes_in": "bytes",
    "functions.weighted_sum.value_s": "s",
    "influence.ris.rr_sets_s": "s",
    "io.json_io.load_s": "s",
    "serve.http.transport_ms": "ms",
    "serve.aio.engine.queue_wait_p50_ms": "ms",
    "serve.aio.engine.queue_wait_p90_ms": "ms",
    "serve.cache.hit_ratio": "fraction",
    "serve.cache.lookup_us": "us",
    "serve.cache.invalidate_us": "us",
    "serve.cache.evict_precision": "fraction",
    "serve.solvecore.solve_s": "s",
    "serve.solvecore.self_s": "s",
    "serve.solvecore.shard_solves": "count",
    "serve.model.encode_us": "us",
    "serve.store.flip_ms": "ms",
    "serve.store.columns_builds": "count",
    "ingest.wal.append_ms": "ms",
    "ingest.live.apply_ms": "ms",
    "ingest.live.snapshot_ms": "ms",
    "ingest.pipeline.retries": "count",
    "index.rtree.insert_ms": "ms",
    "index.quadtree.insert_ms": "ms",
    "index.grid.insert_ms": "ms",
}

#: Entry points that must record calls on each workload (the traced-run
#: guard): a zero here means a wrapper sits at a name nobody calls.
MUST_CALL: Dict[str, Tuple[str, ...]] = {
    "coverage-exact": ("columnar.solvers.best_region", "influence.ris.rr_sets"),
    "maxrs-columnar": (
        "columnar.solvers.best_region", "columnar.solvers.slicebrs",
        "columnar.kernels.grouped_sweep", "columnar.kernels.maximal_intervals",
        "columnar.kernels.assign_slices", "functions.weighted_sum.value",
    ),
    "serve-explore": (
        "core.sweep.scan_slabs", "core.sweep.search_slab",
        "core.slicebrs.solve", "core.coverbrs.solve", "cover.select",
        "influence.ris.rr_sets", "io.json_io.load", "serve.aio.http.route",
        "serve.aio.engine.submit", "serve.aio.engine.run_spec",
        "serve.cache.get", "serve.solvecore.solve", "serve.model.to_json",
    ),
    "serve-ingest": (
        "core.slicebrs.solve", "core.coverbrs.solve", "serve.aio.engine.submit",
        "serve.aio.engine.run_spec", "serve.cache.get",
        "serve.cache.invalidate_region", "serve.solvecore.solve",
        "serve.store.apply_regional", "ingest.pipeline.append",
        "ingest.wal.append_batch", "ingest.live.apply", "ingest.live.snapshot",
        "index.rtree.insert", "index.quadtree.insert", "index.grid.insert",
    ),
}

#: Entry points that must also record calls on a workload whose solves
#: fell back from the columnar entry to object-path SliceBRS.  A columnar
#: coverage kernel behind that entry ends the fallbacks, and with them
#: this requirement.
FALLBACK_CALLS: Dict[str, Tuple[str, ...]] = {
    "coverage-exact": (
        "core.sweep.scan_slabs", "core.sweep.search_slab",
        "functions.coverage.evaluator_ops",
    ),
}

#: Names recorded in the set-up phase rather than the timed one.
SETUP_PHASE = {"influence.ris.rr_sets", "io.json_io.load"}

PHASES = ("setup", "warmup", "timed")


def fallbacks(rec: Recorder, phase: str = "timed") -> int:
    """Object-path solves made by the columnar entry point: SliceBRS calls
    made directly under ``columnar_best_region``."""
    return rec.calls_under("core.slicebrs.solve", "columnar.solvers.best_region", phase)


#: Workloads that solve on the calling thread, where the runner's metrics
#: scope sees the program's own fallback counter.
COUNTED_FALLBACKS = {"coverage-exact", "maxrs-columnar"}


def guard_calls(
    rec: Recorder, workload: str, errors: List[str], program_fallbacks: float
) -> None:
    """Fail the traced run when a wrapper that should see work saw none.

    ``program_fallbacks`` is the program's own ``brs_columnar_fallbacks_total``
    over the whole pass; on :data:`COUNTED_FALLBACKS` workloads the wrapped
    SliceBRS calls under the columnar entry must add up to it."""
    required = list(MUST_CALL.get(workload, ()))
    if fallbacks(rec):
        required += FALLBACK_CALLS.get(workload, ())
    for name in required:
        phase = "setup" if name in SETUP_PHASE else "timed"
        n = rec.calls(name, phase) or int(rec.counter(name, phase))
        if n == 0:
            errors.append(f"traced entry point {name} recorded no calls")
    recorded = sum(fallbacks(rec, phase) for phase in PHASES)
    if workload in COUNTED_FALLBACKS and recorded != program_fallbacks:
        errors.append(
            f"traced fallbacks {recorded} != program's "
            f"brs_columnar_fallbacks_total {program_fallbacks:g}"
        )


def _mean(total: float, n: int, scale: float) -> float:
    return total / n * scale if n else 0.0


def _p(values: List[float], q: float, scale: float) -> float:
    return percentile(values, q) * scale if values else 0.0


def layer_metrics(
    rec: Recorder,
    sweep_counts: Dict[str, int],
    client_latencies: Sequence[float] = (),
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced timed phase.

    ``sweep_counts`` are the paper's counters (#MS, #MSP, #DRP, pushes)
    summed from ``BRSResult.stats`` or metrics deltas, keyed ``slabs`` etc.
    for the object path and ``columnar_slabs`` etc. for the columnar one; ``client_latencies``
    are the client-side times of the timed HTTP queries, in order.
    """
    m: Dict[str, float] = {}
    m["core.sweep.scan_slab_s"] = rec.busy("core.sweep.scan_slabs")
    m["core.sweep.search_mr_s"] = rec.busy("core.sweep.search_slab")
    m["core.sweep.slabs"] = sweep_counts.get("slabs", 0)
    m["core.sweep.slabs_searched"] = sweep_counts.get("slabs_searched", 0)
    m["core.sweep.candidates"] = sweep_counts.get("candidates", 0)
    m["core.sweep.pushes"] = sweep_counts.get("pushes", 0)
    m["core.slicebrs.solve_s"] = rec.self_time("core.slicebrs.solve")
    slabs = sweep_counts.get("slabs", 0)
    m["core.slicebrs.slab_search_ratio"] = (
        sweep_counts.get("slabs_searched", 0) / slabs if slabs else 0.0
    )
    m["functions.coverage.evaluator_ops"] = rec.counter(
        "functions.coverage.evaluator_ops"
    )
    m["core.coverbrs.seed_s"] = rec.busy_under(
        "core.coverbrs.solve", "serve.solvecore.solve"
    )
    m["cover.select_s"] = rec.busy("cover.select")
    m["columnar.solvers.solve_s"] = rec.self_time(
        "columnar.solvers.best_region"
    ) + rec.self_time("columnar.solvers.slicebrs")
    m["columnar.solvers.fallbacks"] = fallbacks(rec)
    for name in ("slabs", "slabs_searched", "candidates"):
        m[f"columnar.solvers.{name}"] = sweep_counts.get(f"columnar_{name}", 0)
    for kernel in ("grouped_sweep", "maximal_intervals", "assign_slices"):
        span = f"columnar.kernels.{kernel}"
        m[f"{span}_s"] = rec.busy(span)
        m[f"{span}_calls"] = rec.calls(span)
    m["columnar.kernels.bytes_in"] = rec.counter("columnar.kernels.bytes_in")
    m["functions.weighted_sum.value_s"] = rec.busy("functions.weighted_sum.value")
    m["influence.ris.rr_sets_s"] = rec.busy("influence.ris.rr_sets", "setup")
    m["io.json_io.load_s"] = rec.busy("io.json_io.load", "setup")

    routes = rec.sampled("serve.aio.http.route")
    if routes and len(routes) == len(client_latencies):
        transport = [c - r for c, r in zip(client_latencies, routes)]
        m["serve.http.transport_ms"] = _p(transport, 50, 1e3)
    else:
        m["serve.http.transport_ms"] = 0.0
    waits = rec.sampled("serve.aio.engine.queue_wait")
    m["serve.aio.engine.queue_wait_p50_ms"] = _p(waits, 50, 1e3)
    m["serve.aio.engine.queue_wait_p90_ms"] = _p(waits, 90, 1e3)
    hits = rec.counter("serve.cache.hits")
    lookups = hits + rec.counter("serve.cache.misses")
    m["serve.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["serve.cache.lookup_us"] = _mean(
        rec.busy("serve.cache.get"), rec.calls("serve.cache.get"), 1e6
    )
    m["serve.cache.invalidate_us"] = _mean(
        rec.busy("serve.cache.invalidate_region"),
        rec.calls("serve.cache.invalidate_region"), 1e6,
    )
    evicted = rec.counter("serve.cache.evicted")
    m["serve.cache.evict_precision"] = (
        rec.counter("serve.cache.evicted_touched") / evicted if evicted else 0.0
    )
    m["serve.solvecore.solve_s"] = rec.busy("serve.solvecore.solve")
    m["serve.solvecore.self_s"] = rec.self_time("serve.solvecore.solve")
    m["serve.solvecore.shard_solves"] = rec.calls_under(
        "core.slicebrs.solve", "serve.solvecore.solve"
    )
    m["serve.model.encode_us"] = _mean(
        rec.busy("serve.model.to_json"), rec.calls("serve.model.to_json"), 1e6
    )
    m["serve.store.flip_ms"] = _mean(
        rec.busy("serve.store.apply_regional"),
        rec.calls("serve.store.apply_regional"), 1e3,
    )
    m["serve.store.columns_builds"] = rec.counter("serve.store.columns_builds")
    for name, span in (
        ("ingest.wal.append_ms", "ingest.wal.append_batch"),
        ("ingest.live.apply_ms", "ingest.live.apply"),
        ("ingest.live.snapshot_ms", "ingest.live.snapshot"),
        ("index.rtree.insert_ms", "index.rtree.insert"),
        ("index.quadtree.insert_ms", "index.quadtree.insert"),
        ("index.grid.insert_ms", "index.grid.insert"),
    ):
        m[name] = _mean(rec.busy(span), rec.calls(span), 1e3)
    m["ingest.pipeline.retries"] = max(
        0, rec.calls("ingest.live.apply") - rec.calls("ingest.pipeline.append")
    )
    return {name: (float(m[name]), unit) for name, unit in LAYER_UNITS.items()}


def dump(rec: Recorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec.to_json(), fh)


def load(path: str) -> Recorder:
    with open(path, "r", encoding="utf-8") as fh:
        return Recorder.from_json(json.load(fh))
