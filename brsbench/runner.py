"""Runs one workload: set-up, the fixed timed script, the answer check.

An untraced run sets the workload up ``wl.SETUP_REPEATS`` times
(reporting the median), runs the seeded script once, checks every
answer, and scales its times to the reference machine speed measured by a
calibration helper process (:class:`~brsbench.common.Calibrator`) between
set-ups and operations.  A traced run executes the script twice on fresh
set-ups, first untraced and then with :mod:`brsbench.tracing` installed,
so the tracing overhead is the ratio of the two ``ops_per_s`` values; the
per-layer metrics come from the second pass, and the first pass's
unscaled times and speed factor are reported beside them.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from brsbench import common, tracing
from brsbench.common import Context, Ledger, RunResult


@dataclass
class Pass:
    """What one execution of the timed script produced.

    Attributes:
        watch: the timed phase's clock: its wall time, per-operation
            seconds by request type (``cold``, ``warm``, ``write``) and
            calibration samples.
        n_ops: operations in the script.
        answers: per-operation outcomes for the workload's checker.
        rss_mib: peak memory of the program's process after the phase.
        counts: deterministic work counters (paper counters, cache
            hits/misses/evictions, shard solves, WAL appends).
        client_latencies: client-side latency of each timed HTTP query.
        server_rec: the server process's trace, when it was traced.
        setup_s: the pass's set-up time (filled in by the runner).
        program_fallbacks: the program's ``brs_columnar_fallbacks_total``
            over the pass (filled in by the runner).
    """

    watch: common.Stopwatch
    n_ops: int
    answers: List[Any] = field(default_factory=list)
    rss_mib: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    client_latencies: List[float] = field(default_factory=list)
    server_rec: Optional[tracing.Recorder] = None
    setup_s: float = 0.0
    program_fallbacks: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.watch.phase_wall

    @property
    def wall(self) -> Dict[str, List[float]]:
        return self.watch.wall


#: Calibration samples taken before and after each set-up.
SETUP_CALIBRATION = 10

#: Per-layer metrics a traced run adds besides the layer table: the
#: tracing overhead, the latencies of request types only some workloads
#: have, and the untraced pass's unscaled times with its speed factor.
TRACE_EXTRA: Dict[str, str] = {
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead": "fraction",
    "serve.warm_p50_ms": "ms",
    "serve.warm_p90_ms": "ms",
    "ingest.write_p50_ms": "ms",
    "ingest.write_p90_ms": "ms",
    "failed_frac": "fraction",
    "measured.setup_s": "s",
    "measured.cold_p50_ms": "ms",
    "measured.cold_p90_ms": "ms",
    "measured.speed_factor": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    units = dict(tracing.LAYER_UNITS)
    units.update(TRACE_EXTRA)
    return units


def _setup_once(ctx: Context, wl: Any, inputs: Any, rec: Optional[tracing.Recorder]) -> Tuple[Any, float]:
    prepared = wl.fresh(ctx, inputs)
    # Garbage an earlier set-up left behind is collected here, outside
    # the timed interval.
    gc.collect()
    if rec is not None:
        rec.phase = "setup"
    t0 = time.perf_counter()
    inst = wl.setup(ctx, inputs, prepared, rec)
    return inst, time.perf_counter() - t0


def _run_pass(ctx: Context, wl: Any, inputs: Any, script: Any, rec: Optional[tracing.Recorder]) -> Pass:
    """One set-up and one execution of the script, in a metrics scope
    whose fallback counter the traced-run guard compares with the
    wrapped calls."""
    from repro.obs import MetricsRegistry, metrics_scope

    registry = MetricsRegistry()
    with metrics_scope(registry):
        inst, setup_s = _setup_once(ctx, wl, inputs, rec)
        try:
            if rec is not None:
                rec.phase = "timed"
            result = wl.execute(ctx, inst, script, rec)
        finally:
            wl.close(inst)
    result.setup_s = setup_s
    result.program_fallbacks = registry.counter("brs_columnar_fallbacks_total").value
    return result


def _measured_setups(ctx: Context, wl: Any, inputs: Any, cal: common.Calibrator) -> Tuple[Any, List[float], List[float]]:
    """Set the workload up ``wl.SETUP_REPEATS`` times and keep the last
    instance.  Returns it with each set-up's seconds and the
    speed factor sampled just before and after that set-up."""
    times: List[float] = []
    factors: List[float] = []
    inst = None
    for _ in range(wl.SETUP_REPEATS):
        if inst is not None:
            wl.close(inst)
            # One live instance at a time, so peak memory counts one.
            inst = None
        before = cal.sample(SETUP_CALIBRATION)
        inst, seconds = _setup_once(ctx, wl, inputs, None)
        after = cal.sample(SETUP_CALIBRATION)
        times.append(seconds)
        factors.append(common.speed_factor(before + after))
    return inst, times, factors


def _run_untraced(ctx: Context, wl: Any, inputs: Any, script: Any, cal: common.Calibrator) -> RunResult:
    errors: List[str] = []
    diagnostics: Dict[str, Any] = {}
    ledger = Ledger()
    inst, times, factors = _measured_setups(ctx, wl, inputs, cal)
    try:
        result = wl.execute(ctx, inst, script, None)
    finally:
        wl.close(inst)
        inst = None
    wl.check(ctx, inputs, result, ledger)
    # Times are reported at the reference machine speed: each set-up and
    # each cold operation at the speed sampled around it, the timed
    # phase's wall time at the speed sampled over the whole phase.  The
    # measured values go to the diagnostics.
    speed = common.speed_factor(result.watch.calibration)
    setup_s = statistics.median(t * f for t, f in zip(times, factors))
    metrics = common.end_to_end(
        ledger, setup_s, result.rss_mib, result.n_ops,
        result.wall_s * speed, result.watch.scaled("cold"),
        errors, diagnostics,
    )
    measured: Dict[str, Any] = {"speed_factor": speed, "setup_speed_factors": factors}
    measured.update(common.latency_metrics("cold", result.wall.get("cold", []), [], {}))
    measured["ops_per_s"] = (result.n_ops / result.wall_s, "1/s")
    measured["setup_s"] = (statistics.median(times), "s")
    diagnostics["measured"] = measured
    for prefix in ("warm", "write"):
        if result.wall.get(prefix):
            # Guarded like the reported ones; shown on stderr only.
            common.latency_metrics(prefix, result.wall[prefix], errors, diagnostics)
    diagnostics["setup_s_all"] = times
    return RunResult(ledger, metrics, errors, diagnostics)


def run(ctx: Context, wl: Any) -> RunResult:
    """Run workload module ``wl`` as ``ctx`` asks."""
    inputs = wl.make_inputs(ctx)
    script = wl.script(ctx, inputs)
    if not ctx.trace:
        with common.Calibrator() as cal:
            ctx.calibrator = cal
            try:
                return _run_untraced(ctx, wl, inputs, script, cal)
            finally:
                ctx.calibrator = None

    errors: List[str] = []
    diagnostics: Dict[str, Any] = {}
    ledger = Ledger()
    with common.Calibrator() as cal:
        ctx.calibrator = cal
        try:
            plain = _run_pass(ctx, wl, inputs, script, None)
        finally:
            ctx.calibrator = None
    tracing.import_program()
    rec = tracing.Recorder()
    installed = tracing.install(rec)
    try:
        traced = _run_pass(ctx, wl, inputs, script, rec)
    finally:
        installed.undo()
    if traced.server_rec is not None:
        rec.merge(traced.server_rec)
    wl.check(ctx, inputs, traced, ledger)
    if plain.answers != traced.answers:
        errors.append("untraced and traced passes gave different answers")
    if plain.counts != traced.counts:
        errors.append(
            f"work counts differ between passes: {plain.counts} vs {traced.counts}"
        )
    tracing.guard_calls(rec, ctx.workload, errors, traced.program_fallbacks)
    metrics = tracing.layer_metrics(rec, traced.counts, traced.client_latencies)
    counts = dict(traced.counts)
    counts["fallbacks"] = tracing.fallbacks(rec)
    counts["shard_solves"] = int(metrics["serve.solvecore.shard_solves"][0])
    counts["columns_builds"] = int(metrics["serve.store.columns_builds"][0])
    counts["wal_appends"] = rec.calls("ingest.wal.append_batch")
    counts["evaluator_ops"] = int(metrics["functions.coverage.evaluator_ops"][0])
    common.check_counts_repeat(ctx, counts, errors)
    diagnostics["counts"] = counts

    untraced_rate = plain.n_ops / plain.wall_s
    traced_rate = traced.n_ops / traced.wall_s
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (untraced_rate / traced_rate - 1.0, "fraction")
    for prefix, samples in (
        ("serve.warm", plain.wall.get("warm")), ("ingest.write", plain.wall.get("write"))
    ):
        if samples:
            metrics.update(common.latency_metrics(prefix, samples, errors, diagnostics))
        else:
            metrics[f"{prefix}_p50_ms"] = (0.0, "ms")
            metrics[f"{prefix}_p90_ms"] = (0.0, "ms")
    metrics["failed_frac"] = (
        ledger.failed / ledger.attempted if ledger.attempted else 0.0,
        "fraction",
    )
    # The untraced pass's times as measured, and the factor the untraced
    # run would scale them by, so raw figures can always be compared.
    cold_ms = [t * 1e3 for t in plain.wall.get("cold", [])]
    metrics["measured.setup_s"] = (plain.setup_s, "s")
    metrics["measured.cold_p50_ms"] = (common.percentile(cold_ms, 50), "ms")
    metrics["measured.cold_p90_ms"] = (common.percentile(cold_ms, 90), "ms")
    metrics["measured.speed_factor"] = (common.speed_factor(plain.watch.calibration), "ratio")
    units = per_layer_units()
    ordered = {name: metrics[name] for name in units}
    return RunResult(ledger, ordered, errors, diagnostics)
