"""The benchmark's own tests: reduced-size runs of every workload plus the
guards.  Run from the root of a checkout with::

    python3 -m pytest brsbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from brsbench import common, runner, tracing  # noqa: E402
from brsbench.run import WORKLOADS  # noqa: E402

common.ensure_src_on_path()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GUARD = "samples beyond"


def _run(workload: str, trace: bool = False, ref_offset: float = 0.0, seed: int = 3):
    ctx = common.Context(
        workload=workload, seed=seed, seconds=SPEC["run_seconds"],
        trace=trace, reduced=True, ref_offset=ref_offset,
    )
    return runner.run(ctx, importlib.import_module(WORKLOADS[workload]))


def _non_guard(errors):
    return [e for e in errors if GUARD not in e]


def test_spec_lists_the_harness_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["brsbench"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_reduced_run_reports_the_spec_metrics(workload):
    result = _run(workload)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_, u) in result.metrics.items()} == want
    assert want == common.END_TO_END
    assert result.ledger.attempted > 0
    assert result.metrics["exact_frac"][0] == 1.0, result.ledger.mismatches
    assert result.ledger.failed == 0
    # A reduced script is too short for its percentiles: the guard trips,
    # and nothing else does.
    assert any(GUARD in e for e in result.errors)
    assert _non_guard(result.errors) == []
    assert result.line()["correct"] is False


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_reduced_traced_run_reports_the_spec_layers(workload):
    result = _run(workload, trace=True)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: u for k, (_, u) in result.metrics.items()} == want
    assert _non_guard(result.errors) == []
    # Traced counts repeat exactly on a second run of the same seed.
    again = _run(workload, trace=True)
    assert _non_guard(again.errors) == []
    assert again.diagnostics["counts"] == result.diagnostics["counts"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_wrong_reference_lowers_exact_frac(workload):
    result = _run(workload, ref_offset=1.0)
    assert result.metrics["exact_frac"][0] < 1.0
    assert result.ledger.failed == 0
    assert result.line()["correct"] is False


def test_percentile_guard_counts_samples_beyond():
    errors = []
    common.guarded_percentile("x", [float(i) for i in range(100)], 90, errors)
    common.guarded_percentile("x", [float(i) for i in range(100)], 50, errors)
    assert errors == []
    common.guarded_percentile("short", [float(i) for i in range(50)], 90, errors)
    assert len(errors) == 1 and "short" in errors[0]
    # Ties: nothing lies strictly beyond a plateau.
    common.guarded_percentile("flat", [1.0] * 200, 50, errors)
    assert len(errors) == 2 and "flat" in errors[1]
    common.guarded_percentile("none", [], 50, errors)
    assert "no samples" in errors[2]


def test_latency_metrics_report_samples_and_gaps():
    errors, diag = [], {}
    bimodal = [0.002 + i * 1e-6 for i in range(60)] + [0.1 + i * 1e-4 for i in range(60)]
    common.latency_metrics("cold", bimodal, errors, diag)
    assert diag["cold_p50_ms"]["gap_ratio"] > 10
    assert errors == []


def test_count_records_must_repeat(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "WORK", tmp_path)
    ctx = common.Context(workload="w", seed=1, seconds=20, trace=True)
    errors = []
    common.check_counts_repeat(ctx, {"slabs": 5}, errors)
    common.check_counts_repeat(ctx, {"slabs": 5}, errors)
    assert errors == []
    common.check_counts_repeat(ctx, {"slabs": 6}, errors)
    assert errors and "slabs" in errors[0]


def test_traced_guard_flags_silent_wrappers():
    errors = []
    tracing.guard_calls(tracing.Recorder(), "maxrs-columnar", errors, 0)
    assert len(errors) == len(tracing.MUST_CALL["maxrs-columnar"])


def _fallback_recorder(n: int) -> tracing.Recorder:
    rec = tracing.Recorder()
    rec.phase = "timed"
    for _ in range(n):
        outer = rec.enter("columnar.solvers.best_region")
        rec.leave(rec.enter("core.slicebrs.solve"))
        rec.leave(outer)
    return rec


def test_traced_guard_follows_the_program_fallback_count():
    required = set(tracing.MUST_CALL["coverage-exact"])
    # No fallbacks (a columnar coverage route): the object path's layers
    # are not required.
    errors = []
    tracing.guard_calls(_fallback_recorder(0), "coverage-exact", errors, 0)
    assert not any("core.sweep" in e for e in errors)
    assert len(errors) == len(required)
    # Fallbacks: the object path's layers must record calls too.
    errors = []
    tracing.guard_calls(_fallback_recorder(3), "coverage-exact", errors, 3)
    flagged = {e.split()[3] for e in errors}
    assert flagged == (required - {"columnar.solvers.best_region"}) | set(
        tracing.FALLBACK_CALLS["coverage-exact"]
    )
    # The program counted fallbacks the wrappers did not see: a SliceBRS
    # wrapper at the wrong name.
    errors = []
    tracing.guard_calls(_fallback_recorder(0), "coverage-exact", errors, 3)
    assert any("brs_columnar_fallbacks_total" in e for e in errors)


def test_calibrator_samples_in_a_helper_process():
    with common.Calibrator() as cal:
        samples = cal.sample(4)
        assert len(samples) == 4 and all(s > 0 for s in samples)
    assert cal._proc.returncode == 0


def test_install_patches_imported_copies():
    tracing.import_program()
    import repro
    from repro.core import slicebrs
    from repro.core import sweep

    rec = tracing.Recorder()
    original = sweep.scan_slabs
    original_entry = repro.columnar_best_region
    installed = tracing.install(rec)
    try:
        assert slicebrs.scan_slabs is not original
        assert sweep.scan_slabs is slicebrs.scan_slabs
        assert repro.columnar_best_region is not original_entry
    finally:
        installed.undo()
    assert slicebrs.scan_slabs is original
    assert repro.columnar_best_region is original_entry


def test_ingest_split_follows_the_batch_box():
    from brsbench import wl_ingest

    tiles = [(0.0, 10.0, 0.0, 10.0), (10.0, 20.0, 0.0, 10.0), (0.0, 10.0, 10.0, 20.0)]
    assert wl_ingest.split((2.0, 3.0, 2.0, 3.0), tiles) == [True, False, False]
    # Closed test, as the cache's: a box on a shared edge touches both.
    assert wl_ingest.split((9.0, 10.0, 2.0, 3.0), tiles) == [True, True, False]
    assert wl_ingest.split((10.0, 10.0, 10.0, 10.0), tiles) == [True, True, True]


def test_ingest_reduced_run_splits_by_box():
    from brsbench import wl_ingest

    result = _run("serve-ingest", trace=True)
    n_tiles = wl_ingest.COLS * wl_ingest.ROWS
    counts = result.diagnostics["counts"]
    # Each batch stays inside one tile's hot box: one cold tile per cycle,
    # and the program evicted exactly that entry.
    cycles = counts["wal_batches"]
    assert counts["cache_misses"] == cycles
    assert counts["cache_invalidations"] == cycles
    assert counts["cache_hits"] == cycles * (n_tiles - 1)
    assert result.metrics["serve.cache.evict_precision"][0] == 1.0

