"""Shared pieces of the BRS benchmark: run context, percentiles with their
sample guard, answer checking, memory readings and the result line.

:mod:`brsbench.runner` runs a workload module; a run executes a fixed,
seeded script of operations (never a fixed-duration window), so two runs
of one seed do identical work and differ only in how long it took.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = pathlib.Path(__file__).resolve().parent
#: Work space inside the checkout: generated inputs, WALs, the
#: reference cache and the determinism records.  Listed in .gitignore.
WORK = ROOT / ".brsbench_work"

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10

#: Names of the end-to-end metrics every workload reports (untraced run).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "cold_p50_ms": "ms",
    "cold_p90_ms": "ms",
    "exact_frac": "fraction",
}


def ensure_src_on_path() -> None:
    """Make the checkout's ``src/`` importable; fail loudly without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"brsbench: no program sources under {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Context:
    """What one run was asked to do.

    Attributes:
        workload: workload name.
        seed: drives the query script, SUM weights and write stream.
        seconds: nominal length of the timed phase; scales the fixed
            script (operation counts are ``seconds`` times a per-workload
            rate, never a wall-clock window).
        trace: run the traced variant (per-layer metrics) instead.
        reduced: small script for the benchmark's own tests; the
            percentile guard is expected to trip there.
        ref_offset: added to every reference score (tests use it to
            prove a wrong reference lowers ``exact_frac``).
        calibrator: host-speed sampler for the pass being run; ``None``
            takes no samples (traced passes, whose times are not scaled).
    """

    workload: str
    seed: int
    seconds: float
    trace: bool = False
    reduced: bool = False
    ref_offset: float = 0.0
    calibrator: Optional["Calibrator"] = None

    def count(self, rate: float, reduced: int) -> int:
        """Operation count for a script part: ``rate`` per nominal second.

        A script too short for its percentiles is caught by the sample
        guard, not by a floor here."""
        if self.reduced:
            return reduced
        return max(1, int(round(rate * self.seconds)))


# -- percentiles -------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (the numpy default) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def guarded_percentile(
    name: str, values: Sequence[float], p: float, errors: List[str]
) -> float:
    """``percentile`` plus the sample guard: at least :data:`MIN_BEYOND`
    samples must lie strictly beyond the reported value, else an error is
    recorded (and the run reports ``correct: false``)."""
    if not values:
        errors.append(f"{name}: no samples")
        return float("nan")
    value = percentile(values, p)
    beyond = sum(1 for v in values if v > value)
    if beyond < MIN_BEYOND:
        errors.append(
            f"{name}: only {beyond} of {len(values)} samples beyond p{p:g}"
        )
    return value


def gap_ratio(values: Sequence[float], p: float, width: float = 5.0) -> float:
    """How sharply the distribution jumps around percentile ``p``:
    ``q(p + width) / q(p - width)``.  A large ratio means ``p`` sits on a
    gap between request types, where a tiny change in the mix moves the
    reported value a lot; the steadiness doc lists these ratios."""
    lo = percentile(values, max(0.0, p - width))
    hi = percentile(values, min(100.0, p + width))
    return hi / lo if lo > 0 else float("inf")


# -- answer checking ---------------------------------------------------------


@dataclass
class Ledger:
    """Operation outcomes of one timed phase.

    ``exact`` counts operations that returned status ok with a score equal
    to the reference (and a re-score of the reported region equal to the
    reported score); ``failed`` counts errors, rejections, transport
    failures and non-ok statuses.
    """

    attempted: int = 0
    exact: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1
        self.exact += 1

    def fail(self, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(why)

    def wrong(self, why: str) -> None:
        """Answered with status ok, but not the reference answer."""
        self.attempted += 1
        self._note(why)

    def _note(self, why: str) -> None:
        if len(self.mismatches) < 20:
            self.mismatches.append(why)


def same_score(got: Optional[float], want: float) -> bool:
    """Score equality for the correctness check.

    SUM weights are integers and coverage scores are label counts, so
    those compare exactly; RIS influence is a scaled count whose float
    value can differ in the last bit with summation order, which the
    relative tolerance absorbs."""
    if got is None:
        return False
    return got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


class ReferenceCache:
    """Reference scores cached on disk, keyed by query and by the program.

    Reference computation is never timed; caching only saves wall time on
    repeated queries.  The key includes a digest of every file under
    ``src/``, so a changed program never reads another program's answers.
    """

    def __init__(self, workload: str) -> None:
        self.path = WORK / f"refs-{workload}-{source_digest()[:16]}.json"
        self._data: Dict[str, float] = {}
        self._dirty = False
        if self.path.is_file():
            try:
                self._data = json.loads(self.path.read_text())
            except (OSError, json.JSONDecodeError):
                self._data = {}

    def get(self, key: str, compute: Callable[[], float]) -> float:
        if key not in self._data:
            self._data[key] = float(compute())
            self._dirty = True
        return self._data[key]

    def save(self) -> None:
        if not self._dirty:
            return
        WORK.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self._data))
        os.replace(tmp, self.path)


_DIGESTS: Dict[str, str] = {}


def _digest(root: pathlib.Path) -> str:
    if str(root) not in _DIGESTS:
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
        _DIGESTS[str(root)] = h.hexdigest()
    return _DIGESTS[str(root)]


def source_digest() -> str:
    """SHA-256 over the program's source tree (paths and contents)."""
    return _digest(SRC / "repro")


# -- determinism records -----------------------------------------------------


def check_counts_repeat(ctx: Context, counts: Dict[str, int], errors: List[str]) -> None:
    """Compare traced counts with the last traced run of the same seed.

    The first traced run of a seed (per script size, program version and
    harness version) records its counts; every later one must reproduce
    them exactly."""
    size = "reduced" if ctx.reduced else f"{ctx.seconds:g}"
    version = f"{source_digest()[:12]}-{_digest(BENCH_DIR)[:12]}"
    record = WORK / "counts" / f"{ctx.workload}-{ctx.seed}-{size}-{version}.json"
    if record.is_file():
        try:
            before = json.loads(record.read_text())
        except (OSError, json.JSONDecodeError):
            before = None
        if before is not None and before != counts:
            diff = sorted(
                k for k in set(before) | set(counts)
                if before.get(k) != counts.get(k)
            )
            errors.append(f"traced counts differ from an earlier run: {diff}")
        return
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts, sort_keys=True))


def parse_prometheus(text: str) -> Dict[str, float]:
    """Unlabelled sample values from a Prometheus text exposition."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#"):
            values[parts[0]] = float(parts[1])
    return values


# -- memory and clocks -------------------------------------------------------


#: Seconds one calibration unit (``brsbench/calibrate.py``) takes at the
#: reference machine speed.  End-to-end times are reported at that speed
#: (see README.md).
CAL_REF = 0.002
#: Calibration samples taken after each operation.
CAL_PER_OP = 3


class Calibrator:
    """Host-speed samples from a helper process (``brsbench/calibrate.py``).

    The helper runs a fixed NumPy unit on request and replies with its
    timings.  Sampling in another process keeps the measured process's
    threads out of the samples: work the program leaves running after an
    operation returns cannot slow the unit down through the GIL and so
    read as a speedup.  The measured process only waits on the pipe while
    a sample is taken.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self, n: int) -> List[float]:
        """``n`` timings of the unit, in seconds."""
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write(f"{n}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return [float(v) for v in line.split()]

    def close(self) -> None:
        if self._proc.stdin is not None and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout is not None:
            self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def speed_factor(samples: Sequence[float]) -> float:
    """Reference speed over measured speed: multiply a time by it to get
    the time at the reference speed."""
    return CAL_REF / statistics.median(samples)


#: Calibration blocks on each side of an operation whose samples set its
#: speed factor (see :meth:`Stopwatch.scaled`).
CAL_REACH = 2


class Stopwatch:
    """Per-operation wall times, grouped by request type, the wall time of
    the whole timed phase, and calibration samples taken between
    operations (whose time is left out of the phase).

    Samples come in blocks, one per :meth:`calibrate` call; each recorded
    operation remembers the block that follows it."""

    def __init__(self, calibrator: Optional[Calibrator] = None) -> None:
        self.wall: Dict[str, List[float]] = {}
        self.blocks: List[List[float]] = []
        self.block_after: Dict[str, List[int]] = {}
        self.phase_wall = 0.0
        self._calibrator = calibrator
        self._t0 = self._p0 = self._excluded = 0.0

    def begin(self) -> None:
        self._p0 = time.perf_counter()
        self._excluded = 0.0

    def end(self) -> None:
        self.phase_wall = time.perf_counter() - self._p0 - self._excluded

    def calibrate(self) -> None:
        if self._calibrator is None:
            return
        t0 = time.perf_counter()
        self.blocks.append(self._calibrator.sample(CAL_PER_OP))
        self._excluded += time.perf_counter() - t0

    def start(self) -> None:
        self._t0 = time.perf_counter()

    def stop(self, kind: str) -> None:
        self.wall.setdefault(kind, []).append(time.perf_counter() - self._t0)
        self.block_after.setdefault(kind, []).append(len(self.blocks))

    @property
    def calibration(self) -> List[float]:
        return [s for block in self.blocks for s in block]

    def scaled(self, kind: str) -> List[float]:
        """Times of ``kind`` at the reference speed, each scaled by the
        samples of the :data:`CAL_REACH` blocks on either side of it, so a
        slow stretch of the host slows no operation's reported time."""
        out = []
        n = len(self.blocks)
        for t, b in zip(self.wall.get(kind, []), self.block_after.get(kind, [])):
            lo, hi = max(0, b - CAL_REACH), min(n, b + CAL_REACH)
            window = [s for block in self.blocks[lo:hi] for s in block]
            out.append(t * speed_factor(window))
        return out


def peak_rss_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    status = pathlib.Path(f"/proc/{pid or 'self'}/status")
    try:
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise RuntimeError(f"cannot read peak memory of process {pid}")


# -- the result line ---------------------------------------------------------


@dataclass
class RunResult:
    """One workload run: end-to-end metrics, per-layer metrics, checks."""

    ledger: Ledger
    metrics: Dict[str, Tuple[float, str]]
    errors: List[str] = field(default_factory=list)
    diagnostics: Dict[str, Any] = field(default_factory=dict)

    def line(self) -> Dict[str, Any]:
        correct = (
            not self.errors
            and self.ledger.failed == 0
            and self.ledger.exact == self.ledger.attempted
        )
        return {
            "correct": correct,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def latency_metrics(
    prefix: str, samples_s: Sequence[float], errors: List[str],
    diagnostics: Dict[str, Any],
) -> Dict[str, Tuple[float, str]]:
    """``<prefix>_p50_ms`` and ``<prefix>_p90_ms`` from seconds samples,
    guarded, with their sample counts and gap ratios in ``diagnostics``."""
    ms = [s * 1000.0 for s in samples_s]
    out: Dict[str, Tuple[float, str]] = {}
    for p in (50, 90):
        name = f"{prefix}_p{p}_ms"
        out[name] = (guarded_percentile(name, ms, p, errors), "ms")
        if ms:
            diagnostics[name] = {
                "samples": len(ms),
                "beyond": sum(1 for v in ms if v > out[name][0]),
                "gap_ratio": round(gap_ratio(ms, p), 3),
            }
    return out


def end_to_end(
    ledger: Ledger,
    setup_s: float,
    rss_mib: float,
    n_ops: int,
    wall_s: float,
    cold_s: Sequence[float],
    errors: List[str],
    diagnostics: Dict[str, Any],
) -> Dict[str, Tuple[float, str]]:
    """The six end-to-end metrics every workload reports."""
    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
        "ops_per_s": (n_ops / wall_s if wall_s > 0 else 0.0, "1/s"),
    }
    metrics.update(latency_metrics("cold", cold_s, errors, diagnostics))
    metrics["exact_frac"] = (
        ledger.exact / ledger.attempted if ledger.attempted else 0.0,
        "fraction",
    )
    return metrics
