"""Shared pieces of the perf benchmark that never import the program.

The orchestrator (``run.py``), the comparison tool (``compare.py``) and
the contract test all load from here: the checkout layout, the
``BENCHMARK.json`` contract, the hermetic environment and the order
statistics every reported number goes through.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy

#: The checkout root (``benchmarks/perf`` lives two levels below it).
ROOT = Path(__file__).resolve().parents[2]
PERF_DIR = Path(__file__).resolve().parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Everything the benchmark writes lives under here (git-ignored).
BUILD_DIR = ROOT / ".bench_build" / "perf"

#: Workload names, in the order an all-workloads run executes them.
WORKLOADS = ("inv-cold", "lib-ppa", "replay")

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Runs of :func:`calibration_kernel` per calibration time (their median).
CALIBRATION_RUNS = 5

#: The calibration time at which ``setup_s`` is quoted: this host's
#: usual speed, so that quoted set-up times read as seconds.
NOMINAL_CALIBRATION_S = 0.003

_CALIBRATION_X = numpy.linspace(0.0, 1.0, 24)
_CALIBRATION_M = (24.0 * numpy.eye(24)
                  + numpy.arange(576.0).reshape(24, 24) / 576.0)


def calibration_kernel() -> float:
    """A fixed computation (~3 ms) shaped like the program's hot paths:
    interpreted loops around small NumPy calls."""
    total = 0.0
    for i in range(150):
        for j in range(60):
            total += (i * j) % 7
        total += float(numpy.linalg.solve(
            _CALIBRATION_M, numpy.exp(-_CALIBRATION_X * (i % 5))).sum())
    return total


def calibration_seconds() -> float:
    """How long the calibration kernel takes on this CPU right now.

    The host's speed drifts by tens of percent over minutes; a time
    divided by this, measured just before it, is a cost that does not.
    """
    times = []
    for _ in range(CALIBRATION_RUNS):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_benchmark(path: Path = BENCHMARK_FILE) -> Dict:
    """The parsed ``BENCHMARK.json`` contract."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_specs(benchmark: Dict, section: str) -> Dict[str, Dict]:
    """``{name: spec}`` of ``end_to_end`` or ``per_layer``."""
    return {spec["name"]: spec for spec in benchmark[section]}


def hermetic_env(tmp_dir: Path) -> Dict[str, str]:
    """The environment every benchmark subprocess runs under.

    Inherited ``REPRO_*`` settings (cache dir, remote tier, tracing,
    backend, solver kernel, serve knobs) are dropped so a developer's
    shell cannot change what is measured.  Temp files and any default
    engine cache stay inside the checkout.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp_dir)
    env["REPRO_CACHE_DIR"] = str(tmp_dir / "default-cache")
    return env


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n_samples: int) -> float:
    """Highest tail percentile with at least ten samples beyond it.

    Returns 0.0 when no percentile above the median qualifies.
    """
    for pct in TAIL_PERCENTILES:
        if n_samples * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 0.0


def by_kind(samples: Iterable[Tuple[str, float]]) -> Dict[str, List[float]]:
    """``{kind: [value, ...]}`` of ``(kind, value)`` samples."""
    out: Dict[str, List[float]] = {}
    for kind, value in samples:
        out.setdefault(kind, []).append(value)
    return out


def pass_sum(samples: Iterable[Tuple[str, float]]) -> float:
    """One pass: the sum over kinds of each kind's median value.

    A pass runs every kind of operation of a workload once, so this is
    what one pass takes when no operation of it hit a slow moment.
    """
    return sum(statistics.median(values)
               for values in by_kind(samples).values())


def pass_ms(ops: Sequence[Sequence[Any]]) -> float:
    """Wall time of one pass, from ``[kind, seconds, calibration]`` ops."""
    return 1000.0 * pass_sum((kind, seconds) for kind, seconds, _ in ops)


def pass_cost(ops: Sequence[Sequence[Any]]) -> float:
    """One pass in calibration units, from ``[kind, seconds,
    calibration]`` ops: each operation's latency over the time of the
    calibration kernel measured just before it."""
    return pass_sum((kind, seconds / calibration)
                    for kind, seconds, calibration in ops)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def read_runs(directory: Path) -> List[Dict]:
    """Every run record appended to ``<directory>/runs.jsonl``."""
    path = Path(directory) / "runs.jsonl"
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
