"""Workload processes of the perf benchmark (``run.py`` spawns them).

    worker.py build --state DIR
    worker.py goldens --state DIR
    worker.py setup WORKLOAD --state DIR --dir DIR [--url URL]
    worker.py measure WORKLOAD --state DIR --dir DIR --seed N
                      --seconds S --trace 0|1 [--url URL]

``build`` runs the cold INV1X1 flow once per source version and keeps
its cache as the state every workload starts from, plus untraced
reference outputs.  ``setup`` prepares one workload directory,
``measure`` runs whole passes over the workload's operations, checks
every output and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy
import scipy

# The engine stages import these lazily; importing them here keeps that
# cost out of the first timed operation.
import repro.extraction.flow  # noqa: F401
import repro.extraction.targets  # noqa: F401
import repro.ppa.area  # noqa: F401
import repro.ppa.delay  # noqa: F401
import repro.ppa.power  # noqa: F401
import repro.tcad.device  # noqa: F401
from repro.cells.variants import DeviceVariant
from repro.engine import Engine
from repro.engine.pipeline import cell_ppa, extracted_device
from repro.engine.remote import RemoteCache
from repro.flows.full_flow import run_full_flow
from repro.observe import NULL_TRACER, configure
from repro.tcad.device import Polarity
from repro.verify.goldens import GoldenStore

import layer_trace
from benchlib import PERF_DIR, calibration_seconds

#: The flow every workload derives from: 8 devices, 24 tasks.
FLOW_CELLS = ["INV1X1"]

#: inv-cold runs the part of that flow behind the paper's 2-ch
#: headline: the two devices of the 2-ch variant, then its INV1X1 point.
COLD_VARIANT = DeviceVariant.MIV_2CH
COLD_DEVICES = ((COLD_VARIANT.n_channel_count, Polarity.NMOS),
                (COLD_VARIANT.p_channel_count, Polarity.PMOS))

#: lib-ppa cell points (cell, variant): a one-stage 4-transistor and a
#: two-stage 6-transistor circuit on two MIV variants.
LIB_POINTS = (("NAND2X1", "4-ch"), ("AND2X1", "2-ch"))

#: Cells whose points ``tests/goldens/ppa_reduced.json`` covers.
REDUCED_CELLS = ("INV1X1", "NAND2X1")

#: Golden of the lib-ppa points the repository goldens do not cover.
GOLDEN_DIR = PERF_DIR / "goldens"
LIB_GOLDEN = "lib_ppa"

#: Passes every measuring process makes, however long they take, so
#: that each kind of operation has a median of at least three samples.
MIN_PASSES = 3


class BenchError(Exception):
    """A workload could not be prepared."""


# ----------------------------------------------------------------------
# outputs and their checks
# ----------------------------------------------------------------------
def ppa_row(ppa) -> Dict[str, float]:
    return {"delay": ppa.delay, "power": ppa.power, "area": ppa.area,
            "substrate": ppa.substrate}


def ppa_quantities(cell: str, variant: str,
                   row: Dict[str, float]) -> Dict[str, float]:
    return {f"{cell}:{variant}:{name}": value
            for name, value in row.items()}


def device_label(device) -> str:
    return f"{device.targets.variant.name}:{device.targets.polarity.value}"


def device_quantities(device) -> Dict[str, float]:
    return {f"error:{region}:{device_label(device)}": error
            for region, error in device.errors.items()}


def golden_problems(name: str, measured: Dict[str, Any],
                    store: Optional[GoldenStore] = None,
                    subset: bool = False) -> List[str]:
    """Golden diff failures; ``subset`` tolerates unmeasured keys."""
    diff = (store or GoldenStore()).diff(name, measured)
    problems = [f"{name}: {q.name} {q.note or q.max_relative_error} "
                f"outside {q.tolerance}" for q in diff.failures]
    problems += [f"{name}: {key} not in golden" for key in diff.unexpected]
    if not subset:
        problems += [f"{name}: {key} not measured" for key in diff.missing]
    return problems


def flow_problems(result) -> List[str]:
    """Table III and the INV1X1 rows of the PPA golden."""
    extraction = {"max_error": result.extraction.max_error()}
    for device in result.extraction.devices:
        extraction.update(device_quantities(device))
    problems = golden_problems("extraction_table3", extraction)
    inv: Dict[str, float] = {}
    for variant, ppa in result.ppa.results["INV1X1"].items():
        inv.update(ppa_quantities("INV1X1", variant.value, ppa_row(ppa)))
    return problems + golden_problems("ppa_reduced", inv, subset=True)


def device_problems(device, reference: Dict) -> List[str]:
    """One device's Table III errors: golden, and bit for bit."""
    problems = golden_problems("extraction_table3",
                               device_quantities(device), subset=True)
    if device.errors != reference["devices"][device_label(device)]:
        problems.append(f"{device_label(device)} differs from the "
                        f"untraced reference")
    return problems


def point_problems(cell: str, variant: str, row: Dict[str, float],
                   reference: Dict) -> List[str]:
    """One cell point's PPA: golden, and bit for bit."""
    quantities = ppa_quantities(cell, variant, row)
    if cell in REDUCED_CELLS:
        problems = golden_problems("ppa_reduced", quantities, subset=True)
    else:
        problems = golden_problems(LIB_GOLDEN, quantities,
                                   GoldenStore(GOLDEN_DIR), subset=True)
    if row != reference["points"][f"{cell}:{variant}"]:
        problems.append(f"{cell}:{variant} differs from the untraced "
                        f"reference")
    return problems


def replay_problems(result, tier: str, headline: Dict) -> List[str]:
    """All-hit replay served from ``tier``, identical headline."""
    manifest = result.manifest
    problems = []
    served = sum(1 for record in manifest.records if record.cache == tier)
    if served != len(manifest.records) or not manifest.records:
        problems.append(f"{served}/{len(manifest.records)} tasks served "
                        f"from {tier}")
    if result.headline() != headline:
        problems.append("replayed headline differs from the cold run")
    return problems


# ----------------------------------------------------------------------
# state (built once per source version)
# ----------------------------------------------------------------------
def copy_cache(source: Path, target: Path) -> None:
    """Copy a cache's artefacts (not its locks or access journal)."""
    shutil.copytree(source, target, ignore=shutil.ignore_patterns(".*"))


def build(state: Path) -> Dict[str, Any]:
    flow = state / "flow"
    result = run_full_flow(cells=FLOW_CELLS,
                           engine=Engine(backend="serial", cache_dir=flow))
    problems = flow_problems(result)
    points = {f"INV1X1:{variant.value}": ppa_row(ppa)
              for variant, ppa in result.ppa.results["INV1X1"].items()}
    scratch = state / "lib-scratch"
    copy_cache(flow, scratch)
    for cell, variant in LIB_POINTS:
        ppa = cell_ppa(cell, DeviceVariant(variant),
                       engine=Engine(backend="serial", cache_dir=scratch))
        points[f"{cell}:{variant}"] = ppa_row(ppa)
    shutil.rmtree(scratch)
    reference = {
        "headline": result.headline(),
        "devices": {device_label(device): device.errors
                    for device in result.extraction.devices},
        "points": points,
    }
    (state / "reference.json").write_text(json.dumps(reference, indent=1))
    return {"problems": problems}


def write_goldens(state: Path) -> Dict[str, Any]:
    """Regenerate ``goldens/lib_ppa.json`` from the untraced reference."""
    reference = json.loads((state / "reference.json").read_text())
    quantities: Dict[str, float] = {}
    for cell, variant in LIB_POINTS:
        if cell not in REDUCED_CELLS:
            quantities.update(ppa_quantities(
                cell, variant, reference["points"][f"{cell}:{variant}"]))
    path = GoldenStore(GOLDEN_DIR, update=True).update_golden(
        LIB_GOLDEN, quantities, default_tolerance="numeric",
        description="perf benchmark lib-ppa cell points not covered by "
                    "tests/goldens/ppa_reduced.json")
    return {"written": str(path)}


def setup(workload: str, state: Path, run_dir: Path,
          url: Optional[str]) -> Dict[str, Any]:
    run_dir.mkdir(parents=True, exist_ok=True)
    if workload in ("lib-ppa", "replay"):
        copy_cache(state / "flow", run_dir / "cache")
    if workload == "replay":
        remote = RemoteCache(url)
        for stage_dir in sorted((state / "flow").iterdir()):
            if stage_dir.name.startswith("."):
                continue
            for entry in sorted(stage_dir.glob("*.json")):
                if not remote.store(stage_dir.name, entry.stem,
                                    entry.read_bytes()):
                    raise BenchError(f"remote store refused {entry.name}")
    return {}


# ----------------------------------------------------------------------
# the timed phase
# ----------------------------------------------------------------------
class Measure:
    """Times operations, tallies checks and (traced) layer accounting."""

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.recorder = layer_trace.Recorder() if trace else None
        #: [kind, latency, calibration time] of every operation that
        #: passed its checks
        self.ops: List[List] = []
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.manifest: Counter = Counter()
        self.tracer = NULL_TRACER
        self._op_ids = itertools.count(1)
        self._layers = None
        self._start = 0.0

    def __enter__(self) -> "Measure":
        if self.recorder is not None:
            self.tracer = configure(enabled=True)
            self._layers = layer_trace.install(self.recorder)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._layers is not None:
            self._layers.close()

    def run_passes(self):
        """Pass numbers until ``seconds`` elapsed (at least
        :data:`MIN_PASSES`); a pass is never cut short."""
        for n in itertools.count():
            if (n >= MIN_PASSES
                    and time.perf_counter() - self._start >= self.seconds):
                return
            self.passes += 1
            yield n

    def op(self, kind: str, run: Callable[[], Any],
           check: Callable[[Any], List[str]],
           manifest: Callable[[Any], Optional[Dict]]) -> None:
        """One timed operation; its checks run outside the timing."""
        op_id = f"op-{next(self._op_ids)}"
        calibration = calibration_seconds()
        start = time.perf_counter()
        try:
            if self.recorder is not None:
                with self.recorder.op(op_id):
                    result = run()
            else:
                result = run()
        except Exception as exc:  # a failed op is counted, not fatal
            self._tally([f"{op_id} {kind}: {type(exc).__name__}: {exc}"])
            return
        latency = time.perf_counter() - start
        problems = check(result)
        if not problems:
            self.ops.append([kind, latency, calibration])
        self._tally(problems, manifest(result))

    def _tally(self, problems: List[str],
               manifest: Optional[Dict] = None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:3])
        for key in ("tasks", "computed", "cache_hits"):
            self.manifest[key] += (manifest or {}).get(key, 0)

    def result(self) -> Dict[str, Any]:
        out = {
            "ops": self.ops,
            "passes": self.passes,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "manifest": dict(self.manifest),
            "rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if self.recorder is not None:
            out["layers"] = self.recorder.summary()
            out["observe"] = layer_trace.observe_counters(self.tracer)
        return out


@dataclass
class Workdir:
    """What one workload's timed phase starts from."""

    state: Path
    run_dir: Path
    reference: Dict
    seed: int
    url: Optional[str] = None


def _summary(result) -> Dict:
    return result.manifest.summary()


def measure_inv_cold(m: Measure, w: Workdir) -> None:
    """The cold 2-ch flow on an empty cache: each device, in seed order,
    then the cell point, one engine run each."""
    rng = random.Random(w.seed)
    for n in m.run_passes():
        engine = Engine(backend="serial", cache_dir=w.run_dir / f"cold-{n}")

        def last_run(_) -> Dict:
            return engine.last_manifest.summary()

        for variant, polarity in rng.sample(COLD_DEVICES, len(COLD_DEVICES)):
            m.op(f"device:{variant.name}:{polarity.value}",
                 lambda: extracted_device(variant, polarity, engine=engine),
                 lambda device: device_problems(device, w.reference),
                 last_run)
        m.op(f"INV1X1:{COLD_VARIANT.value}",
             lambda: cell_ppa("INV1X1", COLD_VARIANT, engine=engine),
             lambda ppa: point_problems("INV1X1", COLD_VARIANT.value,
                                        ppa_row(ppa), w.reference),
             last_run)


def measure_lib_ppa(m: Measure, w: Workdir) -> None:
    """Every lib-ppa point once per pass, on a fresh copy of the state."""
    rng = random.Random(w.seed)
    for n in m.run_passes():
        cache = w.run_dir / "cache"
        if n:
            cache = w.run_dir / f"cache-{n}"
            copy_cache(w.state / "flow", cache)
        for cell, variant in rng.sample(LIB_POINTS, len(LIB_POINTS)):
            engine = Engine(backend="serial", cache_dir=cache)
            m.op(f"{cell}:{variant}",
                 lambda: cell_ppa(cell, DeviceVariant(variant),
                                  engine=engine),
                 lambda ppa: point_problems(cell, variant, ppa_row(ppa),
                                            w.reference),
                 lambda _: engine.last_manifest.summary())


def measure_replay(m: Measure, w: Workdir) -> None:
    """One local and one remote replay per pass, in seed order."""
    rng = random.Random(w.seed)
    local = w.run_dir / "cache"
    replays: Tuple[Tuple[str, Callable[[], Engine]], ...] = (
        ("disk", lambda: Engine(backend="serial", cache_dir=local)),
        ("remote", lambda: Engine(backend="serial", use_disk=False,
                                  remote=w.url)),
    )
    for _ in m.run_passes():
        for tier, engine in rng.sample(replays, len(replays)):
            m.op(f"replay:{tier}",
                 lambda: run_full_flow(cells=FLOW_CELLS, engine=engine()),
                 lambda result: replay_problems(result, tier,
                                                w.reference["headline"]),
                 _summary)


MEASURES = {
    "inv-cold": measure_inv_cold,
    "lib-ppa": measure_lib_ppa,
    "replay": measure_replay,
}


def measure(args) -> Dict[str, Any]:
    state = Path(args.state)
    w = Workdir(state=state, run_dir=Path(args.dir), seed=args.seed,
                url=args.url,
                reference=json.loads((state / "reference.json").read_text()))
    with Measure(args.seconds, args.trace) as m:
        MEASURES[args.workload](m, w)
    out = m.result()
    if m.recorder is not None:
        (w.run_dir / "spans-worker.json").write_text(json.dumps(
            m.recorder.span_records(os.getpid())))
    return out


def versions() -> Dict[str, str]:
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("command",
                        choices=("build", "goldens", "setup", "measure"))
    parser.add_argument("workload", nargs="?", choices=tuple(MEASURES))
    parser.add_argument("--state", required=True)
    parser.add_argument("--dir")
    parser.add_argument("--url")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.command == "build":
        out = build(Path(args.state))
    elif args.command == "goldens":
        out = write_goldens(Path(args.state))
    elif args.command == "setup":
        out = setup(args.workload, Path(args.state), Path(args.dir),
                    args.url)
    else:
        out = measure(args)
    out["versions"] = versions()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
