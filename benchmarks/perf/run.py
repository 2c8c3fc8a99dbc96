"""The perf benchmark: every workload, metric and output check.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--update-goldens]

Run it from anywhere inside a checkout; the program is imported from
its ``src/`` in subprocesses.  Each workload runs in fresh processes
under a hermetic environment: its set-up three times (``setup_s`` is
the median), then one measuring process that makes whole passes over
the workload's operations for ``--seconds`` seconds (at least three
passes), times a fixed calibration kernel before each operation and
checks every output.  ``--trace 1`` makes the measuring process a
traced one and reports the per-layer metrics instead of the end-to-end
ones; comparing its ``trace.pass_cost`` with an untraced ``pass_cost``
gives the tracing overhead.

The first run in a checkout builds the shared state (one cold INV1X1
flow plus reference outputs, about 25 s) under ``.bench_build/perf``.

Every metric is printed as ``name value unit``; the run is recorded in
``DIR/results.json`` and appended to ``DIR/runs.jsonl`` (``DIR``
defaults to ``.bench_build/perf/out``); the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 only when every check passed, 1 when
a check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layer_trace
from benchlib import (
    BENCHMARK_FILE,
    BUILD_DIR,
    PERF_DIR,
    ROOT,
    NOMINAL_CALIBRATION_S,
    WORKLOADS,
    by_kind,
    calibration_seconds,
    hermetic_env,
    load_benchmark,
    metric_specs,
    pass_cost,
    pass_ms,
    percentile,
    tail_percentile,
)

WORKER = PERF_DIR / "worker.py"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

BUILD_TIMEOUT_S = 600.0
SETUP_TIMEOUT_S = 60.0
MEASURE_GRACE_S = 120.0
STOP_TIMEOUT_S = 30.0

#: The line the cache server prints once it accepts connections.
LISTENING = re.compile(r"listening on (http://\S+)")


class BenchFailure(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


# ----------------------------------------------------------------------
# subprocesses
# ----------------------------------------------------------------------
class Children:
    """Every long-lived subprocess of this run; all stopped on exit."""

    def __init__(self, env: Dict[str, str]):
        self.env = env
        self.procs: List[subprocess.Popen] = []

    def start(self, argv: Sequence[str], log: Path) -> subprocess.Popen:
        with open(log, "wb") as out:
            proc = subprocess.Popen([sys.executable, *argv], env=self.env,
                                    cwd=ROOT, stdout=out,
                                    stderr=subprocess.STDOUT)
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen) -> None:
        """Interrupt ``proc`` (killing it if it lingers) and reap it."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.procs:
            self.procs.remove(proc)

    def close(self) -> None:
        for proc in list(self.procs):
            self.stop(proc)

    def worker(self, args: Sequence[str], log: Path,
               timeout: float) -> Dict[str, Any]:
        """Run one ``worker.py`` command to completion; its JSON result."""
        with open(log, "ab") as err:
            try:
                done = subprocess.run(
                    [sys.executable, str(WORKER), *args], env=self.env,
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
                    timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchFailure(f"worker {' '.join(args[:2])} ran past "
                                   f"{timeout:g}s:\n{_tail(log)}") from None
        lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchFailure(
                f"worker {args[0]} {args[1] if len(args) > 1 else ''} "
                f"exited {done.returncode}:\n{_tail(log)}")
        return json.loads(lines[-1])


def _tail(log: Path, lines: int = 15) -> str:
    try:
        return "\n".join(log.read_text(errors="replace").splitlines()
                         [-lines:])
    except OSError:
        return "(no log)"


def wait_listening(proc: subprocess.Popen, log: Path) -> str:
    """The URL the server announces on its first output line."""
    deadline = time.monotonic() + SETUP_TIMEOUT_S
    while time.monotonic() < deadline:
        match = LISTENING.search(log.read_text(errors="replace"))
        if match:
            return match.group(1)
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    raise BenchFailure(f"server did not come up:\n{_tail(log)}")


# ----------------------------------------------------------------------
# shared state
# ----------------------------------------------------------------------
def source_digest() -> str:
    """Digest of the program source and the benchmark's own code."""
    digest = hashlib.sha256()
    paths = [p for p in (ROOT / "src").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    paths += list(PERF_DIR.glob("*.py"))
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_state(children: Children, logs: Path) -> Path:
    """The built state for this source version (built when missing)."""
    states = BUILD_DIR / "state"
    state = states / source_digest()
    if (state / "reference.json").is_file():
        return state
    states.mkdir(parents=True, exist_ok=True)
    for stale in states.iterdir():
        if not stale.name.startswith(state.name):
            shutil.rmtree(stale, ignore_errors=True)
    building = states / f"{state.name}.build-{os.getpid()}"
    out = children.worker(["build", "--state", str(building)],
                          logs / "build.log", BUILD_TIMEOUT_S)
    if out["problems"]:
        raise BenchFailure("state build failed its checks: "
                           + "; ".join(out["problems"]))
    try:
        os.rename(building, state)
    except OSError:  # a concurrent run finished first
        shutil.rmtree(building, ignore_errors=True)
    return state


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def set_up(name: str, run_dir: Path, state: Path, children: Children,
           ) -> Tuple[Optional[subprocess.Popen], Optional[str]]:
    """Prepare one workload directory; returns its server, if any."""
    run_dir.mkdir(parents=True)
    server, url = None, None
    if name == "replay":
        log = run_dir / "cachesrv.log"
        server = children.start(["-m", "repro.cachesrv", "--root",
                                 str(run_dir / "store"), "--port", "0"],
                                log)
        url = wait_listening(server, log)
    args = ["setup", name, "--state", str(state), "--dir", str(run_dir)]
    if url:
        args += ["--url", url]
    children.worker(args, run_dir / "worker.log", SETUP_TIMEOUT_S)
    return server, url


def run_workload(name: str, args, state: Path, children: Children,
                 work: Path) -> Dict[str, Any]:
    trace = bool(args.trace)
    setups: List[List[float]] = []  # [wall s, calibration s] of each
    server = url = None
    for i in range(1 if trace else SETUP_REPEATS):
        if server is not None:
            children.stop(server)
        run_dir = work / f"{name}-{i}"
        calibration = calibration_seconds()
        started = time.perf_counter()
        server, url = set_up(name, run_dir, state, children)
        setups.append([time.perf_counter() - started, calibration])

    measure = ["measure", name, "--state", str(state), "--dir",
               str(run_dir), "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(int(trace))]
    if url:
        measure += ["--url", url]
    out = children.worker(measure, run_dir / "worker.log",
                          args.seconds + MEASURE_GRACE_S)
    if server is not None:
        children.stop(server)
    spans: List[Dict] = []
    if trace:
        spans = json.loads((run_dir / "spans-worker.json").read_text())
    return summarise(name, args, out, setups, spans)


def kind_rows(ops: List[List]) -> Dict[str, Dict[str, Any]]:
    """Per kind of operation: samples, median and tail latency in ms,
    and the median cost in calibration units."""
    costs = by_kind((kind, seconds / calibration)
                    for kind, seconds, calibration in ops)
    rows = {}
    for kind, seconds in sorted(by_kind((k, s) for k, s, _ in ops).items()):
        tail = tail_percentile(len(seconds))
        rows[kind] = {"samples": len(seconds),
                      "median_ms": 1000.0 * statistics.median(seconds),
                      "tail": tail or None,
                      "tail_ms": (1000.0 * percentile(seconds, tail)
                                  if tail else None),
                      "median_cost": statistics.median(costs[kind])}
    return rows


def summarise(name: str, args, out: Dict[str, Any], setups: List[List[float]],
              spans: List[Dict]) -> Dict[str, Any]:
    ops = out["ops"]
    attempted, failed = out["attempted"], out["failed"]
    problems = list(out["problems"])
    metrics: Dict[str, float] = {}
    if args.trace:
        summaries = [out["layers"]]
        wiring = layer_trace.wiring_failures(name, summaries)
        attempted += 1
        failed += bool(wiring)
        problems += wiring
        metrics = layer_trace.layer_metrics(summaries, ops, out["passes"],
                                            out["observe"], out["manifest"])
    elif ops:
        metrics = {
            "pass_cost": pass_cost(ops),
            "setup_s": statistics.median(
                seconds * NOMINAL_CALIBRATION_S / calibration
                for seconds, calibration in setups),
            "peak_rss_mb": out["rss_mb"],
        }
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace),
        "correct": failed == 0 and attempted > 0 and bool(ops),
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics,
        "passes": out["passes"],
        "pass_ms": pass_ms(ops) if ops else None,
        "kinds": kind_rows(ops),
        "setups": setups,
        "manifest": out["manifest"],
        "versions": out["versions"],
        "spans": spans,
    }


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(versions: Dict[str, str],
               cpu: Optional[int]) -> Dict[str, Any]:
    return {"cpu_count": os.cpu_count(), "pinned_cpu": cpu, **versions,
            "platform": platform.platform(), "git_sha": git_sha(),
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def pin_to_one_cpu() -> Optional[int]:
    """Run this process and every child on one CPU; which one, or None.

    Every workload is serial, so nothing runs in parallel; what a busy
    host delays most is a wake-up on another CPU (client to cache
    server and back), which on one CPU is a local context switch.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def chrome_trace(spans: List[Dict]) -> Dict[str, Any]:
    return {"displayTimeUnit": "ms", "traceEvents": [
        {"name": span["name"], "cat": span["layer"], "ph": "X",
         "ts": span["start"] * 1e6,
         "dur": (span["end"] - span["start"]) * 1e6,
         "pid": span["pid"], "tid": span["tid"],
         "args": {"op": span["op"], "id": span["id"],
                  "parent": span["parent"]}}
        for span in spans]}


def write_outputs(out_dir: Path, records: List[Dict],
                  prov: Dict[str, Any]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for record in records:
        spans = sorted(record.pop("spans"), key=lambda s: s["start"])
        if record["trace"]:
            stem = out_dir / f"{record['workload']}.trace"
            with open(f"{stem}.jsonl", "w", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span) + "\n")
            Path(f"{stem}.chrome.json").write_text(
                json.dumps(chrome_trace(spans)))
    (out_dir / "results.json").write_text(json.dumps(
        {"provenance": prov, "runs": records}, indent=1))
    with open(out_dir / "runs.jsonl", "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(dict(record, git_sha=prov["git_sha"]))
                         + "\n")


def report(records: List[Dict], benchmark: Dict, trace: bool) -> Dict:
    """Print ``name value unit`` lines; returns the result object."""
    specs = metric_specs(benchmark, "per_layer" if trace else "end_to_end")
    single = len(records) == 1
    result: Dict[str, Any] = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {}}
    for record in records:
        print(f"# {record['workload']} seed={record['seed']} "
              f"trace={record['trace']}: {record['passes']} passes, "
              f"{record['failed']} of {record['attempted']} checks failed")
        for problem in record["problems"]:
            print(f"#   FAIL {problem}")
        for kind, row in record["kinds"].items():
            tail = (f", p{row['tail']:g} {row['tail_ms']:.6g} ms"
                    if row["tail"] else "")
            print(f"#   {kind}: median {row['median_ms']:.6g} ms{tail} "
                  f"({row['samples']} samples), "
                  f"{row['median_cost']:.6g} calib")
        if record["pass_ms"] is not None:
            print(f"# wall time of one pass: {record['pass_ms']:.6g} ms")
        for name, spec in specs.items():
            if name not in record["metrics"]:
                continue
            value = record["metrics"][name]
            print(f"{name} {value!r} {spec['unit']}")
            key = name if single else f"{record['workload']}:{name}"
            result["metrics"][key] = {"value": value, "unit": spec["unit"]}
    return result


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]], run_seconds: int):
    parser = argparse.ArgumentParser(
        prog="run.py", description="Run the perf benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the operations within each pass")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="measured time per workload (default from "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1 (or bare): traced run, per-layer metrics")
    parser.add_argument("--out", type=Path, default=BUILD_DIR / "out",
                        help="results directory")
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite goldens/lib_ppa.json first")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program under {ROOT / 'src'}; run it in a "
              f"full checkout", file=sys.stderr)
        return 2
    if not BENCHMARK_FILE.is_file():
        print(f"run.py: {BENCHMARK_FILE} is missing", file=sys.stderr)
        return 2
    if os.environ.get("REPRO_FAULTS"):
        print("run.py: REPRO_FAULTS is set; fault injection would "
              "corrupt the measurement", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    args = parse_args(argv, benchmark["run_seconds"])
    signal.signal(signal.SIGTERM, _terminate)
    cpu = pin_to_one_cpu()

    tmp = BUILD_DIR / "tmp"
    work = tmp / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    children = Children(hermetic_env(tmp))
    records = []
    try:
        state = ensure_state(children, work)
        if args.update_goldens:
            children.worker(["goldens", "--state", str(state)],
                            work / "goldens.log", SETUP_TIMEOUT_S)
        for name in ([args.workload] if args.workload else WORKLOADS):
            records.append(run_workload(name, args, state, children, work))
    except BenchFailure as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        children.close()
        shutil.rmtree(work, ignore_errors=True)

    result = report(records, benchmark, bool(args.trace))
    write_outputs(args.out, records,
                  provenance(records[0]["versions"], cpu))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
