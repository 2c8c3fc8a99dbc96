"""Chaos harness: drive real ``python -m repro.flows`` subprocesses.

The durability guarantees worth having are the ones that survive a
*real* ``kill -9`` — not a mocked one.  This module spawns actual CLI
invocations with fault specs in their environment
(:data:`~repro.resilience.faults.FAULTS_ENV`), so a test can:

* kill the driver at a chosen task boundary (``proc_kill`` with
  ``after=k``) and assert that ``--resume`` completes the run with
  bit-identical artefacts;
* kill it *mid disk-cache write* (``write_kill``) and assert the cache
  never serves a torn entry;
* run K invocations concurrently against one shared cache directory
  and assert single-flight bounded the duplicate work;
* deliver SIGTERM and assert the graceful-shutdown contract (exit code
  :data:`~repro.engine.durability.EXIT_INTERRUPTED`, a journalled
  ``interrupted`` end record, a resumable manifest).

Everything here is plain subprocess plumbing — the deterministic fault
*placement* comes from the seeded injector, so chaos runs are
reproducible.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro
from repro.resilience.faults import FAULTS_ENV

#: Default per-invocation wall clock bound [s]; chaos tests must never
#: hang CI, so every wait in this module is bounded.
DEFAULT_TIMEOUT_S = 300.0


def repro_env(cache_dir: os.PathLike,
              faults: str = "",
              extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a subprocess invocation of this checkout.

    Points ``PYTHONPATH`` at the package root (so the child imports
    the same code under test), ``REPRO_CACHE_DIR`` at the shared cache
    and ``REPRO_FAULTS`` at the chaos spec.
    """
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (src_root + os.pathsep + existing
                         if existing else src_root)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    # Chaos invocations are local-only unless the experiment wires a
    # remote endpoint back in via ``extra``.
    env.pop("REPRO_REMOTE_CACHE", None)
    if faults:
        env[FAULTS_ENV] = faults
    else:
        env.pop(FAULTS_ENV, None)
    env.update(extra or {})
    return env


def flow_argv(cells: Sequence[str] = ("INV1X1",),
              variants: Sequence[str] = ("2D",),
              extraction_variants: Sequence[str] = ("TRADITIONAL",),
              run_id: Optional[str] = None,
              resume: Optional[str] = None,
              backend: Optional[str] = None,
              extra: Sequence[str] = ()) -> List[str]:
    """``python -m repro.flows ...`` argv for a (small) chaos flow."""
    argv = [sys.executable, "-m", "repro.flows"]
    if resume is not None:
        argv += ["resume", resume]
    else:
        argv += ["run",
                 "--cells", ",".join(cells),
                 "--variants", ",".join(variants),
                 "--extraction-variants", ",".join(extraction_variants)]
        if run_id is not None:
            argv += ["--run-id", run_id]
    if backend is not None:
        argv += ["--backend", backend]
    argv += list(extra)
    return argv


@dataclass
class FlowOutcome:
    """What one chaos subprocess did."""

    argv: List[str]
    returncode: int
    stdout: str = ""
    stderr: str = ""
    wall_s: float = 0.0

    @property
    def killed(self) -> bool:
        """True when the process died on a signal (e.g. SIGKILL)."""
        return self.returncode < 0


def spawn_flow(argv: Sequence[str],
               env: Dict[str, str]) -> subprocess.Popen:
    """Start a flow invocation without waiting (for signal delivery).

    stdout/stderr go to temp *files*, not pipes: a ``kill -9``'d
    driver leaves orphaned pool workers that inherit its streams, and
    a pipe would keep a waiter blocked until those orphans exit.  With
    files, :func:`finish` only waits for the driver process itself.
    The child gets its own session so cleanup can kill the whole tree.
    """
    out = tempfile.TemporaryFile(mode="w+", encoding="utf-8")
    err = tempfile.TemporaryFile(mode="w+", encoding="utf-8")
    proc = subprocess.Popen(list(argv), env=env, stdout=out, stderr=err,
                            text=True, start_new_session=True)
    proc._chaos_streams = (out, err)  # type: ignore[attr-defined]
    return proc


def _kill_tree(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (OSError, AttributeError):  # pragma: no cover - already gone
        try:
            proc.kill()
        except OSError:
            pass


def finish(proc: subprocess.Popen,
           timeout: float = DEFAULT_TIMEOUT_S) -> FlowOutcome:
    """Collect a spawned invocation into a :class:`FlowOutcome`.

    Waits only for the driver process (orphaned pool workers do not
    block collection) and always reaps the child's process group.
    """
    start = time.monotonic()
    try:
        returncode = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_tree(proc)
        proc.wait()
        raise
    stdout = stderr = ""
    streams = getattr(proc, "_chaos_streams", None)
    if streams is not None:
        for name, stream in zip(("stdout", "stderr"), streams):
            stream.seek(0)
            text = stream.read()
            stream.close()
            if name == "stdout":
                stdout = text
            else:
                stderr = text
    # Reap any orphaned workers of a killed driver.
    if returncode < 0:
        _kill_tree(proc)
    return FlowOutcome(argv=list(proc.args), returncode=returncode,
                       stdout=stdout, stderr=stderr,
                       wall_s=time.monotonic() - start)


def run_flow(argv: Sequence[str], env: Dict[str, str],
             timeout: float = DEFAULT_TIMEOUT_S) -> FlowOutcome:
    """Run one flow invocation to completion (or its fault-kill)."""
    return finish(spawn_flow(argv, env), timeout=timeout)


def run_concurrent_flows(argvs: Sequence[Sequence[str]],
                         env: Dict[str, str],
                         stagger_s: float = 0.0,
                         timeout: float = DEFAULT_TIMEOUT_S,
                         ) -> List[FlowOutcome]:
    """Run K invocations concurrently against one shared environment.

    ``stagger_s`` optionally offsets the starts (0 = simultaneous).
    All processes are reaped even when one fails.
    """
    procs: List[subprocess.Popen] = []
    try:
        for i, argv in enumerate(argvs):
            if i and stagger_s:
                time.sleep(stagger_s)
            procs.append(spawn_flow(argv, env))
        return [finish(proc, timeout=timeout) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                _kill_tree(proc)
                proc.wait()


def terminate_gracefully(proc: subprocess.Popen,
                         after_s: float = 0.0,
                         sig: int = signal.SIGTERM,
                         timeout: float = DEFAULT_TIMEOUT_S) -> FlowOutcome:
    """Deliver a signal after a delay, then collect the outcome."""
    if after_s > 0:
        deadline = time.monotonic() + after_s
        while time.monotonic() < deadline and proc.poll() is None:
            time.sleep(0.02)
    if proc.poll() is None:
        proc.send_signal(sig)
    return finish(proc, timeout=timeout)


@dataclass
class ChaosReport:
    """Aggregate of one chaos scenario (kills + final completion)."""

    outcomes: List[FlowOutcome] = field(default_factory=list)

    @property
    def kills(self) -> int:
        return sum(1 for o in self.outcomes if o.killed)

    @property
    def completed(self) -> bool:
        return bool(self.outcomes) and self.outcomes[-1].returncode == 0


def run_until_complete(make_argv, env: Dict[str, str],
                       max_invocations: int = 10,
                       timeout: float = DEFAULT_TIMEOUT_S) -> ChaosReport:
    """Invoke, and re-invoke on kill, until a run completes.

    ``make_argv(attempt, previous)`` returns the argv for each attempt
    (``previous`` is the prior :class:`FlowOutcome` or ``None``) — the
    caller decides how to thread the run id into a ``resume``.  Stops
    on the first clean exit, a non-signal failure, or after
    ``max_invocations``.
    """
    report = ChaosReport()
    previous: Optional[FlowOutcome] = None
    for attempt in range(max_invocations):
        outcome = run_flow(make_argv(attempt, previous), env,
                           timeout=timeout)
        report.outcomes.append(outcome)
        previous = outcome
        if not outcome.killed:
            break
    return report
