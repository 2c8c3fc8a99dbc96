"""Cross-mode parity matrix over the full pipeline.

The engine's central determinism promise is that execution *mode* never
changes the *numbers*: serial vs parallel, traced vs untraced, cold vs
warm cache, and fault-injected runs that recover through retries must
all produce bit-identical artifacts, and solver-rescue recoveries must
stay inside a documented tolerance class.

This module runs a reduced (but real) ``run_full_flow`` once per mode
and diffs every artifact — Table III extraction errors and per-cell PPA
numbers — against the serial-cold baseline.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cells.variants import DeviceVariant
from repro.engine import Engine
from repro.geometry.transistor_layout import ChannelCount
from repro.resilience import (
    FaultInjector,
    RetryPolicy,
    clear_faults,
    install,
)
from repro.verify.report import CheckResult, STATUS_FAIL, STATUS_PASS
from repro.verify.tolerances import tolerance_class

#: Reduced flow the matrix runs per mode (kept small: the point is mode
#: coverage, not library coverage — the full library runs in suite
#: ``all`` anyway).
PARITY_CELLS = ("INV1X1",)
PARITY_VARIANTS = (DeviceVariant.TWO_D, DeviceVariant.MIV_1CH)
PARITY_EXTRACTION = (ChannelCount.TRADITIONAL, ChannelCount.ONE)


@dataclass(frozen=True)
class ParityCell:
    """One execution mode of the parity matrix.

    Attributes
    ----------
    name:
        Matrix-cell identifier (``parity.<mode>``).
    backend:
        Execution-backend spec (``"serial"``, ``"pool:N"``).
    warm_from:
        Name of the matrix cell whose disk cache this run reuses
        (None = cold: a fresh cache directory).
    traced:
        Run under an active recording tracer.
    faults:
        Fault-injection spec installed for the run (None = clean).
    retries:
        Task retries granted to the engine (for ``stage_exc`` faults).
    comparison:
        ``bitwise`` — artifacts must equal the baseline exactly;
        ``tolerance`` — equal within :attr:`tolerance` (documented
        rescue-path deviation).
    tolerance:
        Tolerance class for ``comparison == "tolerance"``.
    chaos:
        Durability scenario run through *real subprocesses* (see
        :mod:`repro.resilience.chaos`): ``"kill-resume"`` SIGKILLs a
        journalled CLI run at a task boundary and resumes it;
        ``"concurrent"`` runs two invocations against one shared cache
        (and additionally requires zero quarantined entries).
        ``None`` = plain in-process mode.
    remote:
        Remote-cache-tier scenario: ``"flaky"`` runs a live
        ``repro.cachesrv`` behind a fault-injecting
        :class:`~repro.resilience.netchaos.ChaosProxy` (drop / delay /
        truncate / corrupt / 500-burst), seeds the remote store through
        the proxy, then replays from a cold local cache — the replay
        must still be bit-identical and must land at least one remote
        hit; ``"down"`` points ``REPRO_REMOTE_CACHE`` at a dead
        endpoint — the run must complete locally (no task failure)
        with the tier degraded (breaker open).  ``None`` = no remote
        tier (the variable is stripped for the run).
    """

    name: str
    description: str
    backend: str = "serial"
    warm_from: Optional[str] = None
    traced: bool = False
    faults: Optional[str] = None
    retries: int = 0
    comparison: str = "bitwise"
    tolerance: str = "calibrated"
    chaos: Optional[str] = None
    remote: Optional[str] = None


#: The matrix: {serial, parallel} x {traced, untraced} x {cold, warm}
#: x {fault-injected with recovery}.  The baseline must come first.
PARITY_MATRIX: Tuple[ParityCell, ...] = (
    ParityCell(
        name="serial-cold",
        description="reference run: one worker, fresh cache"),
    ParityCell(
        name="parallel-cold",
        description="process-pool run, fresh cache", backend="pool:2"),
    ParityCell(
        name="serial-warm",
        description="serial replay from the serial-cold disk cache",
        warm_from="serial-cold"),
    ParityCell(
        name="parallel-warm",
        description="pool replay from the parallel-cold disk cache",
        backend="pool:2", warm_from="parallel-cold"),
    ParityCell(
        name="traced-serial-cold",
        description="serial cold run under an active tracer",
        traced=True),
    ParityCell(
        name="traced-parallel-cold",
        description="pool cold run under an active tracer",
        backend="pool:2", traced=True),
    ParityCell(
        name="faulted-retry",
        description="injected stage exceptions healed by task retries "
                    "(must stay bit-identical)",
        faults="stage_exc:cell_ppa:first=1", retries=2),
    ParityCell(
        name="faulted-rescue",
        description="injected transient non-convergence healed by the "
                    "solver rescue ladder (tolerance-equal)",
        faults="convergence:transient.newton:first=2",
        comparison="tolerance"),
    ParityCell(
        name="interrupted-resumed",
        description="CLI run SIGKILLed at a task boundary, then "
                    "resumed from its journal (must stay "
                    "bit-identical)",
        faults="proc_kill:*:after=3", chaos="kill-resume"),
    ParityCell(
        name="concurrent-shared-cache",
        description="two concurrent CLI invocations sharing one cache "
                    "directory (bit-identical, zero quarantined "
                    "entries)",
        chaos="concurrent"),
    ParityCell(
        name="remote-flaky",
        description="remote cache behind a fault-injecting proxy "
                    "(drop/delay/truncate/corrupt/500): seed through "
                    "chaos, replay cold-local with >=1 remote hit "
                    "(must stay bit-identical)",
        remote="flaky"),
    ParityCell(
        name="remote-down",
        description="remote endpoint fully dead: run degrades to "
                    "local-only (breaker open, zero task failures, "
                    "must stay bit-identical)",
        remote="down"),
)

#: Modes of the fast suite (one representative per mechanism).
FAST_MODES = ("serial-cold", "parallel-cold", "serial-warm",
              "faulted-rescue")


def flow_artifacts(flow) -> Dict[str, float]:
    """Flatten a :class:`FullFlowResult` into comparable numbers."""
    out: Dict[str, float] = {"extraction.max_error":
                             flow.extraction.max_error()}
    for device in flow.extraction.devices:
        label = (f"{device.targets.variant.name}:"
                 f"{device.targets.polarity.value}")
        for region, error in sorted(device.errors.items()):
            out[f"extraction.{region}.{label}"] = error
    for cell in flow.ppa.cell_names:
        for variant, item in sorted(flow.ppa.results[cell].items(),
                                    key=lambda kv: kv[0].value):
            prefix = f"ppa.{cell}.{variant.value}"
            out[f"{prefix}.delay"] = item.delay
            out[f"{prefix}.power"] = item.power
            out[f"{prefix}.area"] = item.area
            out[f"{prefix}.substrate"] = item.substrate
    return out


def _compare(cell: ParityCell, baseline: Dict[str, float],
             candidate: Dict[str, float]) -> Tuple[bool, str]:
    """Judge one matrix cell's artifacts against the baseline."""
    if set(baseline) != set(candidate):
        missing = sorted(set(baseline) - set(candidate))
        extra = sorted(set(candidate) - set(baseline))
        return False, (f"artifact key mismatch: missing {missing[:4]}, "
                       f"extra {extra[:4]}")
    if cell.comparison == "bitwise":
        mismatched = [k for k in sorted(baseline)
                      if not (baseline[k] == candidate[k])]
        if mismatched:
            worst = mismatched[0]
            return False, (f"{len(mismatched)} artifacts differ "
                           f"bitwise, e.g. {worst}: "
                           f"{baseline[worst]!r} != {candidate[worst]!r}")
        return True, f"{len(baseline)} artifacts bit-identical"
    tol = tolerance_class(cell.tolerance)
    worst_key, worst_err = "", 0.0
    for key in sorted(baseline):
        err = tol.relative_error(baseline[key], candidate[key])
        if err > worst_err:
            worst_key, worst_err = key, err
    if not all(tol.accepts(baseline[k], candidate[k])
               for k in baseline):
        return False, (f"outside tolerance class {tol.name!r}: "
                       f"{worst_key} rel err {worst_err:.3e}")
    return True, (f"{len(baseline)} artifacts within {tol.name!r} "
                  f"(worst rel err {worst_err:.3e} at "
                  f"{worst_key or 'n/a'})")


def _run_chaos_mode(cell: ParityCell, cache_dir: Path,
                    flow_kwargs: Dict[str, Any]):
    """Execute one durability scenario through real subprocesses."""
    from repro.engine.cache import ArtifactCache
    from repro.errors import ReproError
    from repro.flows.durable import resume_run
    from repro.flows.full_flow import run_full_flow
    from repro.resilience import chaos

    argv_kwargs = dict(
        cells=flow_kwargs["cells"],
        variants=[v.value for v in flow_kwargs["variants"]],
        extraction_variants=[v.name
                             for v in flow_kwargs["extraction_variants"]])
    if cell.chaos == "kill-resume":
        run_id = f"parity-{cell.name}"
        env = chaos.repro_env(cache_dir, faults=cell.faults or "")
        outcome = chaos.run_flow(
            chaos.flow_argv(run_id=run_id, backend="serial", **argv_kwargs), env)
        if not outcome.killed:
            raise ReproError(
                f"chaos run was not killed (exit {outcome.returncode}): "
                f"{outcome.stderr[-300:]}")
        # Resume in-process (no faults) — journalled graph, same keys.
        return resume_run(
            run_id,
            engine=Engine(backend="serial", cache_dir=cache_dir)).result
    if cell.chaos == "concurrent":
        env = chaos.repro_env(cache_dir)
        argvs = [chaos.flow_argv(run_id=f"parity-conc-{i}",
                                 backend="serial", **argv_kwargs)
                 for i in (1, 2)]
        outcomes = chaos.run_concurrent_flows(argvs, env)
        bad = [o for o in outcomes if o.returncode != 0]
        if bad:
            raise ReproError(
                f"{len(bad)} concurrent invocation(s) failed "
                f"(exit {bad[0].returncode}): {bad[0].stderr[-300:]}")
        quarantined = ArtifactCache(cache_dir=cache_dir).quarantined()
        if quarantined:
            raise ReproError(
                f"shared cache has {len(quarantined)} quarantined "
                f"entries after concurrent runs: {quarantined[:3]}")
        # Warm in-process replay: every artefact must come from the
        # cache the two invocations co-populated.
        return run_full_flow(
            engine=Engine(backend="serial", cache_dir=cache_dir),
            **flow_kwargs)
    raise ReproError(f"unknown chaos scenario {cell.chaos!r}")


def _run_remote_mode(cell: ParityCell, cache_dir: Path,
                     flow_kwargs: Dict[str, Any]):
    """Execute one remote-cache-tier scenario (flaky proxy / dead
    endpoint) and enforce its side conditions."""
    from repro.engine import remote as remote_mod
    from repro.errors import ReproError
    from repro.flows.full_flow import run_full_flow

    def _with_env(overrides: Dict[str, str], fn):
        saved = {key: os.environ.get(key) for key in overrides}
        os.environ.update(overrides)
        try:
            return fn()
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value

    if cell.remote == "down":
        # Reserved/discard port: every connect is refused instantly.
        overrides = {
            remote_mod.REMOTE_CACHE_ENV: "http://127.0.0.1:9",
            remote_mod.REMOTE_TIMEOUT_ENV: "0.2",
            remote_mod.REMOTE_RETRIES_ENV: "0",
            remote_mod.REMOTE_BREAKER_THRESHOLD_ENV: "2",
        }
        engine = _with_env(overrides, lambda: Engine(
            backend="serial", cache_dir=cache_dir))
        flow = run_full_flow(engine=engine, **flow_kwargs)
        tier = engine.cache.remote
        if tier is None:
            raise ReproError("remote-down mode did not attach a "
                             "remote tier")
        if not engine.cache.remote_degraded:
            raise ReproError(
                f"remote-down run never degraded: {tier.stats()}")
        return flow
    if cell.remote == "flaky":
        from repro.cachesrv import CacheServer
        from repro.resilience.netchaos import ChaosProxy, NetFaultPlan
        server = CacheServer(
            cache_dir / "remote-store").serve_in_thread()
        plan = NetFaultPlan(drop=0.08, delay=0.03, truncate=0.08,
                            corrupt=0.08, error500=0.08,
                            delay_s=1.0, seed=20260808)
        proxy = ChaosProxy(server.url, plan).serve_in_thread()
        overrides = {
            remote_mod.REMOTE_CACHE_ENV: proxy.url,
            remote_mod.REMOTE_TIMEOUT_ENV: "0.5",
            remote_mod.REMOTE_RETRIES_ENV: "3",
            remote_mod.REMOTE_BREAKER_RESET_ENV: "0.2",
        }
        try:
            # Seed the remote store through the chaos proxy...
            seed_engine = _with_env(overrides, lambda: Engine(
                backend="serial", cache_dir=cache_dir / "seed"))
            run_full_flow(engine=seed_engine, **flow_kwargs)
            # ...then replay from a cold local cache: artifacts must
            # come out identical whether a fetch survived the chaos or
            # fell through to a local recompute.
            replay_engine = _with_env(overrides, lambda: Engine(
                backend="serial", cache_dir=cache_dir / "replay"))
            flow = _with_env(overrides, lambda: run_full_flow(
                engine=replay_engine, **flow_kwargs))
        finally:
            proxy.close()
            server.close()
        tier = replay_engine.cache.remote
        if tier is None:
            raise ReproError("remote-flaky mode did not attach a "
                             "remote tier")
        if replay_engine.cache.hits_remote < 1:
            raise ReproError(
                f"remote-flaky replay landed no remote hit: "
                f"{tier.stats()}; proxy faults {proxy.faults}")
        return flow
    from repro.errors import ReproError as _ReproError
    raise _ReproError(f"unknown remote scenario {cell.remote!r}")


def _run_mode(cell: ParityCell, cache_dir: Path,
              flow_kwargs: Dict[str, Any]):
    """Execute the reduced flow under one mode's engine/fault setup."""
    from repro.engine.remote import REMOTE_CACHE_ENV
    from repro.flows.full_flow import run_full_flow
    from repro.observe import Tracer
    if cell.chaos is not None:
        return _run_chaos_mode(cell, cache_dir, flow_kwargs)
    if cell.remote is not None:
        return _run_remote_mode(cell, cache_dir, flow_kwargs)
    injector = (FaultInjector.parse(cell.faults)
                if cell.faults else None)
    install(injector) if injector else clear_faults()
    overrides = {
        # Local-only modes must stay local even when the session
        # exports a remote endpoint.
        REMOTE_CACHE_ENV: "",
    }
    saved = {key: os.environ.get(key) for key in overrides}
    os.environ.update(overrides)
    try:
        engine = Engine(
            backend=cell.backend, cache_dir=cache_dir,
            retry_policy=RetryPolicy(retries=cell.retries, backoff=0.0),
            observe=Tracer() if cell.traced else None)
        return run_full_flow(engine=engine, **flow_kwargs)
    finally:
        clear_faults()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_parity_matrix(
        cells: Sequence[str] = PARITY_CELLS,
        variants: Sequence[DeviceVariant] = PARITY_VARIANTS,
        extraction_variants: Sequence[ChannelCount] = PARITY_EXTRACTION,
        modes: Optional[Sequence[str]] = None,
        workdir: Optional[Path] = None) -> List[CheckResult]:
    """Run the matrix and diff every mode against serial-cold.

    ``modes`` selects a subset by name (the baseline always runs);
    ``workdir`` hosts the per-mode cache directories (a temporary
    directory by default).
    """
    wanted = set(modes) if modes is not None else \
        {c.name for c in PARITY_MATRIX}
    selected = [c for c in PARITY_MATRIX
                if c.name in wanted or c.name == "serial-cold"]
    unknown = wanted - {c.name for c in PARITY_MATRIX}
    if unknown:
        from repro.errors import ReproError
        raise ReproError(f"unknown parity modes: {sorted(unknown)}")
    # Warm modes need their cold donor in the run.
    names = {c.name for c in selected}
    selected += [c for c in PARITY_MATRIX
                 if c.name in {w.warm_from for w in selected
                               if w.warm_from} - names]
    selected.sort(key=lambda c: [m.name for m in PARITY_MATRIX]
                  .index(c.name))

    flow_kwargs = dict(cells=list(cells), variants=list(variants),
                       extraction_variants=list(extraction_variants))
    results: List[CheckResult] = []
    baseline: Optional[Dict[str, float]] = None
    with tempfile.TemporaryDirectory(
            prefix="repro-parity-") as scratch:
        base = Path(workdir) if workdir is not None else Path(scratch)
        cache_dirs: Dict[str, Path] = {}
        for cell in selected:
            cache_dir = (cache_dirs[cell.warm_from] if cell.warm_from
                         else base / f"cache-{cell.name}")
            cache_dirs[cell.name] = cache_dir
            start = time.perf_counter()
            try:
                flow = _run_mode(cell, cache_dir, flow_kwargs)
            except Exception as exc:
                results.append(CheckResult(
                    name=f"parity.{cell.name}", status=STATUS_FAIL,
                    detail=f"{cell.description}; run raised "
                           f"{type(exc).__name__}: {exc}",
                    wall_time_s=time.perf_counter() - start))
                continue
            elapsed = time.perf_counter() - start
            artifacts = flow_artifacts(flow)
            if baseline is None:
                baseline = artifacts
                results.append(CheckResult(
                    name=f"parity.{cell.name}", status=STATUS_PASS,
                    measured=len(artifacts), tolerance="baseline",
                    detail=cell.description, wall_time_s=elapsed))
                continue
            ok, note = _compare(cell, baseline, artifacts)
            results.append(CheckResult(
                name=f"parity.{cell.name}",
                status=STATUS_PASS if ok else STATUS_FAIL,
                measured=len(artifacts),
                tolerance=(cell.comparison if cell.comparison ==
                           "bitwise" else cell.tolerance),
                detail=f"{cell.description}; {note}",
                wall_time_s=elapsed))
    return results
