"""Durable (journalled, resumable, interruptible) pipeline runs.

:func:`run_durable_flow` wraps :func:`repro.flows.run_full_flow` with
the durability machinery of :mod:`repro.engine.durability`:

* the flow parameters and every task outcome are appended (fsync'd) to
  ``<cache_dir>/runs/<run_id>/journal.jsonl`` as they happen;
* SIGINT/SIGTERM drain gracefully within ``REPRO_SHUTDOWN_GRACE``
  seconds, then raise :class:`~repro.errors.RunInterrupted` — the
  journal and a partial ``manifest.json`` (status ``interrupted``) are
  flushed first, so the run is resumable;
* :func:`resume_run` replays the journal, rebuilds the *same* graph
  from the journalled parameters (same content-addressed fingerprints)
  and re-executes it — completed artefacts are trusted only through
  the validating disk cache, so a ``kill -9`` at any point loses at
  most the in-flight tasks.

``python -m repro.flows`` (see :mod:`repro.flows.cli`) drives both
entry points from the command line.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cells.library import CELL_NAMES
from repro.cells.netlist_builder import Parasitics
from repro.cells.variants import DeviceVariant
from repro.engine import Engine, backend_for_workers, default_engine
from repro.engine.durability import (
    CancellationToken,
    GracefulShutdown,
    RunJournal,
    load_run,
    new_run_id,
    run_dir,
)
from repro.engine.fingerprint import fingerprint
from repro.errors import ReproError, RunInterrupted
from repro.flows.full_flow import (
    FullFlowResult,
    assemble_flow_result,
    build_flow_graph,
)
from repro.geometry.process import ProcessParameters
from repro.geometry.transistor_layout import ChannelCount
from repro.observe import maybe_activate
from repro.ppa.runner import DEFAULT_DT

#: Manifest filename written into the run directory.
MANIFEST_FILENAME = "manifest.json"


@dataclass
class DurableFlowRun:
    """Outcome of one completed durable run.

    ``resumed`` counts the ``resume`` records in the journal (0 for a
    run that finished in one invocation); ``run_dir`` holds the
    journal and the saved ``manifest.json``.
    """

    run_id: str
    result: FullFlowResult
    run_dir: Path
    resumed: int = 0


def flow_record(cells: List[str],
                cell_variants: List[DeviceVariant],
                channel_variants: List[ChannelCount],
                process: Optional[ProcessParameters],
                parasitics: Optional[Parasitics],
                dt: float) -> Dict[str, Any]:
    """JSON-serialisable flow parameters for the journal's begin record.

    Everything that shapes the task graph goes in, so a resume rebuilds
    an identical graph (identical fingerprints) from the journal alone.
    """
    return {
        "cells": list(cells),
        "variants": [v.value for v in cell_variants],
        "extraction_variants": [v.name for v in channel_variants],
        "process": asdict(process) if process is not None else None,
        "parasitics": asdict(parasitics) if parasitics is not None else None,
        "dt": dt,
    }


def _flow_kwargs_from(record: Dict[str, Any]) -> Dict[str, Any]:
    """Inverse of :func:`flow_record` (journal -> graph-builder args)."""
    try:
        return {
            "cells": [str(c) for c in record["cells"]],
            "cell_variants": [DeviceVariant(v) for v in record["variants"]],
            "channel_variants": [ChannelCount[v]
                                 for v in record["extraction_variants"]],
            "process": (ProcessParameters(**record["process"])
                        if record.get("process") else None),
            "parasitics": (Parasitics(**record["parasitics"])
                           if record.get("parasitics") else None),
            "dt": float(record.get("dt") or DEFAULT_DT),
        }
    except (KeyError, ValueError, TypeError) as exc:
        raise ReproError(
            f"journalled flow record is unusable: {exc}") from exc


def derive_run_id(flow: Dict[str, Any], prefix: str = "req") -> str:
    """A deterministic run id for one flow description.

    Identical requests map to the identical run id, which is what
    makes server-side resume work with zero client bookkeeping: a
    client that retries a timed-out or interrupted request lands on
    the *same* journal, and the engine recomputes only what the
    journal and the content-addressed cache did not preserve.
    """
    return f"{prefix}-{fingerprint(flow)[:16]}"


def _resolve_durable_engine(engine: Optional[Engine],
                            cache_dir,
                            max_workers: Optional[int],
                            backend=None) -> Engine:
    if engine is None:
        if (cache_dir is not None or max_workers is not None
                or backend is not None):
            if backend is None and max_workers is not None:
                backend = backend_for_workers(max_workers)
            engine = Engine(backend=backend, cache_dir=cache_dir)
        else:
            engine = default_engine()
    if engine.cache.cache_dir is None:
        raise ReproError(
            "durable runs need a disk cache: set REPRO_CACHE_DIR or pass "
            "cache_dir= (the journal and resumable artefacts live there)")
    return engine


def run_durable_flow(*,
                     cells: Optional[List[str]] = None,
                     variants: Optional[List[DeviceVariant]] = None,
                     extraction_variants: Optional[List[ChannelCount]]
                     = None,
                     process: Optional[ProcessParameters] = None,
                     parasitics: Optional[Parasitics] = None,
                     dt: float = DEFAULT_DT,
                     engine: Optional[Engine] = None,
                     cache_dir=None,
                     max_workers: Optional[int] = None,
                     backend=None,
                     run_id: Optional[str] = None,
                     grace: Optional[float] = None,
                     cancellation: Optional[CancellationToken] = None,
                     deadline: Optional[float] = None,
                     observe=None) -> DurableFlowRun:
    """Run the full pipeline durably; resume it by reusing ``run_id``.

    A fresh ``run_id`` (default) starts a new journal; an existing one
    appends a ``resume`` record and re-executes the journalled graph —
    the content-addressed cache turns everything that already finished
    into cache hits.  On SIGINT/SIGTERM the run drains within ``grace``
    seconds (default ``REPRO_SHUTDOWN_GRACE``), journals an
    ``interrupted`` end record, saves the partial manifest and raises
    :class:`~repro.errors.RunInterrupted` — pass the same ``run_id``
    (or use :func:`resume_run` / the CLI) to continue it later.

    ``cancellation`` hands control of interruption to the caller (the
    characterisation service cancels per-request tokens instead of
    installing signal handlers, which only work on the main thread);
    when provided, no signal handlers are installed here.  ``deadline``
    bounds the run's wall time in seconds — past it the run winds down
    at the next task boundary and raises
    :class:`~repro.errors.RunInterrupted` with the resumable run id.
    """
    engine = _resolve_durable_engine(engine, cache_dir, max_workers,
                                     backend)
    cache_root = engine.cache.cache_dir
    run_id = run_id or new_run_id()
    directory = run_dir(cache_root, run_id)
    journal = RunJournal.for_run(cache_root, run_id)

    cells = list(cells) if cells else list(CELL_NAMES)
    cell_variants = list(variants) if variants else list(DeviceVariant)
    channel_variants = (list(extraction_variants) if extraction_variants
                        else list(ChannelCount))
    flow = flow_record(cells, cell_variants, channel_variants,
                        process, parasitics, dt)

    resumed = 0
    if journal.exists:
        state = load_run(cache_root, run_id)
        if state.flow is not None and state.flow != flow:
            raise ReproError(
                f"run {run_id!r} was journalled with different flow "
                f"parameters; resume it without overrides "
                f"(resume_run / --resume)")
        resumed = state.resumes + 1
        journal.append({"type": "resume", "run_id": run_id})
    else:
        journal.append({"type": "begin", "run_id": run_id, "flow": flow})

    graph, extraction_pairs, ppa_pairs = build_flow_graph(
        cells, cell_variants, channel_variants, process, parasitics, dt)

    try:
        if cancellation is not None:
            # The caller owns interruption (per-request deadline/abort
            # tokens of the service) — don't touch signal handlers.
            with maybe_activate(observe):
                run = engine.run(graph, journal=journal,
                                 cancellation=cancellation,
                                 deadline=deadline)
        else:
            with GracefulShutdown(grace) as shutdown:
                with maybe_activate(observe):
                    run = engine.run(graph, journal=journal,
                                     cancellation=shutdown.token,
                                     deadline=deadline)
    except RunInterrupted as exc:
        exc.run_id = run_id
        if exc.manifest is not None:
            exc.manifest.run_id = run_id
            exc.manifest.save(directory / MANIFEST_FILENAME)
        journal.append({"type": "end", "status": "interrupted",
                        "run_id": run_id})
        journal.close()
        raise
    except BaseException:
        journal.close()
        raise

    run.manifest.run_id = run_id
    journal.append({"type": "end", "status": "completed",
                    "run_id": run_id})
    journal.close()
    run.manifest.save(directory / MANIFEST_FILENAME)
    result = assemble_flow_result(run, extraction_pairs, ppa_pairs)
    return DurableFlowRun(run_id=run_id, result=result,
                          run_dir=directory, resumed=resumed)


def resume_run(run_id: str, *,
               engine: Optional[Engine] = None,
               cache_dir=None,
               max_workers: Optional[int] = None,
               backend=None,
               grace: Optional[float] = None,
               cancellation: Optional[CancellationToken] = None,
               deadline: Optional[float] = None,
               observe=None) -> DurableFlowRun:
    """Continue an interrupted durable run from its journal.

    Replays ``<cache_dir>/runs/<run_id>/journal.jsonl``, rebuilds the
    journalled task graph and re-executes it.  Completed work is
    trusted only through the content-addressed disk cache (corrupt or
    missing entries are simply recomputed); at most the killed
    invocation's in-flight tasks are repeated.
    """
    engine = _resolve_durable_engine(engine, cache_dir, max_workers,
                                     backend)
    state = load_run(engine.cache.cache_dir, run_id)
    if state.flow is None:
        raise ReproError(
            f"journal of run {run_id!r} carries no flow parameters; "
            f"cannot rebuild its task graph")
    kwargs = _flow_kwargs_from(state.flow)
    return run_durable_flow(
        cells=kwargs["cells"],
        variants=kwargs["cell_variants"],
        extraction_variants=kwargs["channel_variants"],
        process=kwargs["process"],
        parasitics=kwargs["parasitics"],
        dt=kwargs["dt"],
        engine=engine,
        run_id=run_id,
        grace=grace,
        cancellation=cancellation,
        deadline=deadline,
        observe=observe)
