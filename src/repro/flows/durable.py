"""Durable (journalled, resumable, interruptible) pipeline runs.

:func:`run_durable_flow` wraps :func:`repro.flows.run_full_flow` with
the durability machinery of :mod:`repro.engine.durability`:

* the request's :class:`~repro.flows.full_flow.FlowSpec` record and
  every task outcome are appended (fsync'd) to
  ``<cache_dir>/runs/<run_id>/journal.jsonl`` as they happen;
* SIGINT/SIGTERM drain gracefully within ``REPRO_SHUTDOWN_GRACE``
  seconds, then raise :class:`~repro.errors.RunInterrupted` — the
  journal and a partial ``manifest.json`` (status ``interrupted``) are
  flushed first, so the run is resumable;
* :func:`resume_run` replays the journal, rebuilds the *same* graph
  from the journalled spec (same content-addressed fingerprints) and
  re-executes it — completed artefacts are trusted only through
  the validating disk cache, so a ``kill -9`` at any point loses at
  most the in-flight tasks.

Both entry points (and :func:`run_durable_spec`, which the service
calls with the spec it parsed) run on ``engine=`` (default
:func:`~repro.engine.default_engine`), which must have a disk cache:
the journal and the resumable artefacts live in its cache directory.
Width and tracing are the engine's own settings
(``Engine(backend=..., observe=...)``).

``python -m repro.flows`` (see :mod:`repro.flows.cli`) drives both
entry points from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.cells.netlist_builder import Parasitics
from repro.cells.variants import DeviceVariant
from repro.engine import Engine, default_engine
from repro.engine.durability import (
    CancellationToken,
    GracefulShutdown,
    RunJournal,
    load_run,
    new_run_id,
    run_dir,
)
from repro.errors import ReproError, RunInterrupted
from repro.flows.full_flow import (
    FlowSpec,
    FullFlowResult,
    assemble_flow_result,
)
from repro.geometry.process import ProcessParameters
from repro.geometry.transistor_layout import ChannelCount
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


def _resolve_durable_engine(engine: Optional[Engine]) -> Engine:
    engine = engine if engine is not None else default_engine()
    if engine.cache.cache_dir is None:
        raise ReproError(
            "durable runs need a disk cache: set REPRO_CACHE_DIR or pass "
            "an engine with a cache_dir (the journal and resumable "
            "artefacts live there)")
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
                     run_id: Optional[str] = None,
                     grace: Optional[float] = None,
                     cancellation: Optional[CancellationToken] = None,
                     ) -> DurableFlowRun:
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
    when provided, no signal handlers are installed here.  A token
    armed with a deadline bounds the run's wall time: past it the run
    winds down at the next task boundary and raises
    :class:`~repro.errors.RunInterrupted` with the resumable run id.
    """
    spec = FlowSpec(cells=cells, variants=variants,
                    extraction_variants=extraction_variants,
                    process=process, parasitics=parasitics, dt=dt)
    return run_durable_spec(spec, engine=engine, run_id=run_id,
                            grace=grace, cancellation=cancellation)


def run_durable_spec(spec: FlowSpec, *,
                     engine: Optional[Engine] = None,
                     run_id: Optional[str] = None,
                     grace: Optional[float] = None,
                     cancellation: Optional[CancellationToken] = None,
                     ) -> DurableFlowRun:
    """:func:`run_durable_flow` of a request already built as a spec.

    An existing journal under ``run_id`` resumes only when its
    journalled spec equals ``spec``.
    """
    engine = _resolve_durable_engine(engine)
    cache_root = engine.cache.cache_dir
    run_id = run_id or new_run_id()
    directory = run_dir(cache_root, run_id)
    journal = RunJournal.for_run(cache_root, run_id)

    resumed = 0
    if journal.exists:
        state = load_run(cache_root, run_id)
        if (state.flow is not None
                and FlowSpec.from_record(state.flow) != spec):
            raise ReproError(
                f"run {run_id!r} was journalled with different flow "
                f"parameters; resume it without overrides "
                f"(resume_run / --resume)")
        resumed = state.resumes + 1
        journal.append({"type": "resume", "run_id": run_id})
    else:
        journal.append({"type": "begin", "run_id": run_id,
                        "flow": spec.record()})

    graph, extraction_pairs, ppa_pairs = spec.graph()

    try:
        if cancellation is not None:
            # The caller owns interruption (per-request deadline/abort
            # tokens of the service) — don't touch signal handlers.
            run = engine.run(graph, journal=journal,
                             cancellation=cancellation)
        else:
            with GracefulShutdown(grace) as shutdown:
                run = engine.run(graph, journal=journal,
                                 cancellation=shutdown.token)
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
               grace: Optional[float] = None,
               cancellation: Optional[CancellationToken] = None,
               ) -> DurableFlowRun:
    """Continue an interrupted durable run from its journal.

    Replays ``<cache_dir>/runs/<run_id>/journal.jsonl``, rebuilds the
    journalled task graph and re-executes it.  Completed work is
    trusted only through the content-addressed disk cache (corrupt or
    missing entries are simply recomputed); at most the killed
    invocation's in-flight tasks are repeated.
    """
    engine = _resolve_durable_engine(engine)
    state = load_run(engine.cache.cache_dir, run_id)
    if state.flow is None:
        raise ReproError(
            f"journal of run {run_id!r} carries no flow parameters; "
            f"cannot rebuild its task graph")
    return run_durable_spec(FlowSpec.from_record(state.flow),
                            engine=engine, run_id=run_id, grace=grace,
                            cancellation=cancellation)
