"""End-to-end pipelines.

:func:`run_full_flow` is the in-process entry point;
:func:`run_durable_flow` / :func:`resume_run` add crash-safe journals
and graceful shutdown (``python -m repro.flows`` drives them from the
shell — see :mod:`repro.flows.cli`).
"""

from repro.flows.durable import (
    DurableFlowRun,
    resume_run,
    run_durable_flow,
)
from repro.flows.full_flow import (
    FullFlowResult,
    build_flow_graph,
    run_extractions,
    run_full_flow,
)

__all__ = [
    "DurableFlowRun",
    "FullFlowResult",
    "build_flow_graph",
    "resume_run",
    "run_durable_flow",
    "run_extractions",
    "run_full_flow",
]
