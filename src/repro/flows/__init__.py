"""End-to-end pipelines.

:func:`run_full_flow` is the in-process entry point;
:class:`FlowSpec` is what one request for the flow means (its
defaults, names, journal record, run id and task graph), which every
entry point builds from its keywords;
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
    FlowSpec,
    FullFlowResult,
    run_extractions,
    run_full_flow,
)

__all__ = [
    "DurableFlowRun",
    "FlowSpec",
    "FullFlowResult",
    "resume_run",
    "run_durable_flow",
    "run_extractions",
    "run_full_flow",
]
