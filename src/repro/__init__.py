"""repro — reproduction of "FDSOI Process Based MIV-transistor Utilization
for Standard Cell Designs in Monolithic 3D Integration" (SOCC 2023).

The package rebuilds the paper's whole tool chain in Python:

* :mod:`repro.tcad` — numerical FDSOI device simulator (Sentaurus stand-in),
* :mod:`repro.compact` — BSIMSOI4-lite level-70 compact model,
* :mod:`repro.extraction` — the staged TCAD-to-SPICE extraction of Fig. 3,
* :mod:`repro.spice` — MNA circuit simulator (HSPICE stand-in),
* :mod:`repro.cells` — the 14 standard cells in four implementations,
* :mod:`repro.layout` — design-rule-driven area model,
* :mod:`repro.ppa` — the Figure-5 power/performance/area harness,
* :mod:`repro.engine` — content-addressed, parallel execution engine
  every expensive artefact is produced and cached through,
* :mod:`repro.observe` — span tracing, metrics and trace exports,
* :mod:`repro.flows` — one-call end-to-end pipeline,
* :mod:`repro.serve` — multi-tenant characterisation service
  (admission control, deadlines, request coalescing, graceful drain),
* :mod:`repro.reporting` — regeneration of every table and figure.

Quickstart (1.2 API — keyword-only, engine-first)::

    from repro import quick_ppa
    comparison = quick_ppa(cells=["INV1X1", "NAND2X1"])
    print(comparison.render_metric("delay", scale=1e12, unit="ps"))

Every public entry point — :func:`quick_ppa`,
:func:`repro.flows.run_full_flow`, :func:`repro.flows.run_extractions`
and :class:`repro.ppa.runner.PpaRunner` — shares one keyword-only
signature family ``(*, cells=None, variants=None, parasitics=None,
dt=DEFAULT_DT, engine=None, observe=None)`` and accepts ``observe=`` to
scope tracing to the call (``True``, a path, or a
:class:`repro.observe.Tracer`)::

    comparison = quick_ppa(cells=["INV1X1"], observe="trace_out/")
    # trace_out/trace.json loads in chrome://tracing / Perfetto
"""

from repro.cells.netlist_builder import Parasitics
from repro.cells.variants import DeviceVariant
from repro.engine import (
    Engine,
    ExecutionBackend,
    PoolBackend,
    RunManifest,
    SerialBackend,
    TaskFailure,
    default_engine,
    resolve_backend,
)
from repro.errors import EngineRunError
from repro.flows import FullFlowResult, run_extractions, run_full_flow
from repro.geometry.process import DEFAULT_PROCESS, ProcessParameters
from repro.geometry.transistor_layout import ChannelCount
from repro.observe import (
    NULL_TRACER,
    Tracer,
    configure,
    configure_logging,
    get_tracer,
    summary_table,
)
from repro.ppa.comparison import PpaComparison
from repro.ppa.runner import DEFAULT_DT, PpaRunner
from repro.resilience import FaultInjector, RetryPolicy
from repro.tcad.device import Polarity, design_for_variant

__version__ = "1.21.0"

__all__ = [
    "ChannelCount",
    "DEFAULT_DT",
    "DEFAULT_PROCESS",
    "DeviceVariant",
    "Engine",
    "EngineRunError",
    "ExecutionBackend",
    "FaultInjector",
    "FullFlowResult",
    "NULL_TRACER",
    "Parasitics",
    "Polarity",
    "PoolBackend",
    "PpaComparison",
    "PpaRunner",
    "ProcessParameters",
    "RetryPolicy",
    "RunManifest",
    "SerialBackend",
    "TaskFailure",
    "Tracer",
    "configure",
    "configure_logging",
    "default_engine",
    "design_for_variant",
    "get_tracer",
    "quick_ppa",
    "resolve_backend",
    "run_extractions",
    "run_full_flow",
    "summary_table",
    "__version__",
]


def quick_ppa(*, cells=None, variants=None, parasitics=None,
              dt=DEFAULT_DT, engine=None, observe=None) -> PpaComparison:
    """Run the full pipeline on a set of cells and return the comparison.

    Convenience wrapper over :class:`repro.ppa.runner.PpaRunner` — the
    first call characterises and extracts all device variants (about half
    a minute), later calls reuse the caches.  ``observe`` scopes a tracer
    to the call (see :mod:`repro.observe`).
    """
    runner = PpaRunner(parasitics=parasitics, dt=dt,
                       engine=engine if engine is not None
                       else default_engine(),
                       observe=observe)
    return PpaComparison.from_results(
        runner.sweep(cells=cells, variants=variants))
