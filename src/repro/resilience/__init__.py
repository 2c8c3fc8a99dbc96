"""Fault tolerance: retry policies, rescue ladders, fault injection.

The failure-domain layer of the pipeline.  Three pieces:

* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, the engine's
  per-task retry/backoff/timeout knobs (``REPRO_TASK_RETRIES``,
  ``REPRO_TASK_TIMEOUT``), plus jittered backoff for network callers;
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`, the
  three-state (closed/open/half-open) breaker bounding the cost of a
  dead dependency to one failed probe per reset window;
* :mod:`repro.resilience.netchaos` — :class:`ChaosProxy`, the
  fault-injecting HTTP proxy (drop, delay, truncate, corrupt,
  500-burst) that chaos-tests the remote cache tier;
* :mod:`repro.resilience.rescue` — :func:`continue_solve`, the adaptive
  parameter-continuation primitive of Newton's rescue ladder;
* :mod:`repro.resilience.faults` — :class:`FaultInjector`, the
  deterministic seeded injector (``REPRO_FAULTS``) that drives every
  recovery path under test: stage exceptions, SIGKILLed pool workers,
  forced solver non-convergence, driver ``kill -9`` at task
  boundaries and mid-cache-write;
* :mod:`repro.resilience.chaos` — the subprocess chaos harness that
  turns those faults into whole-process experiments (kill/resume
  cycles, SIGTERM drains, K concurrent invocations on one cache).

See the "Fault tolerance" sections of README.md / DESIGN.md for the
end-to-end semantics (retry → continue → resume).
"""

from repro.resilience.breaker import (
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)
from repro.resilience.chaos import (
    ChaosReport,
    FlowOutcome,
    flow_argv,
    finish,
    repro_env,
    run_concurrent_flows,
    run_flow,
    run_until_complete,
    spawn_flow,
    terminate_gracefully,
)
from repro.resilience.faults import (
    FAULTS_ENV,
    FaultInjector,
    FaultRule,
    active_injector,
    clear_faults,
    draw_fault,
    install,
    kill_current_process,
    maybe_inject,
)
from repro.resilience.rescue import (
    MAX_SPLITS,
    ContinuationResult,
    continue_solve,
)
from repro.resilience.retry import (
    TASK_RETRIES_ENV,
    TASK_TIMEOUT_ENV,
    RetryPolicy,
    resolve_retry_policy,
)

from repro.resilience.netchaos import (
    ChaosProxy,
    NetFaultPlan,
)

__all__ = [
    "ChaosProxy",
    "ChaosReport",
    "CircuitBreaker",
    "NetFaultPlan",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
    "ContinuationResult",
    "FAULTS_ENV",
    "FlowOutcome",
    "FaultInjector",
    "FaultRule",
    "MAX_SPLITS",
    "RetryPolicy",
    "TASK_RETRIES_ENV",
    "TASK_TIMEOUT_ENV",
    "active_injector",
    "clear_faults",
    "continue_solve",
    "draw_fault",
    "finish",
    "flow_argv",
    "install",
    "kill_current_process",
    "maybe_inject",
    "repro_env",
    "resolve_retry_policy",
    "run_concurrent_flows",
    "run_flow",
    "run_until_complete",
    "spawn_flow",
    "terminate_gracefully",
]
