"""The deterministic fault injector: spec grammar, rule semantics,
process-wide installation and env-var resolution."""

import math

import pytest

from repro.errors import ConfigError, InjectedFault, ReproError
from repro.resilience import (
    FAULTS_ENV,
    ContinuationResult,
    FaultInjector,
    RetryPolicy,
    active_injector,
    clear_faults,
    continue_solve,
    draw_fault,
    install,
    maybe_inject,
)
from repro.errors import ConvergenceError


@pytest.fixture(autouse=True)
def _no_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    clear_faults()
    yield
    clear_faults()


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------
def test_parse_multi_segment_spec():
    injector = FaultInjector.parse(
        "stage_exc:extract:p=0.5;worker_kill:ppa:n=1;"
        "convergence:newton:first=2,fatal=1,message=forced")
    kinds = [(r.kind, r.site) for r in injector.rules]
    assert kinds == [("stage_exc", "extract"), ("worker_kill", "ppa"),
                     ("convergence", "newton")]
    assert injector.rules[0].p == 0.5
    assert injector.rules[1].n == 1
    assert injector.rules[2].first == 2
    assert injector.rules[2].fatal
    assert injector.rules[2].message == "forced"


def test_parse_seed_segment():
    injector = FaultInjector.parse("seed=42;stage_exc:*:p=0.5")
    assert injector.seed == 42


@pytest.mark.parametrize("spec", [
    "bogus_kind:site",
    "stage_exc",              # no site
    "stage_exc::p=1",         # empty site
    "stage_exc:site:p=x",     # bad float
    "stage_exc:site:nope=1",  # unknown option
    "stage_exc:site:p",       # option without '='
    "seed=abc",
])
def test_bad_specs_rejected(spec):
    with pytest.raises(ReproError):
        FaultInjector.parse(spec)


def test_empty_spec_yields_no_rules():
    assert FaultInjector.parse("  ;  ").rules == []


# ----------------------------------------------------------------------
# rule semantics
# ----------------------------------------------------------------------
def test_site_substring_and_wildcard_matching():
    injector = FaultInjector.parse("stage_exc:extract")
    assert injector.draw("stage_exc", "extraction") is not None
    assert injector.draw("stage_exc", "cell_ppa") is None
    assert injector.draw("worker_kill", "extraction") is None
    wildcard = FaultInjector.parse("stage_exc:*")
    assert wildcard.draw("stage_exc", "anything") is not None


def test_first_k_fires_then_stops():
    injector = FaultInjector.parse("convergence:newton:first=2")
    outcomes = [injector.draw("convergence", "newton") is not None
                for _ in range(5)]
    assert outcomes == [True, True, False, False, False]


def test_n_caps_total_fires():
    injector = FaultInjector.parse("worker_kill:ppa:n=1")
    outcomes = [injector.draw("worker_kill", "cell_ppa") is not None
                for _ in range(4)]
    assert outcomes == [True, False, False, False]


def test_probability_is_seed_deterministic():
    a = FaultInjector.parse("stage_exc:*:p=0.5", seed=7)
    b = FaultInjector.parse("stage_exc:*:p=0.5", seed=7)
    seq_a = [a.draw("stage_exc", "s") is not None for _ in range(32)]
    seq_b = [b.draw("stage_exc", "s") is not None for _ in range(32)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)


def test_stats_reports_fires():
    injector = FaultInjector.parse("stage_exc:a:first=1;worker_kill:b")
    injector.draw("stage_exc", "a")
    injector.draw("stage_exc", "a")
    assert injector.stats() == {"stage_exc:a": 1, "worker_kill:b": 0}


# ----------------------------------------------------------------------
# process-wide installation
# ----------------------------------------------------------------------
def test_install_and_clear():
    injector = FaultInjector.parse("stage_exc:x")
    assert install(injector) is None
    assert active_injector() is injector
    assert draw_fault("stage_exc", "x") is not None
    clear_faults()
    assert draw_fault("stage_exc", "x") is None


def test_env_spec_resolves_lazily(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "stage_exc:lazy:first=1")
    clear_faults()
    assert draw_fault("stage_exc", "lazy") is not None
    assert draw_fault("stage_exc", "lazy") is None  # first=1 consumed


def test_maybe_inject_raises_with_message():
    install(FaultInjector.parse("stage_exc:x:message=custom boom"))
    with pytest.raises(InjectedFault, match="custom boom"):
        maybe_inject("stage_exc", "x")
    # non-matching site passes through silently
    maybe_inject("stage_exc", "other")


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
def test_retry_policy_backoff_caps():
    policy = RetryPolicy(retries=5, backoff=0.1, backoff_cap=0.3)
    assert policy.attempts == 6
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.3)   # capped
    assert policy.delay(10) == pytest.approx(0.3)
    assert RetryPolicy(backoff=0.0).delay(1) == 0.0


def test_retry_policy_env_resolution(monkeypatch):
    monkeypatch.setenv("REPRO_TASK_RETRIES", "3")
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "1.5")
    policy = RetryPolicy.from_env()
    assert policy.retries == 3 and policy.timeout == 1.5
    monkeypatch.setenv("REPRO_TASK_RETRIES", "many")
    with pytest.raises(ReproError, match="REPRO_TASK_RETRIES"):
        RetryPolicy.from_env()


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "abc"])
@pytest.mark.parametrize("name", ["REPRO_TASK_RETRIES",
                                  "REPRO_TASK_TIMEOUT"])
def test_retry_policy_env_rejects_unusable_values(name, value,
                                                  monkeypatch):
    monkeypatch.setenv(name, value)
    with pytest.raises(ConfigError, match=name):
        RetryPolicy.from_env()


@pytest.mark.parametrize("timeout", [math.nan, math.inf, -1.0, "abc"])
def test_retry_policy_rejects_unusable_timeouts(timeout):
    with pytest.raises(ConfigError, match="timeout"):
        RetryPolicy(timeout=timeout)


def test_retry_policy_validation():
    with pytest.raises(ReproError):
        RetryPolicy(retries=-1)
    with pytest.raises(ReproError):
        RetryPolicy(timeout=0.0)


# ----------------------------------------------------------------------
# the continuation primitive
# ----------------------------------------------------------------------
def test_continue_solve_direct_hit_needs_no_splits():
    calls = []

    def solve(value, warm):
        calls.append(value)
        return value

    outcome = continue_solve(solve, target=1.0)
    assert outcome == ContinuationResult(solution=1.0, steps=1, splits=0)
    assert not outcome.rescued
    assert calls == [1.0]


def test_continue_solve_bisects_until_reachable():
    # Refuses any jump larger than 0.3 from the last converged value.
    state = {"value": 0.0}

    def solve(value, warm):
        if value - state["value"] > 0.3:
            raise ConvergenceError("too far")
        state["value"] = value
        return value

    outcome = continue_solve(solve, target=1.0)
    assert outcome.solution == 1.0
    assert outcome.rescued and outcome.splits >= 2
    # warm starts advanced monotonically
    assert state["value"] == 1.0


def test_continue_solve_exhausts_split_budget():
    def solve(value, warm):
        raise ConvergenceError("never")

    with pytest.raises(ConvergenceError):
        continue_solve(solve, target=1.0, max_splits=3)


def test_continue_solve_passes_warm_starts():
    seen = []

    def solve(value, warm):
        seen.append(warm)
        if value > 0.6 and (warm is None or warm < 0.4):
            raise ConvergenceError("cold start too far")
        return value

    outcome = continue_solve(solve, target=1.0, initial=None)
    assert outcome.solution == 1.0
    assert seen[0] is None          # first try is cold
    assert any(w is not None for w in seen[1:])
