"""Shared conformance suite every execution backend must pass.

One parametrized battery over ``serial`` and ``pool:2``: dependency
ordering, cache behaviour, bit-identical artifacts, retries,
``on_error="continue"``, cancellation and content-addressed resume run
everywhere; preemption (timeouts) and worker-crash recovery are gated
on the backend's capability flags rather than its name, so a future
backend is judged by what it claims, not by what it is called.  The
scheduler's admission rules (timeout clocks start at dispatch, bounded
cache probing) are pinned at the end.
"""

import pytest

from repro.engine import (
    Engine,
    PoolBackend,
    SerialBackend,
    Task,
    parse_backend_spec,
    register_stage,
    resolve_backend,
    unregister_stage,
)
from repro.engine.cache import ArtifactCache
from repro.engine.durability import CancellationToken
from repro.errors import ReproError, RunInterrupted
from repro.resilience import FaultInjector, RetryPolicy, clear_faults, install

pytestmark = pytest.mark.engine

#: Every shipped backend spec, exercised by the whole battery.
BACKENDS = ("serial", "pool:2")


def _add(payload, deps):
    return payload["value"] + sum(deps.values())


def _fail(payload, deps):
    raise RuntimeError("boom")


def _nap(payload, deps):
    import time
    time.sleep(payload["seconds"])
    return payload["seconds"]


@pytest.fixture(autouse=True)
def _stages(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_TASK_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
    clear_faults()
    register_stage("conf_add", compute=_add,
                   encode=lambda a: a, decode=lambda d: d, replace=True)
    register_stage("conf_fail", compute=_fail, replace=True)
    register_stage("conf_nap", compute=_nap, replace=True)
    yield
    clear_faults()
    unregister_stage("conf_add")
    unregister_stage("conf_fail")
    unregister_stage("conf_nap")


def _engine(backend, cache_dir, **kwargs):
    return Engine(backend=backend, cache_dir=cache_dir, **kwargs)


def _graph():
    return [
        Task(id="a", stage="conf_add", payload={"value": 1}),
        Task(id="b", stage="conf_add", payload={"value": 10},
             deps=("a",)),
        Task(id="c", stage="conf_add", payload={"value": 100},
             deps=("a", "b")),
        Task(id="d", stage="conf_add", payload={"value": 7}),
    ]


# ----------------------------------------------------------------------
# spec parsing / resolution
# ----------------------------------------------------------------------
def test_parse_backend_spec_variants():
    assert isinstance(parse_backend_spec("serial"), SerialBackend)
    pool = parse_backend_spec("pool:3")
    assert isinstance(pool, PoolBackend)
    assert pool.workers == 3
    with pytest.raises(ReproError, match="backend"):
        parse_backend_spec("quantum")
    with pytest.raises(ReproError):
        parse_backend_spec("pool:zero")


def test_resolve_backend_passthrough_and_env(monkeypatch):
    backend = SerialBackend()
    assert resolve_backend(backend) is backend
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    assert isinstance(resolve_backend(None), SerialBackend)
    monkeypatch.delenv("REPRO_BACKEND")
    # unset: the CPU-affinity default, serial on one core
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert isinstance(resolve_backend(None), SerialBackend)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    default = resolve_backend(None)
    assert isinstance(default, PoolBackend) and default.workers == 3
    with pytest.raises(ReproError, match="backend"):
        resolve_backend(42)


# ----------------------------------------------------------------------
# the parametrized battery
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_dependencies_feed_dependents(tmp_path, backend):
    run = _engine(backend, tmp_path).run(_graph())
    assert run["a"] == 1
    assert run["b"] == 11
    assert run["c"] == 112
    assert run["d"] == 7
    assert run.manifest.backend == backend.split(":")[0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_artifacts_bit_identical_to_serial(tmp_path, backend):
    baseline = _engine("serial", tmp_path / "base").run(_graph())
    run = _engine(backend, tmp_path / "cand").run(_graph())
    assert run.artifacts == baseline.artifacts
    assert {r.task_id: r.key for r in run.manifest.records} == \
        {r.task_id: r.key for r in baseline.manifest.records}


@pytest.mark.parametrize("backend", BACKENDS)
def test_warm_rerun_is_all_cache_hits(tmp_path, backend):
    _engine(backend, tmp_path).run(_graph())
    warm = _engine(backend, tmp_path).run(_graph())
    assert warm.manifest.hit_rate() == 1.0
    assert all(r.worker == "cache" for r in warm.manifest.records)


@pytest.mark.parametrize("backend", BACKENDS)
def test_retry_heals_transient_faults(tmp_path, backend):
    install(FaultInjector.parse("stage_exc:conf_add:first=1"))
    engine = _engine(backend, tmp_path,
                     retry_policy=RetryPolicy(retries=2, backoff=0.0))
    run = engine.run(
        [Task(id="a", stage="conf_add", payload={"value": 5})])
    clear_faults()
    assert run["a"] == 5
    assert run.manifest.retries() >= 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_on_error_continue_completes_independents(tmp_path, backend):
    engine = _engine(backend, tmp_path, on_error="continue")
    run = engine.run([
        Task(id="bad", stage="conf_fail", payload=None),
        Task(id="child", stage="conf_add", payload={"value": 1},
             deps=("bad",)),
        Task(id="ok", stage="conf_add", payload={"value": 4}),
    ])
    assert run["ok"] == 4
    assert set(run.failed) == {"bad"}
    assert set(run.skipped) == {"child"}
    assert run.failed["bad"].error_type == "RuntimeError"


@pytest.mark.parametrize("backend", BACKENDS)
def test_pre_cancelled_token_interrupts(tmp_path, backend):
    token = CancellationToken(grace=0.2)
    token.request()
    engine = _engine(backend, tmp_path)
    with pytest.raises(RunInterrupted) as err:
        engine.run(_graph(), cancellation=token)
    assert err.value.manifest is not None
    assert err.value.manifest.interrupted


@pytest.mark.parametrize("backend", BACKENDS)
def test_failed_run_resumes_from_cache(tmp_path, backend):
    install(FaultInjector.parse("stage_exc:conf_add:first=1"))
    first = _engine(backend, tmp_path, on_error="continue").run(_graph())
    clear_faults()
    assert first.failed
    second = _engine(backend, tmp_path).run(_graph())
    assert second.ok
    reference = _engine("serial", tmp_path / "ref").run(_graph())
    assert second.artifacts == reference.artifacts


# ----------------------------------------------------------------------
# capability-gated checks (flags, not names)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_timeout_preempts_only_when_supported(tmp_path, backend):
    engine = _engine(backend, tmp_path, on_error="continue",
                     retry_policy=RetryPolicy(retries=0, timeout=0.3))
    if not engine.backend.supports_preemption:
        pytest.skip(f"{engine.backend.name} cannot preempt a running "
                    f"compute function")
    run = engine.run([
        Task(id="slow", stage="conf_nap", payload={"seconds": 30.0}),
        Task(id="quick", stage="conf_add", payload={"value": 3}),
    ])
    assert run["quick"] == 3
    assert run.failed["slow"].error_type == "TaskTimeoutError"


@pytest.mark.parametrize("backend", BACKENDS)
def test_worker_crash_recovers_when_remote(tmp_path, backend):
    engine = _engine(backend, tmp_path)
    if not engine.backend.remote_workers:
        pytest.skip(f"{engine.backend.name} computes in-process; a "
                    f"worker kill would kill the run itself")
    install(FaultInjector.parse("worker_kill:conf_add:n=1"))
    run = engine.run(_graph())
    clear_faults()
    assert run.ok
    assert run.manifest.pool_rebuilds >= 1
    reference = _engine("serial", tmp_path / "ref").run(_graph())
    assert run.artifacts == reference.artifacts


# ----------------------------------------------------------------------
# admission
# ----------------------------------------------------------------------
def test_timeout_clock_starts_at_dispatch(tmp_path):
    """Tasks waiting for a worker slot must not burn their budget: three
    0.6 s tasks on one worker all fit a 1.0 s per-task timeout."""
    engine = _engine("pool:1", tmp_path, on_error="continue",
                     retry_policy=RetryPolicy(retries=0, timeout=1.0))
    try:
        run = engine.run([
            Task(id=f"nap{i}", stage="conf_nap",
                 payload={"seconds": 0.6, "i": i})
            for i in range(3)])
    finally:
        engine.shutdown()
    assert run.ok, run.failed
    assert run.manifest.pool_rebuilds == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_cold_run_probes_each_key_at_most_twice(tmp_path, backend):
    cache = ArtifactCache(cache_dir=tmp_path)
    engine = Engine(backend=backend, cache=cache)
    try:
        run = engine.run(_graph())
    finally:
        engine.shutdown()
    stats = cache.stats()
    probes = (stats["hits_memory"] + stats["hits_disk"]
              + stats["hits_remote"] + stats["misses"])
    assert run.ok
    assert probes <= 2 * len(_graph())


def test_raised_run_leaves_pool_free_for_the_next_run(tmp_path):
    """A run that raises while another task still runs on a worker must
    not leave that worker busy: the next run on the same engine needs
    every slot."""
    engine = _engine("pool:2", tmp_path,
                     retry_policy=RetryPolicy(retries=0))
    try:
        with pytest.raises(RuntimeError, match="boom"):
            engine.run([
                Task(id="nap", stage="conf_nap", payload={"seconds": 5.0}),
                Task(id="bad", stage="conf_fail", payload=None),
            ])
        run = engine.run([
            Task(id="x", stage="conf_add", payload={"value": 2}),
            Task(id="y", stage="conf_add", payload={"value": 3}),
        ])
    finally:
        engine.shutdown()
    assert run["x"] == 2
    assert run["y"] == 3
