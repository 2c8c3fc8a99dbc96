"""Cross-process single-flight through the scheduler.

The scheduler claims a key's flight lock when it dispatches the task.
In-process checks drive ``Engine.run`` against a second
:class:`ArtifactCache` holding the flight (the peer publishes, releases
without publishing, or wedges past the lock timeout) and run two
engines over one store at once.  The ``chaos``-marked tests run real
``python -m repro.flows --backend serial`` subprocesses: two invocations
split one graph, and a SIGKILLed invocation's flights die with it so a
fresh one completes the graph.
"""

import os
import threading
import time

import pytest

from repro.engine import Engine, Task, register_stage, unregister_stage
from repro.engine.cache import ArtifactCache
from repro.engine.durability import load_run, run_dir
from repro.engine.locks import HAVE_LOCKS
from repro.engine.manifest import RunManifest, STATUS_COMPLETED
from repro.engine.stages import get_stage
from repro.flows.durable import MANIFEST_FILENAME
from repro.resilience import chaos
from tests.conftest import wait_for_journal

pytestmark = pytest.mark.engine


def _add(payload, deps):
    return payload["value"] + sum(deps.values())


def _nap(payload, deps):
    time.sleep(payload["seconds"])
    return payload["value"]


@pytest.fixture(autouse=True)
def _stages():
    register_stage("sf_add", compute=_add,
                   encode=lambda a: a, decode=lambda d: d, replace=True)
    register_stage("sf_nap", compute=_nap,
                   encode=lambda a: a, decode=lambda d: d, replace=True)
    yield
    unregister_stage("sf_add")
    unregister_stage("sf_nap")


def _misses(manifest):
    return [r.key for r in manifest.records if r.cache == "miss"]


# ----------------------------------------------------------------------
# a peer holding the flight, seen through Engine.run
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_LOCKS, reason="needs advisory locks")
@pytest.mark.parametrize("peer", ["ready", "free", "timeout"])
def test_peer_flight_resolves_through_engine_run(tmp_path, peer):
    """ready: the peer publishes, so the task is a disk hit; free: the
    peer releases without publishing, so it is computed here; timeout:
    the peer wedges past the lock timeout, so it is computed anyway."""
    lock_timeout = 0.2 if peer == "timeout" else 10.0
    cache = ArtifactCache(cache_dir=tmp_path, lock_timeout=lock_timeout)
    engine = Engine(backend="serial", cache=cache)
    task = Task(id="a", stage="sf_add", payload={"value": 9})
    key = engine.task_keys([task])["a"]
    holder = ArtifactCache(cache_dir=tmp_path)
    flight = holder.begin_flight(key)
    assert flight is not None

    def finish():
        time.sleep(0.3)
        if peer == "ready":
            holder.put(key, get_stage("sf_add"), 9)
        if peer != "timeout":
            holder.end_flight(flight)

    thread = threading.Thread(target=finish)
    thread.start()
    try:
        run = engine.run([task])
    finally:
        thread.join()
        if peer == "timeout":
            # the wedged peer holds its flight until the run is over
            holder.end_flight(flight)
    assert run["a"] == 9
    record = run.manifest.records[0]
    if peer == "ready":
        assert (record.cache, record.worker) == ("disk", "cache")
    else:
        assert record.cache == "miss"
    assert cache.stats()["flight_timeouts"] == (peer == "timeout")


@pytest.mark.skipif(not HAVE_LOCKS, reason="needs advisory locks")
def test_two_engines_drain_one_graph_in_process(tmp_path):
    """Two engines run one graph at once over one store: each computes
    what the other has not claimed and reads the rest."""
    tasks = [Task(id=f"t{i}", stage="sf_nap",
                  payload={"value": i, "seconds": 0.3})
             for i in range(4)]
    start = threading.Barrier(2)
    runs = {}

    def drain(name):
        engine = Engine(backend="serial", cache_dir=tmp_path)
        start.wait()
        runs[name] = engine.run(tasks)

    threads = [threading.Thread(target=drain, args=(name,))
               for name in ("first", "second")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    first, second = runs["first"], runs["second"]
    assert first.ok and second.ok
    assert first.artifacts == second.artifacts == {
        f"t{i}": i for i in range(4)}
    computed = _misses(first.manifest) + _misses(second.manifest)
    assert _misses(first.manifest) and _misses(second.manifest)
    assert sorted(computed) == sorted(set(computed))
    assert len(computed) == len(tasks)


# ----------------------------------------------------------------------
# real multi-process chaos
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.slow
def test_concurrent_cli_invocations_split_the_graph(tmp_path):
    """Two simultaneous --backend serial invocations over one cache: both
    exit 0, each computes part of the graph, no key twice."""
    env = chaos.repro_env(tmp_path)
    argvs = [chaos.flow_argv(run_id=f"sf-conc-{i}", backend="serial")
             for i in (1, 2)]
    outcomes = chaos.run_concurrent_flows(argvs, env, stagger_s=0.1)
    for outcome in outcomes:
        assert outcome.returncode == 0, outcome.stderr
    assert ArtifactCache(cache_dir=tmp_path).quarantined() == []
    for i in (1, 2):
        assert load_run(tmp_path, f"sf-conc-{i}").status == "completed"
    manifests = [RunManifest.load(run_dir(tmp_path, f"sf-conc-{i}")
                                  / MANIFEST_FILENAME) for i in (1, 2)]
    assert all(_misses(m) for m in manifests)
    computed = [key for m in manifests for key in _misses(m)]
    assert len(computed) == len(set(computed))
    assert len(computed) == len(manifests[0].records)


@pytest.mark.chaos
@pytest.mark.slow
def test_sigkill_peer_flight_takeover_completes_graph(tmp_path):
    """SIGKILL one invocation mid-run; its flight locks die with it, so
    a fresh invocation computes the rest and finishes the graph with
    the serial baseline's exact fingerprints."""
    env = chaos.repro_env(tmp_path)
    victim = chaos.spawn_flow(
        chaos.flow_argv(run_id="sf-victim", backend="serial"), env)
    assert wait_for_journal(tmp_path, "sf-victim", min_tasks=2,
                            proc=victim), "victim never reached task 2"
    os.kill(victim.pid, 9)
    outcome = chaos.finish(victim)
    assert outcome.killed
    victim_done = load_run(tmp_path, "sf-victim").done()
    assert any(rec.get("cache") == "miss" for rec in victim_done.values())

    survivor = chaos.run_flow(
        chaos.flow_argv(run_id="sf-survivor", backend="serial"), env)
    assert survivor.returncode == 0, survivor.stderr
    state = load_run(tmp_path, "sf-survivor")
    assert state.status == "completed"
    assert ArtifactCache(cache_dir=tmp_path).quarantined() == []

    # Serial baseline in a fresh cache: identical task fingerprints.
    serial_env = chaos.repro_env(tmp_path / "serial-cache")
    baseline = chaos.run_flow(
        chaos.flow_argv(run_id="sf-serial", backend="serial"), serial_env)
    assert baseline.returncode == 0, baseline.stderr
    base_state = load_run(tmp_path / "serial-cache", "sf-serial")
    assert {(tid, rec["key"]) for tid, rec in state.done().items()} == \
        {(tid, rec["key"]) for tid, rec in base_state.done().items()}
    manifest = RunManifest.load(
        run_dir(tmp_path, "sf-survivor") / MANIFEST_FILENAME)
    assert manifest.status == STATUS_COMPLETED
    assert _misses(manifest)
