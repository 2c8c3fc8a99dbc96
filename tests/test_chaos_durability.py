"""Chaos harness: kill -9 / SIGTERM real flow subprocesses and prove
the durability contract — resume loses at most in-flight work, the
store never serves a torn entry, and graceful shutdown exits 75 with
a resumable journal.

Marked ``chaos`` (and ``slow``): each scenario runs full
``python -m repro.flows`` subprocesses.  CI runs these in a dedicated
job; locally use ``pytest -m chaos``.
"""

import json

import pytest

from repro.engine.cache import ArtifactCache
from repro.engine.durability import EXIT_INTERRUPTED, load_run, run_dir
from repro.engine.manifest import (
    RunManifest,
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
)
from repro.flows.durable import MANIFEST_FILENAME
from repro.resilience import chaos

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

#: The minimal flow (1 cell x 1 variant x 1 extraction) is 6 tasks.
MINIMAL_TASKS = 6


def _journal_state(cache_dir, run_id):
    return load_run(cache_dir, run_id)


def test_kill_resume_cycle_completes(tmp_path):
    """kill -9 after 3 journalled tasks; resume finishes the flow."""
    run_id = "chaos-kill"
    env = chaos.repro_env(tmp_path, faults="proc_kill:*:after=3")

    def make_argv(attempt, previous):
        if attempt == 0:
            return chaos.flow_argv(run_id=run_id, workers=1)
        # later attempts resume, without fault injection
        env.pop("REPRO_FAULTS", None)
        return chaos.flow_argv(resume=run_id, workers=1)

    report = chaos.run_until_complete(make_argv, env, max_invocations=4)
    assert report.kills >= 1, report.outcomes[-1].stderr
    assert report.completed, report.outcomes[-1].stderr

    state = _journal_state(tmp_path, run_id)
    assert state.status == "completed"
    assert state.resumes >= 1
    assert len(state.done()) == MINIMAL_TASKS

    manifest = RunManifest.load(
        run_dir(tmp_path, run_id) / MANIFEST_FILENAME)
    assert manifest.status == STATUS_COMPLETED
    # the kill lost at most the in-flight task: the resume found the
    # journalled completions in the cache
    assert manifest.summary()["cache_hits"] >= 3


def test_kill_mid_write_leaves_no_torn_entries(tmp_path):
    """write_kill dies between temp write and rename: every published
    entry must still parse, and the resume completes."""
    run_id = "chaos-torn"
    env = chaos.repro_env(tmp_path, faults="write_kill:*:after=2")
    outcome = chaos.run_flow(
        chaos.flow_argv(run_id=run_id, workers=1), env)
    assert outcome.killed, (outcome.returncode, outcome.stderr)

    cache = ArtifactCache(cache_dir=tmp_path)
    for path in tmp_path.glob("*/*.json"):  # <stage>/<key>.json
        record = json.loads(path.read_text(encoding="utf-8"))
        assert "artifact" in record, f"torn entry {path}"
    assert cache.quarantined() == []

    env.pop("REPRO_FAULTS", None)
    resumed = chaos.run_flow(chaos.flow_argv(resume=run_id, workers=1),
                             env)
    assert resumed.returncode == 0, resumed.stderr
    assert _journal_state(tmp_path, run_id).status == "completed"


def test_sigterm_drains_and_exits_75(tmp_path):
    """SIGTERM mid-flow: exit within grace with code 75, an
    ``interrupted`` manifest, and a journal ``--resume`` accepts."""
    run_id = "chaos-term"
    env = chaos.repro_env(tmp_path,
                          extra={"REPRO_SHUTDOWN_GRACE": "5.0"})
    proc = chaos.spawn_flow(chaos.flow_argv(run_id=run_id, workers=1),
                            env)
    assert chaos.wait_for_journal(tmp_path, run_id, min_tasks=2,
                                  proc=proc), "flow never reached task 2"
    outcome = chaos.terminate_gracefully(proc)
    assert outcome.returncode == EXIT_INTERRUPTED, outcome.stderr
    assert "resume" in outcome.stderr  # the hint names the run id

    state = _journal_state(tmp_path, run_id)
    assert state.status == "interrupted"
    assert len(state.done()) >= 2

    manifest = RunManifest.load(
        run_dir(tmp_path, run_id) / MANIFEST_FILENAME)
    assert manifest.status == STATUS_INTERRUPTED
    assert manifest.interrupted

    resumed = chaos.run_flow(chaos.flow_argv(resume=run_id, workers=1),
                             env)
    assert resumed.returncode == 0, resumed.stderr
    final = _journal_state(tmp_path, run_id)
    assert final.status == "completed"
    assert len(final.done()) == MINIMAL_TASKS


def test_concurrent_flows_share_cache_without_corruption(tmp_path):
    """Two simultaneous invocations over one store: both exit 0, the
    quarantine stays empty, and both journals complete."""
    env = chaos.repro_env(tmp_path)
    argvs = [chaos.flow_argv(run_id=f"chaos-conc-{i}", workers=1)
             for i in (1, 2)]
    outcomes = chaos.run_concurrent_flows(argvs, env, stagger_s=0.2)
    for outcome in outcomes:
        assert outcome.returncode == 0, outcome.stderr
    assert ArtifactCache(cache_dir=tmp_path).quarantined() == []
    for i in (1, 2):
        assert _journal_state(tmp_path,
                              f"chaos-conc-{i}").status == "completed"
