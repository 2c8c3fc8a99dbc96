"""Run journals: durable appends, torn-tail recovery, state replay,
run listing and the graceful-shutdown primitives."""

import json
import signal

import pytest

from repro.engine.durability import (
    DEFAULT_SHUTDOWN_GRACE,
    EXIT_INTERRUPTED,
    CancellationToken,
    GracefulShutdown,
    JournalState,
    RunJournal,
    SHUTDOWN_GRACE_ENV,
    list_runs,
    load_run,
    new_run_id,
    replay_journal,
    resolve_shutdown_grace,
    run_dir,
)
from repro.errors import ReproError


def test_run_ids_are_unique_and_sortable():
    ids = {new_run_id() for _ in range(32)}
    assert len(ids) == 32
    for run_id in ids:
        assert "/" not in run_id and not run_id.startswith(".")


def test_run_dir_rejects_traversal(tmp_path):
    with pytest.raises(ReproError):
        run_dir(tmp_path, "../escape")
    with pytest.raises(ReproError):
        run_dir(tmp_path, "")
    with pytest.raises(ReproError):
        run_dir(tmp_path, ".hidden")


def test_journal_append_replay_roundtrip(tmp_path):
    journal = RunJournal(tmp_path / "journal.jsonl")
    records = [{"type": "begin", "run_id": "r1", "flow": {"cells": []}},
               {"type": "task", "id": "a", "status": "done", "key": "k1"},
               {"type": "end", "status": "completed"}]
    for record in records:
        journal.append(record)
    journal.close()
    assert replay_journal(journal.path) == records


def test_replay_discards_torn_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = RunJournal(path)
    journal.append({"type": "begin", "run_id": "r1"})
    journal.append({"type": "task", "id": "a", "status": "done"})
    journal.close()
    # simulate a crash mid-append: torn partial line at the end
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"type": "task", "id": "b", "sta')
    records = replay_journal(path)
    assert len(records) == 2
    assert records[-1]["id"] == "a"


def test_replay_stops_at_non_dict_line(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text('{"type": "begin", "run_id": "r"}\n[1, 2]\n'
                    '{"type": "end"}\n', encoding="utf-8")
    records = replay_journal(path)
    assert len(records) == 1


def test_replay_missing_file_is_empty(tmp_path):
    assert replay_journal(tmp_path / "nope.jsonl") == []


def test_journal_state_last_record_wins():
    state = JournalState.from_records([
        {"type": "begin", "run_id": "r1", "flow": {"cells": ["INV1X1"]}},
        {"type": "task", "id": "a", "status": "failed", "key": "k1"},
        {"type": "resume"},
        {"type": "task", "id": "a", "status": "done", "key": "k1"},
        {"type": "task", "id": "b", "status": "done", "key": "k2"},
        {"type": "end", "status": "completed"},
    ])
    assert state.begun
    assert state.run_id == "r1"
    assert state.resumes == 1
    assert state.status == "completed"
    assert set(state.done()) == {"a", "b"}
    assert state.keys("done") == {"k1", "k2"}


def test_load_run_requires_begin_record(tmp_path):
    journal = RunJournal.for_run(tmp_path, "r1")
    journal.append({"type": "task", "id": "a", "status": "done"})
    journal.close()
    with pytest.raises(ReproError, match="begin"):
        load_run(tmp_path, "r1")
    with pytest.raises(ReproError, match="no journal"):
        load_run(tmp_path, "never-started")


def test_list_runs_summarises_journals(tmp_path):
    for run_id, status in (("r1", "completed"), ("r2", "interrupted")):
        journal = RunJournal.for_run(tmp_path, run_id)
        journal.append({"type": "begin", "run_id": run_id, "flow": {}})
        journal.append({"type": "task", "id": "a", "status": "done",
                        "key": "k"})
        journal.append({"type": "end", "status": status})
        journal.close()
    runs = {r["run_id"]: r for r in list_runs(tmp_path)}
    assert runs["r1"]["status"] == "completed"
    assert not runs["r1"]["active"]
    assert runs["r2"]["status"] == "interrupted"
    assert runs["r2"]["active"]
    assert runs["r1"]["tasks_done"] == 1


def test_resolve_shutdown_grace(monkeypatch):
    monkeypatch.delenv(SHUTDOWN_GRACE_ENV, raising=False)
    assert resolve_shutdown_grace() == DEFAULT_SHUTDOWN_GRACE
    assert resolve_shutdown_grace(1.5) == 1.5
    monkeypatch.setenv(SHUTDOWN_GRACE_ENV, "2.5")
    assert resolve_shutdown_grace() == 2.5
    monkeypatch.setenv(SHUTDOWN_GRACE_ENV, "nope")
    with pytest.raises(ReproError):
        resolve_shutdown_grace()
    monkeypatch.setenv(SHUTDOWN_GRACE_ENV, "-1")
    with pytest.raises(ReproError):
        resolve_shutdown_grace()


def test_cancellation_token_reason():
    token = CancellationToken(grace=0.1)
    assert not token.is_set()
    assert token.reason == "cancelled"
    token.request(signal.SIGTERM)
    assert token.is_set()
    assert token.reason == "SIGTERM"
    # idempotent: the first signal wins
    token.request(signal.SIGINT)
    assert token.reason == "SIGTERM"


def test_graceful_shutdown_scope_installs_and_restores():
    previous = signal.getsignal(signal.SIGTERM)
    with GracefulShutdown(grace=0.1) as scope:
        assert scope.installed
        assert signal.getsignal(signal.SIGTERM) is not previous
        scope._handle(signal.SIGTERM, None)
        assert scope.token.is_set()
        # a second signal escalates
        with pytest.raises(KeyboardInterrupt):
            scope._handle(signal.SIGTERM, None)
    assert signal.getsignal(signal.SIGTERM) is previous


def test_exit_interrupted_is_ex_tempfail():
    assert EXIT_INTERRUPTED == 75


def test_journal_records_are_single_lines(tmp_path):
    journal = RunJournal(tmp_path / "j.jsonl")
    journal.append({"type": "task", "id": "a", "note": "multi\nline"})
    journal.close()
    lines = (tmp_path / "j.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["note"] == "multi\nline"
