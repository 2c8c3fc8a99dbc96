"""CLI and suite-runner front end (``python -m repro.verify``)."""

from __future__ import annotations

import json

import pytest

from repro.verify.cli import build_parser, main
from repro.verify.suites import SUITES, run_suite


def test_parser_defaults():
    options = build_parser().parse_args([])
    assert options.suite == "fast"
    assert not options.update_goldens
    assert not options.allow_widen
    assert options.report is None


def test_parser_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--suite", "everything"])
    assert "invalid choice" in capsys.readouterr().err


def test_allow_widen_requires_update_goldens(capsys):
    assert main(["--allow-widen"]) == 2
    assert "--update-goldens" in capsys.readouterr().err


def test_invariants_suite_end_to_end(tmp_path, capsys):
    report_path = tmp_path / "verify_report.json"
    code = main(["--suite", "invariants",
                 "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "invariant.tcad.cv_bounds" in out
    document = json.loads(report_path.read_text())
    assert document["suite"] == "invariants"
    assert document["passed"] is True
    assert document["counts"]["fail"] == 0
    names = {c["name"] for c in document["checks"]}
    assert "invariant.compact.charge_conservation" in names


def test_quiet_mode_prints_one_line(capsys):
    code = main(["--suite", "invariants", "--quiet"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 1
    assert "PASS" in out[0]


def test_run_suite_rejects_unknown_name():
    from repro.errors import ReproError
    with pytest.raises(ReproError, match="unknown suite"):
        run_suite("everything")


def test_suite_names_cover_cli_choices():
    assert set(SUITES) == {"fast", "all", "goldens", "mms",
                           "invariants", "gates", "parity"}


def test_failing_check_sets_exit_code(tmp_path, monkeypatch, capsys):
    """A failed golden diff must fail the process (exit 1)."""
    from repro.verify import suites as suites_mod
    from repro.verify.report import CheckResult, STATUS_FAIL

    def fake_golden_checks(store=None, engine=None, pipeline=True):
        return [CheckResult(name="golden.broken", status=STATUS_FAIL,
                            detail="forced")]
    monkeypatch.setattr(suites_mod, "golden_checks",
                        fake_golden_checks)
    code = main(["--suite", "goldens",
                 "--goldens", str(tmp_path)])
    assert code == 1
    assert "golden.broken" in capsys.readouterr().out
