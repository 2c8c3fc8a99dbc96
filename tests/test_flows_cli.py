"""The ``python -m repro.flows`` front end (in-process)."""

import json

import pytest

from repro.engine.durability import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_USAGE,
)
from repro.engine.stages import registered_stages
from repro.flows.cli import (
    _parse_cells,
    _parse_channels,
    _parse_variants,
    build_parser,
    main,
)

MINIMAL = ["--cells", "INV1X1", "--variants", "2D",
           "--extraction-variants", "TRADITIONAL"]


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------
def test_parse_cells_validates_names():
    assert _parse_cells("INV1X1") == ["INV1X1"]
    assert _parse_cells("INV1X1, NAND2X1") == ["INV1X1", "NAND2X1"]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError, match="GHOST"):
        _parse_cells("GHOST")


def test_parse_variants_and_channels():
    from repro.cells.variants import DeviceVariant
    from repro.geometry.transistor_layout import ChannelCount
    assert _parse_variants("2D,1-ch") == [
        DeviceVariant.TWO_D, DeviceVariant.MIV_1CH]
    assert _parse_channels("traditional, two") == [
        ChannelCount.TRADITIONAL, ChannelCount.TWO]
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_variants("3D")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_channels("FIVE")


def test_bad_cell_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["run", "--cells", "GHOST"])
    assert excinfo.value.code == 2


def test_workers_flag_is_a_usage_error(capsys):
    # the width is spelled --backend serial | pool | pool:N
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--workers", "1"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_bad_backend_is_a_usage_error(capsys):
    assert main(["run", "--backend", "pool:x"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "pool:x" in err
    assert "Traceback" not in err


def test_no_command_prints_help(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


# ----------------------------------------------------------------------
# list
# ----------------------------------------------------------------------
def test_list_without_cache_dir_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    assert main(["list"]) == EXIT_USAGE
    assert "cache directory" in capsys.readouterr().err


def test_list_empty_store(tmp_path, capsys):
    assert main(["list", "--cache-dir", str(tmp_path)]) == EXIT_OK
    assert "no journalled runs" in capsys.readouterr().out


def test_resume_unknown_run_fails(tmp_path, capsys):
    code = main(["resume", "never-ran", "--cache-dir", str(tmp_path)])
    assert code == EXIT_FAILURE
    assert "no journal" in capsys.readouterr().err


# ----------------------------------------------------------------------
# a real (minimal) durable run, in-process
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_run_resume_alias_and_list_roundtrip(tmp_path, capsys):
    cache = str(tmp_path)
    code = main(["run", *MINIMAL, "--run-id", "cli-test",
                 "--cache-dir", cache, "--backend", "serial", "--quiet"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "run cli-test: completed" in out

    # everything is already cached, so the resume is fast and exits 0
    code = main(["resume", "cli-test", "--cache-dir", cache,
                 "--backend", "serial", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert payload["run_id"] == "cli-test"
    assert payload["status"] == "completed"
    assert payload["resumed"] == 1
    assert payload["summary"]["cache_hits"] == payload["summary"]["tasks"]

    code = main(["list", "--cache-dir", cache])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "cli-test" in out
    assert "resumed x1" in out

    # the store holds artefacts, locks, flights and run journals only;
    # nothing else accumulates across runs
    internal = {".flight", ".locks", "runs"}
    names = {p.name for p in tmp_path.iterdir()}
    assert names - internal <= set(registered_stages())
    assert {p.name for p in (tmp_path / "runs" / "cli-test").iterdir()} \
        == {"journal.jsonl", "manifest.json"}


def test_resume_alias_rewrite_keeps_options():
    from repro.flows.cli import _rewrite_resume_alias
    assert _rewrite_resume_alias(["--resume", "r1"]) == ["resume", "r1"]
    assert _rewrite_resume_alias(["--resume=r1", "--quiet"]) == \
        ["resume", "r1", "--quiet"]
    assert _rewrite_resume_alias(
        ["--resume", "r1", "--cache-dir", "/tmp/x", "--json"]) == \
        ["resume", "r1", "--cache-dir", "/tmp/x", "--json"]
    # explicit subcommands are never rewritten
    assert _rewrite_resume_alias(["resume", "r1"]) == ["resume", "r1"]
    assert _rewrite_resume_alias(["run", "--run-id", "x"]) == \
        ["run", "--run-id", "x"]
    assert _rewrite_resume_alias([]) == []


@pytest.mark.slow
def test_top_level_resume_alias(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    from repro.engine import reset_default_engine
    reset_default_engine()
    try:
        assert main(["run", *MINIMAL, "--run-id", "alias-test",
                     "--quiet"]) == EXIT_OK
        capsys.readouterr()
        assert main(["--resume", "alias-test", "--quiet"]) == EXIT_OK
        assert "run alias-test: completed" in capsys.readouterr().out
    finally:
        reset_default_engine()
