"""Example scripts must keep working (the fast ones run here)."""

import importlib.util
import pathlib
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert "quickstart.py" in names
    assert len(names) >= 5  # quickstart + >= 4 scenario scripts


def test_layout_area_study_runs(capsys):
    module = _load("layout_area_study.py")
    module.main()
    out = capsys.readouterr().out
    assert "Figure 5(c)" in out
    assert "2-ch" in out


def test_device_characterization_runs(capsys):
    module = _load("device_characterization.py")
    module.main()
    out = capsys.readouterr().out
    assert "traditional" in out
    assert "drive" in out


def test_extraction_flow_runs(capsys):
    module = _load("extraction_flow.py")
    module.main()
    out = capsys.readouterr().out
    for stage in ("low_drain", "high_drain", "capacitance"):
        assert stage in out
    assert "Table III regional errors" in out
    assert ".model" in out
    assert "two-pass flow" in out


def test_custom_cell_logic_helpers():
    module = _load("custom_cell.py")
    cell = module.build_aoi22()
    module.verify_logic(cell)
    assert cell.transistor_count == 8
