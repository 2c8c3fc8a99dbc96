"""Level-70 parameter table (Table II and Section III-B lists)."""

import pytest

from repro.compact.parameters import (
    EXTRACTION_STAGE_PARAMETERS,
    LEVEL70_CONSTANTS,
    PARAMETER_SPECS,
    STAGE_CAPACITANCE,
    STAGE_HIGH_DRAIN,
    STAGE_LOW_DRAIN,
    ParameterSet,
    default_parameters,
)
from repro.errors import ExtractionError


def test_table2_constants():
    assert LEVEL70_CONSTANTS["LEVEL"] == 70
    assert LEVEL70_CONSTANTS["MOBMOD"] == 4
    assert LEVEL70_CONSTANTS["CAPMOD"] == 3
    assert LEVEL70_CONSTANTS["IGCMOD"] == 0
    assert LEVEL70_CONSTANTS["SOIMOD"] == 2
    assert LEVEL70_CONSTANTS["TSI"] == pytest.approx(7e-9)
    assert LEVEL70_CONSTANTS["TOX"] == pytest.approx(1e-9)
    assert LEVEL70_CONSTANTS["TBOX"] == pytest.approx(100e-9)
    assert LEVEL70_CONSTANTS["W"] == pytest.approx(192e-9)
    assert LEVEL70_CONSTANTS["TNOM"] == pytest.approx(25.0)


def test_stage_parameter_lists_match_paper():
    # Section III-B, items 1-3.
    assert EXTRACTION_STAGE_PARAMETERS[STAGE_LOW_DRAIN] == [
        "CDSC", "U0", "UA", "UB", "UD", "UCS", "DVT0", "DVT1"]
    assert EXTRACTION_STAGE_PARAMETERS[STAGE_HIGH_DRAIN] == [
        "CDSC", "CDSCD", "U0", "UA", "VTH0", "PVAG", "DVT0", "DVT1",
        "ETAB", "VSAT"]
    assert EXTRACTION_STAGE_PARAMETERS[STAGE_CAPACITANCE] == [
        "CKAPPA", "DELVT", "CF", "CGSO", "CGDO", "MOIN", "CGSL", "CGDL"]


def test_every_stage_parameter_has_a_spec():
    for names in EXTRACTION_STAGE_PARAMETERS.values():
        for name in names:
            assert name in PARAMETER_SPECS


def test_defaults_inside_bounds():
    for spec in PARAMETER_SPECS.values():
        assert spec.lower <= spec.default <= spec.upper


def test_parameter_set_defaults():
    params = default_parameters()
    for name, spec in PARAMETER_SPECS.items():
        assert params[name] == spec.default


def test_unknown_parameter_rejected():
    with pytest.raises(ExtractionError):
        ParameterSet({"BOGUS": 1.0})
    with pytest.raises(ExtractionError):
        default_parameters()["BOGUS"]


def test_updated_is_functional():
    base = default_parameters()
    updated = base.updated({"VTH0": 0.5})
    assert updated["VTH0"] == pytest.approx(0.5)
    assert base["VTH0"] == PARAMETER_SPECS["VTH0"].default


def test_updated_bounds_checked():
    with pytest.raises(ExtractionError):
        default_parameters().updated({"VTH0": 99.0})


def test_as_dict_is_copy():
    params = default_parameters()
    d = params.as_dict()
    d["VTH0"] = 123.0
    assert params["VTH0"] != 123.0


def test_spec_rejects_default_outside_bounds():
    from repro.compact.parameters import ParameterSpec
    with pytest.raises(ExtractionError):
        ParameterSpec("X", 10.0, 0.0, 1.0, "-", "bad")
