"""Staged extraction flow — the Table III integration test."""

import pytest

from repro.errors import ExtractionError
from repro.extraction.flow import ExtractionFlow, score_regions
from repro.extraction.results import ExtractionReport
from repro.extraction.stages import (
    capacitance_stage,
    default_stage_sequence,
    low_drain_stage,
)
from repro.geometry.transistor_layout import ChannelCount
from repro.tcad.device import Polarity


def test_stage_sequence_matches_figure3():
    stages = default_stage_sequence()
    assert [s.name for s in stages] == ["low_drain", "high_drain",
                                        "capacitance"]


def test_flow_validation():
    with pytest.raises(ExtractionError):
        ExtractionFlow(stages=[])
    with pytest.raises(ExtractionError):
        ExtractionFlow(passes=0)


def test_extraction_errors_below_paper_bound(extracted_nmos):
    # Table III: "overall extraction error was under 10% for all cases".
    for region in ("IDVG", "IDVD", "CV"):
        assert extracted_nmos.errors[region] < 10.0, region


def test_extraction_errors_below_bound_pmos(extracted_pmos):
    for region in ("IDVG", "IDVD", "CV"):
        assert extracted_pmos.errors[region] < 10.0, region


def test_stage_rms_recorded(extracted_nmos):
    for stage in ("low_drain", "high_drain", "capacitance"):
        assert stage in extracted_nmos.stage_rms
        assert extracted_nmos.stage_rms[stage] >= 0.0


def test_fitted_model_tracks_ion(extracted_nmos):
    targets = extracted_nmos.targets
    model = extracted_nmos.model
    ref = targets.idvg_sat.i[-1]
    sim = float(model.ids_magnitude(1.0, 1.0))
    assert sim == pytest.approx(ref, rel=0.15)


def test_fitted_model_polarity(extracted_pmos):
    assert extracted_pmos.model.polarity is Polarity.PMOS


def test_score_regions_keys(extracted_nmos):
    scores = score_regions(extracted_nmos.model, extracted_nmos.targets)
    assert set(scores) == {"IDVG", "IDVD", "CV"}


def test_max_error(extracted_nmos):
    assert extracted_nmos.max_error() == max(extracted_nmos.errors.values())


def test_single_stage_flow_runs(nmos_targets):
    flow = ExtractionFlow(stages=[low_drain_stage()], passes=1)
    result = flow.run(nmos_targets)
    assert result.stage_rms["low_drain"] >= 0


def test_capacitance_stage_only_touches_cap_parameters(nmos_targets):
    flow = ExtractionFlow(stages=[capacitance_stage()], passes=1)
    result = flow.run(nmos_targets)
    from repro.compact.parameters import PARAMETER_SPECS
    for name in ("VTH0", "U0", "VSAT"):
        assert result.model.p(name) == PARAMETER_SPECS[name].default


def test_report_assembly(extracted_nmos, extracted_pmos):
    report = ExtractionReport([extracted_nmos, extracted_pmos])
    rows = report.rows()
    assert [r.region for r in rows] == ["IDVG", "IDVD", "CV"]
    cell = rows[0].cell(ChannelCount.TRADITIONAL, Polarity.NMOS)
    assert cell == pytest.approx(extracted_nmos.errors["IDVG"])
    assert report.max_error() < 10.0


def test_report_rejects_duplicates(extracted_nmos):
    with pytest.raises(ExtractionError):
        ExtractionReport([extracted_nmos, extracted_nmos])


def test_report_render_contains_regions(extracted_nmos, extracted_pmos):
    report = ExtractionReport([extracted_nmos, extracted_pmos])
    text = report.render()
    for token in ("IDVG", "IDVD", "CV", "%"):
        assert token in text


def test_report_missing_device_raises(extracted_nmos):
    report = ExtractionReport([extracted_nmos])
    with pytest.raises(ExtractionError):
        report.device(ChannelCount.FOUR, Polarity.NMOS)
