"""Layout rules, row geometry, cell areas and the Figure 5(c) claims."""

import pytest

from repro.cells.library import all_cells, get_cell
from repro.cells.variants import DeviceVariant
from repro.errors import LayoutError
from repro.layout.cell_layout import CellAreaModel
from repro.layout.device_footprint import row_geometry
from repro.layout.report import build_area_report
from repro.layout.rules import DesignRules


@pytest.fixture(scope="module")
def rules():
    return DesignRules()


@pytest.fixture(scope="module")
def model():
    return CellAreaModel()


@pytest.fixture(scope="module")
def report():
    return build_area_report()


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------
def test_rule_values(rules):
    assert rules.m1_track == pytest.approx(48e-9)
    assert rules.gate_column == pytest.approx(44e-9)
    assert rules.miv_outer == pytest.approx(27e-9)
    assert rules.miv_keepout_side == pytest.approx(75e-9)
    assert rules.transistor_pitch == pytest.approx(92e-9)


def test_row_width_formula(rules):
    assert rules.row_width(1) == pytest.approx(48e-9 + 92e-9)
    assert rules.row_width(3) == pytest.approx(48e-9 + 3 * 92e-9)
    with pytest.raises(LayoutError):
        rules.row_width(0)


# ---------------------------------------------------------------------------
# row geometry
# ---------------------------------------------------------------------------
def test_top_heights_ordering():
    heights = {v: row_geometry(v).top_height for v in DeviceVariant}
    assert heights[DeviceVariant.TWO_D] > heights[DeviceVariant.MIV_1CH] > \
        heights[DeviceVariant.MIV_2CH] > heights[DeviceVariant.MIV_4CH]


def test_bottom_height_same_for_all():
    bottoms = {row_geometry(v).bottom_height for v in DeviceVariant}
    assert len(bottoms) == 1


def test_four_channel_pitch_penalty():
    assert (row_geometry(DeviceVariant.MIV_4CH).top_pitch >
            row_geometry(DeviceVariant.TWO_D).top_pitch)


def test_two_d_top_height_includes_keepout():
    geo = row_geometry(DeviceVariant.TWO_D)
    # 192 active + 75 keep-out + 48 rail.
    assert geo.top_height == pytest.approx(315e-9)


# ---------------------------------------------------------------------------
# cell areas
# ---------------------------------------------------------------------------
def test_inverter_area_baseline(model):
    result = model.layout(get_cell("INV1X1"), DeviceVariant.TWO_D)
    assert result.width == pytest.approx(140e-9)
    assert result.height == pytest.approx(315e-9)
    assert result.cell_area == pytest.approx(140e-9 * 315e-9)


def test_area_grows_with_transistor_count(model):
    inv = model.layout(get_cell("INV1X1"), DeviceVariant.TWO_D)
    nand3 = model.layout(get_cell("NAND3X1"), DeviceVariant.TWO_D)
    assert nand3.cell_area > inv.cell_area


def test_substrate_area_is_sum_of_layers(model):
    result = model.layout(get_cell("NOR2X1"), DeviceVariant.MIV_2CH)
    assert result.substrate_area == pytest.approx(
        result.top_area + result.bottom_area)


# ---------------------------------------------------------------------------
# Figure 5(c) claims
# ---------------------------------------------------------------------------
def test_every_miv_variant_reduces_cell_area(report):
    for cell in all_cells():
        for variant in (DeviceVariant.MIV_1CH, DeviceVariant.MIV_2CH,
                        DeviceVariant.MIV_4CH):
            assert report.reduction(cell.name, variant) > 0.0


def test_average_reductions_match_paper_shape(report):
    """Paper: 9% / 18% / 12% average; we check ordering and bands."""
    one = report.average_reduction(DeviceVariant.MIV_1CH)
    two = report.average_reduction(DeviceVariant.MIV_2CH)
    four = report.average_reduction(DeviceVariant.MIV_4CH)
    assert two == max(one, two, four)       # 2-ch saves the most
    assert one == min(one, two, four)       # 1-ch saves the least
    assert 0.05 < one < 0.12
    assert 0.12 < two < 0.20
    assert 0.08 < four < 0.17


def test_top_layer_reduction_approaches_31_percent(report):
    """The paper's 'total substrate area up to 31%' with independent
    placement: our top-layer bound for 4-ch lands in that region."""
    best = report.best_reduction(DeviceVariant.MIV_4CH, metric="top")
    assert 0.25 < best < 0.35


def test_area_report_render(report):
    text = report.render()
    assert "INV1X1" in text
    assert "avg reduction" in text


def test_area_units(report):
    area = report.area_um2("INV1X1", DeviceVariant.TWO_D)
    assert 0.01 < area < 0.1  # um^2 scale for a 7nm-class inverter


def test_reduction_unknown_metric(report):
    with pytest.raises(LayoutError):
        report.reduction("INV1X1", DeviceVariant.MIV_1CH, metric="bogus")
