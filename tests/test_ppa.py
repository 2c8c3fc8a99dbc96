"""PPA harness: measurement plumbing and a single-cell integration run.

The full 14-cell sweep lives in the benchmarks; here the inverter (and a
NAND) exercise the whole delay/power/area path.
"""

import pytest

from repro.cells.library import get_cell
from repro.engine import default_engine
from repro.cells.variants import DeviceVariant
from repro.errors import SimulationError
from repro.ppa.area import cell_area, substrate_area
from repro.ppa.comparison import PpaComparison
from repro.ppa.delay import measure_cell_delay
from repro.ppa.power import measure_cell_power
from repro.ppa.runner import CellPPA, PpaRunner, simulate_cell


@pytest.fixture(scope="module")
def inv_runs_2d():
    return simulate_cell(get_cell("INV1X1"), DeviceVariant.TWO_D)


@pytest.fixture(scope="module")
def inv_runs_2ch():
    return simulate_cell(get_cell("INV1X1"), DeviceVariant.MIV_2CH)


def test_inverter_delay_magnitude(inv_runs_2d):
    netlist, results = inv_runs_2d
    delay = measure_cell_delay(netlist, results)
    assert 2e-12 < delay < 50e-12  # ps-scale at 1 fF load


def test_inverter_power_magnitude(inv_runs_2d):
    netlist, results = inv_runs_2d
    power = measure_cell_power(netlist, results)
    assert 1e-7 < power < 5e-6  # sub-uW to uW at 1 V, ~GHz activity


def test_output_switches_full_swing(inv_runs_2d):
    netlist, results = inv_runs_2d
    _, result = results["a"]
    out = result.waveform("out")
    assert out.maximum() > 0.95
    assert out.minimum() < 0.05


def test_2ch_inverter_faster_than_2d(inv_runs_2d, inv_runs_2ch):
    d_2d = measure_cell_delay(*inv_runs_2d)
    d_2ch = measure_cell_delay(*inv_runs_2ch)
    assert d_2ch < d_2d  # the headline Figure 5(a) direction


def test_area_metrics_positive():
    spec = get_cell("INV1X1")
    for variant in DeviceVariant:
        assert cell_area(spec, variant) > 0
        assert substrate_area(spec, variant) > cell_area(spec, variant) / 2


def test_cell_ppa_pdp():
    ppa = CellPPA(cell_name="X", variant=DeviceVariant.TWO_D,
                  delay=1e-11, power=1e-6, area=1e-14, substrate=2e-14)
    assert ppa.pdp == pytest.approx(1e-17)


def test_runner_caches(inv_runs_2d):
    runner = PpaRunner(engine=default_engine())
    first = runner.evaluate("INV1X1", DeviceVariant.TWO_D)
    second = runner.evaluate("INV1X1", DeviceVariant.TWO_D)
    assert first is second


def test_comparison_requires_results():
    with pytest.raises(SimulationError):
        PpaComparison.from_results([])


def test_comparison_percent_changes():
    base = CellPPA("C", DeviceVariant.TWO_D, delay=10e-12, power=1e-6,
                   area=2e-14, substrate=4e-14)
    faster = CellPPA("C", DeviceVariant.MIV_2CH, delay=9e-12, power=1e-6,
                     area=1.7e-14, substrate=3.4e-14)
    comp = PpaComparison.from_results([base, faster])
    assert comp.change_percent("C", DeviceVariant.MIV_2CH,
                               "delay") == pytest.approx(-10.0)
    assert comp.change_percent("C", DeviceVariant.MIV_2CH,
                               "area") == pytest.approx(-15.0)
    assert comp.average_change_percent(DeviceVariant.MIV_2CH,
                                       "delay") == pytest.approx(-10.0)


def test_comparison_missing_entries_raise():
    base = CellPPA("C", DeviceVariant.TWO_D, 1e-11, 1e-6, 1e-14, 2e-14)
    comp = PpaComparison.from_results([base])
    with pytest.raises(SimulationError):
        comp.value("C", DeviceVariant.MIV_1CH, "delay")
    with pytest.raises(SimulationError):
        comp.value("C", DeviceVariant.TWO_D, "bogus")
    with pytest.raises(SimulationError):
        comp.change_percent("D", DeviceVariant.TWO_D, "delay")


def test_comparison_render():
    rows = [CellPPA("C", v, 1e-11, 1e-6, 1e-14, 2e-14)
            for v in DeviceVariant]
    comp = PpaComparison.from_results(rows)
    text = comp.render_metric("delay", scale=1e12, unit="ps")
    assert "C" in text
    assert "avg vs 2D" in text


def test_comparison_render_partial():
    # A 2D + 2-ch comparison renders the columns it holds.
    rows = [CellPPA("C", v, 1e-11, 1e-6, 1e-14, 2e-14)
            for v in (DeviceVariant.TWO_D, DeviceVariant.MIV_2CH)]
    comp = PpaComparison.from_results(rows)
    assert comp.miv_variants == [DeviceVariant.MIV_2CH]
    lines = comp.render_metric("delay", scale=1e12, unit="ps").splitlines()
    assert lines == ["Cell\t2D\t2-ch\t(ps)", "C\t10\t10",
                     "avg vs 2D\t-\t+0.0%"]


def test_comparison_summary_keys_and_signs():
    # Two cells, 2-D and 2-ch: the 2-ch rows are faster, smaller and
    # burn more power, by the same share in both cells.
    rows = []
    for cell in ("A", "B"):
        rows.append(CellPPA(cell, DeviceVariant.TWO_D, delay=10e-12,
                            power=1e-6, area=2e-14, substrate=4e-14))
        rows.append(CellPPA(cell, DeviceVariant.MIV_2CH, delay=9e-12,
                            power=1.2e-6, area=1.7e-14, substrate=3.4e-14))
    summary = PpaComparison.from_results(rows).summary()
    assert sorted(summary) == ["2-ch:area", "2-ch:delay", "2-ch:pdp",
                               "2-ch:power"]
    assert summary["2-ch:delay"] == pytest.approx(-10.0)
    assert summary["2-ch:area"] == pytest.approx(-15.0)
    assert summary["2-ch:power"] == pytest.approx(20.0)
    assert summary["2-ch:pdp"] == pytest.approx(8.0)  # 0.9 * 1.2 - 1


def test_comparison_summary_covers_every_miv_variant():
    rows = [CellPPA("C", v, 1e-11, 1e-6, 1e-14, 2e-14)
            for v in DeviceVariant]
    summary = PpaComparison.from_results(rows).summary()
    assert len(summary) == 12
    assert {key.split(":")[0] for key in summary} == {"1-ch", "2-ch", "4-ch"}
    assert all(change == 0.0 for change in summary.values())
