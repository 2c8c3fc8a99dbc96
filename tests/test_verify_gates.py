"""Paper gates: windows, skip logic and perturbation sensitivity."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cells.library import CELL_NAMES
from repro.cells.variants import DeviceVariant
from repro.flows.full_flow import FullFlowResult
from repro.layout.report import build_area_report
from repro.ppa.comparison import PpaComparison
from repro.ppa.runner import CellPPA
from repro.reporting.paper import FIG5_REFERENCE
from repro.verify.paper_gates import evaluate_gates, paper_gates
from repro.verify.report import STATUS_FAIL, STATUS_PASS, STATUS_SKIP


def _fake_extraction(worst: float = 8.0):
    """Extraction report stub with a controllable worst error."""
    errors = {"IDVG": worst - 1.0, "IDVD": worst - 2.0, "CV": worst}
    device = SimpleNamespace(errors=dict(errors))
    return SimpleNamespace(max_error=lambda: worst, devices=[device])


def _paper_centred_ppa(cells=CELL_NAMES, scale=1.0):
    """A PpaComparison whose library averages equal the paper's
    Figure 5 numbers exactly (optionally scaled)."""
    label = {DeviceVariant.MIV_1CH: "1-ch",
             DeviceVariant.MIV_2CH: "2-ch",
             DeviceVariant.MIV_4CH: "4-ch"}
    results = []
    for cell in cells:
        for variant in DeviceVariant:
            if variant is DeviceVariant.TWO_D:
                delay = power = area = 1.0
            else:
                key = label[variant]
                delay = 1.0 + scale * \
                    FIG5_REFERENCE["delay"][key] / 100.0
                power = 1.0 + scale * \
                    FIG5_REFERENCE["power"][key] / 100.0
                area = 1.0 + scale * \
                    FIG5_REFERENCE["area"][key] / 100.0
            results.append(CellPPA(
                cell_name=cell, variant=variant, delay=delay,
                power=power, area=area, substrate=area))
    return PpaComparison.from_results(results)


def _flow(ppa=None, worst_error: float = 8.0) -> FullFlowResult:
    return FullFlowResult(
        extraction=_fake_extraction(worst_error),
        ppa=ppa if ppa is not None else _paper_centred_ppa(),
        areas=build_area_report())


def test_gate_table_shape():
    gates = paper_gates()
    names = [g.name for g in gates]
    assert len(names) == len(set(names))
    assert sum(1 for n in names if n.startswith("gate.table3.")) == 4
    assert sum(1 for n in names if n.startswith("gate.fig5.")) == 9
    assert sum(1 for n in names if n.startswith("gate.summary.")) == 3
    for gate in gates:
        lo, hi = gate.window
        assert lo < hi


def test_paper_centred_flow_passes_every_gate():
    results = evaluate_gates(_flow())
    failed = [r for r in results if r.status == STATUS_FAIL]
    assert not failed, "\n".join(f"{r.name}: {r.detail}"
                                 for r in failed)
    # Nothing should have been skipped: the library is complete.
    assert all(r.status == STATUS_PASS for r in results)


def test_library_average_gates_skip_on_reduced_flow():
    reduced = _flow(ppa=_paper_centred_ppa(cells=("INV1X1",)))
    results = {r.name: r for r in evaluate_gates(reduced)}
    assert results["gate.fig5.delay.2-ch"].status == STATUS_SKIP
    assert results["gate.summary.pdp_2ch_reduction"].status == \
        STATUS_SKIP
    # Flow-independent gates still run.
    assert results["gate.table3.max_error"].status == STATUS_PASS
    assert results["gate.summary.substrate_area_bound"].status == \
        STATUS_PASS


def test_extraction_error_above_ceiling_fails():
    results = {r.name: r
               for r in evaluate_gates(_flow(worst_error=10.4))}
    assert results["gate.table3.max_error"].status == STATUS_FAIL
    assert results["gate.table3.cv"].status == STATUS_FAIL


@pytest.mark.parametrize("worst,margin", [(9.0, 1.0), (11.0, -1.0)])
def test_gate_margin_is_distance_to_nearer_window_edge(worst, margin):
    results = {r.name: r
               for r in evaluate_gates(_flow(worst_error=worst))}
    for name in ("gate.table3.max_error", "gate.table3.cv"):
        assert results[name].margin == pytest.approx(margin)
        assert results[name].to_dict()["margin"] == \
            pytest.approx(margin)


def test_skipped_gate_has_no_margin():
    reduced = _flow(ppa=_paper_centred_ppa(cells=("INV1X1",)))
    results = {r.name: r for r in evaluate_gates(reduced)}
    skipped = results["gate.fig5.delay.2-ch"]
    assert skipped.status == STATUS_SKIP
    assert skipped.margin is None
    assert skipped.to_dict()["margin"] is None


def test_ppa_drift_outside_window_fails():
    # Tripling every paper delta pushes the area numbers (and most
    # others) far outside their reproduction windows.
    drifted = _flow(ppa=_paper_centred_ppa(scale=3.0))
    results = {r.name: r for r in evaluate_gates(drifted)}
    assert results["gate.fig5.area.2-ch"].status == STATUS_FAIL
    assert results["gate.fig5.delay.1-ch"].status == STATUS_FAIL


def test_substrate_gate_measures_real_layouts():
    results = {r.name: r for r in evaluate_gates(_flow())}
    gate = results["gate.summary.substrate_area_bound"]
    assert gate.status == STATUS_PASS
    # The real 4-channel top-layer reduction (the paper's "up to 31%").
    assert 20.0 <= gate.measured <= 35.0


def test_gate_windows_contain_measured_baseline():
    """The windows must contain EXPERIMENTS.md's measured numbers —
    otherwise the committed gate table fails on a healthy tree."""
    measured = {  # from EXPERIMENTS.md (measured column)
        "gate.fig5.delay.1-ch": -4.02,
        "gate.fig5.delay.2-ch": -4.29,
        "gate.fig5.delay.4-ch": +1.93,
        "gate.fig5.power.1-ch": -1.54,
        "gate.fig5.power.2-ch": -1.36,
        "gate.fig5.power.4-ch": -0.87,
        "gate.fig5.area.1-ch": -7.62,
        "gate.fig5.area.2-ch": -15.24,
        "gate.fig5.area.4-ch": -14.02,
        "gate.summary.pdp_2ch_reduction": -5.6,
        "gate.summary.substrate_area_bound": 29.0,
    }
    for gate in paper_gates():
        if gate.name in measured:
            lo, hi = gate.window
            assert lo <= measured[gate.name] <= hi, (
                f"{gate.name}: measured {measured[gate.name]} outside "
                f"[{lo}, {hi}]")


@pytest.mark.slow
@pytest.mark.engine
def test_gates_over_reduced_real_flow():
    from repro.verify.suites import gate_checks
    results = gate_checks()
    failed = [r for r in results if r.status == STATUS_FAIL]
    assert not failed, "\n".join(f"{r.name}: {r.detail}"
                                 for r in failed)
    statuses = {r.name: r.status for r in results}
    assert statuses["gate.table3.max_error"] == STATUS_PASS
    assert statuses["gate.summary.substrate_area_bound"] == STATUS_PASS


@pytest.mark.slow
@pytest.mark.engine
def test_corner_table_over_reduced_real_flows():
    """The EXPERIMENTS corner table on INV1X1: Table III's CV ceiling
    holds at nominal and fails at 10% thicker oxide."""
    from repro.flows.full_flow import run_full_flow
    from repro.geometry.process import DEFAULT_PROCESS, STANDARD_CORNERS
    from repro.reporting.experiments import corner_gate_table

    corners = {c.name: c for c in STANDARD_CORNERS}
    flows = {name: run_full_flow(
        cells=["INV1X1"], variants=list(DeviceVariant),
        process=corners[name].apply(DEFAULT_PROCESS))
        for name in ("nominal", "thick_ox")}
    rows = {}
    for line in corner_gate_table(flows)[2:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = cells[3:]  # measured, margins
    assert len(rows) == len(paper_gates())
    _, nominal, thick_ox = rows["gate.table3.cv"]
    assert float(nominal) > 0
    assert thick_ox.startswith("**-") and thick_ox.endswith("FAIL**")
    for gate in paper_gates():
        if gate.requires_full_library:
            assert rows[gate.name] == ["skip", "skip", "skip"]
