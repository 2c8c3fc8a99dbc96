"""Stimulus plans."""

from repro.cells.library import get_cell
from repro.cells.vectors import StimulusRun, stimulus_plan_for


def test_one_run_per_input():
    for name in ("INV1X1", "NAND2X1", "MUX2X1"):
        cell = get_cell(name)
        plan = stimulus_plan_for(cell)
        assert len(plan.runs) == len(cell.inputs)


def test_runs_cover_all_inputs():
    plan = stimulus_plan_for(get_cell("AOI2X1"))
    assert {run.toggled_input for run in plan.runs} == {"a", "b", "c"}


def test_static_levels_sensitize():
    cell = get_cell("NAND2X1")
    plan = stimulus_plan_for(cell)
    for run in plan.runs:
        low = cell.evaluate({**run.static_levels, run.toggled_input: False})
        high = cell.evaluate({**run.static_levels, run.toggled_input: True})
        assert low != high


def test_static_levels_exclude_toggled_input():
    plan = stimulus_plan_for(get_cell("NAND3X1"))
    for run in plan.runs:
        assert run.toggled_input not in run.static_levels


def test_pulse_kwargs_full_swing():
    run = StimulusRun(toggled_input="a", static_levels={})
    kwargs = run.pulse_kwargs(1.0)
    assert kwargs["v1"] == 0.0
    assert kwargs["v2"] == 1.0
    assert kwargs["delay"] < kwargs["width"]


def test_pulse_fits_in_observation_window():
    run = StimulusRun(toggled_input="a", static_levels={})
    # falling edge happens before t_stop so both edges are observed
    assert run.delay + run.width < run.t_stop
