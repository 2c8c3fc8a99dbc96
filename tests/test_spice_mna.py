"""MNA assembler internals and the source-stepping scaffolding."""

import numpy as np
import pytest

from repro.errors import SingularMatrixError
from repro.spice import Circuit, Resistor, dc_source
from repro.spice.mna import GMIN, MnaAssembler, scale_sources


def divider():
    c = Circuit()
    c.add(dc_source("V1", "in", "0", 1.0))
    c.add(Resistor("R1", "in", "mid", 1e3))
    c.add(Resistor("R2", "mid", "0", 1e3))
    return c


def test_unknown_count_and_indices():
    assembler = MnaAssembler(divider())
    assert assembler.n_nodes == 2
    assert assembler.n_unknowns == 3
    assert assembler.branch_index == {"V1": 2}


def test_static_assembly_structure():
    c = divider()
    assembler = MnaAssembler(c)
    x = np.zeros(assembler.n_unknowns)
    stamper = assembler.assemble_static(x, time=0.0)
    g = 1e-3
    in_row = assembler.node_index["in"]
    mid_row = assembler.node_index["mid"]
    # 'in' touches R1 plus GMIN; 'mid' touches R1 + R2 + GMIN.
    assert stamper.matrix[in_row, in_row] == pytest.approx(g + GMIN)
    assert stamper.matrix[mid_row, mid_row] == pytest.approx(2 * g + GMIN)
    assert stamper.matrix[in_row, mid_row] == pytest.approx(-g)
    # Source rows.
    branch = assembler.branch_index["V1"]
    assert stamper.matrix[branch, in_row] == 1.0
    assert stamper.rhs[branch] == pytest.approx(1.0)


def test_solution_vector_roundtrip():
    assembler = MnaAssembler(divider())
    x = np.array([1.0, 0.5, -5e-4])
    voltages = assembler.voltages_from(x)
    assert voltages == {"in": 1.0, "mid": 0.5}
    assert assembler.branch_current(x, "V1") == pytest.approx(-5e-4)


def test_solve_system_reports_singularity():
    """A singular system raises SingularMatrixError with code
    ``spice.singular_matrix`` and the structural diagnosis."""
    assembler = MnaAssembler(divider())
    with pytest.raises(SingularMatrixError) as err:
        assembler.solve_system(np.zeros((3, 3)), np.zeros(3))
    assert err.value.code == "spice.singular_matrix"
    assert "singular" in str(err.value).lower()
    assert "floating" in str(err.value)


def test_scale_sources_context_restores():
    c = divider()
    source = c.element("V1")
    with scale_sources(c, 0.5):
        assert source.value(0.0) == pytest.approx(0.5)
    assert source.value(0.0) == pytest.approx(1.0)


def test_scale_sources_handles_waveforms():
    from repro.spice import pulse_source
    c = Circuit()
    c.add(pulse_source("VP", "a", "0", v1=0.2, v2=1.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    original = c.element("VP").waveform
    with scale_sources(c, 0.0):
        assert c.element("VP").value(0.0) == 0.0
    assert c.element("VP").waveform is original


def test_dynamic_assembly_empty_for_resistive_circuit():
    assembler = MnaAssembler(divider())
    charge, cap = assembler.assemble_dynamic(
        np.zeros(assembler.n_unknowns))
    assert np.all(charge == 0.0)
    assert np.all(cap == 0.0)
