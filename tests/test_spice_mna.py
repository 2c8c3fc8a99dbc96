"""MNA assembler internals and the source-stepping scaffolding."""

import numpy as np
import pytest

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.errors import SingularMatrixError
from repro.spice import (
    Capacitor,
    Circuit,
    Resistor,
    dc_source,
    pulse_source,
)
from repro.spice.elements.base import Stamper
from repro.spice.elements.mosfet import Mosfet
from repro.spice.mna import GMIN, MnaAssembler, scale_sources
from repro.tcad.device import Polarity


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


# ----------------------------------------------------------------------
# differential oracle: grouped evaluation vs. per-device evaluation
# ----------------------------------------------------------------------
FD = 1e-4


def _oracle_mosfet_static(fet, stamper, voltages):
    """Per-device drain-current companion through node-name stamps."""
    vd, vg, vs = fet.terminal_voltages(voltages)
    vgs, vds = vg - vs, vd - vs
    batch = fet.model.ids_batch(
        np.array([vgs, vgs + FD, vgs - FD, vgs, vgs]),
        np.array([vds, vds, vds, vds + FD, vds - FD]))
    ids = float(batch[0])
    gm = float(batch[1] - batch[2]) / (2.0 * FD)
    gds = float(batch[3] - batch[4]) / (2.0 * FD)
    drain, gate, source = fet.nodes
    stamper.stamp_transconductance(drain, source, gate, source, gm)
    stamper.stamp_conductance(drain, source, gds)
    ieq = ids - gm * vgs - gds * vds
    stamper.add_rhs(drain, -ieq)
    stamper.add_rhs(source, ieq)


def _oracle_mosfet_dynamic(fet, stamper, voltages, charge, cap):
    """Per-device terminal charges and 3x3 capacitance Jacobian."""
    drain, gate, source = fet.nodes
    rows = [stamper.row(n) for n in (gate, drain, source)]
    vd, vg, vs = fet.terminal_voltages(voltages)
    vgs, vds = vg - vs, vd - vs
    qg_b, qd_b, qs_b = fet.model.charges_batch(
        np.array([vgs, vgs + FD, vgs]), np.array([vds, vds, vds + FD]))
    q0 = np.array([qg_b[0], qd_b[0], qs_b[0]])
    dq_dvg = (np.array([qg_b[1], qd_b[1], qs_b[1]]) - q0) / FD
    dq_dvd = (np.array([qg_b[2], qd_b[2], qs_b[2]]) - q0) / FD
    dq_dvs = -(dq_dvg + dq_dvd)
    for i, row in enumerate(rows):
        if row is None:
            continue
        charge[row] += q0[i]
        for deriv, node in ((dq_dvg[i], gate), (dq_dvd[i], drain),
                            (dq_dvs[i], source)):
            col = stamper.row(node)
            if col is not None:
                cap[row, col] += deriv


def _oracle_static(assembler, x, time):
    stamper = Stamper(assembler.node_index, assembler.branch_index,
                      assembler.n_unknowns)
    voltages = assembler.voltages_from(x)
    for element in assembler.circuit:
        if isinstance(element, Mosfet):
            _oracle_mosfet_static(element, stamper, voltages)
        else:
            element.stamp_static(stamper, voltages, time)
    for i in range(assembler.n_nodes):
        stamper.matrix[i, i] += GMIN
    return stamper


def _oracle_dynamic(assembler, x):
    stamper = Stamper(assembler.node_index, assembler.branch_index,
                      assembler.n_unknowns)
    voltages = assembler.voltages_from(x)
    charge = np.zeros(assembler.n_unknowns)
    cap = np.zeros((assembler.n_unknowns, assembler.n_unknowns))
    for element in assembler.circuit:
        if isinstance(element, Mosfet):
            _oracle_mosfet_dynamic(element, stamper, voltages, charge, cap)
        else:
            element.stamp_dynamic(stamper, voltages, charge, cap)
    return charge, cap


def nand2_like():
    """Two NMOS in series (one with a grounded source) and two parallel
    PMOS, one shared model per polarity, a gate resistor, a load
    capacitor and a diode-connected NMOS (repeated stamp positions)."""
    nmos = BsimSoi4Lite(params=default_parameters(), polarity=Polarity.NMOS)
    pmos = BsimSoi4Lite(params=default_parameters(), polarity=Polarity.PMOS)
    c = Circuit("nand2")
    c.add(dc_source("VDD", "vdd", "0", 1.0))
    c.add(pulse_source("VA", "a_in", "0", v1=0.0, v2=1.0))
    c.add(dc_source("VB", "b", "0", 1.0))
    c.add(Resistor("RA", "a_in", "a", 5e3))
    c.add(Mosfet("MP1", "out", "a", "vdd", pmos))
    c.add(Mosfet("MN1", "out", "a", "mid", nmos))
    c.add(Capacitor("CL", "out", "0", 1e-15))
    c.add(Mosfet("MP2", "out", "b", "vdd", pmos))
    c.add(Mosfet("MN2", "mid", "b", "0", nmos))
    c.add(Mosfet("MD", "mid", "mid", "0", nmos))
    return c


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_grouped_assembly_equals_per_device_oracle_bitwise():
    assembler = MnaAssembler(nand2_like())
    rng = np.random.default_rng(20231017)
    n = assembler.n_unknowns
    samples = [np.zeros(n)]
    for _ in range(63):
        x = rng.uniform(-0.4, 1.4, n)
        x[rng.random(n) < 0.25] = 0.0
        samples.append(x)
    reverse = {"n": 0, "p": 0}
    for x in samples:
        voltages = assembler.voltages_from(x)
        for element in assembler.circuit:
            if isinstance(element, Mosfet):
                vd, _, vs = element.terminal_voltages(voltages)
                sign = element.model.polarity.sign
                if sign * (vd - vs) < 0:
                    reverse["n" if sign > 0 else "p"] += 1
        for t in (0.0, 2e-11):
            got = assembler.assemble_static(x, t)
            want = _oracle_static(assembler, x, t)
            assert _bits(got.matrix) == _bits(want.matrix)
            assert _bits(got.rhs) == _bits(want.rhs)
        q, cap = assembler.assemble_dynamic(x)
        q_ref, cap_ref = _oracle_dynamic(assembler, x)
        assert _bits(q) == _bits(q_ref)
        assert _bits(cap) == _bits(cap_ref)
    # Both polarities were exercised in reverse mode (vds < 0).
    assert reverse["n"] > 0 and reverse["p"] > 0


def test_one_model_call_per_group_per_assembly(monkeypatch):
    calls = {"ids": 0, "charges": 0}
    ids_batch = BsimSoi4Lite.ids_batch
    charges_batch = BsimSoi4Lite.charges_batch

    def counted_ids(self, vgs, vds):
        calls["ids"] += 1
        return ids_batch(self, vgs, vds)

    def counted_charges(self, vgs, vds):
        calls["charges"] += 1
        return charges_batch(self, vgs, vds)

    monkeypatch.setattr(BsimSoi4Lite, "ids_batch", counted_ids)
    monkeypatch.setattr(BsimSoi4Lite, "charges_batch", counted_charges)
    assembler = MnaAssembler(nand2_like())
    x = np.full(assembler.n_unknowns, 0.5)
    assembler.assemble_static(x, 0.0)
    assembler.assemble_dynamic(x)
    # Five MOSFETs over two model instances: one call per group each.
    assert calls == {"ids": 2, "charges": 2}
