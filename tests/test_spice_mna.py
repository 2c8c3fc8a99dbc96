"""MNA assembler internals, checked bitwise against a node-name oracle."""

import numpy as np
import pytest

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.errors import SingularMatrixError
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    Resistor,
    dc_source,
    pulse_source,
    pwl_source,
)
from repro.spice.elements.mosfet import Mosfet
from repro.spice.elements.vsource import PwlSpec, VoltageSource
from repro.spice.mna import GMIN, MnaAssembler
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
    matrix, rhs = assembler.assemble_static(x, time=0.0)
    g = 1e-3
    in_row = assembler.node_index["in"]
    mid_row = assembler.node_index["mid"]
    # 'in' touches R1 plus GMIN; 'mid' touches R1 + R2 + GMIN.
    assert matrix[in_row, in_row] == pytest.approx(g + GMIN)
    assert matrix[mid_row, mid_row] == pytest.approx(2 * g + GMIN)
    assert matrix[in_row, mid_row] == pytest.approx(-g)
    # Source rows.
    branch = assembler.branch_index["V1"]
    assert matrix[branch, in_row] == 1.0
    assert rhs[branch] == pytest.approx(1.0)


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
    """A scaled assembly scales the source's rhs entry only for that
    assembly: the source keeps its value and the next default assembly
    sees it whole."""
    c = divider()
    source = c.element("V1")
    assembler = MnaAssembler(c)
    x = np.zeros(assembler.n_unknowns)
    branch = assembler.branch_index["V1"]
    _, rhs = assembler.assemble_static(x, time=0.0, scale=0.5)
    assert rhs[branch] == pytest.approx(0.5)
    assert source.value(0.0) == pytest.approx(1.0)
    _, rhs = assembler.assemble_static(x, time=0.0)
    assert rhs[branch] == pytest.approx(1.0)


def test_scale_sources_handles_waveforms():
    """Scale 0 zeroes a PULSE source's rhs entry and leaves its
    waveform object in place."""
    c = Circuit()
    c.add(pulse_source("VP", "a", "0", v1=0.2, v2=1.0))
    c.add(Resistor("R1", "a", "0", 1e3))
    original = c.element("VP").waveform
    assembler = MnaAssembler(c)
    x = np.zeros(assembler.n_unknowns)
    branch = assembler.branch_index["VP"]
    _, rhs = assembler.assemble_static(x, time=0.0, scale=0.0)
    assert rhs[branch] == 0.0
    assert c.element("VP").waveform is original
    assert c.element("VP").value(0.0) == pytest.approx(0.2)
    _, rhs = assembler.assemble_static(x, time=0.0)
    assert rhs[branch] == pytest.approx(0.2)


def test_dynamic_assembly_empty_for_resistive_circuit():
    assembler = MnaAssembler(divider())
    charge, cap = assembler.assemble_dynamic(
        np.zeros(assembler.n_unknowns))
    assert np.all(charge == 0.0)
    assert np.all(cap == 0.0)


# ----------------------------------------------------------------------
# differential oracle: the node-name stamping every element used before
# stamp plans, with per-device MOSFET evaluation
# ----------------------------------------------------------------------
FD = 1e-4
GROUND = "0"


class _NodeNameStamper:
    """Accumulates A x = z through node names; ground has no row."""

    def __init__(self, assembler):
        self.node_index = assembler.node_index
        self.branch_index = assembler.branch_index
        n = assembler.n_unknowns
        self.matrix = np.zeros((n, n))
        self.rhs = np.zeros(n)

    def row(self, node):
        return None if node == GROUND else self.node_index[node]

    def add_matrix(self, row_node, col_node, value):
        self.add_matrix_rowcol(self.row(row_node), self.row(col_node),
                               value)

    def add_matrix_rowcol(self, r, c, value):
        if r is not None and c is not None:
            self.matrix[r, c] += value

    def add_rhs(self, node, value):
        self.add_rhs_row(self.row(node), value)

    def add_rhs_row(self, r, value):
        if r is not None:
            self.rhs[r] += value

    def stamp_conductance(self, n1, n2, g):
        self.add_matrix(n1, n1, g)
        self.add_matrix(n2, n2, g)
        self.add_matrix(n1, n2, -g)
        self.add_matrix(n2, n1, -g)

    def stamp_transconductance(self, out_p, out_n, ctrl_p, ctrl_n, gm):
        for out, sign in ((out_p, 1.0), (out_n, -1.0)):
            self.add_matrix(out, ctrl_p, sign * gm)
            self.add_matrix(out, ctrl_n, -sign * gm)


def _terminal_voltages(element, voltages):
    return [0.0 if n == GROUND else voltages.get(n, 0.0)
            for n in element.nodes]


def _oracle_mosfet_static(fet, stamper, voltages):
    """Per-device drain-current companion through node-name stamps."""
    vd, vg, vs = _terminal_voltages(fet, voltages)
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
    vd, vg, vs = _terminal_voltages(fet, voltages)
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


def _oracle_capacitor_dynamic(element, stamper, voltages, charge, cap):
    v1, v2 = _terminal_voltages(element, voltages)
    q = element.capacitance * (v1 - v2)
    r1 = stamper.row(element.nodes[0])
    r2 = stamper.row(element.nodes[1])
    c = element.capacitance
    if r1 is not None:
        charge[r1] += q
        cap[r1, r1] += c
        if r2 is not None:
            cap[r1, r2] -= c
    if r2 is not None:
        charge[r2] -= q
        cap[r2, r2] += c
        if r1 is not None:
            cap[r2, r1] -= c


def _oracle_static(assembler, x, time, scale=1.0):
    stamper = _NodeNameStamper(assembler)
    voltages = assembler.voltages_from(x)
    for element in assembler.circuit:
        plus, minus = element.nodes[:2]
        if isinstance(element, Mosfet):
            _oracle_mosfet_static(element, stamper, voltages)
        elif isinstance(element, Resistor):
            stamper.stamp_conductance(plus, minus, element.conductance)
        elif isinstance(element, VoltageSource):
            branch = stamper.branch_index[element.name]
            r_plus, r_minus = stamper.row(plus), stamper.row(minus)
            stamper.add_matrix_rowcol(r_plus, branch, 1.0)
            stamper.add_matrix_rowcol(r_minus, branch, -1.0)
            stamper.add_matrix_rowcol(branch, r_plus, 1.0)
            stamper.add_matrix_rowcol(branch, r_minus, -1.0)
            stamper.add_rhs_row(branch, element.value(time) * scale)
        elif isinstance(element, CurrentSource):
            i = element.value(time) * scale
            stamper.add_rhs(plus, -i)
            stamper.add_rhs(minus, i)
    for i in range(assembler.n_nodes):
        stamper.matrix[i, i] += GMIN
    return stamper.matrix, stamper.rhs


def _oracle_dynamic(assembler, x):
    stamper = _NodeNameStamper(assembler)
    voltages = assembler.voltages_from(x)
    charge = np.zeros(assembler.n_unknowns)
    cap = np.zeros((assembler.n_unknowns, assembler.n_unknowns))
    for element in assembler.circuit:
        if isinstance(element, Mosfet):
            _oracle_mosfet_dynamic(element, stamper, voltages, charge, cap)
        elif isinstance(element, Capacitor):
            _oracle_capacitor_dynamic(element, stamper, voltages, charge,
                                      cap)
    return charge, cap


#: Edge of the test circuit's PULSE source: 1e-11 .. 3e-11 s.
MID_EDGE = 2e-11


def nand2_like():
    """Two NMOS in series (one with a grounded source) and two parallel
    PMOS, one shared model per polarity, a gate resistor, a load
    capacitor and resistor on ``out`` with the MOSFETs, a diode-connected
    NMOS (repeated stamp positions), a PWL source and a PWL current
    source."""
    nmos = BsimSoi4Lite(params=default_parameters(), polarity=Polarity.NMOS)
    pmos = BsimSoi4Lite(params=default_parameters(), polarity=Polarity.PMOS)
    c = Circuit("nand2")
    c.add(dc_source("VDD", "vdd", "0", 1.0))
    c.add(pulse_source("VA", "a_in", "0", v1=0.0, v2=1.0, delay=1e-11,
                       rise=2e-11))
    c.add(pwl_source("VB", "b", "0", [(0.0, 0.9), (4e-11, 0.1)]))
    c.add(Resistor("RA", "a_in", "a", 5e3))
    c.add(Mosfet("MP1", "out", "a", "vdd", pmos))
    c.add(Mosfet("MN1", "out", "a", "mid", nmos))
    c.add(Capacitor("CL", "out", "0", 1e-15))
    c.add(Resistor("RL", "out", "vdd", 2e4))
    c.add(Mosfet("MP2", "out", "b", "vdd", pmos))
    c.add(CurrentSource("IL", "mid", "0",
                        PwlSpec(((0.0, 1e-6), (4e-11, 3e-6)))))
    c.add(Mosfet("MN2", "mid", "b", "0", nmos))
    c.add(Mosfet("MD", "mid", "mid", "0", nmos))
    c.add(Capacitor("CM", "0", "mid", 2e-16))
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
                vd, _, vs = _terminal_voltages(element, voltages)
                sign = element.model.polarity.sign
                if sign * (vd - vs) < 0:
                    reverse["n" if sign > 0 else "p"] += 1
        for t, scale in ((0.0, 1.0), (MID_EDGE, 1.0), (MID_EDGE, 0.5)):
            matrix, rhs = assembler.assemble_static(x, t, scale)
            want_matrix, want_rhs = _oracle_static(assembler, x, t, scale)
            assert _bits(matrix) == _bits(want_matrix)
            assert _bits(rhs) == _bits(want_rhs)
        q, cap = assembler.assemble_dynamic(x)
        q_ref, cap_ref = _oracle_dynamic(assembler, x)
        assert _bits(q) == _bits(q_ref)
        assert _bits(cap) == _bits(cap_ref)
    # Both polarities were exercised in reverse mode (vds < 0).
    assert reverse["n"] > 0 and reverse["p"] > 0


def test_oracle_conditions_move_every_source():
    """The three assembly conditions of the oracle test differ in every
    independent source's rhs value, mid-edge from t = 0 included."""
    assembler = MnaAssembler(nand2_like())
    x = np.zeros(assembler.n_unknowns)
    rhs = [assembler.assemble_static(x, t, scale)[1]
           for t, scale in ((0.0, 1.0), (MID_EDGE, 1.0), (MID_EDGE, 0.5))]
    a_row = assembler.branch_index["VA"]
    b_row = assembler.branch_index["VB"]
    mid = assembler.node_index["mid"]
    assert [r[a_row] for r in rhs] == [0.0, 0.5, 0.25]
    assert rhs[0][b_row] == 0.9 and rhs[2][b_row] == rhs[1][b_row] / 2
    assert rhs[0][mid] == -1e-6 and rhs[2][mid] == rhs[1][mid] / 2


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
