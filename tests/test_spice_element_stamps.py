"""Direct verification of element stamps against their definitions.

Each element is assembled in a small circuit whose every node is held
by a DC source, so the element's own entries are the node block of the
assembled system (GMIN removed; the sources stamp only branch rows and
columns).
"""

import numpy as np
import pytest

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import default_parameters
from repro.spice import Circuit, dc_source
from repro.spice.elements.capacitor import Capacitor
from repro.spice.elements.mosfet import Mosfet
from repro.spice.elements.resistor import Resistor
from repro.spice.mna import GMIN, MnaAssembler
from repro.tcad.device import Polarity


def assembled(element, voltages):
    """Static (A, z) and dynamic (q, C) of ``element`` restricted to its
    non-ground nodes, in node order, at the given node voltages."""
    nodes = [n for n in element.nodes if n != "0"]
    c = Circuit()
    c.add(element)
    for node in nodes:
        c.add(dc_source(f"V{node}", node, "0", voltages[node]))
    assembler = MnaAssembler(c)
    assert [assembler.node_index[n] for n in nodes] == list(range(len(nodes)))
    k = len(nodes)
    x = np.zeros(assembler.n_unknowns)
    x[:k] = [voltages[n] for n in nodes]
    matrix, rhs = assembler.assemble_static(x, 0.0)
    q, cap = assembler.assemble_dynamic(x)
    return matrix[:k, :k] - GMIN * np.eye(k), rhs[:k], q[:k], cap[:k, :k]


def test_resistor_stamp_matrix():
    matrix, rhs, _, _ = assembled(Resistor("R1", "a", "b", 2e3),
                                  {"a": 0.0, "b": 0.0})
    g = 5e-4
    expected = np.array([[g, -g], [-g, g]])
    assert np.allclose(matrix, expected)
    assert np.allclose(rhs, 0.0)


def test_resistor_stamp_to_ground_drops_ground_row():
    matrix, _, _, _ = assembled(Resistor("R1", "a", "0", 1e3), {"a": 0.0})
    assert matrix.shape == (1, 1)
    assert matrix[0, 0] == pytest.approx(1e-3)


def test_capacitor_charge_and_jacobian():
    cap = Capacitor("C1", "a", "b", 2e-15)
    _, _, q, c = assembled(cap, {"a": 0.8, "b": 0.3})
    assert q[0] == pytest.approx(2e-15 * 0.5)
    assert q[1] == pytest.approx(-2e-15 * 0.5)
    assert np.allclose(c, np.array([[2e-15, -2e-15], [-2e-15, 2e-15]]))


def test_mosfet_stamp_consistency():
    """The stamped companion must reproduce I(v) at the linearisation
    point: A v - z contributions equal the true drain current."""
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    voltages = {"d": 0.7, "g": 0.9, "s": 0.1}
    matrix, rhs, _, _ = assembled(Mosfet("M1", "d", "g", "s", model),
                                  voltages)

    v = np.array([voltages["d"], voltages["g"], voltages["s"]])
    # KCL residual at the drain row: sum(A[0,:] v) - z[0] = I_D.
    i_lin = float(matrix[0] @ v - rhs[0])
    i_true = model.ids(voltages["g"] - voltages["s"],
                       voltages["d"] - voltages["s"])
    assert i_lin == pytest.approx(i_true, rel=1e-6)
    # Source row carries the opposite current; gate row carries none.
    i_src = float(matrix[2] @ v - rhs[2])
    assert i_src == pytest.approx(-i_true, rel=1e-6)
    i_gate = float(matrix[1] @ v - rhs[1])
    assert i_gate == pytest.approx(0.0, abs=1e-18)


def test_mosfet_stamp_gm_matches_model():
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    voltages = {"d": 1.0, "g": 0.8, "s": 0.0}
    matrix, _, _, _ = assembled(Mosfet("M1", "d", "g", "s", model),
                                voltages)
    # A[d, g] is gm.
    d = 1e-4
    gm_ref = (model.ids(0.8 + d, 1.0) - model.ids(0.8 - d, 1.0)) / (2 * d)
    assert matrix[0, 1] == pytest.approx(gm_ref, rel=1e-6)


def test_mosfet_charge_stamp_conserves():
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    _, _, q, c = assembled(Mosfet("M1", "d", "g", "s", model),
                           {"d": 0.6, "g": 0.9, "s": 0.0})
    # Total stamped charge sums to zero (conservative model).
    assert q.sum() == pytest.approx(0.0, abs=1e-24)
    # Capacitance matrix rows sum to zero (charge depends on voltage
    # differences only).
    assert np.allclose(c.sum(axis=1), 0.0, atol=1e-18)


def test_mosfet_pmos_stamp_signs():
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.PMOS)
    voltages = {"d": 0.0, "g": 0.0, "s": 1.0}  # PMOS fully on
    matrix, rhs, _, _ = assembled(Mosfet("M1", "d", "g", "s", model),
                                  voltages)
    v = np.array([0.0, 0.0, 1.0])
    i_lin = float(matrix[0] @ v - rhs[0])
    assert i_lin < 0  # current flows out of the drain
