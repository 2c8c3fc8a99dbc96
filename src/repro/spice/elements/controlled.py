"""Linear controlled sources: VCVS (E) and VCCS (G).

Used for behavioural load modelling (e.g. emulating a driver or a
receiver without instantiating transistors) and in testbenches.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import NetlistError
from repro.spice.elements.base import Element, Stamper


class Vcvs(Element):
    """Voltage-controlled voltage source: v(out) = gain * v(ctrl).

    Nodes: (out+, out-, ctrl+, ctrl-).  Adds one branch unknown.
    """

    n_branch = 1

    def __init__(self, name: str, out_p: str, out_n: str,
                 ctrl_p: str, ctrl_n: str, gain: float):
        super().__init__(name, (out_p, out_n, ctrl_p, ctrl_n))
        if gain == 0:
            raise NetlistError(f"{name}: zero gain makes a useless VCVS")
        self.gain = float(gain)

    def stamp_static(self, stamper: Stamper, voltages: Dict[str, float],
                     time: float) -> None:
        out_p, out_n, ctrl_p, ctrl_n = self.nodes
        branch = stamper.branch_row(self.name)
        rp, rn = stamper.row(out_p), stamper.row(out_n)
        cp, cn = stamper.row(ctrl_p), stamper.row(ctrl_n)
        stamper.add_matrix_rowcol(rp, branch, 1.0)
        stamper.add_matrix_rowcol(rn, branch, -1.0)
        # Branch equation: v(out+) - v(out-) - gain*(v(c+) - v(c-)) = 0.
        stamper.add_matrix_rowcol(branch, rp, 1.0)
        stamper.add_matrix_rowcol(branch, rn, -1.0)
        stamper.add_matrix_rowcol(branch, cp, -self.gain)
        stamper.add_matrix_rowcol(branch, cn, self.gain)


class Vccs(Element):
    """Voltage-controlled current source: i(out+ -> out-) = gm * v(ctrl).

    Nodes: (out+, out-, ctrl+, ctrl-).  Pure transconductance stamp.
    """

    def __init__(self, name: str, out_p: str, out_n: str,
                 ctrl_p: str, ctrl_n: str, transconductance: float):
        super().__init__(name, (out_p, out_n, ctrl_p, ctrl_n))
        if transconductance == 0:
            raise NetlistError(f"{name}: zero gm makes a useless VCCS")
        self.transconductance = float(transconductance)

    def stamp_static(self, stamper: Stamper, voltages: Dict[str, float],
                     time: float) -> None:
        out_p, out_n, ctrl_p, ctrl_n = self.nodes
        stamper.stamp_transconductance(out_p, out_n, ctrl_p, ctrl_n,
                                       self.transconductance)
