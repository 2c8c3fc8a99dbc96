""".model card rendering.

The extraction flow emits HSPICE-style level-70 model cards, the way a
real PDK ships its transistor models.
"""

from __future__ import annotations

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import LEVEL70_CONSTANTS, PARAMETER_SPECS
from repro.tcad.device import Polarity


def render_model_card(model: BsimSoi4Lite) -> str:
    """Render an HSPICE-style ``.model`` card for a fitted model."""
    kind = "nmos" if model.polarity is Polarity.NMOS else "pmos"
    lines = [f".model {model.name} {kind}"]
    constants = dict(LEVEL70_CONSTANTS)
    constants["W"] = model.width
    constants["L"] = model.length
    constants["TSI"] = model.t_si
    constants["TOX"] = model.t_ox
    for name, value in constants.items():
        lines.append(f"+ {name.lower()}={value:g}")
    for name in sorted(PARAMETER_SPECS):
        lines.append(f"+ {name.lower()}={model.p(name):.6g}")
    return "\n".join(lines) + "\n"
