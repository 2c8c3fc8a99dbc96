"""Measured quantities behind each committed golden.

One function per golden file, each returning a flat ``{quantity name:
scalar or array}`` dict.  The bias grids are fixed here — they are part
of the golden's identity; changing them requires regenerating the
golden, which is the intended friction.

Families:

* solver goldens (``tight`` tolerance) — deterministic in-process
  arithmetic: the 1-D Poisson stack solve, the drift-diffusion bar, the
  compact model and an RC transient;
* pipeline goldens (``numeric`` tolerance) — quantities funnelled
  through iterative optimisers: Table III extraction errors and
  per-cell PPA numbers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.cells.variants import DeviceVariant
from repro.geometry.transistor_layout import ChannelCount
from repro.tcad.device import Polarity, design_for_variant

#: Gate-bias grid of the Poisson / compact-model goldens [V].
VG_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

#: Drain-bias grid of the compact-model golden [V].
VD_GRID = (0.05, 0.5, 1.0)

#: Contact-bias grid of the drift-diffusion golden [V].
DD_BIASES = (0.0, 0.01, 0.05, 0.1, 0.2)

#: Reduced cell/variant grid of the PPA golden.
PPA_CELLS = ("INV1X1", "NAND2X1")
PPA_VARIANTS = (DeviceVariant.TWO_D, DeviceVariant.MIV_1CH,
                DeviceVariant.MIV_2CH, DeviceVariant.MIV_4CH)


def poisson1d_snapshot() -> Dict[str, Any]:
    """Vertical FDSOI electrostatics of the traditional NMOS stack."""
    device = design_for_variant(ChannelCount.TRADITIONAL, Polarity.NMOS)
    poisson = device.engine.poisson
    out: Dict[str, Any] = {
        "oxide_capacitance": poisson.oxide_capacitance(),
    }
    surface, q_inv, q_gate = [], [], []
    for vg in VG_GRID:
        solution = poisson.solve(vg)
        surface.append(solution.surface_potential)
        q_inv.append(solution.q_inv)
        q_gate.append(solution.q_gate)
    out["surface_potential"] = np.array(surface)
    out["q_inv"] = np.array(q_inv)
    out["q_gate"] = np.array(q_gate)
    out["cgg_mid"] = poisson.gate_capacitance(0.6)
    return out


def dd1d_snapshot() -> Dict[str, Any]:
    """I-V of the paper's S/D-extension bar (Scharfetter-Gummel)."""
    from repro.tcad.dd1d import DriftDiffusion1D, uniform_bar
    solver = DriftDiffusion1D(uniform_bar())
    solutions = solver.sweep(list(DD_BIASES))
    return {
        "currents": np.array([s.current for s in solutions]),
        "resistance": solver.resistance(),
        "equilibrium_current": solutions[0].current,
        "psi_midpoint": solutions[-1].psi[solver.x.size // 2],
    }


def compact_model_snapshot() -> Dict[str, Any]:
    """Default-parameter BSIMSOI4-lite evaluations."""
    from repro.compact.model import BsimSoi4Lite
    from repro.compact.parameters import default_parameters
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    vg = np.array(VG_GRID)
    out: Dict[str, Any] = {
        "vth_lin": float(model.vth(0.05)),
        "vth_sat": float(model.vth(1.0)),
        "cgg": model.cgg(vg),
    }
    for vd in VD_GRID:
        out[f"ids@vds={vd:g}"] = model.ids_magnitude(vg, vd)
    qg, qd, qs = model.charges(1.0, 0.5)
    out["charges@1.0,0.5"] = np.array([qg, qd, qs])
    return out


def spice_rc_snapshot() -> Dict[str, Any]:
    """Trapezoidal transient of an RC low-pass driven by a pulse."""
    from repro.spice import Circuit, Resistor, pulse_source, transient
    from repro.spice.elements.capacitor import Capacitor
    circuit = Circuit()
    circuit.add(pulse_source("V1", "in", "0", v1=0.0, v2=1.0,
                             delay=1e-10, rise=2e-11, fall=2e-11,
                             width=4e-10))
    circuit.add(Resistor("R1", "in", "out", 1e3))
    circuit.add(Capacitor("C1", "out", "0", 1e-13))
    result = transient(circuit, t_stop=1e-9, dt=5e-11)
    wave = result.waveform("out")
    probes = np.array([1e-10, 2e-10, 3e-10, 5e-10, 7e-10, 1e-9])
    return {
        "n_samples": int(wave.t.size),
        "v_probes": np.array([float(wave.value(t)) for t in probes]),
        "v_final": float(wave.v[-1]),
        "v_max": float(np.max(wave.v)),
    }


def extraction_snapshot(engine=None,
                        variants: Optional[List[ChannelCount]] = None,
                        ) -> Dict[str, Any]:
    """Table III fit errors for every (device, polarity, region)."""
    from repro.flows.full_flow import run_extractions
    report = run_extractions(variants=variants, engine=engine)
    out: Dict[str, Any] = {"max_error": report.max_error()}
    for device in report.devices:
        key = f"{device.targets.variant.name}:{device.targets.polarity.value}"
        for region, error in sorted(device.errors.items()):
            out[f"error:{region}:{key}"] = error
    return out


def ppa_snapshot(engine=None, cells=PPA_CELLS,
                 variants=PPA_VARIANTS) -> Dict[str, Any]:
    """Per-cell PPA numbers of a reduced cells x variants grid."""
    from repro.engine import default_engine
    from repro.ppa.runner import PpaRunner
    runner = PpaRunner(engine=engine or default_engine())
    results = runner.sweep(cells=list(cells), variants=list(variants))
    out: Dict[str, Any] = {}
    for item in results:
        prefix = f"{item.cell_name}:{item.variant.value}"
        out[f"{prefix}:delay"] = item.delay
        out[f"{prefix}:power"] = item.power
        out[f"{prefix}:area"] = item.area
        out[f"{prefix}:substrate"] = item.substrate
    return out


#: Golden name -> (snapshot builder, default tolerance class).  The
#: pipeline goldens take the engine to run under; solver goldens are
#: engine-free.
SOLVER_GOLDENS = {
    "poisson1d_stack": (poisson1d_snapshot, "tight"),
    "dd1d_bar": (dd1d_snapshot, "tight"),
    "compact_model": (compact_model_snapshot, "tight"),
    "spice_rc": (spice_rc_snapshot, "tight"),
}

PIPELINE_GOLDENS = {
    "extraction_table3": (extraction_snapshot, "numeric"),
    "ppa_reduced": (ppa_snapshot, "numeric"),
}
