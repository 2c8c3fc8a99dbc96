"""Conservation and monotonicity invariants of the physics stack.

These are the checks that hold for *any* healthy parameterisation —
no golden values involved, so they survive deliberate recalibrations
that regenerate every golden:

* I_D monotone in V_GS above threshold (TCAD characterisation and
  compact model);
* C-V bounds: the gate capacitance per area stays inside
  ``(0, C_ox]`` — the oxide capacitance is the series-limited ceiling;
* terminal-charge conservation of the compact model.
"""

from __future__ import annotations

import time
from typing import Callable, List

import numpy as np

from repro.verify.report import (
    CheckResult,
    STATUS_FAIL,
    STATUS_PASS,
)


def _check(name: str, passed: bool, measured=None, expected=None,
           tolerance: str = "", detail: str = "",
           wall_time_s: float = 0.0) -> CheckResult:
    return CheckResult(
        name=name, status=STATUS_PASS if passed else STATUS_FAIL,
        measured=measured, expected=expected, tolerance=tolerance,
        detail=detail, wall_time_s=wall_time_s)


def tcad_id_monotone_in_vgs(slack: float = 1e-12) -> CheckResult:
    """TCAD I_D(V_GS) non-decreasing above threshold, both V_DS."""
    from repro.geometry.transistor_layout import ChannelCount
    from repro.tcad.device import Polarity, design_for_variant
    device = design_for_variant(ChannelCount.TRADITIONAL,
                                Polarity.NMOS)
    vgs = np.linspace(0.3, 1.0, 15)
    worst = 0.0
    for vds in (0.05, 1.0):
        ids = np.array([device.ids_magnitude(float(v), vds)
                        for v in vgs])
        drops = np.diff(ids)
        worst = min(worst, float(np.min(drops))) if drops.size else worst
    return _check(
        "invariant.tcad.id_monotone_vgs", worst >= -slack,
        measured=worst, expected=f">= -{slack:g}",
        detail="largest I_D drop across rising V_GS grid "
               "(0.3..1.0 V, V_DS in {0.05, 1.0})")


def compact_id_monotone_in_vgs(slack: float = 1e-21) -> CheckResult:
    """Compact-model I_D(V_GS) non-decreasing (default parameters)."""
    from repro.compact.model import BsimSoi4Lite
    from repro.compact.parameters import default_parameters
    from repro.tcad.device import Polarity
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    vgs = np.linspace(0.0, 1.2, 61)
    worst = 0.0
    for vds in (0.05, 0.6, 1.0):
        ids = model.ids_magnitude(vgs, np.full_like(vgs, vds))
        worst = min(worst, float(np.min(np.diff(ids))))
    return _check(
        "invariant.compact.id_monotone_vgs", worst >= -slack,
        measured=worst, expected=f">= -{slack:g}",
        detail="largest I_D drop across rising V_GS grid")


def cv_bounded_by_oxide(margin: float = 1.0 + 1e-9) -> CheckResult:
    """Gate capacitance per area inside (0, C_ox]."""
    from repro.geometry.transistor_layout import ChannelCount
    from repro.tcad.device import Polarity, design_for_variant
    poisson = design_for_variant(ChannelCount.TRADITIONAL,
                                 Polarity.NMOS).engine.poisson
    cox = poisson.oxide_capacitance()
    ratios = []
    for vg in (0.0, 0.3, 0.6, 0.9, 1.2):
        cgg = poisson.gate_capacitance(vg)
        ratios.append(cgg / cox)
    ratios = np.array(ratios)
    passed = bool(np.all(ratios > 0.0) and
                  np.all(ratios <= margin))
    return _check(
        "invariant.tcad.cv_bounds", passed,
        measured=[float(r) for r in ratios],
        expected=f"0 < C_gg/C_ox <= {margin:g}",
        detail="series-limited gate capacitance ratio per bias")


def compact_charge_conservation(atol: float = 1e-24) -> CheckResult:
    """qg + qd + qs == 0 across a bias grid (compact model)."""
    from repro.compact.model import BsimSoi4Lite
    from repro.compact.parameters import default_parameters
    from repro.tcad.device import Polarity
    model = BsimSoi4Lite(params=default_parameters(),
                         polarity=Polarity.NMOS)
    worst = 0.0
    for vgs in (-0.3, 0.0, 0.4, 0.8, 1.2):
        for vds in (-0.5, 0.0, 0.5, 1.0):
            qg, qd, qs = model.charges(vgs, vds)
            worst = max(worst, abs(qg + qd + qs))
    return _check(
        "invariant.compact.charge_conservation", worst <= atol,
        measured=worst, expected=f"<= {atol:g}",
        detail="max |qg + qd + qs| over the bias grid")


#: The full invariant battery (all cheap; no engine involved).
INVARIANT_CHECKS: List[Callable[[], CheckResult]] = [
    tcad_id_monotone_in_vgs,
    compact_id_monotone_in_vgs,
    cv_bounded_by_oxide,
    compact_charge_conservation,
]


def all_invariant_checks() -> List[CheckResult]:
    """Run every invariant, timing each."""
    results = []
    for check in INVARIANT_CHECKS:
        start = time.perf_counter()
        result = check()
        result.wall_time_s = time.perf_counter() - start
        results.append(result)
    return results
