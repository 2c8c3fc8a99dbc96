"""Row-batched extraction residuals and their batched 2-point Jacobian.

Two oracles, both compared bit for bit (a last-bit change in a residual
moves the fitted parameters, and with them a Table III error, by up to
a percent):

* each stage's residual as written per curve and per parameter set --
  a model per set, one model call per curve, the error formulas
  applied curve by curve;
* scipy's own ``approx_derivative`` with the settings of the built-in
  ``'2-point'`` Jacobian (relative step 1e-4, bounds [0, 1]): the
  objective writes scipy's step rule out, and these tests pin it to the
  installed scipy.
"""

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative

from repro.compact.model import BsimSoi4Lite
from repro.compact.parameters import PARAMETER_SPECS, default_parameters
from repro.extraction.optimizer import (
    JACOBIAN_REL_STEP,
    UnitBoxObjective,
    fit_parameters,
)
from repro.extraction.stages import (
    capacitance_stage,
    high_drain_stage,
    low_drain_stage,
)
from repro.observe import Tracer, activate


# ---- the per-curve residuals the row-batched stages replace ------------

def _relative(sim, ref):
    sim = np.asarray(sim, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref)))
    return np.abs(sim - ref) / np.maximum(np.abs(ref), 0.02 * scale)


def _mixed(sim, ref, log_weight):
    logr = (np.log10(np.maximum(sim, 1e-14)) -
            np.log10(np.maximum(ref, 1e-14))) * log_weight
    return np.concatenate([_relative(sim, ref), logr])


def _low_drain(model, targets, values):
    trial = model.with_params(values)
    curve = targets.idvg_lin
    return _mixed(trial.ids_magnitude(curve.v, curve.fixed_bias), curve.i,
                  0.6)


def _high_drain(model, targets, values):
    trial = model.with_params(values)
    sat, lin = targets.idvg_sat, targets.idvg_lin
    parts = [_mixed(trial.ids_magnitude(sat.v, sat.fixed_bias), sat.i, 0.6),
             0.5 * _relative(trial.ids_magnitude(lin.v, lin.fixed_bias),
                             lin.i)]
    for curve in targets.idvd.curves:
        parts.append(_relative(trial.ids_magnitude(curve.fixed_bias,
                                                   curve.v), curve.i))
    incoming = {name: model.p(name) for name in ("U0", "UA")}
    parts.append(np.asarray(
        [2.0 * np.log(max(values.get(n, v), 1e-12) / max(v, 1e-12))
         for n, v in incoming.items() if v > 0]))
    return np.concatenate(parts)


def _capacitance(model, targets, values):
    trial = model.with_params(values)
    return _relative(trial.cgg(targets.cv.v), targets.cv.c)


STAGES = {
    "low_drain": (low_drain_stage, _low_drain),
    "high_drain": (high_drain_stage, _high_drain),
    "capacitance": (capacitance_stage, _capacitance),
}


def _same_bits(a, b) -> bool:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _template(targets, **updates):
    return BsimSoi4Lite(params=default_parameters().updated(updates),
                        polarity=targets.polarity)


def _rows(names, seed):
    """Seeded rows: the box corners x = 0 and x = 1, mixed corners,
    interior points, and -- where the stage fits them -- UD = 0 and
    UD > 0 against UCS exactly 0.5 and exactly 2.0."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(size=(12, len(names)))
    xs[0] = 0.0
    xs[1] = 1.0
    xs[2, ::2] = 0.0
    xs[3, 1::2] = 1.0
    rows = [dict(zip(names, values))
            for values in UnitBoxObjective(names, None).values(xs)]
    if "UD" in names:
        cases = [(0.0, 0.5), (0.7, 0.5), (0.0, 2.0), (1.3, 2.0),
                 (2.0, 0.5), (2.0, 2.0), (1.0, 0.5), (1.0, 2.0)]
        for row, (ud, ucs) in zip(rows[4:], cases):
            row.update(UD=ud, UCS=ucs)
        # With UA = UB = 0 the Coulomb term dominates the mobility
        # denominator, so a last-bit change in ``** UCS`` reaches Id.
        for row in rows[8:]:
            row.update(UA=0.0, UB=0.0)
    return rows


@pytest.mark.parametrize("stage_name", sorted(STAGES))
@pytest.mark.parametrize("targets_name", ["nmos_targets", "pmos_targets"])
@pytest.mark.parametrize("untethered_ua", [False, True])
def test_row_residuals_match_per_curve_oracle(request, stage_name,
                                              targets_name, untethered_ua):
    targets = request.getfixturevalue(targets_name)
    make_stage, oracle = STAGES[stage_name]
    stage = make_stage()
    # UA = 0 drops UA's high-drain tether: the tether block narrows
    template = _template(targets, **({"UA": 0.0} if untethered_ua else {}))
    residual = stage.residual_fn(template, targets)
    rows = _rows(stage.parameter_names, seed=len(stage_name))

    batch = residual.rows(rows)
    assert batch.shape[0] == len(rows)
    for r, values in enumerate(rows):
        want = oracle(template, targets, values)
        assert _same_bits(batch[r], want), (stage_name, r, values)
        assert _same_bits(residual(values), want)


def test_rows_cover_the_scalar_exponent_cases():
    rows = _rows(low_drain_stage().parameter_names, seed=9)
    cases = {(row["UD"] > 0, row["UCS"]) for row in rows}
    for case in [(False, 0.5), (True, 0.5), (False, 2.0), (True, 2.0)]:
        assert case in cases
    assert rows[0]["UD"] == PARAMETER_SPECS["UD"].lower
    assert rows[1]["UCS"] == PARAMETER_SPECS["UCS"].upper


def _jacobian_points(k):
    rng = np.random.default_rng(3)
    interior = rng.uniform(0.2, 0.8, size=k)
    near_one = interior.copy()
    # within one step (1e-4) of the upper bound: scipy flips the step
    near_one[::2] = 1.0 - 0.5 * JACOBIAN_REL_STEP
    near_one[1] = 1.0
    return {"interior": interior, "near_one": near_one, "zero": np.zeros(k)}


@pytest.mark.parametrize("stage_name", sorted(STAGES))
@pytest.mark.parametrize("where", ["interior", "near_one", "zero"])
def test_jacobian_matches_scipy_two_point(nmos_targets, stage_name, where):
    stage = STAGES[stage_name][0]()
    names = stage.parameter_names
    objective = UnitBoxObjective(
        names, stage.residual_fn(_template(nmos_targets), nmos_targets))
    x = _jacobian_points(len(names))[where]

    got = objective.jac(x)
    assert objective.rows == len(names) + 1
    want = approx_derivative(objective, x, method="2-point",
                             rel_step=JACOBIAN_REL_STEP, bounds=(0, 1),
                             f0=objective(x))
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.flags.f_contiguous == want.flags.f_contiguous
    assert _same_bits(got, want)


def test_jacobian_of_lifted_scalar_residual_matches_scipy():
    names = ["VTH0", "U0"]

    def residuals(values):
        return np.array([values["VTH0"] ** 2 - 0.1, values["U0"] * 3.0,
                         values["VTH0"] * values["U0"]])

    objective = UnitBoxObjective(names, residuals)
    for x in (np.array([0.3, 0.6]), np.array([1.0, 0.0])):
        want = approx_derivative(objective, x, method="2-point",
                                 rel_step=JACOBIAN_REL_STEP, bounds=(0, 1),
                                 f0=objective(x))
        assert _same_bits(objective.jac(x), want)


def test_jacobian_rejects_points_outside_the_box():
    objective = UnitBoxObjective(["VTH0", "U0"],
                                 lambda values: np.array([values["VTH0"]]))
    for x in (np.array([0.5, 1.0 + 1e-12]), np.array([-1e-300, 0.5])):
        with pytest.raises(ValueError):
            approx_derivative(objective, x, method="2-point",
                              rel_step=JACOBIAN_REL_STEP, bounds=(0, 1),
                              f0=np.zeros(1))
        with pytest.raises(ValueError):
            objective.jac(x)
    assert objective.rows == 0 and objective.jacobians == 0


@pytest.mark.parametrize("stage_name", sorted(STAGES))
def test_row_fit_equals_fit_of_per_curve_residual(nmos_targets, stage_name):
    make_stage, oracle = STAGES[stage_name]
    stage = make_stage()
    template = _template(nmos_targets)
    base = template.params

    fitted, rms = fit_parameters(base, stage.parameter_names,
                                 stage.residual_fn(template, nmos_targets))
    want, want_rms = fit_parameters(
        base, stage.parameter_names,
        lambda values: oracle(template, nmos_targets, values))
    assert fitted.as_dict() == want.as_dict()
    assert rms == want_rms


def test_fit_span_and_counters_record_rows_and_jacobians(nmos_targets):
    stage = low_drain_stage()
    template = _template(nmos_targets)
    tracer = Tracer()
    with activate(tracer):
        fit_parameters(template.params, stage.parameter_names,
                       stage.residual_fn(template, nmos_targets))
    (span,) = [s for s in tracer.spans if s["name"] == "extraction.fit"]
    rows, jacobians = span["args"]["rows"], span["args"]["jacobians"]
    assert jacobians >= 1
    # each Jacobian is one batch of x plus one step per parameter
    single = rows - jacobians * (len(stage.parameter_names) + 1)
    assert single >= 1
    snapshot = tracer.metrics.snapshot()
    assert snapshot["extraction.optimizer.evaluations"]["value"] == rows
    assert snapshot["extraction.optimizer.jacobians"]["value"] == jacobians
    assert snapshot["extraction.optimizer.fits"]["value"] == 1
