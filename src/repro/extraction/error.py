"""Error metrics for extraction fitting and Table III reporting.

Two distinct roles:

* **fit residuals** — what the optimiser minimises.  Current curves mix a
  log-space term (so the subthreshold decades matter) with a relative
  term (so the on-current matters);
* **report error** — the Table III number: mean absolute relative error
  in percent, with denominators floored at a fraction of the curve
  maximum so near-zero points cannot blow the metric up.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExtractionError

#: Denominator floor as a fraction of the curve maximum.
REPORT_FLOOR_FRACTION = 0.02

#: Current floor [A] for log-space residuals.
LOG_FLOOR = 1e-14


def _log10_current(current) -> np.ndarray:
    """log10 of a current [A], floored at :data:`LOG_FLOOR`."""
    return np.log10(np.maximum(current, LOG_FLOOR))


class ReferenceCurve:
    """A reference curve with its residual terms precomputed.

    The denominators of :func:`relative_errors` and the ``log10`` of the
    reference depend on the reference alone; an extraction stage builds
    them once and then scores every trial curve against them.  The
    trial curve may be one evaluation, shape ``(n,)``, or R of them,
    shape ``(R, n)``; each row is scored exactly as alone.
    """

    def __init__(self, reference,
                 floor_fraction: float = REPORT_FLOOR_FRACTION):
        reference = np.asarray(reference, dtype=float)
        scale = float(np.max(np.abs(reference)))
        if scale <= 0:
            raise ExtractionError("reference curve is identically zero")
        self.reference = reference
        self.denominator = np.maximum(np.abs(reference),
                                      floor_fraction * scale)
        self.log_reference = _log10_current(reference)

    def relative(self, simulated) -> np.ndarray:
        """Pointwise |sim - ref| / max(|ref|, floor) as a fraction."""
        return np.abs(simulated - self.reference) / self.denominator

    def mixed(self, simulated, log_weight: float) -> np.ndarray:
        """Relative residuals, then log10-space ones times ``log_weight``."""
        logr = (_log10_current(simulated) - self.log_reference) * log_weight
        return np.concatenate([self.relative(simulated), logr], axis=-1)


def _checked(simulated, reference) -> np.ndarray:
    simulated = np.asarray(simulated, dtype=float)
    if simulated.shape != np.shape(reference):
        raise ExtractionError("shape mismatch between sim and reference")
    return simulated


def relative_errors(simulated, reference,
                    floor_fraction: float = REPORT_FLOOR_FRACTION) -> np.ndarray:
    """Pointwise |sim - ref| / max(|ref|, floor) as a fraction."""
    simulated = _checked(simulated, reference)
    return ReferenceCurve(reference, floor_fraction).relative(simulated)


def region_error_percent(simulated, reference) -> float:
    """The Table III regional error: mean relative error in percent."""
    return float(np.mean(relative_errors(simulated, reference))) * 100.0
