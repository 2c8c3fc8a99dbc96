"""Extension studies beyond the paper's headline evaluation.

* :mod:`repro.analysis.ring_oscillator` — ring-oscillator frequency per
  implementation, an independent check on the Figure 5(a) delay trend.

Process corners run through the real flow and paper gates instead:
:data:`repro.geometry.process.STANDARD_CORNERS` and the corner table of
EXPERIMENTS.md (:mod:`repro.reporting.experiments`).
"""

from repro.analysis.ring_oscillator import (
    RingOscillatorResult,
    build_ring_oscillator,
    measure_ring_frequency,
)

__all__ = [
    "build_ring_oscillator",
    "measure_ring_frequency",
    "RingOscillatorResult",
]
