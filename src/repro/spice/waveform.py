"""Time-domain waveforms: interpolation, crossings, integrals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class Waveform:
    """A sampled signal v(t) with strictly increasing time points."""

    t: np.ndarray
    v: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise SimulationError("waveform needs matching 1-D t/v arrays")
        if np.any(np.diff(t) <= 0):
            raise SimulationError("waveform times must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def value(self, time) -> np.ndarray:
        """Linear interpolation at arbitrary times (clamped at ends)."""
        return np.interp(np.asarray(time, dtype=float), self.t, self.v)

    @property
    def duration(self) -> float:
        """Total time span [s]."""
        return float(self.t[-1] - self.t[0])

    def window(self, t0: float, t1: float) -> "Waveform":
        """Sub-waveform on [t0, t1] with exact interpolated endpoints."""
        if not (self.t[0] <= t0 < t1 <= self.t[-1]):
            raise SimulationError(
                f"window [{t0:g}, {t1:g}] outside waveform span "
                f"[{self.t[0]:g}, {self.t[-1]:g}]")
        inside = (self.t > t0) & (self.t < t1)
        times = np.concatenate([[t0], self.t[inside], [t1]])
        return Waveform(times, self.value(times), self.name)

    # ------------------------------------------------------------------
    # crossings and edges
    # ------------------------------------------------------------------
    def crossings(self, level: float,
                  direction: Optional[str] = None) -> List[float]:
        """Times where the waveform crosses ``level``.

        ``direction`` restricts to ``"rise"`` or ``"fall"`` crossings.
        Uses linear interpolation between samples.
        """
        if direction not in (None, "rise", "fall"):
            raise SimulationError(f"bad direction {direction!r}")
        above = self.v >= level
        out: List[float] = []
        for i in range(len(self.t) - 1):
            if above[i] == above[i + 1]:
                continue
            rising = not above[i]
            if direction == "rise" and not rising:
                continue
            if direction == "fall" and rising:
                continue
            dv = self.v[i + 1] - self.v[i]
            frac = 0.0 if dv == 0 else (level - self.v[i]) / dv
            out.append(float(self.t[i] + frac * (self.t[i + 1] - self.t[i])))
        return out

    # ------------------------------------------------------------------
    # integrals / statistics
    # ------------------------------------------------------------------
    def integral(self) -> float:
        """Trapezoidal integral of v over t."""
        return float(np.trapezoid(self.v, self.t))

    def mean(self) -> float:
        """Time-weighted average value."""
        return self.integral() / self.duration

    def minimum(self) -> float:
        """Smallest sample value."""
        return float(np.min(self.v))

    def maximum(self) -> float:
        """Largest sample value."""
        return float(np.max(self.v))
