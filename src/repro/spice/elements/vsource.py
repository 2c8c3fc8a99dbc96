"""Independent voltage sources: DC, PULSE and PWL waveforms."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import NetlistError
from repro.spice.elements.base import Element, StampPlan, without_ground


@dataclass(frozen=True)
class PulseSpec:
    """SPICE PULSE(v1 v2 td tr tf pw per) specification."""

    v1: float
    v2: float
    delay: float = 0.0
    rise: float = 1e-12
    fall: float = 1e-12
    width: float = 1e-9
    period: float = 2e-9

    def __post_init__(self) -> None:
        if min(self.rise, self.fall) <= 0:
            raise NetlistError("pulse rise/fall must be positive")
        if self.width < 0 or self.period <= 0:
            raise NetlistError("pulse width/period invalid")
        if self.rise + self.width + self.fall > self.period:
            raise NetlistError("pulse edges exceed the period")

    def value(self, time: float) -> float:
        """Waveform value at ``time``."""
        if time < self.delay:
            return self.v1
        t = (time - self.delay) % self.period
        if t < self.rise:
            return self.v1 + (self.v2 - self.v1) * t / self.rise
        t -= self.rise
        if t < self.width:
            return self.v2
        t -= self.width
        if t < self.fall:
            return self.v2 + (self.v1 - self.v2) * t / self.fall
        return self.v1

    def breakpoints(self, t_stop: float) -> List[float]:
        """Times where the slope changes (timestep control)."""
        points: List[float] = []
        t0 = self.delay
        while t0 < t_stop:
            for offset in (0.0, self.rise, self.rise + self.width,
                           self.rise + self.width + self.fall):
                t = t0 + offset
                if 0.0 <= t <= t_stop:
                    points.append(t)
            t0 += self.period
        return points


@dataclass(frozen=True)
class PwlSpec:
    """Piecewise-linear waveform: sorted (time, value) points."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise NetlistError("PWL needs at least one point")
        times = [p[0] for p in self.points]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise NetlistError("PWL times must be strictly increasing")
        # Not a field: equality, hashing and fingerprints see points only.
        object.__setattr__(self, "_times", times)

    def value(self, time: float) -> float:
        """Waveform value at ``time`` (clamped at the ends)."""
        times = self._times
        if time <= times[0]:
            return self.points[0][1]
        if time >= times[-1]:
            return self.points[-1][1]
        i = bisect.bisect_right(times, time)
        t0, v0 = self.points[i - 1]
        t1, v1 = self.points[i]
        return v0 + (v1 - v0) * (time - t0) / (t1 - t0)

    def breakpoints(self, t_stop: float) -> List[float]:
        """Corner times within the window."""
        return [t for t, _ in self.points if 0.0 <= t <= t_stop]


class VoltageSource(Element):
    """Independent voltage source with an MNA branch-current unknown.

    The branch current unknown makes the source current directly
    observable — which the power measurements rely on.
    """

    n_branch = 1

    def __init__(self, name: str, n_plus: str, n_minus: str, waveform):
        super().__init__(name, (n_plus, n_minus))
        self.waveform = waveform

    def value(self, time: float) -> float:
        """Source voltage at ``time``."""
        if hasattr(self.waveform, "value"):
            return float(self.waveform.value(time))
        return float(self.waveform)

    def breakpoints(self, t_stop: float) -> List[float]:
        """Slope-change times for the integrator."""
        if hasattr(self.waveform, "breakpoints"):
            return self.waveform.breakpoints(t_stop)
        return []

    def stamp_plan(self, rows, branch) -> StampPlan:
        """The +/-1 incidence of the branch current on the node rows,
        the branch equation ``v(+) - v(-) = value`` on the branch row."""
        r_plus, r_minus = rows
        return StampPlan(
            matrix=without_ground(
                ((r_plus, branch, 0), (r_minus, branch, 1),
                 (branch, r_plus, 0), (branch, r_minus, 1))),
            rhs=((branch, 0),))

    def matrix_values(self):
        return 1.0, -1.0

    def rhs_values(self, time, scale):
        return (self.value(time) * scale,)


def dc_source(name: str, n_plus: str, n_minus: str,
              voltage: float) -> VoltageSource:
    """Constant source."""
    return VoltageSource(name, n_plus, n_minus, float(voltage))


def pulse_source(name: str, n_plus: str, n_minus: str,
                 **kwargs) -> VoltageSource:
    """PULSE source; kwargs feed :class:`PulseSpec`."""
    return VoltageSource(name, n_plus, n_minus, PulseSpec(**kwargs))


def pwl_source(name: str, n_plus: str, n_minus: str,
               points: Sequence[Tuple[float, float]]) -> VoltageSource:
    """PWL source from (time, value) pairs."""
    return VoltageSource(name, n_plus, n_minus, PwlSpec(tuple(points)))
