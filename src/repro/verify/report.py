"""Verification run reporting (``verify_report.json``).

Every suite produces a flat list of :class:`CheckResult` records — one
per golden, MMS estimate, invariant, paper gate or parity cell — which
:class:`VerifyReport` aggregates, renders for the terminal and writes
as a machine-readable JSON document that CI uploads as an artifact.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Check verdicts.
STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_SKIP = "skip"


@dataclass
class CheckResult:
    """Outcome of one verification check.

    Attributes
    ----------
    name:
        Stable check identifier, dotted by family
        (``golden.compact_model``, ``mms.poisson1d``,
        ``gate.fig5.delay.2-ch``, ``parity.parallel-cold``).
    status:
        ``pass`` / ``fail`` / ``skip``.
    measured, expected:
        The compared quantities (JSON-compatible; ``None`` when the
        check is structural).
    tolerance:
        The tolerance class or window the check was judged against.
    detail:
        Free-text diagnostics (diff rendering, skip reason).
    margin:
        Distance to the nearer window edge, in the measured unit, for
        checks judged against a window (paper gates): positive inside,
        negative outside, ``None`` on a skip or for other checks.
    wall_time_s:
        Time spent producing the measurement.
    """

    name: str
    status: str
    measured: Any = None
    expected: Any = None
    tolerance: str = ""
    detail: str = ""
    margin: Optional[float] = None
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        """True unless the check failed (skips don't fail a run)."""
        return self.status != STATUS_FAIL

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "detail": self.detail,
            "margin": self.margin,
            "wall_time_s": self.wall_time_s,
        }


@dataclass
class VerifyReport:
    """Aggregate of one verification run."""

    suite: str
    checks: List[CheckResult] = field(default_factory=list)
    started_unix: float = field(default_factory=time.time)
    metrics: Optional[Dict[str, Any]] = None

    def add(self, check: CheckResult) -> CheckResult:
        """Record one check."""
        self.checks.append(check)
        return check

    def extend(self, checks: List[CheckResult]) -> None:
        """Record several checks."""
        self.checks.extend(checks)

    @property
    def passed(self) -> bool:
        """True when no check failed."""
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> Dict[str, int]:
        """Verdict histogram."""
        out = {STATUS_PASS: 0, STATUS_FAIL: 0, STATUS_SKIP: 0}
        for check in self.checks:
            out[check.status] = out.get(check.status, 0) + 1
        return out

    @property
    def failures(self) -> List[CheckResult]:
        """The failing checks."""
        return [c for c in self.checks if c.status == STATUS_FAIL]

    def to_dict(self) -> Dict[str, Any]:
        """The ``verify_report.json`` document."""
        counts = self.counts
        return {
            "schema": 1,
            "suite": self.suite,
            "passed": self.passed,
            "counts": counts,
            "total_wall_time_s": sum(c.wall_time_s
                                     for c in self.checks),
            "checks": [c.to_dict() for c in self.checks],
            "metrics": self.metrics,
        }

    def write(self, path) -> Path:
        """Write the JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        return path

    def render(self) -> str:
        """Terminal summary, one line per check."""
        lines = [f"verify suite {self.suite!r}"]
        for check in self.checks:
            marker = {STATUS_PASS: "ok  ", STATUS_FAIL: "FAIL",
                      STATUS_SKIP: "skip"}.get(check.status, "??? ")
            line = f"  [{marker}] {check.name}"
            if check.tolerance:
                line += f" ({check.tolerance})"
            if check.margin is not None:
                line += f" margin {check.margin:+.2f}"
            if check.wall_time_s >= 0.05:
                line += f" [{check.wall_time_s:.1f}s]"
            lines.append(line)
            if check.status == STATUS_FAIL and check.detail:
                lines.extend("         " + d
                             for d in check.detail.splitlines()[:12])
        counts = self.counts
        lines.append(
            f"  {counts[STATUS_PASS]} passed, "
            f"{counts[STATUS_FAIL]} failed, "
            f"{counts[STATUS_SKIP]} skipped")
        return "\n".join(lines)
