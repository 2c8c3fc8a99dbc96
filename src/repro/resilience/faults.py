"""Deterministic, seeded fault injection for the pipeline.

A :class:`FaultInjector` holds a list of :class:`FaultRule` entries and
answers one question — :meth:`FaultInjector.draw`: "should fault *kind*
fire at *site* on this occasion?".  Every recovery path in the engine
and the solvers consults the active injector at its decision point, so
the whole failure domain (task retries, pool rebuilds, solver rescue
ladders, timestep rejection) can be driven deterministically from a
single spec string — no monkeypatching, no flaky timing.

Spec grammar (``REPRO_FAULTS`` environment variable or
:meth:`FaultInjector.parse`)::

    spec    = segment (";" segment)*
    segment = "seed=" int
            | kind ":" site [":" opt ("," opt)*]
    opt     = key "=" value

    stage_exc:extract:p=0.5;worker_kill:ppa:n=1;convergence:newton:first=2

Kinds
-----
``stage_exc``
    Raise :class:`~repro.errors.InjectedFault` inside the stage compute
    of any task whose stage name contains *site*.
``worker_kill``
    SIGKILL the pool worker assigned a matching task (parallel engine
    runs only) — the mechanism for exercising ``BrokenProcessPool``
    recovery.
``convergence``
    Force a solver to report non-convergence.  Without ``fatal=1`` the
    solver's *primary* path fails and its rescue ladder engages; with
    ``fatal=1`` the whole solve raises, exercising the caller's
    recovery (e.g. transient timestep rejection).
``proc_kill``
    SIGKILL the *driver* process itself, drawn at a task boundary just
    after the completed task was journalled — the chaos-harness
    mechanism for "kill -9 at a random task, then resume"
    (:mod:`repro.resilience.chaos`).
``write_kill``
    SIGKILL the process *mid disk-cache write* — between the temp-file
    write and the atomic rename — exercising the crash window of the
    cache publish protocol.

Options
-------
``first=k``   fire on the first *k* draws at the site, then never again.
``after=k``   fire exactly once, on draw number *k* (1-based) — how the
              chaos harness places one kill at a chosen task boundary.
``n=k``       fire at most *k* times total (combines with ``p``).
``p=x``       per-draw probability (seeded — deterministic for a seed).
``fatal=1``   see ``convergence`` above.
``message=s`` message carried by the injected exception.

Site matching is by substring (``extract`` matches the ``extraction``
stage, ``ppa`` matches ``cell_ppa``); ``*`` matches every site.

The engine consults the injector in the *parent* process at submit
time, so engine-level faults (``stage_exc``, ``worker_kill``) are
deterministic regardless of worker scheduling.  Solver-level
``convergence`` faults are drawn in whatever process runs the solver.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import InjectedFault, ReproError

#: Environment variable carrying the fault spec (empty/unset = no faults).
FAULTS_ENV = "REPRO_FAULTS"

#: Recognised fault kinds.
KINDS = ("stage_exc", "worker_kill", "convergence", "proc_kill",
         "write_kill")


@dataclass
class FaultRule:
    """One parsed spec segment plus its firing state."""

    kind: str
    site: str
    p: float = 1.0
    n: Optional[int] = None
    first: Optional[int] = None
    after: Optional[int] = None
    fatal: bool = False
    message: str = ""
    draws: int = 0
    fires: int = 0

    def matches(self, kind: str, site: str) -> bool:
        return self.kind == kind and (self.site == "*" or self.site in site)

    def decide(self, rng: random.Random) -> bool:
        """Advance this rule's state by one draw; True = fire."""
        self.draws += 1
        if self.after is not None:
            fire = self.draws == self.after
        elif self.first is not None:
            fire = self.draws <= self.first
        elif self.n is not None and self.fires >= self.n:
            fire = False
        else:
            fire = self.p >= 1.0 or rng.random() < self.p
        if fire:
            self.fires += 1
        return fire


def _parse_segment(segment: str) -> FaultRule:
    parts = segment.split(":")
    if len(parts) < 2:
        raise ReproError(f"bad fault segment {segment!r}: expected "
                         f"'kind:site[:opts]'")
    kind, site = parts[0].strip(), parts[1].strip()
    if kind not in KINDS:
        raise ReproError(f"unknown fault kind {kind!r} "
                         f"(expected one of {', '.join(KINDS)})")
    if not site:
        raise ReproError(f"bad fault segment {segment!r}: empty site")
    rule = FaultRule(kind=kind, site=site)
    if len(parts) > 2:
        for opt in ":".join(parts[2:]).split(","):
            opt = opt.strip()
            if not opt:
                continue
            if "=" not in opt:
                raise ReproError(f"bad fault option {opt!r} in {segment!r}")
            key, value = (s.strip() for s in opt.split("=", 1))
            try:
                if key == "p":
                    rule.p = float(value)
                elif key == "n":
                    rule.n = int(value)
                elif key == "first":
                    rule.first = int(value)
                elif key == "after":
                    rule.after = int(value)
                elif key == "fatal":
                    rule.fatal = value not in ("0", "false", "no", "")
                elif key == "message":
                    rule.message = value
                else:
                    raise ReproError(f"unknown fault option {key!r} "
                                     f"in {segment!r}")
            except ValueError:
                raise ReproError(f"bad fault option value {opt!r} "
                                 f"in {segment!r}") from None
    return rule


class FaultInjector:
    """Deterministic fault oracle: rules + a seeded RNG.

    Two injectors built from the same spec and seed make identical
    decisions for identical draw sequences.
    """

    def __init__(self, rules: Optional[List[FaultRule]] = None, seed: int = 0):
        self.rules: List[FaultRule] = list(rules or [])
        self.seed = seed
        self._rng = random.Random(seed)

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultInjector":
        """Build an injector from a spec string (see module docstring)."""
        rules = []
        for segment in spec.split(";"):
            segment = segment.strip()
            if not segment:
                continue
            if segment.startswith("seed="):
                try:
                    seed = int(segment[5:])
                except ValueError:
                    raise ReproError(
                        f"bad fault seed {segment!r}") from None
                continue
            rules.append(_parse_segment(segment))
        return cls(rules, seed=seed)

    @classmethod
    def from_env(cls) -> Optional["FaultInjector"]:
        """Injector described by ``REPRO_FAULTS``, or None when unset."""
        spec = os.environ.get(FAULTS_ENV, "")
        return cls.parse(spec) if spec.strip() else None

    def draw(self, kind: str, site: str) -> Optional[FaultRule]:
        """First matching rule that fires on this occasion, else None."""
        for rule in self.rules:
            if rule.matches(kind, site):
                if rule.decide(self._rng):
                    return rule
                return None
        return None

    def stats(self) -> Dict[str, int]:
        """Total draws/fires per ``kind:site`` (diagnostics)."""
        out: Dict[str, int] = {}
        for rule in self.rules:
            out[f"{rule.kind}:{rule.site}"] = rule.fires
        return out


# ----------------------------------------------------------------------
# the process-wide active injector
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultInjector] = None
_ENV_CHECKED = False


def install(injector: Optional[FaultInjector],
            ) -> Optional[FaultInjector]:
    """Install the process-wide injector (returns the previous one)."""
    global _ACTIVE, _ENV_CHECKED
    previous = _ACTIVE
    _ACTIVE = injector
    _ENV_CHECKED = True
    return previous


def clear_faults() -> None:
    """Remove the active injector (``REPRO_FAULTS`` is re-read lazily)."""
    global _ACTIVE, _ENV_CHECKED
    _ACTIVE = None
    _ENV_CHECKED = False


def active_injector() -> Optional[FaultInjector]:
    """The installed injector, lazily created from ``REPRO_FAULTS``."""
    global _ACTIVE, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ACTIVE = FaultInjector.from_env()
        _ENV_CHECKED = True
    return _ACTIVE


def draw_fault(kind: str, site: str) -> Optional[FaultRule]:
    """Consult the active injector; None when no fault fires."""
    injector = active_injector()
    if injector is None:
        return None
    return injector.draw(kind, site)


def maybe_inject(kind: str, site: str) -> None:
    """Raise :class:`InjectedFault` when a matching fault fires."""
    rule = draw_fault(kind, site)
    if rule is not None:
        raise InjectedFault(rule.message
                            or f"injected {kind} fault at {site}")


def kill_current_process() -> None:  # pragma: no cover - kills the caller
    """SIGKILL this process (the ``worker_kill`` payload, run pool-side)."""
    os.kill(os.getpid(), signal.SIGKILL)
