"""Versioned, tolerance-aware golden snapshot store.

A *golden* is a committed JSON artifact pinning a set of named scalar
or array quantities together with the tolerance class each one must
reproduce under (:mod:`repro.verify.tolerances`).  The diff engine
reports the per-quantity relative error against the declared class, so
a failure message says exactly which physical number drifted and by how
much.

Regeneration (``--update-goldens``) is deterministic — the same
measurements serialise to byte-identical files — and *refuses* to widen
a quantity's tolerance class unless ``--allow-widen`` is also given:
goldens may silently get tighter, never looser.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ReproError
from repro.verify.tolerances import Tolerance, tolerance_class

#: On-disk schema version of golden files.
GOLDEN_SCHEMA = 1

#: Environment override for the golden directory.
GOLDEN_DIR_ENV = "REPRO_GOLDEN_DIR"


def default_golden_root() -> Path:
    """The committed golden directory (``tests/goldens`` of the repo).

    ``REPRO_GOLDEN_DIR`` overrides it (hermetic test stores, CI
    scratch regeneration).
    """
    env = os.environ.get(GOLDEN_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / "tests" / "goldens"


def _jsonable(value: Any) -> Any:
    """Reduce a measured quantity to the JSON form goldens store."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.generic):
        return _jsonable(value.item())
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise ReproError(
        f"golden quantities must be scalars or (nested) arrays, got "
        f"{type(value).__name__}")


def _flatten(value: Any) -> List[float]:
    """Flatten a stored value into comparable leaves."""
    if isinstance(value, list):
        out: List[float] = []
        for item in value:
            out.extend(_flatten(item))
        return out
    return [value]


@dataclass(frozen=True)
class QuantityDiff:
    """Comparison verdict of one golden quantity."""

    name: str
    tolerance: str
    max_relative_error: float
    passed: bool
    note: str = ""

    def render(self) -> str:
        """One diff line."""
        status = "ok" if self.passed else "FAIL"
        detail = self.note or \
            f"max rel err {self.max_relative_error:.3e}"
        return f"  [{status}] {self.name} ({self.tolerance}): {detail}"


@dataclass
class GoldenDiff:
    """Full diff of one golden against fresh measurements."""

    name: str
    quantities: List[QuantityDiff] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    unexpected: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every quantity matched and the key sets agree."""
        return not self.missing and not self.unexpected and \
            all(q.passed for q in self.quantities)

    @property
    def failures(self) -> List[QuantityDiff]:
        """The failing quantity diffs."""
        return [q for q in self.quantities if not q.passed]

    def render(self) -> str:
        """Human-readable multi-line diff report."""
        lines = [f"golden {self.name}: "
                 f"{'PASS' if self.passed else 'FAIL'}"]
        lines += [q.render() for q in self.quantities]
        for key in self.missing:
            lines.append(f"  [FAIL] {key}: missing from measurement")
        for key in self.unexpected:
            lines.append(f"  [FAIL] {key}: not in golden "
                         f"(regenerate with --update-goldens)")
        return "\n".join(lines)


class GoldenStore:
    """Load, diff and (explicitly) regenerate golden files.

    Parameters
    ----------
    root:
        Directory of golden JSON files (default: the committed
        ``tests/goldens``).
    update:
        When True, :meth:`check` rewrites goldens from the measurement
        instead of diffing (the ``--update-goldens`` path).
    allow_widen:
        Permit :meth:`update` to widen a quantity's tolerance class.
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 update: bool = False, allow_widen: bool = False):
        self.root = Path(root) if root is not None else \
            default_golden_root()
        self.update = update
        self.allow_widen = allow_widen

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def path(self, name: str) -> Path:
        """File path of one golden."""
        return self.root / f"{name}.json"

    def exists(self, name: str) -> bool:
        """True when the golden has been generated and committed."""
        return self.path(name).is_file()

    def load(self, name: str) -> Dict[str, Any]:
        """Load one golden document."""
        path = self.path(name)
        if not path.is_file():
            raise ReproError(
                f"no golden {name!r} under {self.root}; generate it "
                f"with --update-goldens")
        document = json.loads(path.read_text())
        if document.get("schema") != GOLDEN_SCHEMA:
            raise ReproError(
                f"golden {name!r} has schema "
                f"{document.get('schema')!r}, expected {GOLDEN_SCHEMA}")
        return document

    # ------------------------------------------------------------------
    # diffing
    # ------------------------------------------------------------------
    def diff(self, name: str, measured: Dict[str, Any]) -> GoldenDiff:
        """Diff fresh measurements against the stored golden."""
        document = self.load(name)
        stored = document["quantities"]
        default_tol = document.get("default_tolerance", "tight")
        diff = GoldenDiff(name=name)
        diff.missing = sorted(set(stored) - set(measured))
        diff.unexpected = sorted(set(measured) - set(stored))
        for key in sorted(set(stored) & set(measured)):
            entry = stored[key]
            tol = tolerance_class(entry.get("tolerance", default_tol))
            diff.quantities.append(
                _diff_quantity(key, entry["value"],
                               _jsonable(measured[key]), tol))
        return diff

    # ------------------------------------------------------------------
    # regeneration
    # ------------------------------------------------------------------
    def update_golden(self, name: str, measured: Dict[str, Any],
                      tolerances: Optional[Dict[str, str]] = None,
                      default_tolerance: str = "tight",
                      description: str = "") -> Path:
        """(Re)write one golden from fresh measurements.

        Tolerance-class *widening* relative to the committed file is
        refused unless the store was built with ``allow_widen=True``.
        Serialisation is deterministic: identical measurements produce
        byte-identical files.
        """
        tolerances = tolerances or {}
        tolerance_class(default_tolerance)  # validate early
        for cls in tolerances.values():
            tolerance_class(cls)

        if self.exists(name) and not self.allow_widen:
            self._refuse_widening(name, tolerances, default_tolerance)

        quantities: Dict[str, Any] = {}
        for key in sorted(measured):
            entry: Dict[str, Any] = {"value": _jsonable(measured[key])}
            if key in tolerances and \
                    tolerances[key] != default_tolerance:
                entry["tolerance"] = tolerances[key]
            quantities[key] = entry
        document = {
            "schema": GOLDEN_SCHEMA,
            "name": name,
            "description": description,
            "default_tolerance": default_tolerance,
            "quantities": quantities,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path(name)
        path.write_text(json.dumps(document, sort_keys=True, indent=2)
                        + "\n")
        return path

    def _refuse_widening(self, name: str, tolerances: Dict[str, str],
                         default_tolerance: str) -> None:
        document = self.load(name)
        old_default = tolerance_class(
            document.get("default_tolerance", "tight"))
        for key, entry in document["quantities"].items():
            old = tolerance_class(entry.get("tolerance",
                                            old_default.name))
            new = tolerance_class(tolerances.get(key,
                                                 default_tolerance))
            if new.is_wider_than(old):
                raise ReproError(
                    f"refusing to widen golden {name!r} quantity "
                    f"{key!r} from tolerance class {old.name!r} to "
                    f"{new.name!r}; pass --allow-widen to accept the "
                    f"reproducibility loss")

    # ------------------------------------------------------------------
    # one-call front end (pytest plugin / suites)
    # ------------------------------------------------------------------
    def check(self, name: str, measured: Dict[str, Any],
              tolerances: Optional[Dict[str, str]] = None,
              default_tolerance: str = "tight",
              description: str = "") -> GoldenDiff:
        """Diff against the golden, or regenerate it in update mode.

        In update mode the returned diff is the trivially-passing diff
        of the measurement against the file just written.
        """
        if self.update or not self.exists(name):
            if not self.update:
                raise ReproError(
                    f"golden {name!r} missing under {self.root}; "
                    f"run with --update-goldens to generate it")
            self.update_golden(name, measured, tolerances,
                               default_tolerance, description)
        return self.diff(name, measured)


def _diff_quantity(name: str, expected: Any, measured: Any,
                   tol: Tolerance) -> QuantityDiff:
    """Compare one stored value with one measured value."""
    flat_expected = _flatten(expected)
    flat_measured = _flatten(measured)
    if len(flat_expected) != len(flat_measured):
        return QuantityDiff(
            name=name, tolerance=tol.name,
            max_relative_error=float("inf"), passed=False,
            note=(f"shape mismatch: golden has {len(flat_expected)} "
                  f"values, measured {len(flat_measured)}"))
    worst = 0.0
    ok = True
    for exp, got in zip(flat_expected, flat_measured):
        if isinstance(exp, (bool, str)) or exp is None or \
                isinstance(got, (bool, str)) or got is None:
            if exp != got:
                return QuantityDiff(
                    name=name, tolerance=tol.name,
                    max_relative_error=float("inf"), passed=False,
                    note=f"value mismatch: {exp!r} != {got!r}")
            continue
        if not tol.accepts(float(exp), float(got)):
            ok = False
        worst = max(worst, tol.relative_error(float(exp), float(got)))
    return QuantityDiff(name=name, tolerance=tol.name,
                        max_relative_error=worst, passed=ok)
