"""Boolean analysis of cells: input sensitization."""

from __future__ import annotations

import itertools
from typing import Dict, List

from repro.errors import CellLibraryError
from repro.cells.spec import CellSpec


def sensitizing_assignments(spec: CellSpec,
                            input_name: str) -> List[Dict[str, bool]]:
    """Assignments of the *other* inputs that make the output toggle when
    ``input_name`` toggles (the delay-measurement side conditions)."""
    if input_name not in spec.inputs:
        raise CellLibraryError(
            f"{spec.name}: no input named {input_name!r}")
    others = [i for i in spec.inputs if i != input_name]
    result = []
    for bits in itertools.product((False, True), repeat=len(others)):
        assignment = dict(zip(others, bits))
        low = spec.evaluate({**assignment, input_name: False})
        high = spec.evaluate({**assignment, input_name: True})
        if low != high:
            result.append(assignment)
    return result


def first_sensitizing_assignment(spec: CellSpec,
                                 input_name: str) -> Dict[str, bool]:
    """The lowest-order sensitizing assignment (deterministic choice)."""
    options = sensitizing_assignments(spec, input_name)
    if not options:
        raise CellLibraryError(
            f"{spec.name}: input {input_name!r} cannot be sensitised")
    return options[0]
