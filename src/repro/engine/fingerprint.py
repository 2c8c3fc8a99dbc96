"""Stable content fingerprints for task payloads.

A fingerprint must be identical across processes and Python sessions for
identical inputs, and different whenever any input that can change an
artefact changes.  We get that by canonicalising the value into plain
JSON types (dataclasses flattened with their class name, enums by class
and member name, numpy arrays/scalars as float lists, dict keys sorted)
and hashing the compact JSON encoding.

Floats are serialised through ``repr`` (what :mod:`json` does), which
round-trips every finite IEEE-754 double exactly — two processes that
differ in the 17th digit fingerprint differently, as they must.

The code is an input too: :func:`code_digest` hashes the ``repro``
package source, and every task key folds it in, so an edit anywhere in
the package makes every cached artefact a miss.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from functools import lru_cache
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ReproError


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to JSON-encodable canonical form.

    Supported: None, bool, int, float, str, enums, numpy arrays and
    scalars, dataclass instances, and (possibly nested) dict / list /
    tuple / set containers.  Anything else raises :class:`ReproError`
    rather than silently fingerprinting an unstable ``repr``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return {"__float__": "nan"}
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__name__}.{value.name}"}
    if isinstance(value, np.ndarray):
        return [canonicalize(float(x)) for x in value.ravel().tolist()]
    if isinstance(value, np.generic):
        return canonicalize(value.item())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {f.name: canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)}
        return {"__dataclass__": type(value).__name__, **body}
    if isinstance(value, dict):
        out = {}
        for key in sorted(value, key=str):
            if not isinstance(key, (str, int, bool)) and key is not None:
                raise ReproError(
                    f"unfingerprintable dict key of type {type(key).__name__}")
            out[str(key)] = canonicalize(value[key])
        return out
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonicalize(item) for item in value), key=repr)
    raise ReproError(
        f"cannot fingerprint value of type {type(value).__name__!r}; "
        f"payloads must reduce to JSON-canonical data")


def fingerprint(value: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``value``."""
    encoded = json.dumps(canonicalize(value), sort_keys=True,
                         separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def combine_fingerprints(*parts: str) -> str:
    """Hash an ordered sequence of fingerprints/strings into one digest."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


@lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 over the path and bytes of every ``repro`` source file.

    Paths are relative to the package root, so two checkouts of the same
    code share one digest (and one remote cache).  Computed once per
    process, on first use.
    """
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package)
        if "__pycache__" in relative.parts:
            continue
        source = path.read_bytes()
        digest.update(f"{relative.as_posix()}\0{len(source)}\0"
                      .encode("utf-8"))
        digest.update(source)
    return digest.hexdigest()
