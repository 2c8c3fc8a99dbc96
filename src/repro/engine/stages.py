"""The stage registry: named artefact producers.

A :class:`StageDef` bundles everything the engine needs to compute,
cache and restore one kind of artefact:

* ``compute(payload, deps)`` — the pure function.  ``payload`` is the
  task's JSON-canonical input record; ``deps`` maps dependency task ids
  to their (already materialised) artefacts.
* ``encode`` / ``decode`` — the JSON codec for the on-disk store.  A
  stage without a codec still caches in memory but is never persisted.

A stage carries no version of its own: task keys fold in
:func:`~repro.engine.fingerprint.code_digest`, so any change to the
package source retires every cached artefact.

Stages register at import time; worker processes re-register them by
importing the defining module (see ``backends.pool._pool_worker_main``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ReproError

ComputeFn = Callable[[Any, Dict[str, Any]], Any]
EncodeFn = Callable[[Any], Any]
DecodeFn = Callable[[Any], Any]


@dataclass(frozen=True)
class StageDef:
    """One registered artefact producer."""

    name: str
    compute: ComputeFn
    encode: Optional[EncodeFn] = None
    decode: Optional[DecodeFn] = None

    #: Retired slot, always ``None``: the layer trace of the perf
    #: benchmark reads it and hands it back to :func:`register_stage`.
    version = None

    @property
    def persistent(self) -> bool:
        """True when the stage can round-trip artefacts through JSON."""
        return self.encode is not None and self.decode is not None


_REGISTRY: Dict[str, StageDef] = {}


def register_stage(name: str, compute: ComputeFn,
                   encode: Optional[EncodeFn] = None,
                   decode: Optional[DecodeFn] = None,
                   *retired: Optional[DecodeFn],
                   replace: bool = False) -> StageDef:
    """Register a stage definition under ``name``.

    Re-registering an identical name is an error unless ``replace`` is
    set (used by tests that stub stages out).  A ``None`` in the
    ``compute`` place is the retired ``(name, version, compute, encode,
    decode)`` call shape the perf benchmark's layer trace still uses;
    the arguments after it shift into place.
    """
    if compute is None and len(retired) == 1:
        compute, encode, decode = encode, decode, retired[0]
    elif retired:
        raise ReproError(f"stage {name!r}: too many positional arguments")
    if (encode is None) != (decode is None):
        raise ReproError(f"stage {name!r} must define both encode and decode "
                         f"or neither")
    if name in _REGISTRY and not replace:
        raise ReproError(f"stage {name!r} already registered")
    stage = StageDef(name=name, compute=compute, encode=encode,
                     decode=decode)
    _REGISTRY[name] = stage
    return stage


def unregister_stage(name: str) -> None:
    """Remove a stage (test helper); unknown names are ignored."""
    _REGISTRY.pop(name, None)


def get_stage(name: str) -> StageDef:
    """Look a stage up, raising on unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(f"unknown engine stage {name!r}; is its defining "
                         f"module imported?") from None


def registered_stages() -> Tuple[str, ...]:
    """Names of all currently registered stages (sorted)."""
    return tuple(sorted(_REGISTRY))
