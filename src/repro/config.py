"""Validated environment/parameter resolution.

Every timing knob in the library (lock timeouts, drain windows,
service queue bounds) flows through these helpers so that a zero,
negative, non-numeric, NaN or infinite value is rejected with a clear
:class:`~repro.errors.ConfigError` *at startup* — before it can
propagate into a ``flock`` wait loop (where ``deadline = now + nan``
never triggers) or a drain window.

Explicit arguments are validated exactly like environment values:
``FileLock(path, timeout=-1)`` is as wrong as
``REPRO_LOCK_TIMEOUT=-1`` and fails the same way.
"""

from __future__ import annotations

import math
import os
from typing import Optional

from repro.errors import ConfigError


def require_finite_float(name: str, value, *,
                         minimum: Optional[float] = None,
                         positive: bool = False) -> float:
    """Validate one float setting; :class:`ConfigError` when unusable.

    ``name`` labels the error message (an env-var name or parameter
    name).  ``positive`` demands ``> 0``; ``minimum`` demands
    ``>= minimum``.  NaN and infinities are always rejected — both
    parse as floats but turn wait-loop deadlines into never/always.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{name} must be a number, got {value!r}") from None
    if math.isnan(number) or math.isinf(number):
        raise ConfigError(
            f"{name} must be finite, got {value!r}")
    if positive and number <= 0:
        raise ConfigError(
            f"{name} must be positive, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(
            f"{name} must be >= {minimum:g}, got {value!r}")
    return number


def resolve_float(env_name: str, default: float,
                  explicit=None, *,
                  minimum: Optional[float] = None,
                  positive: bool = False) -> float:
    """Resolve a float: explicit > environment > default.

    Both the explicit value and the environment value are validated;
    the default is trusted (it is library code, not user input).
    """
    if explicit is not None:
        return require_finite_float(env_name, explicit,
                                    minimum=minimum, positive=positive)
    raw = os.environ.get(env_name)
    if raw:
        return require_finite_float(env_name, raw,
                                    minimum=minimum, positive=positive)
    return default


def require_int(name: str, value, *,
                minimum: Optional[int] = None,
                positive: bool = False) -> int:
    """Validate one integer setting; :class:`ConfigError` when unusable."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{name} must be an integer, got {value!r}") from None
    if positive and number <= 0:
        raise ConfigError(
            f"{name} must be positive, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigError(
            f"{name} must be >= {minimum}, got {value!r}")
    return number


def resolve_int(env_name: str, default: int,
                explicit=None, *,
                minimum: Optional[int] = None,
                positive: bool = False) -> int:
    """Resolve an integer: explicit > environment > default."""
    if explicit is not None:
        return require_int(env_name, explicit,
                           minimum=minimum, positive=positive)
    raw = os.environ.get(env_name)
    if raw:
        return require_int(env_name, raw,
                           minimum=minimum, positive=positive)
    return default
