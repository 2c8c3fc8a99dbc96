"""Pytest integration for the verification subsystem.

Loaded from ``tests/conftest.py`` (``pytest_plugins``).  Provides:

* markers — ``golden`` (diffs against committed goldens), ``mms``
  (convergence-order estimation), ``parity`` (cross-mode matrix);
* options — ``--update-goldens`` regenerates goldens from fresh
  measurements instead of failing the diff, ``--allow-widen``
  additionally permits tolerance-class widening;
* fixtures — ``golden_store`` (honouring those options) and
  ``check_golden`` (one-call measure-and-assert).
"""

from __future__ import annotations

import pytest

MARKERS = (
    "golden: diffs measurements against committed golden files",
    "mms: manufactured-solution / convergence-order checks",
    "parity: cross-mode execution parity matrix",
)


def pytest_addoption(parser) -> None:
    group = parser.getgroup("repro.verify")
    group.addoption(
        "--update-goldens", action="store_true", default=False,
        help="regenerate golden files from fresh measurements "
             "instead of diffing against them")
    group.addoption(
        "--allow-widen", action="store_true", default=False,
        help="permit --update-goldens to widen a golden quantity's "
             "tolerance class")


def pytest_configure(config) -> None:
    for marker in MARKERS:
        config.addinivalue_line("markers", marker)
    if config.getoption("--allow-widen") and \
            not config.getoption("--update-goldens"):
        raise pytest.UsageError(
            "--allow-widen only makes sense with --update-goldens")


@pytest.fixture(scope="session")
def golden_store(request):
    """The session's :class:`~repro.verify.goldens.GoldenStore`."""
    from repro.verify.goldens import GoldenStore
    return GoldenStore(
        update=request.config.getoption("--update-goldens"),
        allow_widen=request.config.getoption("--allow-widen"))


@pytest.fixture(scope="session")
def check_golden(golden_store):
    """Measure-and-assert helper for golden tests.

    Usage::

        def test_compact_model_golden(check_golden):
            check_golden("compact_model", compact_model_snapshot(), "tight")
    """
    def _check(name, measured, default_tolerance="tight",
               description=""):
        diff = golden_store.check(
            name, measured, default_tolerance=default_tolerance,
            description=description)
        assert diff.passed, "\n" + diff.render()
        return diff
    return _check
