"""Shared fixtures and helpers.

Expensive artefacts (TCAD characterisation, extraction, cell transients)
are session-scoped and shared across test modules; everything else is
cheap enough to build per test.
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import Optional

import pytest

pytest_plugins = ("repro.verify.plugin",)

from repro.cells.variants import DeviceVariant, extracted_model_set
from repro.engine import reset_default_engine
from repro.engine.cache import CACHE_DIR_ENV
from repro.engine.durability import (
    JournalState,
    RunJournal,
    replay_journal,
    run_dir,
)
from repro.extraction.flow import ExtractionFlow
from repro.extraction.targets import cached_targets
from repro.geometry.process import DEFAULT_PROCESS
from repro.geometry.transistor_layout import ChannelCount
from repro.resilience.chaos import DEFAULT_TIMEOUT_S
from repro.tcad.device import Polarity, design_for_variant


def wait_for_journal(cache_dir: os.PathLike, run_id: str,
                     min_tasks: int = 0,
                     timeout: float = DEFAULT_TIMEOUT_S,
                     proc: Optional[subprocess.Popen] = None) -> bool:
    """Wait until a run's journal exists with >= ``min_tasks`` records.

    The way a chaos test synchronises signal delivery with run
    progress: "SIGTERM it once task 2 has landed" is deterministic,
    "SIGTERM it after 2.5 seconds" races interpreter start-up.
    Returns False on timeout or when ``proc`` exits first.
    """
    path = run_dir(cache_dir, run_id) / RunJournal.FILENAME
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc is not None and proc.poll() is not None:
            return False
        if path.is_file():
            state = JournalState.from_records(replay_journal(path))
            if state.begun and len(state.tasks) >= min_tasks:
                return True
        time.sleep(0.02)
    return False


@pytest.fixture(scope="session", autouse=True)
def _hermetic_engine_cache(tmp_path_factory):
    """Point the engine's disk store at a per-session directory.

    Keeps the suite hermetic: no artefacts are read from (or written
    to) the user-level ``~/.cache/repro`` store, while the disk layer
    itself still gets exercised.
    """
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("engine-cache"))
    reset_default_engine()
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous
    reset_default_engine()


@pytest.fixture(scope="session")
def process():
    """The paper's Table I process."""
    return DEFAULT_PROCESS


@pytest.fixture(scope="session")
def nmos_traditional():
    """Traditional 2-D FDSOI NMOS device design."""
    return design_for_variant(ChannelCount.TRADITIONAL, Polarity.NMOS)


@pytest.fixture(scope="session")
def pmos_traditional():
    """Traditional 2-D FDSOI PMOS device design."""
    return design_for_variant(ChannelCount.TRADITIONAL, Polarity.PMOS)


@pytest.fixture(scope="session")
def nmos_targets():
    """TCAD characterisation of the traditional NMOS (cached)."""
    return cached_targets(ChannelCount.TRADITIONAL, Polarity.NMOS)


@pytest.fixture(scope="session")
def pmos_targets():
    """TCAD characterisation of the traditional PMOS (cached)."""
    return cached_targets(ChannelCount.TRADITIONAL, Polarity.PMOS)


@pytest.fixture(scope="session")
def extracted_nmos(nmos_targets):
    """Extraction result for the traditional NMOS."""
    return ExtractionFlow().run(nmos_targets)


@pytest.fixture(scope="session")
def extracted_pmos(pmos_targets):
    """Extraction result for the traditional PMOS."""
    return ExtractionFlow().run(pmos_targets)


@pytest.fixture(scope="session")
def model_set_2d():
    """Extracted (nmos, pmos) models of the 2-D baseline."""
    return extracted_model_set(DeviceVariant.TWO_D)


@pytest.fixture(scope="session")
def model_set_2ch():
    """Extracted (nmos, pmos) models of the 2-channel variant."""
    return extracted_model_set(DeviceVariant.MIV_2CH)


@pytest.fixture(scope="session")
def model_sets():
    """Extracted model sets for every variant, built lazily by name."""
    cache = {}

    def get(variant: DeviceVariant):
        if variant not in cache:
            cache[variant] = extracted_model_set(variant)
        return cache[variant]

    return get
