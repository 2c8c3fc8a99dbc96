"""Carrier statistics."""

import numpy as np
import pytest

from repro.tcad.statistics import (
    boltzmann_n,
    boltzmann_p,
    fermi_correction,
)

NI = 1e16
VT = 0.0259


def test_equilibrium_neutrality():
    # At psi = 0 with both quasi-Fermi levels at 0: n = p = ni.
    assert boltzmann_n(0.0, 0.0, NI, VT) == pytest.approx(NI)
    assert boltzmann_p(0.0, 0.0, NI, VT) == pytest.approx(NI)


def test_mass_action_law():
    # n * p = ni^2 independent of psi when quasi-Fermi levels coincide.
    for psi in (-0.3, 0.0, 0.4):
        n = boltzmann_n(psi, 0.0, NI, VT)
        p = boltzmann_p(psi, 0.0, NI, VT)
        assert n * p == pytest.approx(NI * NI, rel=1e-9)


def test_quasi_fermi_splitting_reduces_n():
    n0 = boltzmann_n(0.5, 0.0, NI, VT)
    n1 = boltzmann_n(0.5, 0.1, NI, VT)
    assert n1 < n0
    assert n1 == pytest.approx(n0 * np.exp(-0.1 / VT), rel=1e-9)


def test_exponential_slope_is_60mv_per_decade():
    n1 = boltzmann_n(0.0, 0.0, NI, VT)
    n2 = boltzmann_n(VT * np.log(10), 0.0, NI, VT)
    assert n2 / n1 == pytest.approx(10.0, rel=1e-9)


def test_overflow_clipped():
    n = boltzmann_n(100.0, 0.0, NI, VT)
    assert np.isfinite(n)


def test_vectorised():
    psi = np.linspace(-0.5, 0.5, 11)
    n = boltzmann_n(psi, 0.0, NI, VT)
    assert n.shape == psi.shape
    assert np.all(np.diff(n) > 0)


def test_fermi_correction_negligible_at_low_density():
    assert fermi_correction(1e20, 2.86e25) == pytest.approx(1.0, abs=1e-4)


def test_fermi_correction_reduces_high_density():
    assert fermi_correction(2.86e25, 2.86e25) < 1.0
