"""M3D layer stack (Figure 1)."""

import pytest

from repro.errors import ReproError
from repro.geometry.layers import Layer, LayerRole, LayerStack, build_m3d_stack
from repro.geometry.process import DEFAULT_PROCESS
from repro.materials import SILICON, SILICON_DIOXIDE


@pytest.fixture(scope="module")
def stack():
    return build_m3d_stack(DEFAULT_PROCESS)


def test_two_active_layers(stack):
    actives = [l for l in stack.layers if l.role is LayerRole.ACTIVE]
    assert len(actives) == 2
    assert {l.tier for l in actives} == {0, 1}


def test_active_thickness_is_film_thickness(stack):
    assert stack.find("top_active").thickness == pytest.approx(7e-9)
    assert stack.find("bottom_active").thickness == pytest.approx(7e-9)


def test_box_layers_use_table1_thickness(stack):
    assert stack.find("top_box").thickness == pytest.approx(100e-9)
    assert stack.find("bottom_box").material is SILICON_DIOXIDE


def test_layers_ordered_bottom_to_top(stack):
    assert stack.z_of("bottom_active") < stack.z_of("top_active")
    assert stack.z_of("m1") < stack.z_of("m2")


def test_miv_span_positive_and_submicron(stack):
    span = stack.miv_span()
    assert 0 < span < 1e-6


def test_total_thickness(stack):
    assert stack.total_thickness == pytest.approx(
        sum(l.thickness for l in stack.layers))


def test_unknown_layer_raises(stack):
    with pytest.raises(ReproError):
        stack.find("nonexistent")
    with pytest.raises(ReproError):
        stack.z_of("nonexistent")


def test_duplicate_layer_names_rejected():
    layer = Layer("x", LayerRole.BOX, SILICON_DIOXIDE, 1e-9, 0)
    with pytest.raises(ReproError):
        LayerStack((layer, layer))


def test_bad_layer_parameters_rejected():
    with pytest.raises(ReproError):
        Layer("x", LayerRole.BOX, SILICON_DIOXIDE, 0.0, 0)
    with pytest.raises(ReproError):
        Layer("x", LayerRole.ACTIVE, SILICON, 1e-9, 2)
