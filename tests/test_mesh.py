"""1-D mesh construction."""

import numpy as np
import pytest

from repro.errors import MeshError
from repro.tcad.mesh import Mesh1D, Region


def two_region_mesh():
    return Mesh1D([
        Region("ox", 1e-9, 4, 3.45e-11),
        Region("film", 7e-9, 14, 1.035e-10, has_charge=True),
    ])


def test_node_count():
    mesh = two_region_mesh()
    assert mesh.n_nodes == 4 + 14 + 1


def test_total_span():
    mesh = two_region_mesh()
    assert mesh.x[-1] == pytest.approx(8e-9)
    assert mesh.x[0] == 0.0


def test_nodes_strictly_increasing():
    mesh = two_region_mesh()
    assert np.all(np.diff(mesh.x) > 0)


def test_interface_on_node():
    mesh = two_region_mesh()
    assert np.any(np.isclose(mesh.x, 1e-9))


def test_edge_permittivity_per_region():
    mesh = two_region_mesh()
    assert np.all(mesh.edge_eps[:4] == pytest.approx(3.45e-11))
    assert np.all(mesh.edge_eps[4:] == pytest.approx(1.035e-10))


def test_node_volumes_sum_to_span():
    mesh = two_region_mesh()
    assert mesh.node_volumes.sum() == pytest.approx(8e-9)


def test_charge_mask_covers_film_including_interfaces():
    mesh = two_region_mesh()
    charged = mesh.node_charged
    film_mask = mesh.region_node_mask("film")
    # every film node (incl. its boundary nodes) carries charge
    assert np.all(charged[film_mask])
    # oxide interior nodes carry none
    assert not charged[1]


def test_unknown_region_raises():
    mesh = two_region_mesh()
    with pytest.raises(MeshError):
        mesh.region_node_mask("box")


def test_invalid_region_parameters():
    with pytest.raises(MeshError):
        Region("bad", 0.0, 4, 1.0)
    with pytest.raises(MeshError):
        Region("bad", 1e-9, 0, 1.0)
    with pytest.raises(MeshError):
        Region("bad", 1e-9, 4, -1.0)


def test_empty_mesh_rejected():
    with pytest.raises(MeshError):
        Mesh1D([])
