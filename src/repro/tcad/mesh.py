"""One-dimensional nonuniform meshes for the vertical device stack."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import MeshError


@dataclass(frozen=True)
class Region:
    """A contiguous mesh region with uniform material properties.

    Attributes
    ----------
    name:
        Region label (``"oxide"``, ``"film"``, ``"box"``).
    thickness:
        Region thickness [m].
    n_cells:
        Number of mesh cells inside the region.
    eps:
        Absolute permittivity [F/m].
    has_charge:
        Whether the semiconductor charge model applies in this region.
    """

    name: str
    thickness: float
    n_cells: int
    eps: float
    has_charge: bool = False

    def __post_init__(self) -> None:
        if self.thickness <= 0:
            raise MeshError(f"region {self.name!r}: thickness must be positive")
        if self.n_cells < 1:
            raise MeshError(f"region {self.name!r}: need at least one cell")
        if self.eps <= 0:
            raise MeshError(f"region {self.name!r}: permittivity must be positive")


class Mesh1D:
    """Node-centred 1-D mesh built from stacked regions.

    Nodes run from the top boundary (gate side, ``x = 0``) downwards.
    Region interfaces always coincide with mesh nodes; permittivity is
    stored per *edge* so interface discontinuities are handled exactly.
    """

    def __init__(self, regions: Sequence[Region]):
        if not regions:
            raise MeshError("mesh needs at least one region")
        self.regions: Tuple[Region, ...] = tuple(regions)

        nodes: List[float] = [0.0]
        edge_eps: List[float] = []
        charge_flags: List[bool] = []
        x = 0.0
        for region in self.regions:
            h = region.thickness / region.n_cells
            for _ in range(region.n_cells):
                x += h
                nodes.append(x)
                edge_eps.append(region.eps)
                charge_flags.append(region.has_charge)
        self.x = np.asarray(nodes)
        #: Permittivity on each edge (between node i and i+1).
        self.edge_eps = np.asarray(edge_eps)
        #: Edge lengths.
        self.h = np.diff(self.x)
        if np.any(self.h <= 0):
            raise MeshError("mesh nodes must be strictly increasing")
        #: True where the *edge* lies in a charged (semiconductor) region.
        self._edge_charged = np.asarray(charge_flags, dtype=bool)

    @property
    def n_nodes(self) -> int:
        """Total number of nodes (including both Dirichlet boundaries)."""
        return self.x.size

    @property
    def node_volumes(self) -> np.ndarray:
        """Control-volume length associated with each interior node [m]."""
        vol = np.zeros(self.n_nodes)
        vol[1:] += self.h / 2.0
        vol[:-1] += self.h / 2.0
        return vol

    @property
    def node_charged(self) -> np.ndarray:
        """Boolean per node: does the semiconductor charge model apply?

        A node is charged when *any* adjacent edge is charged; boundary
        nodes of the film therefore carry (half-volume) charge, which keeps
        the integrated inversion charge consistent.
        """
        charged = np.zeros(self.n_nodes, dtype=bool)
        charged[:-1] |= self._edge_charged
        charged[1:] |= self._edge_charged
        return charged

    def region_node_mask(self, name: str) -> np.ndarray:
        """Boolean mask of nodes lying inside (or on the edge of) a region."""
        x0 = 0.0
        for region in self.regions:
            x1 = x0 + region.thickness
            if region.name == name:
                tol = 1e-15
                return (self.x >= x0 - tol) & (self.x <= x1 + tol)
            x0 = x1
        raise MeshError(f"no region named {name!r}")
