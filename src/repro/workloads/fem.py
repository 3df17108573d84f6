"""Finite-element-style batched small GEMMs.

The paper's third motivating domain: FEM assembly in fluid dynamics
produces "many GEMMs working on small matrices" (citing libxsmm).  A
common formulation batches per-element operator applications: with
``n_elements`` elements of ``n_dofs`` local degrees of freedom applying a
``n_dofs x n_quad`` interpolation operator, stacking the per-element
vectors gives one tall-and-skinny GEMM per operator —
``(n_elements) x (n_quad) x (n_dofs)`` with tiny N and K and a huge M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.shapes import GemmShape


@dataclass(frozen=True)
class FemOperator:
    """A batched element-local operator application."""

    name: str
    n_elements: int
    n_dofs: int   # local DoFs per element (K)
    n_quad: int   # quadrature points per element (N)

    def gemm_shape(self) -> GemmShape:
        return GemmShape(self.n_elements, self.n_quad, self.n_dofs)


#: representative low-order operators (hex elements, tensor-product bases).
STANDARD_OPERATORS: list[FemOperator] = [
    FemOperator("p1_tet_interp", 1_000_000, 4, 4),
    FemOperator("p2_tet_interp", 500_000, 10, 15),
    FemOperator("q1_hex_grad", 250_000, 8, 24),
    FemOperator("q2_hex_interp", 100_000, 27, 64),
]


def lagrange_basis_1d(order: int, points: np.ndarray) -> np.ndarray:
    """Values of the 1-D Lagrange basis (equispaced nodes) at ``points``."""
    nodes = np.linspace(0.0, 1.0, order + 1)
    out = np.empty((order + 1, len(points)))
    for i, xi in enumerate(nodes):
        li = np.ones_like(points, dtype=np.float64)
        for j, xj in enumerate(nodes):
            if j != i:
                li *= (points - xj) / (xi - xj)
        out[i] = li
    return out.astype(np.float32)
