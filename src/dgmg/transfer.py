"""Transfers between DG nodal fields and finest-level FV fields.

The forward map T evaluates each cell's tensor polynomial at its FV
subcell centers; since the (k+1)^2 centers determine a degree-k tensor
polynomial uniquely, T is square and invertible, and T^-1 reconstructs
the DG nodal values from subcell-center samples.

The mass-fix variant T^mf shifts each cell's subcell values by a constant
so the piecewise-constant mass matches the DG mass exactly. The DG mass
is computed from the already-evaluated subcell-center values with the
cell-center quadrature weights, which are exact for tensor cubics, so
T^mf = (I - 11^T/p^2 + 1 w^T)(T1 x T1) with w the tensor weights.

The forward maps are one GEMM of the (cells, 4p^2) view against
kron(M, I_4).T (dg.kron_t(M, np.eye(4))) for their per-cell matrix M,
batched over subcell rows so that they write the FV layout directly. The inverse map
reads its input a component at a time, as the multigrid cycle holds it,
and is one GEMM of the (4 * cells, p^2) operand against
kron(T1^-1, T1^-1).T.
"""

from __future__ import annotations

import numpy as np

from .dg import DGBasis, kron_t
from .quadrature import modified_newton_cotes


class TransferOperators:
    def __init__(self, basis: DGBasis):
        self.p = p = basis.p
        rule = modified_newton_cotes(basis.k)  # nodes at the subcell centers
        T1 = basis.eval_matrix(rule.nodes)     # (m, i) = l_i(center_m)
        T1inv = np.linalg.inv(T1)

        T = kron_t(T1, T1).T
        w = np.outer(rule.weights, rule.weights).ravel()
        massfix = np.eye(p * p) - 1.0 / (p * p) + w
        # forward operands with their columns (m, n, c) split by subcell row m
        self._to_fv, self._to_fv_massfix = (
            kron_t(M, np.eye(4)).reshape(-1, p, 4 * p).transpose(1, 0, 2)
            for M in (T, massfix @ T)
        )
        self._to_dg = kron_t(T1inv, T1inv)

    def _forward(self, U: np.ndarray, K: np.ndarray) -> np.ndarray:
        """(nz, nx, p, p, 4) -> (nz*p, nx*p, 4); batch (z, m) is FV row p*z + m."""
        nz, nx, p = U.shape[0], U.shape[1], self.p
        out = np.empty((nz, p, nx, 4 * p))
        np.matmul(U.reshape(nz, 1, nx, -1), K, out=out)
        return out.reshape(nz * p, nx * p, 4)

    def dg_to_fv(self, U: np.ndarray) -> np.ndarray:
        """Interpolation transfer T: polynomial values at subcell centers."""
        return self._forward(U, self._to_fv)

    def dg_to_fv_massfix(self, U: np.ndarray) -> np.ndarray:
        """Mass-conservative transfer T^mf: per cell and component, the
        interpolation shifted so the subcell averages integrate to the DG
        mass exactly."""
        return self._forward(U, self._to_fv_massfix)

    def fv_to_dg(self, u: np.ndarray) -> np.ndarray:
        """Inverse transfer T^-1: nodal values of the unique degree-k
        tensor polynomial interpolating the subcell-center values.

        u is (nz*p, nx*p, 4) of any strides and float dtype, such as a
        transposed view of the multigrid cycle's float32 (4, nz*p, nx*p)
        iterate; one copy writes it, a component at a time, into the
        float64 (4 * cells, p^2) GEMM operand. The result is a (nz, nx, p,
        p, 4) view of the component-major product."""
        p = self.p
        nz, nx = u.shape[0] // p, u.shape[1] // p
        cells = np.empty((4, nz, nx, p, p))
        np.copyto(cells, u.transpose(2, 0, 1).reshape(4, nz, p, nx, p).transpose(0, 1, 3, 2, 4))
        out = cells.reshape(-1, p * p) @ self._to_dg
        return out.reshape(4, nz, nx, p, p).transpose(1, 2, 3, 4, 0)
