"""1D quadrature rules on the unit interval.

Two rule families are provided: Gauss-Legendre rules, which double as the
nodal points of the tensor-product DG basis, and a modified Newton-Cotes
rule whose nodes are the centers of an equidistant subdivision of [0, 1]
(the cell centers of the finite-volume subgrid).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Exact weights of the 4-point cell-center rule (degree-3 exactness).
_NEWTON_COTES_K3_WEIGHTS = (
    Fraction(1625, 6000),
    Fraction(1375, 6000),
    Fraction(1375, 6000),
    Fraction(1625, 6000),
)


@dataclass(frozen=True)
class QuadRule1D:
    """Nodes and weights on [0, 1]; weights sum to one."""

    nodes: np.ndarray
    weights: np.ndarray
    degree: int  # highest polynomial degree integrated exactly


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate P_n and P_n' on [-1, 1] by the three-term recurrence."""
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev, np.zeros_like(x)
    p = x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(k: int) -> QuadRule1D:
    """Gauss-Legendre rule with k+1 points, exact through degree 2k+1.

    Nodes are found by Newton iteration on the Legendre polynomial,
    started from the Chebyshev approximation of the roots.
    """
    if k < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {k}")
    n = k + 1
    if n == 1:
        return QuadRule1D(np.array([0.5]), np.array([1.0]), degree=1)
    # roots of P_n on [-1, 1]
    i = np.arange(n)
    x = np.cos(np.pi * (4 * i + 3) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre_and_derivative(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre_and_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    x, w = x[order], w[order]
    # map [-1, 1] -> [0, 1]
    return QuadRule1D(0.5 * (x + 1.0), 0.5 * w, degree=2 * k + 1)


def modified_newton_cotes(k: int) -> QuadRule1D:
    """Quadrature at the k+1 cell centers of an equidistant split of [0, 1].

    For k=3 the weights are the exact rationals (1625, 1375, 1375, 1625)/6000.
    Other degrees are derived by solving the moment equations
    sum_i w_i G_i^m = 1/(m+1) for m = 0..k at the fixed cell-center nodes.
    """
    if k < 0:
        raise ValueError(f"polynomial degree must be nonnegative, got {k}")
    n = k + 1
    nodes = (2 * np.arange(n) + 1) / (2 * n)
    if k == 3:
        weights = np.array([float(w) for w in _NEWTON_COTES_K3_WEIGHTS])
        return QuadRule1D(nodes, weights, degree=3)
    vander = np.vander(nodes, n, increasing=True).T
    moments = 1.0 / (np.arange(n) + 1.0)
    weights = np.linalg.solve(vander, moments)
    return QuadRule1D(nodes, weights, degree=k)
