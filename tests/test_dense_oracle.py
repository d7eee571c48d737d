"""The dense oracle against a second, independent construction.

The viscous matrix is the sum of one-dimensional second differences, one
Kronecker factor per direction; the gradient and divergence are Kronecker
products of one-dimensional forward (backward) differences and selections.
Negative zeros that the products leave are cleared with ``+= 0.0``, so the
comparison includes the sign of every zero.  The size guard counts each
strip of a coupling variant.
"""

import numpy as np
import pytest

from stokesdd import SizeGuardError, assemble_dense, build_strips, make_grid, operators

GRIDS = [(2, 2), (2, 3), (3, 2), (4, 5), (7, 4), (8, 8), (13, 9)]


def _second_difference(n: int) -> np.ndarray:
    return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)


def _forward(interior: int, nodes: int) -> np.ndarray:
    """(interior, nodes): p at node i+1 minus p at node i, for interior node i."""
    return np.eye(interior, nodes, k=1) - np.eye(interior, nodes)


def _backward(nodes: int, interior: int) -> np.ndarray:
    """(nodes, interior): u at node j minus u at node j-1, zero off the interior."""
    return np.eye(nodes, interior) - np.eye(nodes, interior, k=-1)


def _kron_viscous(g, nu: float) -> np.ndarray:
    k1, k2 = g.n1 - 1, g.n2 - 1
    lap = nu / g.h1**2 * np.kron(_second_difference(k1), np.eye(k2))
    lap += nu / g.h2**2 * np.kron(np.eye(k1), _second_difference(k2))
    out = np.kron(np.eye(2), lap)
    out += 0.0
    return out


def _kron_gradient(g) -> np.ndarray:
    k1, k2 = g.n1 - 1, g.n2 - 1
    out = np.vstack([
        np.kron(_forward(k1, g.n1), np.eye(k2, g.n2)) / g.h1,
        np.kron(np.eye(k1, g.n1), _forward(k2, g.n2)) / g.h2,
    ])
    out += 0.0
    return out


def _kron_divergence(g) -> np.ndarray:
    k1, k2 = g.n1 - 1, g.n2 - 1
    out = np.hstack([
        np.kron(_backward(g.n1, k1), np.eye(g.n2, k2)) / g.h1,
        np.kron(np.eye(g.n1, k1), _backward(g.n2, k2)) / g.h2,
    ])
    out += 0.0
    return out


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n1,n2", GRIDS)
def test_dense_oracle_matches_kronecker_construction(n1, n2):
    g = make_grid(1.3, 0.7, n1, n2)
    assert g.h1 != g.h2
    for nu in (1.0, 0.37):
        assert _identical(assemble_dense("viscous", g, nu=nu), _kron_viscous(g, nu))
    assert _identical(assemble_dense("gradient", g), _kron_gradient(g))
    assert _identical(assemble_dense("divergence", g), _kron_divergence(g))


def test_dense_guard_counts_strips(monkeypatch):
    g = make_grid(1.0, 1.0, 8, 6)  # 63 nodes
    part = build_strips(g, 3, 1)
    monkeypatch.setattr(operators, "_DENSE_NODE_LIMIT", 3 * 63 - 1)
    assemble_dense("viscous", g, nu=1.0)
    for which in ("coupling", "coupling_lower", "coupling_upper"):
        with pytest.raises(SizeGuardError):
            assemble_dense(which, g, nu=1.0, masks=part.masks)
    monkeypatch.setattr(operators, "_DENSE_NODE_LIMIT", 3 * 63)
    for which in ("coupling", "coupling_lower", "coupling_upper"):
        assert assemble_dense(which, g, nu=1.0, masks=part.masks).shape == (3 * 2 * 35, 3 * 2 * 35)
