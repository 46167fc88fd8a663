"""Independent brute-force checks for every closed-form quantity.

Nothing in this module knows the chain formulas: eigenvalues come from a
hand-rolled cyclic Jacobi iteration, characteristic polynomials (whole, or
only their lowest coefficients) and Kemeny's constant from banded
elimination over truncated power series, resistances from the exact integer
adjugate of the grounded Laplacian, and tree counts from an exact cofactor.  Any
graph can be passed in, either a :class:`~octachain.graph_gen.ChainGraph`
or a plain ``(vertex_count, edges)`` pair, which keeps the oracles honest:
they are exercised on tiny hand-checkable graphs in the tests before being
pointed at the chains.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

from .exact_algebra import _cleared_rows, adjugate_int, bareiss_det_int, det_series
from .graph_gen import _graph_data, is_connected, vertex_degrees
from .laplacian import combinatorial_laplacian

F = Fraction


class NumericFailure(RuntimeError):
    """An iterative numeric routine did not reach its tolerance."""


class DisconnectedGraph(ValueError):
    """The requested quantity is only defined for connected graphs."""


# ---------------------------------------------------------------------------
# Eigenvalues: cyclic Jacobi rotations
# ---------------------------------------------------------------------------


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diagonal(a))
    return float(np.sqrt(np.sum(off * off)))


def eigenvalues_symmetric(m, tol: float = 1e-12, max_sweeps: int = 100) -> list[float]:
    """All eigenvalues of a symmetric matrix with finite entries, ascending.

    Runs cyclic Jacobi sweeps until the off-diagonal Frobenius norm drops
    below ``tol * order``; raises :class:`NumericFailure` if that does not
    happen within ``max_sweeps`` sweeps.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    order = a.shape[0]
    if order == 0:
        return []
    if _off_norm(a - a.T) > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
        raise ValueError("matrix must be symmetric")
    threshold = tol * order
    for _ in range(max_sweeps):
        if _off_norm(a) < threshold:
            break
        for p in range(order - 1):
            for q in range(p + 1, order):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.hypot(theta, 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = a[q, p] = 0.0
    else:
        if _off_norm(a) >= threshold:
            raise NumericFailure(
                f"Jacobi iteration stalled after {max_sweeps} sweeps"
            )
    return sorted(np.diagonal(a).tolist())


# ---------------------------------------------------------------------------
# Exact characteristic polynomials
# ---------------------------------------------------------------------------


def charpoly_exact(m, terms: int | None = None) -> list[Fraction]:
    """Ascending coefficients of det(zI - M) for a rational square matrix,
    all of them, or only the lowest `terms`.

    With S the diagonal of row scales that clears M to integers,
    det(zI - M) = det(zS - SM) / det(S); the integer pencil is expanded by
    :func:`~octachain.exact_algebra.det_series`, the banded elimination over
    truncated power series.
    """
    rows, scales = _cleared_rows(m)
    if terms is None:
        terms = len(rows) + 1
    coeffs = det_series([[-x for x in row] for row in rows], scales, terms)
    total = math.prod(scales)
    return [F(c, total) for c in coeffs]


def recip_sum_from_charpoly(coeffs) -> Fraction:
    """Sum of reciprocals of the nonzero roots, read off by Vieta.

    For p(z) = c_k z^k + c_{k+1} z^{k+1} + ... with c_k != 0 the sum is
    -c_{k+1}/c_k.  A double zero root (k >= 2) is rejected because the
    quantity would silently lose information.
    """
    coeffs = [F(c) for c in coeffs]
    k0 = next((i for i, c in enumerate(coeffs) if c != 0), None)
    if k0 is None:
        raise ValueError("zero polynomial")
    if k0 >= 2:
        raise ValueError("polynomial has a repeated zero root")
    if k0 + 1 == len(coeffs):
        return F(0)
    return -coeffs[k0 + 1] / coeffs[k0]


# ---------------------------------------------------------------------------
# Exact resistances, tree counts and the derived indices
# ---------------------------------------------------------------------------


def _graph_cache(fn):
    """A bounded lru_cache keyed on the normalized ``(vertex_count, edges)``
    pair, so a ChainGraph and a plain pair with list edges share entries."""
    cached = lru_cache(maxsize=32)(fn)

    @wraps(fn)
    def wrapper(g):
        return cached(_graph_data(g))

    wrapper.cache_clear = cached.cache_clear
    wrapper.cache_info = cached.cache_info
    return wrapper


def resistance_matrix_exact(g, ground: int = 0):
    """Effective resistance between every vertex pair, exactly.

    Inverts the Laplacian grounded at `ground` through its integer adjugate;
    the answer is independent of that choice, which the tests exercise
    directly.
    """
    vertex_count, _ = _graph_data(g)
    if not 0 <= ground < vertex_count:
        raise ValueError("ground vertex out of range")
    if not is_connected(g):
        raise DisconnectedGraph("resistances need a connected graph")
    lap = combinatorial_laplacian(g)
    keep = [i for i in range(vertex_count) if i != ground]
    det, adj = adjugate_int([[lap[i][j] for j in keep] for i in keep])
    # adj / det is the grounded inverse G; padded with zeros at `ground`,
    # every resistance is G_ii + G_jj - 2 G_ij
    for row in adj:
        row.insert(ground, 0)
    adj.insert(ground, [0] * vertex_count)
    diag = [adj[i][i] for i in range(vertex_count)]
    return tuple(
        tuple(F(diag[i] + diag[j] - 2 * x, det) for j, x in enumerate(row))
        for i, row in enumerate(adj)
    )


@_graph_cache
def kemeny_oracle(g) -> Fraction:
    """Kemeny's constant, the sum of 1/lambda over the nonzero eigenvalues of
    the walk matrix I - D^(-1) A.

    Those are the roots of det(zD - L) with L = D - A, so the sum is -c2/c1
    by Vieta, read from the three lowest coefficients of the pencil.  A
    single vertex has no nonzero eigenvalue: the empty sum, 0.
    """
    if not is_connected(g):
        raise DisconnectedGraph("Kemeny's constant needs a connected graph")
    if _graph_data(g)[0] == 1:
        return F(0)
    pencil = det_series(combinatorial_laplacian(g), [-d for d in vertex_degrees(g)], 3)
    return recip_sum_from_charpoly(pencil)


def dk_oracle(g) -> Fraction:
    """Degree-weighted resistance sum over vertex pairs, d_i d_j r_ij."""
    vertex_count, _ = _graph_data(g)
    degrees = vertex_degrees(g)
    r = resistance_matrix_exact(g)
    return sum(
        degrees[i] * degrees[j] * r[i][j]
        for i in range(vertex_count)
        for j in range(i + 1, vertex_count)
    )


@_graph_cache
def spanning_trees_oracle(g) -> int:
    """Spanning tree count by an exact Laplacian cofactor."""
    lap = combinatorial_laplacian(g)
    minor = [row[1:] for row in lap[1:]]
    return bareiss_det_int(minor)
