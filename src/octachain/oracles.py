"""Independent brute-force checks for every closed-form quantity.

Nothing in this module knows the chain formulas: eigenvalues come from
LAPACK's Hermitian solver through ``numpy.linalg.eigvalsh``, of a dense
real symmetric matrix or, for a block-circulant or block-skew-circulant
matrix given by its cells, of its complex Bloch symbols (the two float
routines, and the only code that loads numpy, inside their bodies),
characteristic polynomials (whole, or only their lowest coefficients) and
Kemeny's constant from banded elimination over truncated power series, the
degree-weighted resistance sum from one such pass that carries the degrees
along as an extra column, and tree counts from an exact cofactor.  Both
passes read the degrees off the diagonal of the Laplacian they eliminate and
2|E| as its trace, and by the matrix-tree theorem their determinants certify
connectivity: tau = det L0 and the Kemeny pencil's c1 = -2|E| * tau are zero
exactly when the graph is disconnected.  Any graph can be passed in, either
a :class:`~octachain.graph_gen.ChainGraph` or a plain
``(vertex_count, edges)`` pair, which keeps the oracles honest: they are
exercised on tiny hand-checkable graphs in the tests before being pointed
at the chains.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, wraps

from .exact_algebra import _as_fraction, _cleared_rows, _eliminate, _positive_int
from .exact_algebra import _read_rows, bareiss_det_int, det_series
from .graph_gen import _graph_data
from .laplacian import combinatorial_laplacian

F = Fraction


class DisconnectedGraph(ValueError):
    """The requested quantity is only defined for connected graphs."""


# ---------------------------------------------------------------------------
# Eigenvalues: LAPACK's Hermitian solver, on a matrix or on Bloch symbols
# ---------------------------------------------------------------------------


def _square_array(m, name: str = "matrix", symmetric: bool = True):
    """`m` as a square float array with finite entries, and symmetric too
    unless `symmetric` is false.

    ``numpy.linalg.eigvalsh`` reads only one triangle of its input, so the
    symmetry check is what keeps it honest: a matrix whose two halves differ
    by more than ``1e-9 * max(1, max|a|)`` in Frobenius norm is refused, not
    silently symmetrised.
    """
    import numpy as np
    a = np.array(m, dtype=float)
    if a.shape == (0,):  # the empty list is the 0 x 0 matrix
        a = a.reshape(0, 0)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} entries must be finite")
    if symmetric and a.size:
        if np.linalg.norm(a - a.T) > 1e-9 * max(1.0, float(np.max(np.abs(a)))):
            raise ValueError(f"{name} must be symmetric")
    return a


def eigenvalues_symmetric(m) -> list[float]:
    """All eigenvalues of a symmetric matrix with finite entries, ascending.

    The matrix is checked as :func:`_square_array` says.
    """
    import numpy as np
    a = _square_array(m)
    return np.linalg.eigvalsh(a).tolist() if a.size else []


def bloch_eigenvalues(b0, b1, sign: int, n: int) -> list[float]:
    """All eigenvalues, ascending, of the symmetric n-cell block matrix with
    every diagonal cell b0, b1 coupling cell r to cell r + 1 (and b1^T
    back), and sign * b1 from the last cell to the first.

    With sign +1 the matrix is block-circulant, with -1 block-skew-circulant
    (Davis, *Circulant Matrices*, 1979).  Either way its eigenvalues are
    those of the n Hermitian symbols M(t) = b0 + b1 e^(it) + b1^T e^(-it)
    at t_k = (2k + [sign = -1]) pi / n, k = 0..n-1, solved in one batched
    ``eigvalsh`` call.  b0 is checked as in :func:`eigenvalues_symmetric`,
    and b1 must be finite and of its shape.
    """
    import numpy as np
    b0, b1 = _square_array(b0, "b0"), _square_array(b1, "b1", symmetric=False)
    if b1.shape != b0.shape:
        raise ValueError(f"b1 has shape {b1.shape}, b0 has {b0.shape}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = _positive_int(n)
    theta = (2 * np.arange(n) + (sign == -1)) * (np.pi / n)
    phase = np.exp(1j * theta)[:, None, None]
    symbols = b0 + phase * b1 + phase.conj() * b1.T
    return np.sort(np.linalg.eigvalsh(symbols), axis=None).tolist()


# ---------------------------------------------------------------------------
# Exact characteristic polynomials
# ---------------------------------------------------------------------------


def charpoly_exact(m, terms: int | None = None) -> list[Fraction]:
    """Ascending coefficients of det(zI - M) for a rational square matrix,
    all of them, or only the lowest `terms`.

    With S the diagonal of row scales that clears M to integers,
    det(zI - M) = (-1)^N det(SM - zS) / det(S); the integer pencil is
    expanded by the banded elimination over truncated power series behind
    :func:`~octachain.exact_algebra.det_series`, straight from the sparse
    cleared rows.
    """
    rows, scales = _cleared_rows(_read_rows(m, _as_fraction))
    if terms is None:
        terms = len(rows) + 1
    coeffs = _eliminate(rows, [-s for s in scales], terms)[0]
    total = (-1) ** len(rows) * math.prod(scales)
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
# Exact tree counts and the derived indices
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


def kemeny_oracle(g) -> Fraction:
    """Kemeny's constant, the sum of 1/lambda over the nonzero eigenvalues of
    the walk matrix I - D^(-1) A.

    Those are the roots of det(zD - L) with L = D - A, so the sum is -c2/c1
    by Vieta, read from the three lowest coefficients of the pencil
    det(L - zD), D the diagonal of L.  Every diagonal cofactor of L is the
    tree count tau (the matrix-tree theorem), so c1 = -tr(L) * tau =
    -2|E| * tau is zero exactly when the graph is disconnected.  A single
    vertex has no nonzero eigenvalue: the empty sum, 0.
    """
    lap = combinatorial_laplacian(g)
    if len(lap) <= 1:
        return F(0)
    pencil = det_series(lap, [-row[i] for i, row in enumerate(lap)], 3)
    if pencil[1] == 0:
        raise DisconnectedGraph("Kemeny's constant needs a connected graph")
    return recip_sum_from_charpoly(pencil)


def dk_oracle(g) -> Fraction:
    """Degree-weighted resistance sum over vertex pairs, d_i d_j r_ij.

    With G the inverse of the Laplacian grounded at vertex 0 (padded with
    zeros there) and r_ij = G_ii + G_jj - 2 G_ij, the sum is
    2|E| * sum_i d_i G_ii - d^T G d.  The degrees d are the diagonal of the
    Laplacian L, and 2|E| is its trace.  Both terms come from one banded
    pass over the grounded Laplacian L0 and the degrees d0 of the other
    vertices.  The pencil gives det(L0 + z*diag(d0)) = tau + z * tau *
    tr(diag(d0) G), where tau = det(L0) is the spanning tree count, zero
    exactly when the graph is disconnected (the matrix-tree theorem).  d0
    rides along as a carried column, never pivoted: with p_k the pivots
    (p_0 = 1) and y_k the carried entry of the pivot row of step k, the
    fraction-free LDL^T identity (Bareiss 1968; Golub & Van Loan, Matrix
    Computations, 4.1) gives d0^T G d0 = sum_k y_k**2 / (p_(k-1) p_k).
    The identity needs the diagonal pivots and no z-factor; both hold, as
    every principal minor of L0 is positive for a connected graph.
    """
    lap = combinatorial_laplacian(g)
    degrees = [row[i] for i, row in enumerate(lap)]
    grounded = _read_rows([row[1:] for row in lap[1:]], operator.index)
    d0 = degrees[1:]
    (tau, trace), chosen, pivots, carried = _eliminate(grounded, d0, 2, d0)
    if not tau:
        raise DisconnectedGraph("resistances need a connected graph")
    if chosen != list(range(len(grounded))):
        raise ArithmeticError("the grounded Laplacian lost a diagonal pivot")
    # quad = p_k * (the sum up to step k), an integer: y^T adj(L_k) y on the
    # leading block L_k, so each step divides exactly
    quad = 0
    for prev, p, y in zip(pivots, pivots[1:], carried):
        quad = (quad * p[0] + y[0] ** 2) // prev[0]
    return F(sum(degrees) * trace - quad, tau)


@_graph_cache
def spanning_trees_oracle(g) -> int:
    """Spanning tree count by an exact Laplacian cofactor."""
    lap = combinatorial_laplacian(g)
    minor = [row[1:] for row in lap[1:]]
    return bareiss_det_int(minor)
