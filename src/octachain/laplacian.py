"""Laplacian matrices of chain graphs and their symmetric reductions.

Every matrix here comes from one walk over the edge list: a diagonal (the
degrees, or 1 for a normalized matrix) minus a coupling weight(i, k, d) at
each edge end (i, k).  The combinatorial and normalized Laplacians differ
only in that diagonal and weight.  Every matrix, float or exact, is a plain
list of rows, or a tuple of rows for the cached cells; numpy is loaded only
inside the eigensolvers that read them.

The normalized Laplacian of the twisted closed chain commutes with the
top/bottom mirror swap of :func:`graph_gen.mirror_automorphism`, so folding
by ``U = (1/sqrt(2)) [[I, I], [I, -I]]`` block-diagonalizes it into a "sum"
block "A" (diagonal couplings reinforced) and a "difference" block "S".
Each is a band whose entries repeat with period three, plus two corner
entries from the seam: block-circulant with 3 x 3 cells, with a periodic
seam for "A" and an antiperiodic one for "S".

Every block entry is +-1/sqrt(d_i d_j), so conjugating by diag(sqrt(d))
gives a rational matrix with the same characteristic polynomial *and* the
same principal minors.  :func:`rational_block_image` is that fold, the only
one here: the walk keeps the top rows and adds each bottom column, with
sign + or -, onto its mirror column, with the exact weight 1/d_j.  The
section of order 3n at chain offset `phase` is the index range
[phase, phase + 3n) of the image of Q_(n+1), whose seam corners lie outside
it.  :func:`block_cells` reads the float cells of every n from the image of
Q_3, and :func:`oracles.bloch_eigenvalues` the spectrum from them.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .graph_gen import (
    ConstructionError,
    _graph_data,
    _mirror_permutation,
    build_moebius_octagonal,
    vertex_degrees,
)

F = Fraction


def _edge_walk(g, weight, unit=None, sign=None) -> list[list]:
    """Rows of diag(unit or d) minus weight(i, k, d) at (i, k) for every edge
    end (i, k), with d the vertex degrees.

    A ``unit`` diagonal (1.0 or Fraction(1)) makes a normalized matrix, so
    every degree must be positive; without it the degrees sit on the
    diagonal.  With a ``sign``, which only :func:`rational_block_image`
    passes, the graph is the closed chain: only its top 3n rows are kept,
    and a bottom column k is folded onto its mirror column with that sign;
    :func:`graph_gen.build_moebius_octagonal` has checked that the mirror
    preserves the edges.
    """
    data = _graph_data(g)
    vertex_count, edges = data
    d = vertex_degrees(data)
    if unit is not None and 0 in d:
        raise ValueError("normalized Laplacian needs every degree positive")
    size, mirror = vertex_count, None
    if sign is not None:
        size, mirror = vertex_count // 2, _mirror_permutation(g)
    zero = 0 if unit is None else unit * 0
    out = [[zero] * size for _ in range(size)]
    for i in range(size):
        out[i][i] = d[i] if unit is None else unit
    for a, b in edges:
        for i, k in ((a, b), (b, a)):
            if i < size:
                j, s = (k, 1) if k < size else (mirror[k], sign)
                out[i][j] -= s * weight(i, k, d)
    return out


def combinatorial_laplacian(g) -> list[list[int]]:
    """Integer matrix D - A."""
    return _edge_walk(g, lambda i, k, d: 1)


def normalized_laplacian(g) -> list[list[float]]:
    """Float matrix I - D^(-1/2) A D^(-1/2), entries -1/sqrt(d_i * d_j)."""
    # the integer product d_i * d_k first, so the matrix is exactly symmetric
    return _edge_walk(g, lambda i, k, d: 1.0 / math.sqrt(d[i] * d[k]), 1.0)


@functools.lru_cache(maxsize=2)
def block_cells(family: str) -> tuple[tuple, tuple, int]:
    """The 3 x 3 float cells (B0, B1) and the seam sign of a fold block, for
    every n.

    Block `family` of Q_n has B0 in every diagonal cell, B1 coupling cell r
    to cell r + 1 and B1^T back, and sign * B1 from the last cell to the
    first: it is block-circulant for "A" (sign +1) and block-skew-circulant
    for "S" (sign -1).  The cells are read from the exact image R of the
    block of Q_3, the smallest whose cells do not alias: entry (i, j) of R
    must repeat at (i + 3, j + 3) mod 9, times the sign where that shift
    crosses the seam, or ConstructionError is raised.  R = E S E^(-1) for
    the float block S and a positive diagonal E, so S_ii = R_ii and S_ij is
    sgn(R_ij) sqrt(R_ij R_ji).
    """
    sign = _family_sign(family)
    image = rational_block_image(3, family)
    for i, row in enumerate(image):
        # row i moved three columns along, times the sign where it crosses
        # the seam: its last cell from rows 0-5, its first two from rows 6-8
        seam = row if sign > 0 else [-x for x in row]
        if image[(i + 3) % 9] != (seam[6:] + row[:6] if i < 6 else row[6:] + seam[:6]):
            raise ConstructionError(
                f"block {family} of Q_3 is not block-circulant with seam sign {sign:+d}"
            )

    def entry(i, j):
        if i == j:  # 1 minus the coupling, as normalized_laplacian rounds it
            return 1.0 - float(1 - image[i][i])
        x, y = image[i][j], image[j][i]
        if x == y == 0:
            return 0.0
        p = x * y
        if p <= 0:
            raise ConstructionError(f"block {family} of Q_3 is not symmetrizable")
        # p is 1 / (d_i d_j): normalized_laplacian's 1.0 / sqrt(d_i d_j) to the bit
        return math.copysign(math.sqrt(p.numerator) / math.sqrt(p.denominator), x)

    rows = [[entry(i, j) for j in range(6)] for i in range(3)]
    return tuple(tuple(r[:3]) for r in rows), tuple(tuple(r[3:]) for r in rows), sign


def _family_sign(family: str) -> int:
    if family not in ("A", "S"):
        raise ValueError(f"unknown block family {family!r}")
    return 1 if family == "A" else -1


def rational_block_image(n: int, family: str) -> list[list[Fraction]]:
    """Rational similarity image of a full 3n x 3n block (band + corners).

    With L = D - A and the mirror permutation sigma, entry (i, j) on the top
    vertices is (L[i][j] +- L[i][sigma(j)]) / d_j, + for "A" and - for "S":
    the transpose of the folded walk matrix I - D^(-1) A.
    """
    sign = _family_sign(family)
    g = build_moebius_octagonal(n)
    return _edge_walk(g, lambda i, k, d: F(1, d[k]), F(1), sign)
