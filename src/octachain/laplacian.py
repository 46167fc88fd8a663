"""Laplacian matrices of chain graphs and their symmetric reductions.

The normalized Laplacian of the twisted closed chain commutes with the
top/bottom mirror swap of :func:`graph_gen.mirror_automorphism`, so folding
by ``U = (1/sqrt(2)) [[I, I], [I, -I]]`` block-diagonalizes it into a "sum"
block (diagonal couplings reinforced) and a "difference" block.  Both blocks
are almost tridiagonal: a band whose entries repeat with period three, plus
two corner entries from the seam.

Every block entry is +-1/sqrt(d_i d_j), so conjugating by diag(sqrt(d))
gives a rational matrix with the same characteristic polynomial *and* the
same leading principal minors.  :func:`rational_block_image` folds that
exact image out of the graph's edges, so determinant work can stay in
:class:`fractions.Fraction`; a phase section is a principal slice of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graph_gen import (
    _graph_data,
    build_moebius_octagonal,
    mirror_automorphism,
    vertex_degrees,
)

F = Fraction

_PHASES = {"A": (0, 1, 2), "S": (0, 1)}


def adjacency_matrix(g) -> list[list[int]]:
    vertex_count, edges = _graph_data(g)
    a = [[0] * vertex_count for _ in range(vertex_count)]
    for i, j in edges:
        a[i][j] = 1
        a[j][i] = 1
    return a


def combinatorial_laplacian(g) -> list[list[int]]:
    """Integer matrix D - A."""
    lap = [[-x for x in row] for row in adjacency_matrix(g)]
    for i, d in enumerate(vertex_degrees(g)):
        lap[i][i] = d
    return lap


def normalized_laplacian(g) -> np.ndarray:
    """Float matrix I - D^(-1/2) A D^(-1/2).

    Off-diagonal entries are computed as -1/sqrt(d_i * d_j) with the integer
    product formed first, so the matrix is exactly symmetric.
    """
    vertex_count, edges = _graph_data(g)
    d = vertex_degrees(g)
    if any(x == 0 for x in d):
        raise ValueError("normalized Laplacian needs every degree positive")
    m = np.zeros((vertex_count, vertex_count))
    np.fill_diagonal(m, 1.0)
    for i, j in edges:
        m[i, j] = m[j, i] = -1.0 / math.sqrt(d[i] * d[j])
    return m


def rational_walk_laplacian(g) -> list[list[Fraction]]:
    """Exact matrix I - D^(-1) A; similar to the normalized Laplacian."""
    vertex_count, edges = _graph_data(g)
    d = vertex_degrees(g)
    if any(x == 0 for x in d):
        raise ValueError("walk Laplacian needs every degree positive")
    m = [[F(0)] * vertex_count for _ in range(vertex_count)]
    for i in range(vertex_count):
        m[i][i] = F(1)
    for i, j in edges:
        m[i][j] = F(-1, d[i])
        m[j][i] = F(-1, d[j])
    return m


@dataclass(frozen=True)
class BlockDecomposition:
    """The four 3n x 3n pieces of the folded normalized Laplacian."""

    n: int
    l_v1v1: np.ndarray
    l_v1v2: np.ndarray
    l_a: np.ndarray
    l_s: np.ndarray


@lru_cache(maxsize=32)
def block_decompose(n: int) -> BlockDecomposition:
    """Split the closed-chain Laplacian by the mirror symmetry.

    On the top vertices the matrix is [[X, Y], [Y, X]], Y coupling vertex i
    with the mirror of vertex j; the fold turns it into diag(X + Y, X - Y).
    """
    m = 3 * n
    g = build_moebius_octagonal(n)
    full = normalized_laplacian(g)
    l_v1v1 = full[:m, :m].copy()
    l_v1v2 = full[:m, list(mirror_automorphism(g)[:m])]
    return BlockDecomposition(
        n=n,
        l_v1v1=l_v1v1,
        l_v1v2=l_v1v2,
        l_a=l_v1v1 + l_v1v2,
        l_s=l_v1v1 - l_v1v2,
    )


def _check_phase(family: str, phase: int, m: int) -> None:
    if family not in _PHASES:
        raise ValueError(f"unknown block family {family!r}")
    if phase not in _PHASES[family]:
        raise ValueError(f"family {family} has no phase {phase}")
    if m < 1:
        raise ValueError("matrix order must be positive")


def rational_phase_image(family: str, phase: int, m: int) -> list[list[Fraction]]:
    """Rational image of the order-m tridiagonal section of a block,
    started at chain offset `phase`.

    Row i (1-based) is chain position i + phase: the section is the slice
    [phase : phase + m] of the block image of the shortest chain Q_N whose
    seam corner (0, 3N - 1) lies outside it.
    """
    _check_phase(family, phase, m)
    block = rational_block_image((phase + m) // 3 + 1, family)
    return [row[phase : phase + m] for row in block[phase : phase + m]]


def rational_block_image(n: int, family: str) -> list[list[Fraction]]:
    """Rational similarity image of a full 3n x 3n block (band + corners).

    With L = D - A and the mirror permutation sigma, entry (i, j) on the top
    vertices is (L[i][j] +- L[i][sigma(j)]) / d_j, + for "A" and - for "S":
    the transpose of the folded walk matrix I - D^(-1) A.
    """
    m = 3 * n
    _check_phase(family, 0, m)
    g = build_moebius_octagonal(n)
    mirror, d = mirror_automorphism(g), g.degrees
    sign = 1 if family == "A" else -1
    out = [[F(0)] * i + [F(1)] + [F(0)] * (m - 1 - i) for i in range(m)]
    for a, b in g.edges:
        for i, k in ((a, b), (b, a)):
            if i < m:
                j, s = (k, 1) if k < m else (mirror[k], sign)
                out[i][j] -= F(s, d[j])
    return out
