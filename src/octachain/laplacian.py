"""Laplacian matrices of chain graphs and their symmetric reductions.

The normalized Laplacian of the twisted closed chain commutes with the
top/bottom mirror swap, so conjugating by the orthogonal folding matrix
``U = (1/sqrt(2)) [[I, I], [I, -I]]`` block-diagonalizes it into a "sum"
block (diagonal couplings reinforced) and a "difference" block.  Both blocks
are almost tridiagonal: a tridiagonal band whose diagonal and couplings
repeat with period three, plus two corner entries from the seam.

Because every entry is +-1/sqrt(d_i d_j), conjugating by diag(sqrt(d)) turns
any of these matrices into a rational matrix with the same characteristic
polynomial *and* the same leading principal minors; the ``rational_*``
functions build those exact images so determinant work can stay in
:class:`fractions.Fraction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graph_gen import _graph_data, build_moebius_octagonal, vertex_degrees

F = Fraction

_SPECIAL_DIAG = {"A": F(2, 3), "S": F(4, 3)}
_CORNER_SIGN = {"A": -1, "S": 1}
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

    With vertices ordered top block then bottom block, the matrix is
    [[X, Y], [Y, X]]; the fold turns it into diag(X + Y, X - Y).
    """
    m = 3 * n
    full = normalized_laplacian(build_moebius_octagonal(n))
    l_v1v1 = full[:m, :m].copy()
    l_v1v2 = full[:m, m:].copy()
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


def _position_degree(pos: int) -> int:
    return 3 if pos % 3 == 1 else 2


def rational_phase_image(family: str, phase: int, m: int) -> list[list[Fraction]]:
    """Rational image of the order-m tridiagonal section of a block,
    started at chain offset `phase`.

    Row i (1-based) is chain position i + phase.  The normalized section
    carries the rung coupling (2/3 or 4/3 instead of 1) on the diagonal at
    positions 1 mod 3, and the bond -1/sqrt(d_i d_j) between neighbours;
    conjugation by diag(sqrt(d)) sends the entry at (i, j) to -1/d_j while
    fixing the diagonal, which preserves the characteristic polynomial and
    every leading principal minor.
    """
    _check_phase(family, phase, m)
    out = [[F(0)] * m for _ in range(m)]
    for i in range(1, m + 1):
        pos = i + phase
        out[i - 1][i - 1] = _SPECIAL_DIAG[family] if pos % 3 == 1 else F(1)
        if i < m:
            out[i - 1][i] = F(-1, _position_degree(pos + 1))
            out[i][i - 1] = F(-1, _position_degree(pos))
    return out


def rational_block_image(n: int, family: str) -> list[list[Fraction]]:
    """Rational similarity image of a full 3n x 3n block (band + corners)."""
    m = 3 * n
    out = rational_phase_image(family, 0, m)
    sign = _CORNER_SIGN[family]
    out[0][m - 1] = F(sign, _position_degree(m))
    out[m - 1][0] = F(sign, _position_degree(1))
    return out
