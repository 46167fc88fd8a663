"""Reference matrices for the tests: the exact random-walk Laplacian, and the
dense float blocks of the mirror fold."""

from fractions import Fraction

from octachain.graph_gen import build_moebius_octagonal
from octachain.laplacian import combinatorial_laplacian, normalized_laplacian


def rational_walk_laplacian(g) -> list[list[Fraction]]:
    """Exact matrix I - D^(-1) A: each row of D - A divided by its degree,
    which is similar to the normalized Laplacian."""
    return [
        [Fraction(x, row[i]) for x in row]
        for i, row in enumerate(combinatorial_laplacian(g))
    ]


def dense_fold_block(n: int, family: str) -> list[list[float]]:
    """Float 3n x 3n block X + Y ("A") or X - Y ("S") of the normalized
    Laplacian L of Q_n.

    With the top path first and the bottom path after it, L is
    [[X, Y], [Y, X]], X = L[:3n, :3n] and Y = L[:3n, 3n:], and the fold by
    U = (1/sqrt(2)) [[I, I], [I, -I]] turns it into diag(X + Y, X - Y).
    """
    sign = {"A": 1, "S": -1}[family]
    m = 3 * n
    full = normalized_laplacian(build_moebius_octagonal(n))
    return [[row[j] + sign * row[m + j] for j in range(m)] for row in full[:m]]
