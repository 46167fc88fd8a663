"""The exact random-walk Laplacian, a reference matrix for the tests."""

from fractions import Fraction

from octachain.laplacian import combinatorial_laplacian


def rational_walk_laplacian(g) -> list[list[Fraction]]:
    """Exact matrix I - D^(-1) A: each row of D - A divided by its degree,
    which is similar to the normalized Laplacian."""
    return [
        [Fraction(x, row[i]) for x in row]
        for i, row in enumerate(combinatorial_laplacian(g))
    ]
