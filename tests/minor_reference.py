"""Principal minors one determinant at a time, the reference for the minor
sweeps of ``exact_algebra`` in the tests."""

import math
import operator
from fractions import Fraction

from octachain.exact_algebra import bareiss_det_int


def principal_minors(m, index_sets) -> list[Fraction]:
    """det(m[K, K]) of a rational N x N matrix for each index set K, in order.

    The rows are cleared to integers once, and each minor is one
    ``bareiss_det_int`` of the cleared rows and columns in K, divided by the
    scales of the rows it keeps; the empty set gives 1.  An entry that is
    not a Fraction or an integer raises ``TypeError``; a non-square matrix,
    an index outside 0..N-1 or a repeated index raises ``ValueError``.
    """
    m = [
        [x if isinstance(x, Fraction) else Fraction(operator.index(x)) for x in row]
        for row in m
    ]
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    scales = [math.lcm(*(x.denominator for x in row)) for row in m]
    rows = [
        [x.numerator * (s // x.denominator) for x in row] for row, s in zip(m, scales)
    ]
    minors = []
    for keep in index_sets:
        keep = [operator.index(i) for i in keep]
        if len(set(keep)) < len(keep) or not all(0 <= i < len(rows) for i in keep):
            raise ValueError(f"index set {keep} repeats or leaves 0..{len(rows) - 1}")
        det = bareiss_det_int([[rows[i][j] for j in keep] for i in keep])
        minors.append(Fraction(det, math.prod(scales[i] for i in keep)))
    return minors
