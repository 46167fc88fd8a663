"""Exact arithmetic building blocks.

Everything downstream that claims to be "exact" bottoms out here: matrix
elimination (determinants, leading minors, adjugates), arithmetic in the
quadratic field Q(sqrt(15)), integer powers of the fundamental unit
4 + sqrt(15), and string/decimal rendering of integers and rationals.
All matrix work goes through one fraction-free Gauss-Jordan elimination
(Bareiss) on integer rows, so intermediate values stay integral; rational
matrices are first cleared to integers row by row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class ConsistencyError(ArithmeticError):
    """Two independent computations of the same quantity disagreed."""


class SingularMatrixError(ArithmeticError):
    """A matrix that was required to be invertible is singular."""


# ---------------------------------------------------------------------------
# Q(sqrt(15))
# ---------------------------------------------------------------------------


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class QuadExt:
    """An element a + b*sqrt(15) with rational a, b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))

    @staticmethod
    def _coerce(other) -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        return QuadExt(_as_fraction(other), Fraction(0))

    def __add__(self, other) -> "QuadExt":
        other = self._coerce(other)
        return QuadExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b)

    def __sub__(self, other) -> "QuadExt":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "QuadExt":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "QuadExt":
        other = self._coerce(other)
        return QuadExt(
            self.a * other.a + 15 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadExt":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "QuadExt":
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "QuadExt":
        return quad_pow(self, k)

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a**2 - 15*b**2 (multiplicative)."""
        return self.a * self.a - 15 * self.b * self.b

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(15))")
        return QuadExt(self.a / n, -self.b / n)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __str__(self) -> str:
        if self.b < 0:
            return f"{frac_to_str(self.a)} - {frac_to_str(-self.b)}*sqrt15"
        return f"{frac_to_str(self.a)} + {frac_to_str(self.b)}*sqrt15"


def quad_pow(x: QuadExt, k: int) -> QuadExt:
    """x**k by binary exponentiation (k >= 0)."""
    if k < 0:
        return quad_pow(x.inverse(), -k)
    result = QuadExt(1, 0)
    base = x
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# Powers of the unit 4 + sqrt(15)
# ---------------------------------------------------------------------------


def unit_power(k: int) -> tuple[int, int]:
    """(t_k, u_k) with (4 + sqrt(15))**k = (t_k + u_k*sqrt(15)) / 2.

    Binary powering in Z[sqrt(15)] over plain ints, O(log k) steps.  Both
    sequences satisfy s_k = 8*s_{k-1} - s_{k-2}, and t_k**2 - 15*u_k**2 = 4.
    """
    if k < 0:
        raise ValueError("index must be non-negative")
    a, b = 1, 0  # a + b*sqrt(15)
    for bit in bin(k)[2:]:
        a, b = a * a + 15 * b * b, 2 * a * b
        if bit == "1":
            a, b = 4 * a + 15 * b, a + 4 * b
    return 2 * a, 2 * b


# ---------------------------------------------------------------------------
# Exact linear algebra: one fraction-free elimination
# ---------------------------------------------------------------------------


def _bareiss(rows: list[list[int]], order: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968), in place.

    Clears the first `order` columns of the integer rows above and below
    each pivot, dividing exactly by the previous pivot, and swaps rows only
    on a zero diagonal entry.  Returns ``(pivots, swaps)``: ``pivots[k]`` is
    the order-k leading minor of the row-swapped matrix (``pivots[0] = 1``),
    and the list stops short of ``order + 1`` entries if those columns are
    singular.  With M the first `order` columns and B the rest (say an
    appended identity), a full run leaves ``pivots[-1] * M**-1 * B`` in B.
    """
    pivots, swaps = [1], 0
    for k in range(order):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, order) if rows[i][k] != 0), None)
            if swap is None:
                return pivots, swaps
            rows[k], rows[swap] = rows[swap], rows[k]
            swaps += 1
        pivot_row, prev = rows[k], pivots[-1]
        pivot, tail = pivot_row[k], pivot_row[k + 1 :]
        for i, row in enumerate(rows):
            if i != k:
                factor = row[k]
                row[k] = 0
                row[k + 1 :] = [
                    (pivot * x - factor * y) // prev
                    for x, y in zip(row[k + 1 :], tail)
                ]
        pivots.append(pivot)
    return pivots, swaps


def _square_int_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    a = [[int(x) for x in row] for row in rows]
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix must be square")
    return a


def _cleared_rows(m: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Integer rows of a rational matrix, each row multiplied by its
    denominator lcm, and those row scales."""
    rows, scales = [], []
    for row in m:
        row = [_as_fraction(x) for x in row]
        scales.append(math.lcm(*(x.denominator for x in row)))
        rows.append([x.numerator * (scales[-1] // x.denominator) for x in row])
    return rows, scales


def bareiss_det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = _square_int_rows(rows)
    pivots, swaps = _bareiss(a, len(a))
    return (-1) ** swaps * pivots[-1] if len(pivots) > len(a) else 0


def det_fraction(m: Sequence[Sequence]) -> Fraction:
    """Determinant of a rational matrix, exactly.

    Each row is scaled to integers by its denominator lcm, the integer
    determinant is taken with :func:`bareiss_det_int`, and the scaling is
    undone.
    """
    rows, scales = _cleared_rows(m)
    return Fraction(bareiss_det_int(rows), math.prod(scales))


def leading_principal_minors(m: Sequence[Sequence]) -> list[Fraction]:
    """All leading principal minors det(m[:k, :k]) for k = 1..n.

    They are the pivots of one elimination of the row-cleared matrix, each
    divided by the scales of its rows.  If elimination had to swap rows
    (a leading minor is zero), the pivots belong to a permuted matrix and
    the minors are recomputed one by one instead.
    """
    rows, scales = _cleared_rows(m)
    n = len(rows)
    pivots, swaps = _bareiss(rows, n)
    if swaps or len(pivots) <= n:
        return [det_fraction([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
    return [Fraction(pivots[k], math.prod(scales[:k])) for k in range(1, n + 1)]


def adjugate_int(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """``(c, c * M**-1)`` for a nonsingular integer matrix M, all integers.

    One elimination of ``[M | I]``; ``c`` is det(M) up to the sign of the
    row swaps it made, so ``c * M**-1`` is the adjugate up to that sign.
    Raises :class:`SingularMatrixError` if M is singular.
    """
    a = _square_int_rows(rows)
    n = len(a)
    for i, row in enumerate(a):
        row.extend(int(i == j) for j in range(n))
    pivots, _ = _bareiss(a, n)
    if len(pivots) <= n:
        raise SingularMatrixError("matrix is singular")
    return pivots[-1], [row[n:] for row in a]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def int_to_str(x: int) -> str:
    """Decimal digits of x, also past the interpreter's limit on str(int).

    Below sys.get_int_max_str_digits() this is str(x); above it the digits
    are produced by divide and conquer on powers of ten.
    """
    limit = sys.get_int_max_str_digits()
    # |x| < 2**bit_length <= 10**limit whenever bit_length <= 3.32 * limit
    if not limit or x.bit_length() <= 3.32 * limit:
        return str(x)
    if x < 0:
        return "-" + int_to_str(-x)
    half = int(x.bit_length() * 0.30103) // 2
    high, low = divmod(x, 10**half)
    return int_to_str(high) + int_to_str(low).rjust(half, "0")


def frac_to_str(q: Fraction) -> str:
    """Render a rational as "p/q" with the denominator always explicit."""
    q = _as_fraction(q)
    return f"{int_to_str(q.numerator)}/{int_to_str(q.denominator)}"


def frac_to_decimal_str(q: Fraction, places: int) -> str:
    """Fixed-point decimal rendering with banker's (half-even) rounding.

    Rounding is done on exact integer arithmetic so ties are decided
    correctly no matter how long the repeating expansion is.
    """
    q = _as_fraction(q)
    if places < 0:
        raise ValueError("places must be non-negative")
    sign = "-" if q < 0 else ""
    scaled = abs(q) * 10**places
    whole, remainder = divmod(scaled.numerator, scaled.denominator)
    doubled = 2 * remainder
    if doubled > scaled.denominator or (
        doubled == scaled.denominator and whole % 2 == 1
    ):
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    if places == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
