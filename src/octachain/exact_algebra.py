"""Exact arithmetic building blocks.

Everything downstream that claims to be "exact" bottoms out here: rational
matrix elimination (determinants, minors, inverses), arithmetic in the
quadratic field Q(sqrt(15)), integer powers of the fundamental unit
4 + sqrt(15), and string/decimal rendering of integers and rationals.
All rational work uses :class:`fractions.Fraction`; integer determinants use
Bareiss elimination so intermediate values stay integral.
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
# Exact linear algebra on rational matrices
# ---------------------------------------------------------------------------


def bareiss_det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    a = [[int(x) for x in row] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _fraction_rows(m: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[_as_fraction(x) for x in row] for row in m]


def det_fraction(m: Sequence[Sequence]) -> Fraction:
    """Determinant of a rational matrix, exactly.

    Each row is scaled to integers by its denominator lcm, the integer
    determinant is taken with Bareiss elimination, and the scaling is undone.
    """
    rows = _fraction_rows(m)
    if not rows:
        return Fraction(1)
    scale = 1
    int_rows = []
    for row in rows:
        l = math.lcm(*(x.denominator for x in row)) if row else 1
        scale *= l
        int_rows.append([int(x * l) for x in row])
    return Fraction(bareiss_det_int(int_rows), scale)


def leading_principal_minors(m: Sequence[Sequence]) -> list[Fraction]:
    """All leading principal minors det(m[:k, :k]) for k = 1..n.

    Uses pivot products from a no-swap LU pass; if a zero pivot shows up the
    minors are recomputed one by one (swaps would corrupt the running
    products).
    """
    rows = _fraction_rows(m)
    n = len(rows)
    a = [row[:] for row in rows]
    minors: list[Fraction] = []
    running = Fraction(1)
    for k in range(n):
        pivot = a[k][k]
        if pivot == 0:
            return [
                det_fraction([row[: j + 1] for row in rows[: j + 1]])
                for j in range(n)
            ]
        running *= pivot
        minors.append(running)
        for i in range(k + 1, n):
            factor = a[i][k] / pivot
            if factor == 0:
                continue
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return minors


def invert_fraction_matrix(m: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination with row pivoting."""
    a = _fraction_rows(m)
    n = len(a)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for i in range(n):
            if i == col or aug[i][col] == 0:
                continue
            factor = aug[i][col]
            aug[i] = [x - factor * y for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


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
