"""Exact arithmetic building blocks.

Everything downstream that claims to be "exact" bottoms out here: matrix
elimination (determinants, truncated determinant series, leading and
vertex-deleted minors), integer powers of the fundamental unit 4 + sqrt(15)
(one at a time, or stepped along consecutive exponents), and string/decimal
rendering of integers and rationals.  The integer kernels take ``int`` or
numpy integers, the rational ones ``Fraction`` too; anything else, a float
above all, raises ``TypeError`` rather than being truncated.

Each kernel iterates every row of its matrix once, keeping the nonzero
entries as ``{column: entry}`` rows that the elimination, the reverse
Cuthill-McKee order and the sweeps all work on; a row given as such a
``Mapping`` already is read in O(its nonzeros).  All elimination is
fraction-free (Bareiss) on integer rows, so intermediate values stay
integral; rational matrices are first cleared to integers row by row.
:func:`det_series`, a banded forward elimination over truncated power
series, gives every determinant and the lowest coefficients of
det(R + z*diag(shift)) that characteristic polynomials are read from; its
core also carries one right-hand column through the pass for the
resistance oracle.  The minors of a rational matrix come from integer
sweeps over the band of its cleared rows, not from one determinant each:
:func:`leading_minors` is one forward elimination, and
:func:`deleted_minors` joins a forward and a backward one by a twisted
factorization; each minor becomes a ``Fraction`` only at the end, divided
by its row scales.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterator, Mapping, Sequence


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


def unit_powers(start: int) -> Iterator[tuple[int, int]]:
    """(t_k, u_k) for k = start, start + 1, ... as in :func:`unit_power`.

    One :func:`unit_power` call, then one multiplication by the unit per
    term: (t, u) -> (4t + 15u, t + 4u).  A negative start raises here, not
    at the first ``next()``.
    """
    return _unit_steps(*unit_power(start))


def _unit_steps(t: int, u: int) -> Iterator[tuple[int, int]]:
    while True:
        yield t, u
        t, u = 4 * t + 15 * u, t + 4 * u


# ---------------------------------------------------------------------------
# Exact linear algebra: fraction-free elimination
# ---------------------------------------------------------------------------


def _as_fraction(value) -> Fraction:
    """A Fraction, an int or a numpy integer as a Fraction; anything else,
    a float above all, raises ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(operator.index(value))
    except TypeError:
        raise TypeError(
            f"expected an exact rational, got {type(value).__name__}"
        ) from None


def _positive_int(value, name: str = "n") -> int:
    """A size as the ``int`` ``operator.index`` gives (a numpy integer
    passes, a float raises ``TypeError``); below 1 it raises ``ValueError``."""
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer")
    return value


def _read_rows(m: Sequence, entry) -> list[dict]:
    """The nonzero entries of a square matrix as ``{column: entry(x)}`` rows,
    every row iterated once.  A row is a sequence of all N entries or a
    ``Mapping`` ``{column: x}`` of some of them, read in O(its size).
    ``entry`` (``operator.index`` or :func:`_as_fraction`) sees zeros too,
    so a float zero raises ``TypeError``; a sequence row of the wrong length,
    or a column outside 0..N-1, raises ``ValueError``."""
    n, rows = len(m), []
    for row in m:
        if isinstance(row, Mapping):
            read = {j: entry(x) for j, x in row.items()}
            for j in read:
                if not 0 <= operator.index(j) < n:
                    raise ValueError(f"column {j} outside 0..{n - 1}")
            rows.append({j: y for j, y in read.items() if y})
            continue
        if len(row) != n:
            raise ValueError("matrix must be square")
        rows.append({j: y for j, x in enumerate(row) if (y := entry(x))})
    return rows


def _cleared_rows(
    rows: list[dict[int, Fraction]],
) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse rational rows as sparse integer rows, each row multiplied by
    its denominator lcm, and those row scales."""
    scales = [math.lcm(*(x.denominator for x in row.values())) for row in rows]
    cleared = [
        {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
        for row, scale in zip(rows, scales)
    ]
    return cleared, scales


def _rcm_order(rows: Sequence[Mapping[int, object]]) -> list[int]:
    """A reverse Cuthill-McKee order (Cuthill & McKee 1969) of a square matrix
    given as ``{column: entry}`` rows of its nonzeros; only columns are read,
    and they are trusted to lie in 0..N-1, as :func:`_read_rows` leaves them.

    Breadth-first search over the graph of the nonzero off-diagonal entries
    of R + R^T, started in each component at a vertex of least degree and
    taking neighbours by increasing degree; the visit order, reversed, keeps
    the nonzeros of the permuted matrix in a narrow band around the diagonal.
    """
    adj = [set() for _ in rows]
    for i, row in enumerate(rows):
        for j in row:
            if i != j:
                adj[i].add(j)
                adj[j].add(i)
    seen = [False] * len(adj)
    order = []
    for start in sorted(range(len(adj)), key=lambda v: len(adj[v])):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for v in queue:
            for w in sorted(adj[v], key=lambda w: (len(adj[w]), w)):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        order.extend(queue)
    return order[::-1]


def _series_cross(p, x, f, y, prev, t: int) -> list[int]:
    """(p*x - f*y) / prev in Z[z]/(z**t); the quotient is known to be integral
    and prev[0] != 0, so each coefficient divides exactly.

    t = 1, 2 and 3, the determinants, the Kemeny and dk pencils and the
    truncated charpolys, have straight-line bodies; longer series (whole
    characteristic polynomials) take the general loop.  After a z-factor a
    stored series can hold more than t coefficients, so each operand is
    indexed, never unpacked.
    """
    v = prev[0]
    q0 = (p[0] * x[0] - f[0] * y[0]) // v
    if t == 1:
        return [q0]
    q1 = (p[0] * x[1] + p[1] * x[0] - f[0] * y[1] - f[1] * y[0] - q0 * prev[1]) // v
    if t == 2:
        return [q0, q1]
    if t == 3:
        acc = p[0] * x[2] + p[1] * x[1] + p[2] * x[0]
        acc -= f[0] * y[2] + f[1] * y[1] + f[2] * y[0] + q0 * prev[2] + q1 * prev[1]
        return [q0, q1, acc // v]
    q = [q0, q1]
    for k in range(2, t):
        acc = sum(p[i] * x[k - i] - f[i] * y[k - i] for i in range(k + 1))
        acc -= sum(q[i] * prev[k - i] for i in range(k))
        q.append(acc // v)
    return q


def _permutation_sign(perm: list[int]) -> int:
    perm, sign = list(perm), 1
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            sign = -sign
    return sign


def det_series(
    rows: Sequence[Sequence[int]], shift: Sequence[int] | None = None, terms: int = 1
) -> list[int]:
    """The lowest `terms` coefficients of det(R + z*diag(shift)), ascending.

    The integer rows are read once into sparse rows and handed to the banded
    series elimination :func:`_eliminate`.  A singular R gives ``[0]`` at
    ``terms=1``.
    """
    a = _read_rows(rows, operator.index)
    shift = [0] * len(a) if shift is None else [operator.index(s) for s in shift]
    if len(shift) != len(a):
        raise ValueError("shift must have one entry per row")
    return _eliminate(a, shift, terms)[0]


def _eliminate(
    a: list[dict[int, int]],
    shift: list[int],
    terms: int,
    carry: list[int] | None = None,
) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """Forward fraction-free elimination (Bareiss 1968) of R + z*diag(shift)
    over Z[z]/(z**terms), with R given as sparse integer rows `a`.

    The rows are taken in reverse Cuthill-McKee order, so a banded matrix
    costs O(order * bandwidth**2) series operations.  Each step touches only
    the rows with an entry in the pivot column; a row left out of a step
    would just be multiplied by p_k / p_(k-1), so that scaling is applied
    lazily, by p_now / p_then, when the row next enters the band.  The pivot
    is the first row whose entry has a nonzero constant term, so every
    division is exact integer division from the constant term.  If no such
    row exists, the remaining column of the Schur complement is divisible by
    z: that z is factored out of the determinant and the elimination
    continues with one term fewer.

    `carry`, one integer per row, rides along as an extra right-hand column:
    it is eliminated like every other column, but never pivots and is left
    out of the order.  Returns the determinant's coefficients, ascending;
    the row, in the permuted order, that pivots each step; the pivots, with
    pivots[0] = 1 before the first step; and the carried column's entry in
    each pivot row as it pivots.
    """
    if terms < 1:
        raise ValueError("terms must be positive")
    n = len(a)
    order = _rcm_order(a)
    place = {old: new for new, old in enumerate(order)}
    zero = (0,) * terms
    band, cols = [], [set() for _ in range(n + 1)]  # column n is the carry
    for new_i, i in enumerate(order):
        row = {place[j]: [x, *zero[1:]] for j, x in a[i].items()}
        if shift[i] and terms > 1:
            row.setdefault(new_i, list(zero))[1] = shift[i]
        if carry is not None and carry[i]:
            row[n] = [carry[i], *zero[1:]]
        for j in row:
            cols[j].add(new_i)
        band.append(row)

    t, z_power = terms, 0
    pivots = [[1, *zero[1:]]]  # pivots[s + 1] is the pivot of step s
    scale = [0] * n  # row i is stored at scale pivots[scale[i]]
    chosen = []  # chosen[k] is the row that pivots step k
    carried = []  # carried[k] is the carry entry of that row at step k
    for k in range(n):
        prev, cand = pivots[-1], sorted(cols[k])
        for i in cand:
            if scale[i] != len(pivots) - 1:
                row, then = band[i], pivots[scale[i]]
                for j, x in row.items():
                    row[j] = _series_cross(prev, x, zero, zero, then, t)
                scale[i] = len(pivots) - 1
        while (r := next((i for i in cand if band[i][k][0]), None)) is None:
            t, z_power = t - 1, z_power + 1
            if t == 0:
                return [0] * terms, chosen, pivots, carried
            for i in cand:
                band[i][k] = band[i][k][1:]
        pivot_row = band[r]
        p = pivot_row.pop(k)
        for j in pivot_row:
            cols[j].discard(r)
        for i in cand:
            if i != r:
                row = band[i]
                f = row.pop(k)
                for j in row.keys() | pivot_row.keys():
                    if j not in row:
                        cols[j].add(i)
                    y = pivot_row.get(j, zero)
                    row[j] = _series_cross(p, row.get(j, zero), f, y, prev, t)
                scale[i] = len(pivots)
        pivots.append(p)
        chosen.append(r)
        carried.append(pivot_row.get(n, zero))
    sign = _permutation_sign(chosen)
    return [0] * z_power + [sign * c for c in pivots[-1][:t]], chosen, pivots, carried


def bareiss_det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix: :func:`det_series` at one term."""
    return det_series(rows)[0]


# ---------------------------------------------------------------------------
# Exact linear algebra: every leading or vertex-deleted minor in one sweep
# ---------------------------------------------------------------------------


def _half_bandwidth(rows: list[dict]) -> int:
    return max((abs(i - j) for i, row in enumerate(rows) for j in row), default=0)


def _schur_sweep(
    rows: list[dict[int, int]], b: int
) -> tuple[list[int], list[list[list[int]]]] | None:
    """Fraction-free forward elimination (Bareiss 1968) without pivoting of
    an integer matrix of half-bandwidth b.

    Step k reads the window [k, k + b] x [k, k + b] (clipped to the matrix)
    of the Bareiss entries det(C[[0, k) + {i}, [0, k) + {j}]), which are the
    Schur complement of C[:k, :k] times its determinant p_k: eliminating
    [0, k) changes no entry outside [k, k + b) x [k, k + b), so a row or
    column that enters the window untouched is the matrix entry times the
    current pivot, and each step is (pivot * a - a[r][0] * top[c]) // p_k,
    an exact division.  Returns the pivots, the leading minors p_1..p_N,
    and the window of every step; or None if a pivot other than the last
    is zero, as the sweep cannot go past it.
    """
    n = len(rows)
    size = min(b + 1, n)
    window = [[rows[i].get(j, 0) for j in range(size)] for i in range(size)]
    prev, pivots, windows = 1, [], []
    for k in range(n):
        pivot, top = window[0][0], window[0]
        pivots.append(pivot)
        windows.append(window)
        if k == n - 1:
            break
        if not pivot:
            return None
        size, inner = min(b + 1, n - k - 1), min(b, n - k - 1)
        cols = range(1, inner + 1)
        nxt = []
        for old in window[1 : inner + 1]:
            f = old[0]
            nxt.append([(pivot * old[c] - f * top[c]) // prev for c in cols])
        if size > inner:  # row and column k + 1 + b enter the window untouched
            last = k + 1 + b
            for i, row in enumerate(nxt, start=k + 1):
                row.append(pivot * rows[i].get(last, 0))
            entering = rows[last]
            nxt.append([pivot * entering.get(j, 0) for j in range(k + 1, last + 1)])
        window, prev = nxt, pivot
    return pivots, windows


def _minors_per_set(rows: list[dict[int, Fraction]], index_sets) -> list[Fraction]:
    """det(m[K, K]) for each index set K of the sparse rows of m: one
    :func:`_eliminate` of the rows cleared to integers and cut to K, still
    sparse, divided by the scales of the rows it keeps."""
    cleared, scales = _cleared_rows(rows)
    minors = []
    for keep in index_sets:
        place = {old: new for new, old in enumerate(keep)}
        sub = [{place[j]: x for j, x in cleared[i].items() if j in place} for i in keep]
        det = _eliminate(sub, [0] * len(sub), 1)[0][0]
        minors.append(Fraction(det, math.prod(scales[i] for i in keep)))
    return minors


def leading_minors(m: Sequence) -> list[Fraction]:
    """det(m[:k, :k]) of a square rational matrix for k = 1..N, in order.

    The rows are cleared to integers, C = S m with S the diagonal of row
    scales s_i, and swept once by :func:`_schur_sweep` in the given order:
    its pivot p_k is the integer leading minor det(C[:k, :k]), so the
    minor of m is p_k / (s_1 ... s_k), and a matrix of half-bandwidth b
    costs O(N * b**2).  If a pivot other than the last is zero, each minor
    is computed on its own instead.  Rows are read as :func:`_read_rows`
    says: a non-square matrix raises ``ValueError``, an entry that is not
    an exact rational ``TypeError``.
    """
    rows = _read_rows(m, _as_fraction)
    cleared, scales = _cleared_rows(rows)
    sweep = _schur_sweep(cleared, _half_bandwidth(cleared))
    if sweep is None:
        return _minors_per_set(rows, [range(k) for k in range(1, len(rows) + 1)])
    return list(map(Fraction, sweep[0], itertools.accumulate(scales, operator.mul)))


def deleted_minors(m: Sequence) -> list[Fraction]:
    """det of m without row and column x, for x = 0..N-1, in order.

    A twisted factorization (Meurant 1992; Parlett & Dhillon 1997) of the
    cleared integer rows C = S m: in reverse Cuthill-McKee order with
    half-bandwidth b, deleting x leaves the leading block L = [0, x) and
    the trailing block R = [x + b, N), coupled only through
    W = [x + 1, x + b), h = |W|.  Let F be the forward sweep's window at x
    and G the backward sweep's window that has eliminated R, Bareiss
    entries at the scale of the integer minors p = det C[L, L] and
    q = det C[R, R].  F[W] / p and G[W] / q are C[W, W] less the couplings
    through L and through R, so with

        Z = q * F[W] + p * G[W] - p * q * C[W, W],

    det(C without x) = p * q * det(Z / (p * q)) = det(Z) / (p * q)**(h - 1),
    an exact division, and the minor of m is that times s_x / (s_0 ... s_N-1).
    The two sweeps cost O(N * b**2), the h x h determinants O(N * b**3) in
    all.  As in :func:`leading_minors`, a zero pivot other than the last of
    either sweep sends every minor to its own determinant, and bad input
    raises the same errors.
    """
    rows = _read_rows(m, _as_fraction)
    n = len(rows)
    cleared, scales = _cleared_rows(rows)
    order = _rcm_order(cleared)
    place = {old: new for new, old in enumerate(order)}
    band = [{place[j]: x for j, x in cleared[i].items()} for i in order]
    b = max(1, _half_bandwidth(band))
    forward = _schur_sweep(band, b)
    mirrored = [{n - 1 - j: x for j, x in row.items()} for row in band[::-1]]
    backward = _schur_sweep(mirrored, b)
    if forward is None or backward is None:
        deleted = [[i for i in range(n) if i != x] for x in range(n)]
        return _minors_per_set(rows, deleted)
    lead, trail = [1, *forward[0]], [1, *backward[0]]
    total = math.prod(scales)
    minors = []
    for x in range(n):
        end = min(x + b, n)  # R = [end, n); W = x + 1..x + h
        f, g, h = forward[1][x], backward[1][n - end], end - 1 - x
        p, q = lead[x], trail[n - end]
        w = range(1, h + 1)
        z = [
            {
                c - 1: q * f[r][c] + p * g[h - r][h - c]
                - p * q * band[x + r].get(x + c, 0)
                for c in w
            }
            for r in w
        ]
        if h == 0:
            det = p * q
        elif h == 1:
            det = z[0][0]
        else:
            det = _minors_per_set(z, [range(h)])[0].numerator // (p * q) ** (h - 1)
        minors.append(Fraction(det * scales[order[x]], total))
    return [minors[place[x]] for x in range(n)]


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
    correctly no matter how long the repeating expansion is, and the digits
    are rendered by :func:`int_to_str`, so any rational is accepted.  The
    work is :func:`_decimal_str` on the numerator and denominator.
    """
    q = _as_fraction(q)
    return _decimal_str(q.numerator, q.denominator, places)


def _decimal_str(p: int, d: int, places: int) -> str:
    """:func:`frac_to_decimal_str` of p / d for integers p and d > 0, the
    pair reduced or not: a common factor scales both the remainder of
    |p| * 10**places by d and d itself, so the digits and the half-even tie
    test are the same, and no gcd is taken."""
    if places < 0:
        raise ValueError("places must be non-negative")
    whole, remainder = divmod(abs(p) * 10**places, d)
    doubled = 2 * remainder
    if doubled > d or (doubled == d and whole % 2 == 1):
        whole += 1
    sign = "-" if p < 0 else ""
    digits = int_to_str(whole).rjust(places + 1, "0")
    if places == 0:
        return f"{sign}{digits}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
