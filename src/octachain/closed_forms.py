"""Closed-form spectral invariants of the twisted octagonal chain.

All formulas are driven by the algebraic pair x = (4 +- sqrt(15))/12, the two
roots that govern the period-three minor recurrences of the chain blocks, and
so by the powers (4 + sqrt(15))**n = (t_n + u_n sqrt(15)) / 2.  Every formula
reads the integer pair (t_n, u_n) from
:func:`~octachain.exact_algebra.unit_power`; no arithmetic in Q(sqrt(15)) is
done here.  The verification layer compares each formula with an oracle that
recomputes it from the graph.

The per-n functions read n as an ``int`` (a numpy integer too, a float
never) and power the unit once per call.  A run of consecutive n is
served by :func:`table_terms`, which powers it once for the first row and
steps (t_n, u_n) to each next row with one multiplication by the unit
(:func:`~octachain.exact_algebra.unit_powers`), a tree row in exact
``decimal`` digits; both evaluate the same formulas on (n, t_n, u_n).  The
formulas give unreduced (numerator, denominator) pairs: the per-n functions
reduce them to Fractions, while :func:`~octachain.reference_data.table_rows`
rounds a table row from the pair as it is and takes no gcd.

Quantities provided (for the closed chain with parameter n):

* ``sum_recip_alpha`` / ``xi`` -- reciprocal eigenvalue sums of the two
  fold blocks (the zero mode excluded from the first);
* ``kemeny`` and ``dk_index`` -- Kemeny's constant and the degree-weighted
  resistance (degree-Kirchhoff) index, related by dk = 14 n * kemeny;
* ``spanning_trees`` -- the spanning tree count 3n (t_n + 2) / 2;
* ``table_terms`` -- dk, Kemeny or tree-count rows for n = start..end,
  streamed as unreduced pairs;
* minor ladders ``w_minor`` / ``q_minor``, both read from a table of
  integer triples (a, b, d) by phase and j mod 3 at k = floor(j / 3):
  w_j = (a + b k) / (d 12**k) (the double root 1/12 of the sum-block
  sections) and q_j = (a t_k + 15 b u_k) / (d 12**k) (the roots
  (4 +- sqrt(15))/12 of the difference-block sections), each one
  ``Fraction`` of an integer pair, and the vertex-deleted determinants
  ``minor_det_la`` (one ``Fraction`` of four unreduced w pairs) /
  ``minor_det_ls`` with their coefficient sums, feeding the verification
  layer.
"""

from __future__ import annotations

import decimal
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exact_algebra import _positive_int, _unit_steps, unit_power, unit_powers

F = Fraction


# ---------------------------------------------------------------------------
# Minor ladders of the phase-shifted tridiagonal sections
# ---------------------------------------------------------------------------


# triples (a, b, d) with w_j = (a + b*k) / (d * 12**k), k = (j - r)/3, keyed
# by (phase, r = j mod 3): one period's transfer product of an A section has
# the double root 1/12, so each residue class is linear in k over 12**k
_W_COEFF = {
    (0, 0): (1, 3, 1),
    (0, 1): (2, 3, 3),
    (0, 2): (1, 1, 2),
    (1, 0): (1, 3, 1),
    (1, 1): (2, 3, 2),
    (1, 2): (3, 3, 4),
    (2, 0): (1, 3, 1),
    (2, 1): (2, 3, 2),
    (2, 2): (1, 1, 2),
}


def _w_terms(phase: int, j: int) -> tuple[int, int]:
    """w_j at `phase` as an unreduced pair (numerator, denominator > 0),
    with w(-1) = 0; j >= -1 and the phase are not checked here."""
    if j == -1:
        return 0, 1
    k, r = divmod(j, 3)
    a, b, d = _W_COEFF[(phase, r)]
    return a + b * k, d * 12**k


def w_minor(phase: int, j: int) -> Fraction:
    """Order-j leading principal minor of the sum-block section at `phase`.

    The table also gives w(-1) = 0 and w(0) = 1, the conventions that make
    the tridiagonal recurrences and the vertex-deletion splitting formulas
    uniform.
    """
    if phase not in (0, 1, 2):
        raise ValueError(f"no such phase {phase}")
    j = operator.index(j)
    if j < -1:
        raise ValueError("index must be at least -1")
    return F(*_w_terms(phase, j))


# triples (a, b, d) of c = (a + b sqrt(15)) / d with
# q_j = c * x_+**k + conj(c) * x_-**k, k = (j - r)/3 and
# x_+- = (4 +- sqrt(15)) / 12, keyed by (phase, r = j mod 3); with
# x_+-**k = (t_k +- u_k sqrt(15)) / (2 * 12**k) this is
# q_j = (a * t_k + 15 * b * u_k) / (d * 12**k)
_Q_COEFF = {
    (0, 0): (5, 2, 10),
    (0, 1): (60, 17, 90),
    (0, 2): (105, 28, 180),
    (1, 0): (5, 2, 10),
    (1, 1): (10, 3, 20),
    (1, 2): (15, 4, 40),
}


def q_minor(phase: int, j: int) -> Fraction:
    """Order-j leading principal minor of the difference-block section."""
    if phase not in (0, 1):
        raise ValueError(f"no such phase {phase}")
    j = operator.index(j)
    if j < 0:
        raise ValueError("index must be non-negative")
    k, r = divmod(j, 3)
    a, b, d = _Q_COEFF[(phase, r)]
    t, u = unit_power(k)
    return F(a * t + 15 * b * u, d * 12**k)


# ---------------------------------------------------------------------------
# Reciprocal eigenvalue sums and the derived indices
# ---------------------------------------------------------------------------


def sum_recip_alpha(n: int) -> Fraction:
    """Sum of reciprocals of the nonzero sum-block eigenvalues."""
    n = _positive_int(n)
    return F(147 * n * n - 19, 84)


def xi(n: int) -> Fraction:
    """Sum of reciprocals of the difference-block eigenvalues,
    37 n u_n / (2 (t_n + 2))."""
    n = _positive_int(n)
    t, u = unit_power(n)
    return F(37 * n * u, 2 * (t + 2))


def kemeny(n: int) -> Fraction:
    """Kemeny's constant of the random walk on the closed chain."""
    n = _positive_int(n)
    return F(*_kemeny_terms(n, *unit_power(n)))


def dk_index(n: int) -> Fraction:
    """Degree-weighted resistance index sum d_i d_j r_ij over vertex pairs."""
    n = _positive_int(n)
    return F(*_dk_terms(n, *unit_power(n)))


def spanning_trees(n: int) -> int:
    """Number of spanning trees, 3n (t_n + 2) / 2 (t_n is even)."""
    n = _positive_int(n)
    return _tree_terms(n, *unit_power(n))[0]


# the formulas on (n, t_n, u_n), shared by the per-n functions above and by
# the stepped rows of table_terms; each gives an unreduced pair
# (numerator, denominator > 0), so a row that is only rounded takes no gcd


# sum_recip_alpha + xi over one denominator 84 (t + 2), 1554 = 37 * 42
def _kemeny_terms(n: int, t: int, u: int) -> tuple[int, int]:
    return (147 * n * n - 19) * (t + 2) + 1554 * n * u, 84 * (t + 2)


# dk = 14 n * kemeny
def _dk_terms(n: int, t: int, u: int) -> tuple[int, int]:
    p, d = _kemeny_terms(n, t, u)
    return 14 * n * p, d


def _tree_terms(n: int, t: int, u: int) -> tuple[int, int]:
    return 3 * n * (t + 2) // 2, 1


_TABLES = {"dk": _dk_terms, "kemeny": _kemeny_terms, "trees": _tree_terms}


# tree rows step in decimal digits, O(digits) to render, exactly or raising
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[
    decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow])


def table_terms(which: str, start: int, end: int):
    """Unreduced pairs (p, d), d > 0, with p / d the value of ``dk_index``,
    ``kemeny`` or ``spanning_trees`` (`which` is "dk", "kemeny" or "trees";
    d is 1 for trees) for n = start..end, in order, one pair at a time.

    The unit is powered once, for `start`; each later row steps (t_n, u_n)
    by one multiplication along :func:`~octachain.exact_algebra.unit_powers`.
    A tree count p is an integral ``decimal.Decimal``, equal to the int,
    stepped in a context that traps any rounding (``_EXACT``).
    A bad `which` or `start` raises here, not at the first ``next()``.
    """
    if which not in _TABLES:
        raise ValueError(f"no table {which!r}")
    start = _positive_int(start)
    ns = range(start, end + 1)
    if which == "trees":
        return _exact_trees(ns, *unit_power(start))
    terms = _TABLES[which]
    return (terms(n, t, u) for n, (t, u) in zip(ns, unit_powers(start)))


def _exact_trees(ns, t: int, u: int):
    """Each tree pair computed in ``_EXACT``, left before its yield, so the
    caller's decimal context is never changed."""
    steps = _unit_steps(decimal.Decimal(t), decimal.Decimal(u))
    for n in ns:
        with decimal.localcontext(_EXACT):
            row = _tree_terms(n, *next(steps))
        yield row


# ---------------------------------------------------------------------------
# Determinant-level identities for the two blocks
# ---------------------------------------------------------------------------


def det_ls(n: int) -> Fraction:
    """Determinant of the difference block, (t_n + 2) / 12**n."""
    n = _positive_int(n)
    t, _ = unit_power(n)
    return F(t + 2, 12**n)


def coeff_d_3n_minus_1(n: int) -> Fraction:
    """Magnitude of the linear charpoly coefficient of the sum block."""
    n = _positive_int(n)
    return F(21 * n * n, 12**n)


def coeff_d_3n_minus_2(n: int) -> Fraction:
    """Magnitude of the quadratic charpoly coefficient of the sum block."""
    n = _positive_int(n)
    return F(147 * n**4 - 19 * n**2, 4 * 12**n)


def coeff_t_3n_minus_1(n: int) -> Fraction:
    """Magnitude of the linear charpoly coefficient of the difference block,
    37 n u_n / (2 * 12**n)."""
    n = _positive_int(n)
    _, u = unit_power(n)
    return F(37 * n * u, 2 * 12**n)


def minor_det_la(x: int, n: int) -> Fraction:
    """Determinant of the sum block with row and column x removed.

    Deleting position x cuts the cyclic band into a single path whose two
    ends carry the seam coupling; it splits into ladder products with the
    right-hand segment restarting at phase x mod 3.
    """
    n = _positive_int(n)
    x = operator.index(x)
    if not 1 <= x <= 3 * n:
        raise ValueError(f"position {x} outside 1..{3 * n}")
    r = x % 3
    p1, d1 = _w_terms(0, x - 1)
    p2, d2 = _w_terms(r, 3 * n - x)
    p3, d3 = _w_terms(1, x - 2)
    p4, d4 = _w_terms(r, 3 * n - x - 1)
    # w1 w2 - w3 w4 / 6 over the denominator 6 d1 d2 d3 d4
    return F(6 * p1 * p2 * d3 * d4 - p3 * p4 * d1 * d2, 6 * d1 * d2 * d3 * d4)


def minor_det_ls(x: int, n: int) -> Fraction:
    """Determinant of the difference block with row and column x removed."""
    n = _positive_int(n)
    x = operator.index(x)
    if not 1 <= x <= 3 * n:
        raise ValueError(f"position {x} outside 1..{3 * n}")
    _, u = unit_power(n)
    if x % 3 == 1:
        return F(9 * u, 2 * 12**n)
    return F(7 * u, 12**n)


# ---------------------------------------------------------------------------
# Bundled summary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralSummary:
    n: int
    sum_recip_alpha: Fraction
    sum_recip_rho: Fraction
    dk: Fraction
    kemeny: Fraction
    tau: int


def spectral_summary(n: int) -> SpectralSummary:
    """Every index for one n, from one power of the unit: Kemeny's constant
    as in :func:`kemeny`, with xi(n) and dk read from it."""
    n = _positive_int(n)
    t, u = unit_power(n)
    alpha, k = sum_recip_alpha(n), F(*_kemeny_terms(n, t, u))
    return SpectralSummary(
        n=n,
        sum_recip_alpha=alpha,
        sum_recip_rho=k - alpha,
        dk=14 * n * k,
        kemeny=k,
        tau=_tree_terms(n, t, u)[0],
    )
