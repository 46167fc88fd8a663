"""Cross-checking layer: every closed form against an independent route.

``run_verification`` replays, for each chain size up to ``n_max``, the whole
chain of identities this package claims: minor ladders and vertex-deleted
minors against exact principal minors of the block images, coefficient sums
and the difference-block determinant against characteristic polynomials,
reciprocal eigenvalue sums against Vieta ratios, tree counts and resistance
indices against brute-force oracles, the Bloch spectra of the two fold
blocks, the route ``spectrum`` prints, against the dense spectrum of Q_n,
and the computed values against the published tables.

The suite is the table ``_CHECKS`` of named checks.  Each check reads a
per-``n`` context, ``_Chain``, whose shared artifacts (the graph, the rational
block images of Q_n and the three ("A") or two ("S") lowest coefficients of
their characteristic polynomials, the bipartition, the Kemeny oracle value,
the full spectrum) are built on first use and then reused, and returns the
fields of its :class:`CheckResult`.  Each block image is read once into
sparse rows, and the phase sections of Q_n are sparse slices of the images
of Q_(n+1), read from ``next``, the context ``run_verification`` steps to,
so each image is built once.  Each minor ladder is one
:func:`~octachain.exact_algebra.leading_minors` sweep over a section, each
family of vertex-deleted minors one
:func:`~octachain.exact_algebra.deleted_minors` sweep over a block image, and
each published row one :func:`~octachain.reference_data.table_rows` row.
Vector checks report their first three mismatches with both values.

Checks against the published degree-weighted-resistance table are marked
``informational`` for n >= 2: those rows are known not to match the closed
form, while both independent oracles *do* match it, so a mismatch there must
not fail verification (and is still reported).

Collaborators are always reached through their modules at call time
(``cf.dk_index`` and so on), which keeps the layer honest under fixture
mutation: patching a single closed form or table entry is guaranteed to flip
a check.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

from . import closed_forms as cf
from . import exact_algebra as xa
from . import graph_gen as gg
from . import laplacian as lap
from . import oracles as orc
from . import reference_data as ref

_EIGEN_TOL = 1e-8  # absolute tolerance of the numeric spectrum checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    n: int
    expected: str
    actual: str
    mode: str  # "exact" or "numeric"
    tolerance: float | None
    passed: bool
    informational: bool = False
    note: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    checks: list[CheckResult]
    summary: dict


class _Chain:
    """The artifacts of one chain size, each built on first use and shared."""

    def __init__(self, n: int):
        self.n = n
        self.m = 3 * n

    @cached_property
    def graph(self):
        return gg.build_moebius_octagonal(self.n)

    @cached_property
    def image(self) -> dict[str, list[dict[int, Fraction]]]:
        """The block images of Q_n, by family, each read once into
        ``{column: entry}`` rows of its nonzeros, which every exact kernel
        and section then reads in O(nonzeros)."""
        return {
            f: xa._read_rows(lap.rational_block_image(self.n, f), xa._as_fraction)
            for f in "AS"
        }

    @cached_property
    def next(self) -> "_Chain":
        """The chain one size up: the order-j section at `phase` is the
        index range [phase, phase + j) of its block images, for j <= 3n."""
        return _Chain(self.n + 1)

    @cached_property
    def pa(self) -> list[Fraction]:
        return orc.charpoly_exact(self.image["A"], terms=3)

    @cached_property
    def ps(self) -> list[Fraction]:
        # its readers need c0 and c1 only
        return orc.charpoly_exact(self.image["S"], terms=2)

    @cached_property
    def bipartite(self) -> tuple[bool, list[int]]:
        return gg.is_bipartite(self.graph)

    @cached_property
    def spectrum(self) -> list[float]:
        return orc.eigenvalues_symmetric(lap.normalized_laplacian(self.graph))


# A check maps a _Chain to the CheckResult fields after name and n, or to
# None where it does not apply; "mode" and "tolerance" default to exact.


def _exact(expected, actual, render=xa.frac_to_str) -> dict:
    return {
        "expected": render(expected),
        "actual": render(actual),
        "passed": bool(expected == actual),
    }


def _ladder(label: str, m: int, expected, actual) -> dict:
    """Compare expected(i) with actual(i) for i = 1..m; the first three
    mismatches are reported with both values."""
    bad = []
    for i in range(1, m + 1):
        want, got = expected(i), actual(i)
        if want != got:
            bad.append(
                f"{label}={i}: expected {xa.frac_to_str(want)}, "
                f"got {xa.frac_to_str(got)}"
            )
    return {
        "expected": "match",
        "actual": "; ".join(bad[:3]) or "match",
        "passed": not bad,
    }


def _leading_minors(c: _Chain, closed, family: str, phase: int) -> dict:
    end = phase + c.m
    section = [
        {j - phase: x for j, x in row.items() if phase <= j < end}
        for row in c.next.image[family][phase:end]
    ]
    minors = xa.leading_minors(section)
    return _ladder("j", c.m, lambda j: closed(phase, j), lambda j: minors[j - 1])


def _deleted_minors(c: _Chain, closed, family: str) -> dict:
    minors = xa.deleted_minors(c.image[family])
    return _ladder("x", c.m, lambda x: closed(x, c.n), lambda x: minors[x - 1])


def _minor_sum(c: _Chain, closed, minor) -> dict:
    return _exact(closed(c.n), sum(minor(x, c.n) for x in range(1, c.m + 1)))


def _coeff(order: int, poly: list[Fraction], k: int, magnitude: Fraction) -> dict:
    """det(zI - M) has z**k coefficient (-1)**(order - k) * magnitude."""
    return _exact((-1) ** (order - k) * magnitude, poly[k])


def _bipartite_parity(c: _Chain) -> dict:
    g = c.graph
    flag, cert = c.bipartite
    edge_set = set(g.edges)
    if flag:
        cert_ok = len(cert) == g.vertex_count and all(
            cert[a] != cert[b] for a, b in g.edges
        )
    else:
        cert_ok = len(cert) % 2 == 1 and all(
            tuple(sorted((cert[i], cert[(i + 1) % len(cert)]))) in edge_set
            for i in range(len(cert))
        )
    return {
        "expected": f"bipartite={c.n % 2 == 1}, certificate valid",
        "actual": f"bipartite={flag}, certificate {'valid' if cert_ok else 'INVALID'}",
        "passed": flag == (c.n % 2 == 1) and cert_ok,
    }


def _block_spectrum_union(c: _Chain) -> dict:
    union = sorted(
        v
        for family in "AS"
        for v in orc.bloch_eigenvalues(*lap.block_cells(family), c.n)
    )
    worst = max(abs(a - b) for a, b in zip(c.spectrum, union))
    return {
        "expected": f"gap <= {_EIGEN_TOL:g}",
        "actual": f"gap {worst:.3e}",
        "mode": "numeric",
        "tolerance": _EIGEN_TOL,
        "passed": len(c.spectrum) == len(union) and worst <= _EIGEN_TOL,
    }


def _lambda_max_bipartite(c: _Chain) -> dict:
    lam_max = c.spectrum[-1]
    if c.bipartite[0]:
        passed = abs(lam_max - 2.0) <= _EIGEN_TOL
        expected = "max eigenvalue == 2 (bipartite)"
    else:
        passed = lam_max < 2.0 - _EIGEN_TOL
        expected = "max eigenvalue < 2 (not bipartite)"
    return {
        "expected": expected,
        "actual": f"max eigenvalue {lam_max:.12f}",
        "mode": "numeric",
        "tolerance": _EIGEN_TOL,
        "passed": passed,
    }


def _published(c: _Chain, which: str) -> dict:
    r = next(ref.table_rows(which, c.n, c.n, compare=True))
    return {"expected": r["published"], "actual": r["value"], "passed": r["match"]}


# Every printed dk row rounds from 14n * sum(1/alpha) + 14 xi, not from the
# true index 14n * (sum(1/alpha) + xi); the two agree only at n = 1, so the
# later rows are informational (tests/test_reference_data.py pins both).
def _published_dk(c: _Chain) -> dict | None:
    if c.n not in ref.PUBLISHED_DK:
        return None
    return _published(c, "dk") | {
        "informational": c.n >= 2,
        "note": (
            None
            if c.n == 1
            else "published row known to diverge; both oracles "
            "confirm the computed value"
        ),
    }


def _published_trees(c: _Chain) -> dict | None:
    if c.n not in ref.PUBLISHED_TREES:
        return None
    return _published(c, "trees") | {"note": ref.TREE_NORMALIZATION_NOTES.get(c.n)}


_CHECKS: list[tuple[str, Callable[[_Chain], dict | None]]] = [
    # structure
    ("bipartite_parity", _bipartite_parity),
    (
        "degree_product",
        lambda c: _exact(
            2 ** (4 * c.n) * 3 ** (2 * c.n), gg.degree_product(c.graph), str
        ),
    ),
    # minor ladders
    ("w_minors_phase0", lambda c: _leading_minors(c, cf.w_minor, "A", 0)),
    ("w_minors_phase1", lambda c: _leading_minors(c, cf.w_minor, "A", 1)),
    ("w_minors_phase2", lambda c: _leading_minors(c, cf.w_minor, "A", 2)),
    ("q_minors_phase0", lambda c: _leading_minors(c, cf.q_minor, "S", 0)),
    ("q_minors_phase1", lambda c: _leading_minors(c, cf.q_minor, "S", 1)),
    # vertex-deleted determinants
    ("la_deleted_minors", lambda c: _deleted_minors(c, cf.minor_det_la, "A")),
    ("ls_deleted_minors", lambda c: _deleted_minors(c, cf.minor_det_ls, "S")),
    ("la_minor_sum", lambda c: _minor_sum(c, cf.coeff_d_3n_minus_1, cf.minor_det_la)),
    ("ls_minor_sum", lambda c: _minor_sum(c, cf.coeff_t_3n_minus_1, cf.minor_det_ls)),
    # characteristic polynomial coefficients
    ("la_coeff_z1", lambda c: _coeff(c.m, c.pa, 1, cf.coeff_d_3n_minus_1(c.n))),
    ("la_coeff_z2", lambda c: _coeff(c.m, c.pa, 2, cf.coeff_d_3n_minus_2(c.n))),
    ("ls_coeff_z1", lambda c: _coeff(c.m, c.ps, 1, cf.coeff_t_3n_minus_1(c.n))),
    # det(zI - M) at z = 0 is det(-M)
    ("ls_determinant", lambda c: _exact(cf.det_ls(c.n), (-1) ** c.m * c.ps[0])),
    # reciprocal sums and walk indices
    (
        "recip_alpha_vieta",
        lambda c: _exact(cf.sum_recip_alpha(c.n), orc.recip_sum_from_charpoly(c.pa)),
    ),
    ("xi_vieta", lambda c: _exact(cf.xi(c.n), orc.recip_sum_from_charpoly(c.ps))),
    (
        "kemeny_oracle_match",
        lambda c: _exact(cf.kemeny(c.n), orc.kemeny_oracle(c.graph)),
    ),
    (
        "dk_charpoly_route",  # 14n K, K the Vieta sums of both block spectra
        lambda c: _exact(
            cf.dk_index(c.n),
            14 * c.n * sum(map(orc.recip_sum_from_charpoly, (c.pa, c.ps))),
        ),
    ),
    (
        "dk_resistance_route",
        lambda c: _exact(cf.dk_index(c.n), orc.dk_oracle(c.graph)),
    ),
    (
        "tree_count_oracle",
        lambda c: _exact(
            cf.spanning_trees(c.n), orc.spanning_trees_oracle(c.graph), str
        ),
    ),
    # numeric spectrum
    ("block_spectrum_union", _block_spectrum_union),
    ("lambda_max_bipartite", _lambda_max_bipartite),
    # published tables
    ("published_dk", _published_dk),
    ("published_trees", _published_trees),
]


def run_verification(n_max: int) -> VerificationReport:
    n_max = xa._positive_int(n_max, "n_max")
    checks: list[CheckResult] = []
    chain = _Chain(1)  # each size shares its block images with the size below
    while chain.n <= n_max:
        for name, check in _CHECKS:
            fields = check(chain)
            if fields is not None:
                fields = {"mode": "exact", "tolerance": None} | fields
                checks.append(CheckResult(name=name, n=chain.n, **fields))
        chain = chain.next

    checks.sort(key=lambda c: (c.name, c.n))
    failed = sum(1 for c in checks if not c.passed and not c.informational)
    summary = {
        "total": len(checks),
        "passed": sum(1 for c in checks if c.passed),
        "failed": failed,
        "informational": sum(1 for c in checks if c.informational),
    }
    return VerificationReport(checks=checks, summary=summary)


def report_to_json(report: VerificationReport) -> str:
    checks = [asdict(c) for c in report.checks]
    return json.dumps({"checks": checks, "summary": dict(report.summary)}, indent=2)
