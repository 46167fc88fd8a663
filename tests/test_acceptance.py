"""End-to-end acceptance gate.

Each test below covers one acceptance criterion, prints a single
``acceptance criterion N (...): PASS|FAIL`` line directly to the terminal
(bypassing capture), and then asserts, so a plain ``pytest -v`` run shows
one verdict line per criterion.
"""

from fractions import Fraction

import pytest

from octachain import cli
from octachain import closed_forms as cf
from octachain import exact_algebra as xa
from octachain import graph_gen as gg
from octachain import laplacian as lap
from octachain import oracles as orc
from octachain import reference_data as ref
from minor_reference import principal_minors
from walk_matrix import dense_fold_block

F = Fraction


def verdict(capsys, num, label, ok, details):
    with capsys.disabled():
        print(f"acceptance criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, "\n".join(details)


def test_criterion_1_spanning_trees(capsys):
    details = []
    for n in range(1, 13):
        closed = cf.spanning_trees(n)
        oracle = orc.spanning_trees_oracle(gg.build_moebius_octagonal(n))
        published = ref.PUBLISHED_TREES[n]
        if not (closed == oracle == published):
            details.append(
                f"n={n}: closed={closed} oracle={oracle} published={published}"
            )
    verdict(capsys, 1, "spanning tree counts", not details, details)


def test_criterion_2_degree_kirchhoff(capsys):
    details = []
    if cf.dk_index(1) != F(1097, 15):
        details.append(f"dk(1)={cf.dk_index(1)} expected 1097/15")
    rendered = xa.frac_to_decimal_str(cf.dk_index(1), 2)
    if rendered != "73.13" or rendered != ref.PUBLISHED_DK[1]:
        details.append(f"dk(1) renders as {rendered!r}")
    informational = []
    for n in range(1, 9):
        g = gg.build_moebius_octagonal(n)
        closed = cf.dk_index(n)
        oracle = orc.dk_oracle(g)
        via_kemeny = 14 * n * orc.kemeny_oracle(g)
        if not (closed == oracle == via_kemeny):
            details.append(
                f"n={n}: closed={closed} oracle={oracle} kemeny-route={via_kemeny}"
            )
        if n >= 2 and xa.frac_to_decimal_str(closed, 2) != ref.PUBLISHED_DK[n]:
            informational.append(n)
    ok = not details
    with capsys.disabled():
        if informational:
            print(
                "acceptance criterion 2 note: published table diverges from the "
                f"verified values for n={informational} (informational only)"
            )
    verdict(capsys, 2, "degree-Kirchhoff index", ok, details)


def test_criterion_3_vieta_ratios(capsys):
    details = []
    for n in range(1, 9):
        pa = orc.charpoly_exact(lap.rational_block_image(n, "A"))
        ps = orc.charpoly_exact(lap.rational_block_image(n, "S"))
        alpha = orc.recip_sum_from_charpoly(pa)
        rho = orc.recip_sum_from_charpoly(ps)
        if cf.sum_recip_alpha(n) != alpha:
            details.append(f"n={n}: sum_recip_alpha {cf.sum_recip_alpha(n)} != {alpha}")
        if cf.xi(n) != rho:
            details.append(f"n={n}: xi {cf.xi(n)} != {rho}")
    verdict(capsys, 3, "reciprocal eigenvalue sums", not details, details)


def test_criterion_4_spectrum_decomposition(capsys):
    details = []
    for n in range(1, 11):
        g = gg.build_moebius_octagonal(n)
        full = orc.eigenvalues_symmetric(lap.normalized_laplacian(g))
        union = sorted(
            v
            for family in "AS"
            for v in orc.eigenvalues_symmetric(dense_fold_block(n, family))
        )
        worst = max(abs(a - b) for a, b in zip(full, union))
        if len(full) != len(union) or worst > 1e-8:
            details.append(f"n={n}: eigenvalue union deviates by {worst}")
    verdict(capsys, 4, "block spectrum union", not details, details)


def test_criterion_5_minor_ladders(capsys):
    details = []
    for n in range(1, 9):
        m = 3 * n
        for phase in (0, 1, 2):
            sections = [range(phase, phase + j) for j in range(1, m + 1)]
            minors = principal_minors(lap.rational_block_image(n + 1, "A"), sections)
            want = [cf.w_minor(phase, j) for j in range(1, m + 1)]
            if minors != want:
                details.append(f"n={n}: w ladder mismatch in phase {phase}")
        for phase in (0, 1):
            sections = [range(phase, phase + j) for j in range(1, m + 1)]
            minors = principal_minors(lap.rational_block_image(n + 1, "S"), sections)
            want = [cf.q_minor(phase, j) for j in range(1, m + 1)]
            if minors != want:
                details.append(f"n={n}: q ladder mismatch in phase {phase}")

        pa = orc.charpoly_exact(lap.rational_block_image(n, "A"))
        ps = orc.charpoly_exact(lap.rational_block_image(n, "S"))
        sum_la = sum(cf.minor_det_la(x, n) for x in range(1, m + 1))
        sum_ls = sum(cf.minor_det_ls(x, n) for x in range(1, m + 1))
        twelfth = F(1, 12) ** n
        if sum_la != 21 * n * n * twelfth:
            details.append(f"n={n}: deleted-minor sum (A) {sum_la}")
        if sum_la != cf.coeff_d_3n_minus_1(n) or pa[1] != (-1) ** (m - 1) * sum_la:
            details.append(f"n={n}: linear coefficient (A) mismatch")
        z2 = F(147 * n**4 - 19 * n**2, 4) * twelfth
        if cf.coeff_d_3n_minus_2(n) != z2 or pa[2] != (-1) ** (m - 2) * z2:
            details.append(f"n={n}: quadratic coefficient (A) mismatch")
        if sum_ls != cf.coeff_t_3n_minus_1(n) or ps[1] != (-1) ** (m - 1) * sum_ls:
            details.append(f"n={n}: linear coefficient (S) mismatch")
        det_want = F(xa.unit_power(n)[0] + 2, 12**n)
        if cf.det_ls(n) != det_want or ps[0] != (-1) ** m * det_want:
            details.append(f"n={n}: determinant (S) mismatch")
    verdict(capsys, 5, "minor ladders and coefficients", not details, details)


def test_criterion_6_kemeny(capsys):
    details = []
    for n in range(1, 9):
        closed = cf.kemeny(n)
        oracle = orc.kemeny_oracle(gg.build_moebius_octagonal(n))
        if closed != oracle:
            details.append(f"n={n}: kemeny {closed} != oracle {oracle}")
    verdict(capsys, 6, "Kemeny constant", not details, details)


def test_criterion_7_structure(capsys):
    details = []
    for n in range(1, 11):
        g = gg.build_moebius_octagonal(n)
        if gg.degree_product(g) != 2 ** (4 * n) * 3 ** (2 * n):
            details.append(f"n={n}: degree product wrong")
        flag, cert = gg.is_bipartite(g)
        if flag != (n % 2 == 1):
            details.append(f"n={n}: bipartite flag {flag}")
        edge_set = set(g.edges)
        if flag:
            bad = [
                e
                for e in g.edges
                if cert[e[0]] == cert[e[1]]
            ]
            if bad:
                details.append(f"n={n}: colouring violates edges {bad[:3]}")
        else:
            if len(cert) % 2 == 0:
                details.append(f"n={n}: certificate cycle has even length")
            for i, a in enumerate(cert):
                b = cert[(i + 1) % len(cert)]
                if tuple(sorted((a, b))) not in edge_set:
                    details.append(f"n={n}: certificate step {(a, b)} not an edge")
                    break
        lam_max = orc.eigenvalues_symmetric(lap.normalized_laplacian(g))[-1]
        if flag and abs(lam_max - 2) > 1e-8:
            details.append(f"n={n}: bipartite but max eigenvalue {lam_max}")
        if not flag and lam_max > 2 - 1e-8:
            details.append(f"n={n}: non-bipartite but max eigenvalue {lam_max}")
    verdict(capsys, 7, "degrees, bipartiteness, spectral edge", not details, details)


def test_criterion_8_cli_gate(capsys, monkeypatch):
    details = []
    code = cli.main(["verify", "--n-max", "6"])
    if code != 0:
        details.append(f"verify --n-max 6 exited {code}")

    with monkeypatch.context() as patch:
        patch.setitem(ref.PUBLISHED_TREES, 2, 191)
        mutated = cli.main(["verify", "--n-max", "2"])
        if mutated != 1:
            details.append(f"mutated fixture exited {mutated}, expected 1")

    try:
        cli.main(["graph", "--n", "0"])
        details.append("graph --n 0 did not exit")
    except SystemExit as exc:
        if exc.code != 2:
            details.append(f"graph --n 0 exited {exc.code}, expected 2")
    capsys.readouterr()
    verdict(capsys, 8, "command-line gate", not details, details)
