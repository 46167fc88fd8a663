import math
from fractions import Fraction

import numpy as np
import pytest

from octachain import graph_gen as gg
from octachain import laplacian as lap
from octachain import oracles as orc
from octachain import verification as ver
from minor_reference import principal_minors
from walk_matrix import dense_fold_block, rational_walk_laplacian

F = Fraction
S6 = 1.0 / math.sqrt(6.0)


def test_combinatorial_laplacian_q1():
    g = gg.build_moebius_octagonal(1)
    L = lap.combinatorial_laplacian(g)
    assert [L[i][i] for i in range(6)] == [3, 2, 2, 3, 2, 2]
    assert all(sum(row) == 0 for row in L)
    assert L[0][1] == -1 and L[0][2] == 0


def test_laplacian_row_sums_and_rank():
    for n in range(1, 6):
        g = gg.build_moebius_octagonal(n)
        L = lap.combinatorial_laplacian(g)
        assert all(sum(row) == 0 for row in L)
        assert np.linalg.matrix_rank(np.array(L, dtype=float)) == 6 * n - 1


def test_normalized_laplacian_entries():
    g = gg.build_moebius_octagonal(1)
    M = np.array(lap.normalized_laplacian(g))
    assert M[0, 1] == pytest.approx(-S6, abs=1e-15)
    assert M[1, 2] == pytest.approx(-0.5, abs=1e-15)
    assert M[1, 4] == 0.0
    for n in range(1, 11):
        M = np.array(lap.normalized_laplacian(gg.build_moebius_octagonal(n)))
        assert np.trace(M) == pytest.approx(6 * n, abs=1e-12)
        assert np.max(np.abs(M - M.T)) == 0.0


def test_normalized_laplacian_rejects_isolated_vertex():
    g = (7, ((0, 1), (0, 3), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)))
    with pytest.raises(ValueError):
        lap.normalized_laplacian(g)
    # D - A needs no inverse degree: the isolated vertex is a zero row
    assert lap.combinatorial_laplacian(g)[6] == [0] * 7


def test_empty_graph_gives_the_empty_matrix():
    assert lap.normalized_laplacian((0, ())) == []
    assert lap.combinatorial_laplacian((0, ())) == []


def test_walk_laplacian():
    g = gg.build_moebius_octagonal(1)
    W = rational_walk_laplacian(g)
    assert W[0][0] == 1
    assert W[0][1] == W[0][3] == W[0][5] == F(-1, 3)
    for n in range(1, 9):
        W = rational_walk_laplacian(gg.build_moebius_octagonal(n))
        assert all(sum(row) == 0 for row in W)


def test_walk_charpoly_matches_numeric_spectrum():
    # the walk matrix is a similarity image, so its characteristic
    # polynomial must agree with the one read off the numeric spectrum
    for n in (1, 2):
        g = gg.build_moebius_octagonal(n)
        coeffs = orc.charpoly_exact(rational_walk_laplacian(g))
        eig = orc.eigenvalues_symmetric(lap.normalized_laplacian(g))
        from_eig = np.poly(np.array(eig))[::-1]  # ascending
        for k, c in enumerate(coeffs):
            assert float(c) == pytest.approx(from_eig[k], abs=1e-9)


def test_fold_block_golden_n1():
    la_expected = [[2 / 3, -S6, -S6], [-S6, 1, -0.5], [-S6, -0.5, 1]]
    ls_expected = [[4 / 3, -S6, S6], [-S6, 1, -0.5], [S6, -0.5, 1]]
    for family, expected in (("A", la_expected), ("S", ls_expected)):
        assert np.allclose(dense_fold_block(1, family), expected, atol=1e-14)
        # at n = 1 the one cell meets itself across the seam on both sides
        b0, b1, sign = (np.array(c) for c in lap.block_cells(family))
        assert np.allclose(b0 + sign * (b1 + b1.T), expected, atol=1e-15)


def test_a_returned_block_is_the_callers_own():
    block = lap.rational_block_image(2, "A")
    block[0][0] = F(9)
    assert lap.rational_block_image(2, "A")[0][0] == F(2, 3)


def test_fold_block_structure():
    for n in range(1, 9):
        la = np.array(dense_fold_block(n, "A"))
        ls = np.array(dense_fold_block(n, "S"))
        m = 3 * n
        # the top-vertex pieces [[X, Y], [Y, X]] of the unfolded matrix
        x, y = (la + ls) / 2, (la - ls) / 2
        assert x.shape == y.shape == (m, m)
        assert np.array_equal(la, x + y)
        assert np.array_equal(ls, x - y)
        assert np.max(np.abs(y - y.T)) == 0.0
        # rung couplings sit on the diagonal at chain positions 1 mod 3
        for j in range(m):
            expected = -1 / 3 if j % 3 == 0 else 0.0
            assert y[j, j] == pytest.approx(expected, abs=1e-15)
        assert y[0, m - 1] == pytest.approx(-S6, abs=1e-15)


def test_float_blocks_are_the_rational_images_conjugated():
    # block = D^(-1/2) R D^(1/2), R the exact image of the same fold
    for n in range(1, 9):
        root = np.sqrt(np.array(gg.build_moebius_octagonal(n).degrees[: 3 * n]))
        for family in "AS":
            block = np.array(dense_fold_block(n, family))
            image = np.array(lap.rational_block_image(n, family), dtype=float)
            conjugated = image * root[np.newaxis, :] / root[:, np.newaxis]
            assert np.max(np.abs(block - conjugated)) <= 1e-15


def test_la_zero_mode():
    for n in range(1, 9):
        la = np.array(dense_fold_block(n, "A"))
        d = np.array([3.0 if j % 3 == 0 else 2.0 for j in range(3 * n)])
        w = np.sqrt(d)
        assert np.max(np.abs(la @ w)) < 1e-12


def test_mirror_fold_block_diagonalizes():
    # conjugating by U = [[I, I], [I, -I]] / sqrt(2) leaves diag(l_a, l_s)
    for n in range(1, 7):
        m = 3 * n
        full = np.array(lap.normalized_laplacian(gg.build_moebius_octagonal(n)))
        eye = np.eye(m)
        u = np.block([[eye, eye], [eye, -eye]]) / math.sqrt(2.0)
        folded = u @ full @ u.T
        la = np.array(dense_fold_block(n, "A"))
        ls = np.array(dense_fold_block(n, "S"))
        assert np.max(np.abs(folded[:m, m:])) <= 1e-8
        assert np.max(np.abs(folded[m:, :m])) <= 1e-8
        assert np.max(np.abs(folded[:m, :m] - la)) <= 1e-8
        assert np.max(np.abs(folded[m:, m:] - ls)) <= 1e-8


def phase_tridiagonal(family, phase, m):
    """Float order-m section of a normalized block, started at `phase`: the
    rung coupling 2/3 (A) or 4/3 (S) on the diagonal at positions 1 mod 3,
    bond -1/2 below positions 2 mod 3 and -1/sqrt(6) elsewhere."""
    out = np.eye(m)
    for i in range(1, m + 1):
        pos = i + phase
        if pos % 3 == 1:
            out[i - 1, i - 1] = {"A": 2 / 3, "S": 4 / 3}[family]
        if i < m:
            out[i - 1, i] = out[i, i - 1] = -0.5 if pos % 3 == 2 else -S6
    return out


def test_phase_tridiagonal_golden():
    m = phase_tridiagonal("A", 0, 3)
    assert np.allclose(m, [[2 / 3, -S6, 0], [-S6, 1, -0.5], [0, -0.5, 1]])
    assert phase_tridiagonal("A", 1, 2).tolist() == [[1, -0.5], [-0.5, 1]]


def section_minors(family, phase, m):
    """Leading minors of the order-m block section at chain offset `phase`:
    index ranges [phase, phase + j) of the image of the shortest chain whose
    seam corners lie outside them."""
    image = lap.rational_block_image((phase + m) // 3 + 1, family)
    sections = [range(phase, phase + j) for j in range(1, m + 1)]
    return principal_minors(image, sections)


def test_phase_image_minors_golden():
    mins_a0 = section_minors("A", 0, 6)
    assert mins_a0 == [F(2, 3), F(1, 2), F(1, 3), F(5, 36), F(1, 12), F(7, 144)]
    mins_s0 = section_minors("S", 0, 5)
    assert mins_s0 == [F(4, 3), F(7, 6), F(5, 6), F(11, 12), F(7, 9)]
    assert section_minors("A", 1, 2)[-1] == F(3, 4)
    assert section_minors("S", 0, 3)[-1] == F(5, 6)


def test_phase_validity():
    with pytest.raises(ValueError):  # a section past the end of the image
        principal_minors(lap.rational_block_image(1, "S"), [range(2, 4)])
    with pytest.raises(ValueError):
        lap.rational_block_image(0, "S")
    with pytest.raises(ValueError, match="unknown block family"):
        lap.rational_block_image(2, "B")
    with pytest.raises(ValueError, match="unknown block family"):
        lap.block_cells("B")


def test_rational_images_match_numeric_minors():
    # diagonal similarity keeps every leading principal minor, so the
    # exact minors must line up with numeric determinants of the floats
    leading = [range(k) for k in range(1, 10)]
    cases = [
        (section_minors("A", 0, 12), phase_tridiagonal("A", 0, 12)),
        (section_minors("S", 1, 12), phase_tridiagonal("S", 1, 12)),
        (
            principal_minors(lap.rational_block_image(3, "A"), leading),
            dense_fold_block(3, "A"),
        ),
        (
            principal_minors(lap.rational_block_image(3, "S"), leading),
            dense_fold_block(3, "S"),
        ),
    ]
    for exact, sym in cases:
        for k in range(1, len(exact) + 1):
            num = np.linalg.det(np.asarray(sym)[:k, :k])
            assert float(exact[k - 1]) == pytest.approx(num, abs=1e-9)


def test_block_image_is_the_folded_walk_matrix_transposed():
    for n in range(1, 7):
        g = gg.build_moebius_octagonal(n)
        walk = rational_walk_laplacian(g)
        mirror = gg.mirror_automorphism(g)
        m = 3 * n
        for family, sign in (("A", 1), ("S", -1)):
            folded = [
                [walk[j][i] + sign * walk[mirror[j]][i] for j in range(m)]
                for i in range(m)
            ]
            assert lap.rational_block_image(n, family) == folded


def test_block_images_follow_the_graph(monkeypatch):
    # drop the rung u_4 -- v_4 (vertices 3 and 3n + 3); the graph stays
    # mirror-symmetric, so every fold still applies, but the images, the
    # phase sections and the checks that read them must all see the change
    build = gg.build_moebius_octagonal

    def without_rung(n):
        g = build(n)
        edges = tuple(e for e in g.edges if e != (3, 3 * n + 3))
        return gg.ChainGraph(gg.MOEBIUS, n, g.vertex_count, edges)

    intact = lap.rational_block_image(2, "S")
    monkeypatch.setattr(lap, "build_moebius_octagonal", without_rung)
    cut = lap.rational_block_image(2, "S")
    assert intact[3][3] == F(4, 3) and cut[3][3] == 1
    assert [row[:3] + row[4:] for row in cut[:3] + cut[4:]] == [
        row[:3] + row[4:] for row in intact[:3] + intact[4:]
    ]
    failed = {c.name for c in ver.run_verification(2).checks if not c.passed}
    assert "ls_determinant" in failed
    assert any("_minors_phase" in name for name in failed)


def test_ls_positive_definite():
    for n in range(1, 11):
        eig = orc.eigenvalues_symmetric(dense_fold_block(n, "S"))
        assert eig[0] > 1e-6


def test_full_spectrum_shape():
    for n in range(1, 11):
        g = gg.build_moebius_octagonal(n)
        eig = orc.eigenvalues_symmetric(lap.normalized_laplacian(g))
        assert eig[0] == pytest.approx(0.0, abs=1e-9)
        assert eig[1] > 1e-6  # zero eigenvalue is simple
        assert eig[-1] <= 2.0 + 1e-9
        bip, _ = gg.is_bipartite(g)
        if bip:
            assert eig[-1] == pytest.approx(2.0, abs=1e-8)
        else:
            assert eig[-1] < 2.0 - 1e-8


def test_decomposition_check():
    for n in [*range(1, 11), 100]:  # n = 100 is a 600 x 600 full matrix
        g = gg.build_moebius_octagonal(n)
        full = orc.eigenvalues_symmetric(lap.normalized_laplacian(g))
        union = sorted(
            v for f in "AS" for v in orc.eigenvalues_symmetric(dense_fold_block(n, f))
        )
        assert len(full) == len(union)
        assert max(abs(x - y) for x, y in zip(full, union)) <= 1e-8


def test_block_trace_identity():
    for n in range(1, 11):
        la, ls = dense_fold_block(n, "A"), dense_fold_block(n, "S")
        total = np.trace(la) + np.trace(ls)
        assert total == pytest.approx(6 * n, abs=1e-9)


def test_a_built_chain_is_mirror_checked_once(monkeypatch):
    calls = []
    check = gg.mirror_automorphism

    def counted(g):
        calls.append(g.n)
        return check(g)

    monkeypatch.setattr(gg, "mirror_automorphism", counted)
    monkeypatch.setattr(lap, "mirror_automorphism", counted, raising=False)
    gg.build_moebius_octagonal.cache_clear()
    gg.build_moebius_octagonal(7)
    assert calls == [7]
    for family in "AS":
        lap.rational_block_image(7, family)
    assert calls == [7]


def test_build_refuses_a_chain_the_mirror_does_not_preserve(monkeypatch):
    # move the rung u_4 -- v_4 to u_4 -- v_5: the edge count stays 7n
    fold = gg.fold_linear_ends

    def skewed(g):
        q = fold(g)
        m = 3 * q.n
        edges = [(3, m + 4) if e == (3, m + 3) else e for e in q.edges]
        return gg.ChainGraph(gg.MOEBIUS, q.n, q.vertex_count, tuple(sorted(edges)))

    monkeypatch.setattr(gg, "fold_linear_ends", skewed)
    gg.build_moebius_octagonal.cache_clear()
    with pytest.raises(gg.ConstructionError, match="mirror"):
        gg.build_moebius_octagonal(3)
    gg.build_moebius_octagonal.cache_clear()
