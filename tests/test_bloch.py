from fractions import Fraction

import numpy as np
import pytest

from octachain import graph_gen as gg
from octachain import laplacian as lap
from octachain import oracles as orc
from walk_matrix import dense_fold_block


@pytest.mark.parametrize("family", "AS")
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 40, 200])
def test_bloch_spectrum_matches_the_dense_block(n, family):
    bloch = orc.bloch_eigenvalues(*lap.block_cells(family), n)
    dense = orc.eigenvalues_symmetric(dense_fold_block(n, family))
    assert len(bloch) == len(dense) == 3 * n
    assert bloch == sorted(bloch)
    assert max(abs(a - b) for a, b in zip(bloch, dense)) <= 1e-12


def _dense_block_circulant(b0, b1, sign, n):
    # cell r couples forward to cell r + 1; the coupling from the last cell
    # back to the first carries the seam sign, and n = 1 or 2 add up cells
    d = len(b0)
    m = np.zeros((d * n, d * n))
    for r in range(n):
        c = (r + 1) % n
        s = sign if c == 0 else 1
        m[r * d : (r + 1) * d, r * d : (r + 1) * d] += b0
        m[r * d : (r + 1) * d, c * d : (c + 1) * d] += s * b1
        m[c * d : (c + 1) * d, r * d : (r + 1) * d] += s * b1.T
    return m


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bloch_eigenvalues_of_random_cells(d, sign):
    rng = np.random.default_rng(100 * d + sign)
    for n in (1, 2, 3, 4, 7, 12):
        a = rng.standard_normal((d, d))
        b0, b1 = a + a.T, rng.standard_normal((d, d))
        want = np.linalg.eigvalsh(_dense_block_circulant(b0, b1, sign, n))
        got = orc.bloch_eigenvalues(b0.tolist(), b1.tolist(), sign, n)
        assert len(got) == d * n
        assert got == sorted(got)
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * scale


def test_bloch_eigenvalues_of_empty_cells():
    assert orc.bloch_eigenvalues([], [], 1, 3) == []


@pytest.mark.parametrize(
    "b0, b1, sign, n",
    [
        ([[1.0, 2.0]], [[0.0, 0.0]], 1, 3),  # b0 not square
        ([[1.0, 2.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]], 1, 3),  # asymmetric
        ([[1.0]], [[1.0, 0.0], [0.0, 1.0]], 1, 3),  # shapes differ
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]], -1, 3),  # b1 not square
        ([[1.0]], [[float("nan")]], 1, 3),  # b1 not finite
        ([[float("inf")]], [[0.0]], 1, 3),  # b0 not finite
        ([[1.0]], [[0.5]], 1, 0),  # no cells
        ([[1.0]], [[0.5]], 0, 3),  # not a seam sign
        ([[1.0]], [[0.5]], 2, 3),
    ],
)
def test_bloch_eigenvalues_rejects_bad_input(b0, b1, sign, n):
    with pytest.raises(ValueError):
        orc.bloch_eigenvalues(b0, b1, sign, n)


def test_block_cells_are_cached_tuples():
    assert callable(lap.block_cells.cache_clear)
    for family, sign in (("A", 1), ("S", -1)):
        b0, b1, seam = lap.block_cells(family)
        assert seam == sign
        for cell in (b0, b1):
            assert isinstance(cell, tuple) and len(cell) == 3
            assert all(isinstance(row, tuple) and len(row) == 3 for row in cell)
        assert lap.block_cells(family)[0] is b0


def test_block_cells_refuse_any_perturbed_entry(monkeypatch):
    # every entry of the exact 9 x 9 image lies in a cell that has to equal
    # another cell, so changing any one of them breaks the structure
    image = lap.rational_block_image
    position = None

    def perturbed(n, family):
        m = image(n, family)
        i, j = position
        m[i][j] += Fraction(1, 10**30)
        return m

    monkeypatch.setattr(lap, "rational_block_image", perturbed)
    for family in "AS":
        for position in [(i, j) for i in range(9) for j in range(9)]:
            lap.block_cells.cache_clear()
            with pytest.raises(gg.ConstructionError, match="block-circulant"):
                lap.block_cells(family)
    lap.block_cells.cache_clear()


def test_block_cells_check_the_seam_sign(monkeypatch):
    # each image with the other family's seam sign: its two seam cells negated
    image = lap.rational_block_image

    def flipped(n, family):
        m = image(n, family)
        for i in range(6, 9):
            for j in range(3):
                m[i][j], m[j][i] = -m[i][j], -m[j][i]
        return m

    monkeypatch.setattr(lap, "rational_block_image", flipped)
    for family in "AS":
        lap.block_cells.cache_clear()
        with pytest.raises(gg.ConstructionError, match="seam sign"):
            lap.block_cells(family)
    lap.block_cells.cache_clear()


@pytest.mark.parametrize(
    "entry, value",
    [
        ((0, 1), lambda x: -x),  # R_01 R_10 < 0
        ((0, 2), lambda x: x + 1),  # R_02 != 0 while R_20 == 0
    ],
)
def test_block_cells_need_an_image_similar_to_a_symmetric_block(
    monkeypatch, entry, value
):
    # the same change in all three diagonal cells keeps the image
    # block-circulant, but no positive diagonal E makes E^(-1) R E symmetric
    image = lap.rational_block_image

    def skewed(n, family):
        m = image(n, family)
        i, j = entry
        for r in (0, 3, 6):
            m[r + i][r + j] = value(m[r + i][r + j])
        return m

    monkeypatch.setattr(lap, "rational_block_image", skewed)
    for family in "AS":
        lap.block_cells.cache_clear()
        with pytest.raises(gg.ConstructionError, match="symmetrizable"):
            lap.block_cells(family)
    lap.block_cells.cache_clear()


def test_block_cells_rebuild_the_dense_block_of_q3():
    # cells taken from the exact image agree with the float fold to an ulp
    for family in "AS":
        b0, b1, sign = lap.block_cells(family)
        rebuilt = _dense_block_circulant(np.array(b0), np.array(b1), sign, 3)
        gap = np.max(np.abs(rebuilt - np.array(dense_fold_block(3, family))))
        assert gap <= 2.3e-16
