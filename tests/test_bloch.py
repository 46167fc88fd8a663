import numpy as np
import pytest

from octachain import graph_gen as gg
from octachain import laplacian as lap
from octachain import oracles as orc


@pytest.mark.parametrize("family", "AS")
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 40, 200])
def test_bloch_spectrum_matches_the_dense_block(n, family):
    bloch = orc.bloch_eigenvalues(*lap.block_cells(family), n)
    dense = orc.eigenvalues_symmetric(lap.block_decompose(n, family))
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
    # every entry of the 9 x 9 block lies in a cell that has to equal
    # another cell, so changing any one of them breaks the structure
    dense = lap.block_decompose
    position = None

    def perturbed(n, family):
        m = dense(n, family)
        i, j = position
        m[i][j] += 1e-15 if m[i][j] else 1e-300
        return m

    monkeypatch.setattr(lap, "block_decompose", perturbed)
    for family in "AS":
        for position in [(i, j) for i in range(9) for j in range(9)]:
            lap.block_cells.cache_clear()
            with pytest.raises(gg.ConstructionError, match="block-circulant"):
                lap.block_cells(family)
    lap.block_cells.cache_clear()


def test_block_cells_check_the_seam_sign(monkeypatch):
    # each block with the other family's seam sign: its two seam cells negated
    dense = lap.block_decompose

    def flipped(n, family):
        m = dense(n, family)
        for i in range(6, 9):
            for j in range(3):
                m[i][j], m[j][i] = -m[i][j], -m[j][i]
        return m

    monkeypatch.setattr(lap, "block_decompose", flipped)
    for family in "AS":
        lap.block_cells.cache_clear()
        with pytest.raises(gg.ConstructionError, match="seam sign"):
            lap.block_cells(family)
    lap.block_cells.cache_clear()
