import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from octachain import exact_algebra as xa
from octachain import laplacian as lap
from octachain import oracles as orc
from minor_reference import principal_minors

F = Fraction


def test_lucas_values():
    # unit_power against the recurrence s_k = 8 s_{k-1} - s_{k-2}
    t, u = [2, 8], [0, 2]
    for _ in range(2, 201):
        t.append(8 * t[-1] - t[-2])
        u.append(8 * u[-1] - u[-2])
    assert [xa.unit_power(k) for k in range(201)] == list(zip(t, u))
    assert t[:6] == [2, 8, 62, 488, 3842, 30248]
    assert u[:5] == [0, 2, 16, 126, 992]
    with pytest.raises(ValueError):
        xa.unit_power(-1)


@pytest.mark.parametrize("start", [0, 1, 2, 97, 4790])
def test_unit_powers_step_along_unit_power(start):
    stepped = itertools.islice(xa.unit_powers(start), 300)
    assert list(stepped) == [xa.unit_power(k) for k in range(start, start + 300)]


def test_unit_powers_reject_a_negative_start():
    with pytest.raises(ValueError):
        xa.unit_powers(-1)


def test_lucas_norm_identity():
    for k in range(41):
        t, u = xa.unit_power(k)
        assert t * t - 15 * u * u == 4


def test_lucas_parity():
    # t_k + 2 must be even so the spanning-tree count is an integer
    for k in range(201):
        assert (xa.unit_power(k)[0] + 2) % 2 == 0


def test_bareiss_known_values():
    assert xa.bareiss_det_int([[1, 2], [3, 4]]) == -2
    assert xa.bareiss_det_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert xa.bareiss_det_int([[2, 4], [1, 2]]) == 0
    # zero pivot needs a row swap
    assert xa.bareiss_det_int([[0, 1], [1, 0]]) == -1


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


sparse_int_matrices = st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=-4, max_value=4)),
            min_size=n,
            max_size=n,
        ),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=300)
@given(sparse_int_matrices)
def test_det_series_matches_leibniz(rows):
    assert xa.det_series(rows) == [_leibniz_det(rows)]


# built from numerator and denominator: about 5x faster to draw than
# st.fractions
small_rationals = st.builds(F, st.integers(-12, 12), st.integers(1, 4))
rational_matrices = st.lists(
    st.lists(
        small_rationals,
        min_size=4,
        max_size=4,
    ),
    min_size=4,
    max_size=4,
)


@settings(max_examples=200)
@given(rational_matrices)
def test_bareiss_matches_fraction_elimination(m):
    # the row-cleared integer determinant, scaled back, against Leibniz
    assert principal_minors(m, [range(4)]) == [_leibniz_det(m)]


@settings(max_examples=200)
@given(rational_matrices, st.lists(st.sets(st.integers(0, 3)), max_size=5))
def test_principal_minors_match_leibniz(m, index_sets):
    want = [_leibniz_det([[m[i][j] for j in k] for i in k]) for k in index_sets]
    assert principal_minors(m, index_sets) == want


def test_principal_minor_of_the_empty_set_is_one():
    assert principal_minors([[F(1, 2), 1], [3, 4]], [[]]) == [1]
    assert principal_minors([], [()]) == [1]


@pytest.mark.parametrize(
    "m, index_sets, error",
    [
        ([[1.5, 0], [0, 1]], [[0]], TypeError),
        ([[1, 0], [0, 1]], [[2]], ValueError),
        ([[1, 0], [0, 1]], [[-1]], ValueError),
        ([[1, 0], [0, 1]], [[1, 1]], ValueError),
        ([[1, 0]], [[0]], ValueError),
    ],
    ids=["float-entry", "past-the-end", "negative", "repeated", "not-square"],
)
def test_principal_minors_refuse_bad_input(m, index_sets, error):
    with pytest.raises(error):
        principal_minors(m, index_sets)


def test_det_series_pencil():
    # det([[1 + 2z, 1], [1, 1 - z]]) = z - 2z^2: no pivot of the second
    # column has a nonzero constant term, so its z is factored out
    assert xa.det_series([[1, 1], [1, 1]], [2, -1], 4) == [0, 1, -2, 0]
    # zI: every z is factored out in turn
    assert xa.det_series([[0, 0], [0, 0]], [1, 1], 3) == [0, 0, 1]
    assert xa.det_series([], None, 2) == [1, 0]
    with pytest.raises(ValueError):
        xa.det_series([[1]], [1, 2])
    with pytest.raises(ValueError):
        xa.det_series([[1]], terms=0)


def test_deleted_minors():
    m = [[F(1, 2), 1, 0], [F(1, 3), 2, 1], [0, F(1, 4), 3]]
    keep = [[1, 2], [0, 2], [0, 1]]
    sub = [[[m[i][j] for j in k] for i in k] for k in keep]
    want = [principal_minors(s, [range(2)])[0] for s in sub]
    assert principal_minors(m, keep) == want == [F(23, 4), F(3, 2), F(2, 3)]
    assert xa.deleted_minors(m) == want


def test_principal_minor_of_the_full_set_is_the_determinant():
    m = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
    assert principal_minors(m, [range(2)]) == [F(1, 10) - F(1, 12)]


def test_leading_principal_minors():
    leading = [range(1), range(2)]
    m = [[F(1, 2), 0], [0, F(3, 4)]]
    assert principal_minors(m, leading) == xa.leading_minors(m) == [F(1, 2), F(3, 8)]
    # a zero leading minor
    assert principal_minors([[0, 1], [1, 0]], leading) == [0, -1]
    assert xa.leading_minors([[0, 1], [1, 0]]) == [0, -1]


@pytest.mark.parametrize(
    "call",
    [
        lambda: xa.bareiss_det_int([[F(1, 2)]]),
        lambda: xa.bareiss_det_int([[1.9, 0], [0, 1.9]]),
        lambda: xa.det_series([[1]], [F(3, 2)], 2),
    ],
    ids=["fraction-entry", "float-entries", "fraction-shift"],
)
def test_integer_kernels_reject_non_integers(call):
    # int(x) would truncate these to a wrong determinant
    with pytest.raises(TypeError):
        call()


def test_integer_kernels_accept_numpy_integers():
    m = np.array([[2, 1], [1, 1]], dtype=np.int64)
    assert xa.bareiss_det_int(m) == 1
    assert xa.det_series(m, np.array([1, 1]), 2) == [1, 3]


@settings(max_examples=200)
@given(rational_matrices, st.booleans())
def test_leading_minors_match_prefix_determinants(m, zero_corner):
    if zero_corner:
        m[0][0] = F(0)  # a zero leading minor
    want = [_leibniz_det([row[:k] for row in m[:k]]) for k in range(1, 5)]
    assert principal_minors(m, [range(k) for k in range(1, 5)]) == want
    assert xa.leading_minors(m) == want


@st.composite
def cyclic_banded_matrices(draw):
    """Rational matrices whose entries lie within b of the diagonal,
    counted around the cycle, so corners couple the first and last rows."""
    n, b = draw(st.integers(0, 8)), draw(st.integers(0, 2))
    near = [[min(abs(i - j), n - abs(i - j)) <= b for j in range(n)] for i in range(n)]
    return [[draw(small_rationals) if x else F(0) for x in row] for row in near]


def _leading_sets(n):
    return [range(k) for k in range(1, n + 1)]


def _deleted_sets(n):
    return [[i for i in range(n) if i != x] for x in range(n)]


@settings(max_examples=300)
@given(st.one_of(rational_matrices, cyclic_banded_matrices(), sparse_int_matrices))
def test_sweeps_match_the_per_set_reference(m):
    leading, deleted = xa.leading_minors(m), xa.deleted_minors(m)
    assert leading == principal_minors(m, _leading_sets(len(m)))
    assert deleted == principal_minors(m, _deleted_sets(len(m)))
    assert all(type(x) is F for x in leading + deleted)


@pytest.fixture
def per_set_calls(monkeypatch):
    """How many index sets each call of the sweeps' per-set route gets."""
    calls, per_set = [], xa._minors_per_set

    def spy(m, index_sets):
        calls.append(len(index_sets))
        return per_set(m, index_sets)

    monkeypatch.setattr(xa, "_minors_per_set", spy)
    return calls


@pytest.fixture
def rows_read(monkeypatch):
    """How many rows each call of ``_read_rows`` reads."""
    reads, read = [], xa._read_rows

    def spy(m, entry):
        reads.append(len(m))
        return read(m, entry)

    monkeypatch.setattr(xa, "_read_rows", spy)
    return reads


def test_a_zero_proper_pivot_sends_the_sweep_to_the_per_set_route(
    per_set_calls, rows_read
):
    m = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]  # a path: the first pivot is 0
    leading, deleted = xa.leading_minors(m), xa.deleted_minors(m)
    assert per_set_calls == [3, 3]
    assert rows_read == [3, 3]  # the per-set route reads no row again
    assert leading == principal_minors(m, _leading_sets(3)) == [0, -1, 0]
    assert deleted == principal_minors(m, _deleted_sets(3)) == [-1, 0, -1]


def test_wide_couplings_of_the_twisted_sweep_read_no_row_again(
    per_set_calls, rows_read
):
    # dense, so deleted_minors joins its sweeps through 3 x 3 and 2 x 2
    # couplings, each one index set of the per-set route
    m = [[F(7, 2) if i == j else F(1, i + j + 1) for j in range(5)] for i in range(5)]
    deleted = xa.deleted_minors(m)
    assert per_set_calls == [1, 1, 1]
    assert rows_read == [5]
    assert deleted == principal_minors(m, _deleted_sets(5))


def test_only_a_zero_last_pivot_keeps_the_sweep(per_set_calls):
    # the Laplacian of the 5-cycle, corners included: singular, and every
    # proper principal minor is positive
    ring = [[-1 if (i - j) % 5 in (1, 4) else 0 for j in range(5)] for i in range(5)]
    m = [[2 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(ring)]
    leading = xa.leading_minors(m)
    assert leading == principal_minors(m, _leading_sets(5)) and leading[-1] == 0
    assert xa.deleted_minors(m) == principal_minors(m, _deleted_sets(5)) == [5] * 5
    assert per_set_calls == []


def test_sweeps_of_the_smallest_matrices():
    assert xa.leading_minors([[F(3, 2)]]) == [F(3, 2)]
    assert xa.leading_minors([[0]]) == [0]  # the only pivot is the last one
    assert xa.deleted_minors([[F(3, 2)]]) == [1]
    assert xa.leading_minors([]) == xa.deleted_minors([]) == []


@pytest.mark.parametrize("sweep", [xa.leading_minors, xa.deleted_minors])
@pytest.mark.parametrize(
    "m, error",
    [
        ([[1.5, 0], [0, 1]], TypeError),
        ([[1, 0.0], [0, 1]], TypeError),
        ([[1, 0]], ValueError),
        ([[1, 0], [0]], ValueError),
    ],
    ids=["float-entry", "float-zero", "not-square", "ragged"],
)
def test_sweeps_refuse_bad_input(sweep, m, error):
    with pytest.raises(error):
        sweep(m)


class CountedRow(list):
    """A matrix row that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize(
    "kernel", [xa.det_series, orc.charpoly_exact, xa.leading_minors, xa.deleted_minors]
)
@pytest.mark.parametrize(
    "m",
    [
        # a ring: the corners couple the first and the last row
        [
            [3 if i == j else -1 if (i - j) % 6 in (1, 5) else 0 for j in range(6)]
            for i in range(6)
        ],
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]],  # a zero first pivot
    ],
    ids=["ring", "zero-pivot"],
)
def test_exact_kernels_iterate_each_row_once(kernel, m):
    rows = [CountedRow(row) for row in m]
    assert kernel(rows) == kernel(m)
    assert [row.iterations for row in rows] == [1] * len(m)


class CountedMapping(dict):
    """A sparse matrix row that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()

    def items(self):
        self.iterations += 1
        return super().items()


def _sparse(m):
    return [CountedMapping({j: x for j, x in enumerate(row) if x}) for row in m]


@settings(max_examples=200)
@given(st.one_of(rational_matrices, cyclic_banded_matrices(), sparse_int_matrices))
def test_sparse_rows_give_what_dense_rows_give(m):
    kernels = [xa.leading_minors, xa.deleted_minors, orc.charpoly_exact]
    if all(isinstance(x, int) for row in m for x in row):
        kernels.append(lambda rows: xa.det_series(rows, [1] * len(rows), 2))
    for kernel in kernels:
        rows = _sparse(m)
        assert kernel(rows) == kernel(m)
        assert [row.iterations for row in rows] == [1] * len(m)


@pytest.mark.parametrize(
    "kernel",
    [xa.leading_minors, xa.deleted_minors, orc.charpoly_exact, xa.det_series],
)
@pytest.mark.parametrize(
    "rows, error",
    [
        ([{0: 1.5}], TypeError),
        ([{0: 1, 1: 0.0}, {1: 1}], TypeError),
        ([{1: 1}], ValueError),
        ([{0: 1}, {-1: 1}], ValueError),
        ([{0: 0}, {2: 0}], ValueError),
    ],
    ids=["float-entry", "float-zero", "past-the-end", "negative", "zero-off-range"],
)
def test_sparse_rows_refuse_bad_input(kernel, rows, error):
    with pytest.raises(error):
        kernel(rows)


def test_the_sweeps_of_the_block_images_stay_integral():
    for n in range(1, 7):
        for family in "AS":
            image = xa._read_rows(lap.rational_block_image(n, family), xa._as_fraction)
            cleared, _ = xa._cleared_rows(image)
            sweep = xa._schur_sweep(cleared, xa._half_bandwidth(cleared))
            assert sweep is not None
            pivots, windows = sweep
            entries = [x for window in windows for row in window for x in row]
            assert all(type(x) is int for x in pivots + entries), (n, family)
            dense = [[row.get(j, 0) for j in range(3 * n)] for row in cleared]
            assert pivots == principal_minors(dense, _leading_sets(3 * n))


def test_rational_kernels_accept_numpy_integers():
    m = np.array([[2, -1], [-1, 2]], dtype=np.int64)
    assert orc.charpoly_exact(m) == [3, -4, 1]
    assert xa.leading_minors(m) == [2, 3]
    assert xa.deleted_minors(m) == [2, 2]
    assert xa.frac_to_str(np.int64(-7)) == "-7/1"
    with pytest.raises(TypeError):
        xa.frac_to_str(np.float64(0.5))


def test_fraction_serialization():
    assert xa.frac_to_str(F(32, 21)) == "32/21"
    assert xa.frac_to_str(F(-5, 6)) == "-5/6"
    assert xa.frac_to_str(F(3)) == "3/1"


def test_int_to_str_past_the_digit_limit():
    x = 7**12000  # 10142 digits, beyond the default limit of 4300
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(x)
    finally:
        sys.set_int_max_str_digits(limit)
    assert xa.int_to_str(x) == want
    assert xa.int_to_str(-x) == "-" + want
    assert xa.int_to_str(12345) == "12345"
    assert xa.frac_to_str(F(x, 3)) == want + "/3"


def test_decimal_rendering_half_even():
    assert xa.frac_to_decimal_str(F(1097, 15), 2) == "73.13"
    assert xa.frac_to_decimal_str(F(1, 8), 2) == "0.12"
    assert xa.frac_to_decimal_str(F(3, 8), 2) == "0.38"
    assert xa.frac_to_decimal_str(F(5), 2) == "5.00"


def _reference_decimal(q: Fraction, places: int) -> str:
    # Fraction.__round__ rounds half to even
    digits = str(round(abs(q), places) * 10**places).rjust(places + 1, "0")
    sign = "-" if q < 0 else ""
    return sign + (digits if places == 0 else f"{digits[:-places]}.{digits[-places:]}")


places_st = st.integers(min_value=0, max_value=8)
# exact ties: an odd number of half units in the last place
ties = places_st.flatmap(
    lambda p: st.tuples(
        st.integers(-(10**6), 10**6).map(lambda k: F(2 * k + 1, 2 * 10**p)), st.just(p)
    )
)


@given(st.one_of(st.tuples(st.fractions(), places_st), ties))
def test_decimal_rendering_matches_fraction_rounding(case):
    q, places = case
    assert xa.frac_to_decimal_str(q, places) == _reference_decimal(q, places)


def test_decimal_rendering_past_the_digit_limit():
    assert xa.frac_to_decimal_str(F(10**5000), 0) == "1" + "0" * 5000
    assert xa.frac_to_decimal_str(F(-(10**5000), 3), 1) == "-3" + "3" * 4999 + ".3"


six_places = st.integers(min_value=0, max_value=6)
# (p, d, places); the second family holds the exact half-unit ties
# p / d = (2m + 1) / (2 * 10**places), negative ones included
pairs_st = st.one_of(
    st.tuples(st.integers(-(10**30), 10**30), st.integers(1, 10**12), six_places),
    six_places.flatmap(
        lambda places: st.tuples(
            st.integers(-(10**6), 10**6).map(lambda m: 2 * m + 1),
            st.just(2 * 10**places),
            st.just(places),
        )
    ),
)


@given(pairs_st, st.integers(min_value=1, max_value=10**20))
def test_decimal_rendering_of_unreduced_pairs(case, k):
    p, d, places = case
    want = xa.frac_to_decimal_str(F(p, d), places)
    assert xa._decimal_str(k * p, k * d, places) == want
