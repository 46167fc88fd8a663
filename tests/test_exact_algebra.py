import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from octachain import exact_algebra as xa

F = Fraction

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=40)
quads = st.builds(xa.QuadExt, fracs, fracs)


def test_quadext_basics():
    x = xa.QuadExt(4, 1)
    assert x * x == xa.QuadExt(31, 8)
    assert xa.quad_pow(x, 0) == xa.QuadExt(1, 0)
    assert xa.quad_pow(x, 2) == xa.QuadExt(31, 8)
    assert x.conjugate() == xa.QuadExt(4, -1)
    assert x.norm() == 1
    assert not x.is_rational
    assert xa.QuadExt(F(1, 2), 0).is_rational


@given(quads, st.integers(min_value=0, max_value=20))
def test_power_norm_multiplicative(x, k):
    assert xa.quad_pow(x, k).norm() == x.norm() ** k


def test_field_axioms_bulk():
    # associativity, distributivity and inverse round-trips on a large
    # seeded sample; bit lengths kept small so this stays fast
    rng = random.Random(0xA5)
    one = xa.QuadExt(1, 0)

    def draw():
        return xa.QuadExt(
            F(rng.randint(-99, 99), rng.randint(1, 40)),
            F(rng.randint(-99, 99), rng.randint(1, 40)),
        )

    for _ in range(10_000):
        a, b, c = draw(), draw(), draw()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if a != xa.QuadExt(0, 0):
            assert a * a.inverse() == one


def test_quadext_division():
    a = xa.QuadExt(F(1, 3), F(1, 12))
    assert a / a == xa.QuadExt(1, 0)
    with pytest.raises(ZeroDivisionError):
        xa.QuadExt(1, 1) / xa.QuadExt(0, 0)


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


def test_lucas_norm_identity():
    for k in range(41):
        t, u = xa.unit_power(k)
        assert t * t - 15 * u * u == 4


def test_lucas_parity():
    # t_k + 2 must be even so the spanning-tree count is an integer
    for k in range(201):
        assert (xa.unit_power(k)[0] + 2) % 2 == 0


@pytest.mark.parametrize("k", [0, 1, 2, 3, 20, 77])
def test_quad_lucas_consistency(k):
    t, u = xa.unit_power(k)
    assert xa.quad_pow(xa.QuadExt(4, 1), k) == xa.QuadExt(F(t, 2), F(u, 2))


def test_bareiss_known_values():
    assert xa.bareiss_det_int([[1, 2], [3, 4]]) == -2
    assert xa.bareiss_det_int([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert xa.bareiss_det_int([[2, 4], [1, 2]]) == 0
    # zero pivot needs a row swap
    assert xa.bareiss_det_int([[0, 1], [1, 0]]) == -1


@settings(max_examples=200)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_bareiss_matches_fraction_elimination(rows):
    assert xa.bareiss_det_int(rows) == xa.det_fraction(rows)


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
    want = [xa.det_fraction([[m[i][j] for j in k] for i in k]) for k in keep]
    assert xa.deleted_minors(m) == want == [F(23, 4), F(3, 2), F(2, 3)]


def test_det_fraction():
    m = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]
    assert xa.det_fraction(m) == F(1, 10) - F(1, 12)


def test_leading_principal_minors():
    m = [[F(1, 2), 0], [0, F(3, 4)]]
    assert xa.leading_principal_minors(m) == [F(1, 2), F(3, 8)]
    # zero leading minor exercises the fallback path
    assert xa.leading_principal_minors([[0, 1], [1, 0]]) == [0, -1]


def test_adjugate_int():
    m = [[2, 1], [1, 1]]
    assert xa.adjugate_int(m) == (1, [[1, -1], [-1, 2]])
    assert xa.adjugate_int([]) == (1, [])
    with pytest.raises(xa.SingularMatrixError):
        xa.adjugate_int([[1, 1], [1, 1]])


int_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
    min_size=4,
    max_size=4,
)


@settings(max_examples=200)
@given(int_matrices, st.booleans())
def test_adjugate_times_matrix_is_scaled_identity(rows, zero_corner):
    if zero_corner:
        rows[0][0] = 0  # forces a row swap before the first pivot
    det = xa.bareiss_det_int(rows)
    assume(det != 0)
    c, adj = xa.adjugate_int(rows)
    assert c in (det, -det)
    product = [[sum(r[k] * adj[k][j] for k in range(4)) for j in range(4)] for r in rows]
    assert product == [[c * (i == j) for j in range(4)] for i in range(4)]


@settings(max_examples=200)
@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=4,
            max_size=4,
        ),
        min_size=4,
        max_size=4,
    )
)
def test_leading_minors_match_prefix_determinants(m):
    want = [xa.det_fraction([row[:k] for row in m[:k]]) for k in range(1, 5)]
    assert xa.leading_principal_minors(m) == want


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


def test_quadext_serialization():
    x = xa.QuadExt(F(1, 3), F(1, 12))
    assert str(x) == "1/3 + 1/12*sqrt15"
    assert str(xa.QuadExt(F(1, 2), F(-3, 20))) == "1/2 - 3/20*sqrt15"


def test_decimal_rendering_half_even():
    assert xa.frac_to_decimal_str(F(1097, 15), 2) == "73.13"
    assert xa.frac_to_decimal_str(F(1, 8), 2) == "0.12"
    assert xa.frac_to_decimal_str(F(3, 8), 2) == "0.38"
    assert xa.frac_to_decimal_str(F(5), 2) == "5.00"
