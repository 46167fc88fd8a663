from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from octachain import closed_forms as cf
from octachain import exact_algebra as xa
from octachain import laplacian as lap
from minor_reference import principal_minors

F = Fraction

W0 = [F(2, 3), F(1, 2), F(1, 3), F(5, 36), F(1, 12), F(7, 144)]
W1 = [F(1), F(3, 4), F(1, 3), F(5, 24), F(1, 8), F(7, 144)]
W2 = [F(1), F(1, 2), F(1, 3), F(5, 24)]
Q0 = [F(4, 3), F(7, 6), F(5, 6), F(11, 12), F(7, 9)]
Q1 = [F(1), F(3, 4), F(5, 6), F(17, 24)]


def test_w_conventions():
    for p in (0, 1, 2):
        assert cf.w_minor(p, -1) == 0
        assert cf.w_minor(p, 0) == 1


def test_w_golden_series():
    assert [cf.w_minor(0, j) for j in range(1, 7)] == W0
    assert [cf.w_minor(1, j) for j in range(1, 7)] == W1
    assert [cf.w_minor(2, j) for j in range(1, 5)] == W2


def test_q_golden_series():
    assert [cf.q_minor(0, j) for j in range(1, 6)] == Q0
    assert [cf.q_minor(1, j) for j in range(1, 5)] == Q1
    assert cf.q_minor(0, 0) == 1
    assert cf.q_minor(1, 0) == 1


def test_minor_phase_validity():
    with pytest.raises(ValueError):
        cf.w_minor(3, 2)
    with pytest.raises(ValueError):
        cf.q_minor(2, 2)


@pytest.mark.parametrize("minor", [cf.w_minor, cf.q_minor])
def test_minor_index_must_be_an_integer(minor):
    with pytest.raises(TypeError):
        minor(0, 1.5)
    with pytest.raises(TypeError):
        minor(0, F(3))
    assert minor(0, np.int64(40)) == minor(0, 40)


def test_minor_ladders_satisfy_their_transfer_recurrences():
    # s_{j+6} = tr(P) s_{j+3} - det(P) s_j with P the product of one period's
    # transfer matrices: a double root 1/12 for the A sections, and roots
    # (4 +- sqrt(15))/12 for the S sections
    for p in (0, 1, 2):
        w = [cf.w_minor(p, j) for j in range(-1, 306)]  # w[j + 1] = w_j
        for j in range(-1, 300):
            assert w[j + 7] == w[j + 4] / 6 - w[j + 1] / 144, (p, j)
    # the phase-2 section's first row couples it to phase 0 and phase 1
    for j in range(1, 300):
        assert cf.w_minor(2, j) == cf.w_minor(0, j - 1) - cf.w_minor(1, j - 2) / 6, j
    for p in (0, 1):
        q = [cf.q_minor(p, j) for j in range(306)]
        for j in range(300):
            assert q[j + 6] == F(2, 3) * q[j + 3] - q[j] / 144, (p, j)


def test_w_matches_exact_leading_minors():
    for n in range(1, 9):
        m = 3 * n
        for p in (0, 1, 2):
            sections = [range(p, p + j) for j in range(1, m + 1)]
            mins = principal_minors(lap.rational_block_image(n + 1, "A"), sections)
            assert mins == [cf.w_minor(p, j) for j in range(1, m + 1)]


def test_q_matches_exact_leading_minors():
    for n in range(1, 9):
        m = 3 * n
        for p in (0, 1):
            sections = [range(p, p + j) for j in range(1, m + 1)]
            mins = principal_minors(lap.rational_block_image(n + 1, "S"), sections)
            assert mins == [cf.q_minor(p, j) for j in range(1, m + 1)]


def test_sum_recip_alpha():
    assert cf.sum_recip_alpha(1) == F(32, 21)
    assert cf.sum_recip_alpha(2) == F(569, 84)
    assert cf.sum_recip_alpha(3) == F(326, 21)


def test_xi_golden():
    assert cf.xi(1) == F(37, 10)
    assert cf.xi(2) == F(37, 4)
    assert cf.xi(3) == F(999, 70)


def test_dk_golden():
    assert cf.dk_index(1) == F(1097, 15)
    assert cf.dk_index(2) == F(1346, 3)
    assert cf.dk_index(3) == F(6257, 5)


def test_kemeny_golden():
    assert cf.kemeny(1) == F(1097, 210)
    assert cf.kemeny(2) == F(673, 42)


@given(st.integers(min_value=1, max_value=40))
def test_dk_is_14n_times_kemeny(n):
    assert cf.dk_index(n) == 14 * n * cf.kemeny(n)


def test_spanning_trees_golden():
    expected = [15, 192, 2205, 23064, 226875, 2143296, 19686345, 177131568]
    assert [cf.spanning_trees(n) for n in range(1, 9)] == expected
    assert cf.spanning_trees(12) == 1020809018952


def test_det_ls():
    assert cf.det_ls(1) == F(5, 6)
    assert cf.det_ls(2) == F(4, 9)
    for n in range(1, 31):
        assert cf.det_ls(n) * 12**n == xa.unit_power(n)[0] + 2


def test_charpoly_tail_coefficients():
    assert cf.coeff_d_3n_minus_1(1) == F(7, 4)
    assert cf.coeff_d_3n_minus_2(1) == F(8, 3)
    assert cf.coeff_t_3n_minus_1(1) == F(37, 12)
    for n in range(1, 21):
        ratio = cf.coeff_d_3n_minus_2(n) / cf.coeff_d_3n_minus_1(n)
        assert ratio == cf.sum_recip_alpha(n)


def test_deleted_minor_closed_forms_n1():
    assert [cf.minor_det_la(x, 1) for x in (1, 2, 3)] == [F(3, 4), F(1, 2), F(1, 2)]
    assert [cf.minor_det_ls(x, 1) for x in (1, 2, 3)] == [F(3, 4), F(7, 6), F(7, 6)]


def test_minor_sums_equal_tail_coefficients():
    for n in range(1, 9):
        la_sum = sum(cf.minor_det_la(x, n) for x in range(1, 3 * n + 1))
        assert la_sum == cf.coeff_d_3n_minus_1(n)
        ls_sum = sum(cf.minor_det_ls(x, n) for x in range(1, 3 * n + 1))
        assert ls_sum == cf.coeff_t_3n_minus_1(n)


def test_deleted_minors_match_actual_determinants():
    # closed forms against honest determinants of the vertex-deleted
    # rational images
    for n in range(1, 7):
        for family, closed in (("A", cf.minor_det_la), ("S", cf.minor_det_ls)):
            image = lap.rational_block_image(n, family)
            for x in range(1, 3 * n + 1):
                kept = [i for i in range(3 * n) if i != x - 1]
                assert principal_minors(image, [kept]) == [closed(x, n)]


# (family, closed form, phase) of the five minor ladders
LADDERS = [("A", cf.w_minor, p) for p in (0, 1, 2)]
LADDERS += [("S", cf.q_minor, p) for p in (0, 1)]


def _section(n, family, phase):
    """The order-3n section at `phase`: a window of the image of Q_(n+1)."""
    window = slice(phase, phase + 3 * n)
    return [row[window] for row in lap.rational_block_image(n + 1, family)[window]]


def test_minor_sweeps_match_the_closed_forms_at_n_200():
    n, m = 200, 600
    for family, closed in (("A", cf.minor_det_la), ("S", cf.minor_det_ls)):
        want = [closed(x, n) for x in range(1, m + 1)]
        assert xa.deleted_minors(lap.rational_block_image(n, family)) == want, family
    for family, closed, phase in LADDERS:
        want = [closed(phase, j) for j in range(1, m + 1)]
        assert xa.leading_minors(_section(n, family, phase)) == want, (family, phase)


def test_the_block_images_never_need_the_per_set_route(monkeypatch):
    def refuse(m, index_sets):
        raise AssertionError("a minor sweep fell back to one determinant per set")

    monkeypatch.setattr(xa, "_minors_per_set", refuse)
    for n in range(1, 21):
        for family in "AS":
            assert len(xa.deleted_minors(lap.rational_block_image(n, family))) == 3 * n
        for family, _, phase in LADDERS:
            assert len(xa.leading_minors(_section(n, family, phase))) == 3 * n


def test_minor_x_out_of_range():
    with pytest.raises(ValueError):
        cf.minor_det_la(0, 2)
    with pytest.raises(ValueError):
        cf.minor_det_la(7, 2)
    with pytest.raises(ValueError):
        cf.minor_det_ls(10, 3)


def test_minor_positions_are_integers():
    # a float once gave minor_det_ls(1.5, 1) = 7/6 and a KeyError in
    # minor_det_la; a numpy position once wrapped 12**k
    for fn in (cf.minor_det_la, cf.minor_det_ls):
        with pytest.raises(TypeError):
            fn(1.5, 1)
    for n in range(1, 41):
        for x in range(1, 3 * n + 1):
            for fn in (cf.minor_det_la, cf.minor_det_ls):
                value = fn(x, n)
                assert fn(np.int64(x), n) == value
                assert fn(x, np.int32(n)) == value


def test_tree_count_product_identity():
    # 14n * tau = degree product * (z^1 coefficient) * det of the
    # difference block, all exact
    for n in range(1, 21):
        lhs = F(14 * n) * cf.spanning_trees(n)
        rhs = (
            F(2 ** (4 * n) * 3 ** (2 * n))
            * cf.coeff_d_3n_minus_1(n)
            * cf.det_ls(n)
        )
        assert lhs == rhs


def test_invalid_n():
    for fn in (cf.sum_recip_alpha, cf.xi, cf.dk_index, cf.kemeny, cf.spanning_trees):
        with pytest.raises(ValueError):
            fn(0)


PER_N_FORMS = [
    cf.sum_recip_alpha,
    cf.xi,
    cf.kemeny,
    cf.dk_index,
    cf.spanning_trees,
    cf.det_ls,
    cf.coeff_d_3n_minus_1,
    cf.coeff_d_3n_minus_2,
    cf.coeff_t_3n_minus_1,
]


@pytest.mark.parametrize("fn", PER_N_FORMS, ids=lambda fn: fn.__name__)
def test_numpy_sizes_give_the_int_values(fn):
    # numpy arithmetic on the size once wrapped silently
    for n in range(1, 61):
        value = fn(n)
        for size in (np.int32(n), np.int64(n)):
            got = fn(size)
            assert got == value and type(got) is type(value)
        with pytest.raises(TypeError):
            fn(n + 0.5)


def test_numpy_sizes_in_tables_and_summaries():
    assert cf.spanning_trees(np.int32(9)) == 1568872935
    assert list(cf.table_terms("dk", np.int32(20), 30)) == list(
        cf.table_terms("dk", 20, 30)
    )
    with pytest.raises(TypeError):
        cf.table_terms("dk", 2.0, 3)
    s = cf.spectral_summary(np.int64(40))
    assert s == cf.spectral_summary(40) and type(s.n) is int


PER_N = {"dk": cf.dk_index, "kemeny": cf.kemeny, "trees": cf.spanning_trees}


def table_values(which, start, end):
    """The pairs of cf.table_terms as values: reduced Fractions for dk and
    Kemeny, ints for trees."""
    pairs = cf.table_terms(which, start, end)
    if which == "trees":
        return [p for p, _ in pairs]
    return [F(p, d) for p, d in pairs]


@pytest.mark.parametrize("which", sorted(PER_N))
@pytest.mark.parametrize("start, end", [(1, 200), (97, 140)])
def test_table_values_match_the_per_n_functions(which, start, end):
    want = [PER_N[which](n) for n in range(start, end + 1)]
    assert table_values(which, start, end) == want


@pytest.mark.parametrize("start, end", [(1, 300), (1500, 1500), (20000, 20000)])
def test_dk_and_kemeny_rows_equal_the_defining_sums(start, end):
    # each row is one Fraction over 84 (t + 2); kemeny is defined as
    # sum_recip_alpha + xi and dk as 14 n * kemeny
    kemeny = table_values("kemeny", start, end)
    dk = table_values("dk", start, end)
    for n, k, d in zip(range(start, end + 1), kemeny, dk):
        want = cf.sum_recip_alpha(n) + cf.xi(n)
        assert k == cf.kemeny(n) == want
        assert d == cf.dk_index(n) == 14 * n * want


def test_table_values_rejects_bad_requests():
    with pytest.raises(ValueError):
        table_values("xi", 1, 3)
    with pytest.raises(ValueError):
        table_values("dk", 0, 3)
    assert table_values("trees", 5, 4) == []


@pytest.mark.parametrize("start, end", [(1, 40), (997, 1003), (4790, 4800)])
def test_tree_terms_are_exact_decimals_equal_to_the_counts(start, end):
    pairs = list(cf.table_terms("trees", start, end))
    assert pairs == [(cf.spanning_trees(n), 1) for n in range(start, end + 1)]
    assert all(isinstance(p, Decimal) and p.as_tuple().exponent == 0 for p, _ in pairs)


def test_table_terms_check_their_request_before_the_first_row():
    # no next(): the generator is only created
    with pytest.raises(ValueError):
        cf.table_terms("xi", 1, 3)
    with pytest.raises(ValueError):
        cf.table_terms("dk", 0, 3)
    assert list(cf.table_terms("trees", 5, 4)) == []
    assert list(cf.table_terms("trees", 1, 2)) == [(15, 1), (192, 1)]


def test_spectral_summary_values():
    s = cf.spectral_summary(1)
    assert s.n == 1
    assert s.sum_recip_alpha == F(32, 21)
    assert s.sum_recip_rho == F(37, 10)
    assert s.dk == F(1097, 15)
    assert s.kemeny == F(1097, 210)
    assert s.tau == 15
    assert float(s.dk) == pytest.approx(73.1333333333333, abs=1e-12)


def test_spectral_summary_powers_the_unit_once(monkeypatch):
    n = 20000
    calls = []

    def counted(k):
        calls.append(k)
        return xa.unit_power(k)

    monkeypatch.setattr(cf, "unit_power", counted)
    s = cf.spectral_summary(n)
    assert calls == [n]
    assert s.sum_recip_alpha == cf.sum_recip_alpha(n)
    assert s.sum_recip_rho == cf.xi(n)
    assert s.kemeny == cf.kemeny(n)
    assert s.dk == cf.dk_index(n)
    assert s.tau == cf.spanning_trees(n)



# the (a, b) tables the ladders were first written with, as Fractions:
# w_j = (a + b k) / 12**k and q_j = (a t_k + 15 b u_k) / 12**k
W_FRACTION_TABLE = {
    (0, 0): (1, 3),
    (0, 1): (F(2, 3), 1),
    (0, 2): (F(1, 2), F(1, 2)),
    (1, 0): (1, 3),
    (1, 1): (1, F(3, 2)),
    (1, 2): (F(3, 4), F(3, 4)),
    (2, 0): (1, 3),
    (2, 1): (1, F(3, 2)),
    (2, 2): (F(1, 2), F(1, 2)),
}
Q_FRACTION_TABLE = {
    (0, 0): (F(1, 2), F(1, 5)),
    (0, 1): (F(2, 3), F(17, 90)),
    (0, 2): (F(7, 12), F(7, 45)),
    (1, 0): (F(1, 2), F(1, 5)),
    (1, 1): (F(1, 2), F(3, 20)),
    (1, 2): (F(3, 8), F(1, 10)),
}


def _w_reference(phase, j):
    k, r = divmod(j, 3)
    a, b = W_FRACTION_TABLE[(phase, r)]
    return (a + b * k) * F(1, 12) ** k


def _q_reference(phase, j):
    k, r = divmod(j, 3)
    a, b = Q_FRACTION_TABLE[(phase, r)]
    t, u = xa.unit_power(k)
    return (a * t + 15 * b * u) / 12**k


def test_integer_ladders_equal_the_fraction_tables():
    for phase in (0, 1, 2):
        assert [cf.w_minor(phase, j) for j in range(-1, 301)] == [
            _w_reference(phase, j) for j in range(-1, 301)
        ]
    for phase in (0, 1):
        assert [cf.q_minor(phase, j) for j in range(301)] == [
            _q_reference(phase, j) for j in range(301)
        ]
        with pytest.raises(ValueError):
            cf.q_minor(phase, -1)
    for n in range(1, 41):
        for x in range(1, 3 * n + 1):
            r = x % 3
            want = _w_reference(0, x - 1) * _w_reference(r, 3 * n - x) - F(
                1, 6
            ) * _w_reference(1, x - 2) * _w_reference(r, 3 * n - x - 1)
            assert cf.minor_det_la(x, n) == want, (x, n)
