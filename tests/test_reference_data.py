import sys

import pytest

from octachain import closed_forms as cf
from octachain import exact_algebra as xa
from octachain import reference_data as ref

MISPRINTED = {12}  # the printed digits themselves differ at n = 12


def test_normalized_trees_are_the_printed_digits():
    assert ref.PUBLISHED_TREES.keys() == ref.PUBLISHED_TREES_RAW.keys()
    for n, raw in ref.PUBLISHED_TREES_RAW.items():
        same = raw.replace(",", "") == str(ref.PUBLISHED_TREES[n])
        assert same == (n not in MISPRINTED), n


def test_every_normalized_row_has_a_note():
    normalized = {
        n
        for n, raw in ref.PUBLISHED_TREES_RAW.items()
        if ("," in raw and raw != f"{ref.PUBLISHED_TREES[n]:,}")
        or raw.replace(",", "") != str(ref.PUBLISHED_TREES[n])
    }
    assert normalized == ref.TREE_NORMALIZATION_NOTES.keys()


def test_published_dk_rows_multiply_xi_by_14_not_14n():
    # the true index is 14n(sum 1/alpha + xi); every printed row rounds
    # from 14n * sum 1/alpha + 14 xi, which agrees with it only at n = 1
    assert ref.PUBLISHED_DK.keys() == set(range(1, 31))
    for n, printed in ref.PUBLISHED_DK.items():
        erratum = 14 * n * cf.sum_recip_alpha(n) + 14 * cf.xi(n)
        assert xa.frac_to_decimal_str(erratum, 2) == printed, n
    matching = [
        n
        for n, printed in ref.PUBLISHED_DK.items()
        if xa.frac_to_decimal_str(cf.dk_index(n), 2) == printed
    ]
    assert matching == [1]


def _str_limit_error(x):
    try:
        str(x)
    except ValueError as exc:
        return str(exc)
    return None


def _first_row_past_the_limit(start, end):
    """The n of the first tree row that raises, and its message."""
    n = start
    try:
        for row in ref.table_rows("trees", start, end):
            n = row["n"] + 1
    except ValueError as exc:
        return n, str(exc)
    return None, None


def test_tree_rows_keep_the_str_digit_limit():
    # 4795 is the first row with more than the default 4300 digits
    n, message = _first_row_past_the_limit(4790, 4800)
    assert n == 4795 and "Exceeds the limit" in message
    assert message == _str_limit_error(cf.spanning_trees(4795))
    with pytest.raises(ValueError, match="Exceeds the limit"):
        next(ref.table_rows("trees", 4795, 4795))


def test_tree_rows_follow_a_lowered_and_a_lifted_limit():
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        n, message = _first_row_past_the_limit(600, 800)
        want = next(k for k in range(600, 801) if _str_limit_error(cf.spanning_trees(k)))
        assert n == want
        assert message == _str_limit_error(cf.spanning_trees(want))
        sys.set_int_max_str_digits(0)
        rows = ref.table_rows("trees", 4795, 4800)
        assert [row["value"] for row in rows] == [
            xa.int_to_str(cf.spanning_trees(n)) for n in range(4795, 4801)
        ]
    finally:
        sys.set_int_max_str_digits(limit)

