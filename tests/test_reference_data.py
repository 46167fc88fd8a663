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
