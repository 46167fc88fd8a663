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
