"""Published reference values, and the table rows compared with them.

``PUBLISHED_DK`` holds the degree-weighted resistance index table exactly as
printed (two decimal places).  Only the n = 1 entry agrees with the closed
form and with both independent oracles; every later row diverges, so those
comparisons are reported as informational rather than treated as failures.
The divergence is explained: every printed row, n = 1..30, is the value of
14*n*sum(1/alpha) + 14*xi rounded half-even, while the true index is
14*n*(sum(1/alpha) + xi).  The table multiplies xi by 14 where the formula
needs 14n, and the two agree only at n = 1.

``PUBLISHED_TREES_RAW`` holds the printed spanning-tree counts verbatim.
Several rows have garbled digit grouping (commas in impossible places), so
``PUBLISHED_TREES`` derives the integers from the printed digits with the
commas dropped; ``TREE_NORMALIZATION_NOTES`` has a note on each regrouped
row.  For n = 12 the printed digits themselves contain a one-digit misprint:
both the closed form and the exact cofactor oracle give 1020809018952,
while the printed digits read ...8752.  ``PUBLISHED_TREES`` overrides that
one entry with the corrected value.

``table_rows`` renders every dk, Kemeny and tree-count row for the ``table``
command, the verifier and ``scripts/reproduce_tables.py``.
"""

import sys
from fractions import Fraction

from . import closed_forms as cf
from . import exact_algebra as xa

PUBLISHED_DK = {
    1: "73.13",
    2: "319.17",
    3: "851.80",
    4: "1822.69",
    5: "3381.01",
    6: "5674.24",
    7: "8849.45",
    8: "13053.65",
    9: "18433.86",
    10: "25137.07",
    11: "33310.28",
    12: "43100.48",
    13: "54654.69",
    14: "68119.90",
    15: "83643.10",
    16: "101371.31",
    17: "121451.52",
    18: "144030.72",
    19: "169255.93",
    20: "197274.14",
    21: "228232.34",
    22: "262277.55",
    23: "299556.76",
    24: "340216.96",
    25: "384405.17",
    26: "432268.38",
    27: "483953.58",
    28: "539607.79",
    29: "599378.00",
    30: "663411.21",
}

PUBLISHED_TREES_RAW = {
    1: "15",
    2: "192",
    3: "2205",
    4: "230,64",
    5: "226,875",
    6: "214,329,6",
    7: "196,863,45",
    8: "177,131,568",
    9: "156,887,293,5",
    10: "137,241,225,60",
    11: "118,854,766,965",
    12: "102,080,901,875,2",
}

TREE_NORMALIZATION_NOTES = {
    4: "printed as 230,64; comma misplaced, digits read 23064",
    6: "printed as 214,329,6; commas misplaced, digits read 2143296",
    7: "printed as 196,863,45; commas misplaced, digits read 19686345",
    9: "printed as 156,887,293,5; commas misplaced, digits read 1568872935",
    10: "printed as 137,241,225,60; commas misplaced, digits read 13724122560",
    12: (
        "printed digits read 1020809018752; one-digit misprint, both the "
        "closed form and the exact cofactor oracle give 1020809018952"
    ),
}

# the printed digits with the commas dropped, but for the n = 12 misprint
# (see TREE_NORMALIZATION_NOTES)
PUBLISHED_TREES = {
    n: int(raw.replace(",", "")) for n, raw in PUBLISHED_TREES_RAW.items()
}
PUBLISHED_TREES[12] = 1020809018952


_PLACES = {"dk": 2, "kemeny": 6}  # decimal places of a rendered value


def table_rows(which: str, start: int, end: int, compare=False, exact=False):
    """Rows ``{n, exact, value}`` of the dk, Kemeny or tree-count table for
    n = start..end from the unreduced pairs of ``cf.table_terms``: a dk or
    Kemeny value is rounded half-even with no gcd, and ``exact`` is the
    reduced "p/q" only if `exact` is set.  A tree count is its own, ``str()``
    of its integral ``Decimal`` in O(digits); until ROADMAP item 1, past
    ``sys.get_int_max_str_digits()`` it raises as ``str(int)`` does.
    `compare` adds the printed ``published`` text, read at call time, and
    ``match``.  A bad request raises here, not at the first ``next()``."""
    published = None
    if compare:
        published = {"dk": PUBLISHED_DK, "trees": PUBLISHED_TREES}.get(which)
        if published is None:
            raise ValueError(f"no published rows exist for {which!r}")
        if end > max(published):
            raise ValueError(f"published {which} rows stop at n={max(published)}")
    places, pairs = _PLACES.get(which), cf.table_terms(which, start, end)

    def rows():
        for n, (p, d) in enumerate(pairs, start):
            if places is None:
                value = text = str(p)
                # temporary, until ROADMAP item 1: past the digit limit,
                # raise the ValueError of str(int)
                if 0 < sys.get_int_max_str_digits() < len(text):
                    str(int(p))
            else:
                value = xa._decimal_str(p, d, places)
                text = xa.frac_to_str(Fraction(p, d)) if exact else None
            row = {"n": n, "exact": text, "value": value}
            if published is not None:
                row["published"] = str(published[n])
                row["match"] = value == row["published"]
            yield row

    return rows()
