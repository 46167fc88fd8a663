import json
from fractions import Fraction

import pytest

from octachain import cli
from octachain import closed_forms as cf
from octachain import exact_algebra as xa
from octachain import laplacian as lap
from octachain import oracles as orc
from octachain import verification as ver

EXPECTED_CHECK_NAMES = {
    "bipartite_parity",
    "block_spectrum_union",
    "degree_product",
    "dk_charpoly_route",
    "dk_resistance_route",
    "kemeny_oracle_match",
    "la_coeff_z1",
    "la_coeff_z2",
    "la_deleted_minors",
    "la_minor_sum",
    "lambda_max_bipartite",
    "ls_coeff_z1",
    "ls_determinant",
    "ls_deleted_minors",
    "ls_minor_sum",
    "published_dk",
    "published_trees",
    "q_minors_phase0",
    "q_minors_phase1",
    "recip_alpha_vieta",
    "tree_count_oracle",
    "w_minors_phase0",
    "w_minors_phase1",
    "w_minors_phase2",
    "xi_vieta",
}


@pytest.fixture(scope="module")
def report3():
    return ver.run_verification(3)


def test_all_strict_checks_pass(report3):
    bad = [c for c in report3.checks if not c.passed and not c.informational]
    assert bad == []
    assert report3.summary["failed"] == 0


def test_summary_counts_consistent(report3):
    checks = report3.checks
    assert report3.summary["total"] == len(checks)
    assert report3.summary["passed"] == sum(1 for c in checks if c.passed)
    assert report3.summary["informational"] == sum(1 for c in checks if c.informational)


def test_check_name_coverage():
    report = ver.run_verification(2)
    assert {c.name for c in report.checks} == EXPECTED_CHECK_NAMES
    assert report.summary["total"] == 2 * len(EXPECTED_CHECK_NAMES)


def test_checks_sorted(report3):
    keys = [(c.name, c.n) for c in report3.checks]
    assert keys == sorted(keys)


def test_published_dk_policy(report3):
    by_n = {c.n: c for c in report3.checks if c.name == "published_dk"}
    assert by_n[1].passed and not by_n[1].informational
    for n in (2, 3):
        assert by_n[n].informational
        assert not by_n[n].passed
        assert by_n[n].note


def test_published_trees_all_match(report3):
    rows = [c for c in report3.checks if c.name == "published_trees"]
    assert len(rows) == 3
    assert all(c.passed for c in rows)


def test_check_fields(report3):
    for c in report3.checks:
        assert c.mode in ("exact", "numeric")
        if c.mode == "exact":
            assert c.tolerance is None
        else:
            assert isinstance(c.tolerance, float)
        assert isinstance(c.expected, str)
        assert isinstance(c.actual, str)


def test_report_json_round_trip(report3):
    data = json.loads(ver.report_to_json(report3))
    assert set(data) == {"checks", "summary"}
    assert data["summary"] == report3.summary
    assert len(data["checks"]) == len(report3.checks)
    first = data["checks"][0]
    assert set(first) == {
        "name",
        "n",
        "expected",
        "actual",
        "mode",
        "tolerance",
        "passed",
        "informational",
        "note",
    }


def test_mutated_closed_form_detected(monkeypatch):
    monkeypatch.setattr(cf, "spanning_trees", lambda n: 999)
    report = ver.run_verification(2)
    assert report.summary["failed"] > 0
    failing = {c.name for c in report.checks if not c.passed and not c.informational}
    assert "tree_count_oracle" in failing or "published_trees" in failing


def _failing(report):
    return {c.name for c in report.checks if not c.passed and not c.informational}


def test_resistance_route_disagreement_is_a_fail_line(monkeypatch):
    exact = orc.dk_oracle
    monkeypatch.setattr(orc, "dk_oracle", lambda g: exact(g) + 1)
    assert _failing(ver.run_verification(2)) == {"dk_resistance_route"}


def test_kemeny_oracle_disagreement_leaves_the_charpoly_route(monkeypatch):
    # dk_charpoly_route reads the block charpolys, not the Kemeny oracle
    exact = orc.kemeny_oracle
    monkeypatch.setattr(orc, "kemeny_oracle", lambda g: exact(g) + 1)
    assert _failing(ver.run_verification(2)) == {"kemeny_oracle_match"}


def test_wrong_unit_power_is_a_fail_line(monkeypatch, capsys):
    monkeypatch.setattr(cf, "unit_power", lambda k: (2, 2))
    failing = _failing(ver.run_verification(2))
    assert {"xi_vieta", "ls_determinant", "tree_count_oracle"} <= failing
    assert cli.main(["verify", "--n-max", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_wrong_minor_sweeps_are_fail_lines(monkeypatch):
    for sweep in ("leading_minors", "deleted_minors"):
        exact = getattr(xa, sweep)
        monkeypatch.setattr(xa, sweep, lambda m, exact=exact: [2 * x for x in exact(m)])
    assert _failing(ver.run_verification(2)) == {
        "w_minors_phase0",
        "w_minors_phase1",
        "w_minors_phase2",
        "q_minors_phase0",
        "q_minors_phase1",
        "la_deleted_minors",
        "ls_deleted_minors",
    }


def test_invalid_n_max():
    with pytest.raises(ValueError):
        ver.run_verification(0)
    with pytest.raises(TypeError):
        ver.run_verification(2.0)


def test_ladder_mismatch_reports_both_values(monkeypatch):
    monkeypatch.setattr(cf, "q_minor", lambda phase, j: Fraction(0))
    report = ver.run_verification(1)
    row = next(c for c in report.checks if c.name == "q_minors_phase0")
    assert not row.passed
    assert row.expected == "match"
    assert row.actual.startswith("j=1: expected 0/1, got 4/3; j=2: ")
    assert row.actual.count(";") == 2  # at most three mismatches are listed


@pytest.mark.parametrize("which, last", [("dk", 30), ("trees", 12)])
def test_published_checks_read_the_compared_table_rows(capsys, which, last):
    argv = ["table", which, "--to", str(last), "--compare-paper", "--format", "json"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["n"] for row in rows] == list(range(1, last + 1))
    check = {"dk": ver._published_dk, "trees": ver._published_trees}[which]
    for row in rows:
        fields = check(ver._Chain(row["n"]))
        got = fields["expected"], fields["actual"], fields["passed"]
        assert got == (row["published"], row["value"], row["match"]), row["n"]


def test_each_block_image_is_built_once(monkeypatch):
    # the phase sections of size n are read from the images of size n + 1,
    # which the next size reuses
    calls = []
    build = lap.rational_block_image

    def counted(n, family):
        calls.append((n, family))
        return build(n, family)

    monkeypatch.setattr(lap, "rational_block_image", counted)
    ver.run_verification(3)
    assert sorted(calls) == [(n, f) for n in range(1, 5) for f in "AS"]


def test_verify_solves_one_dense_spectrum_per_n(monkeypatch):
    # the fold spectra come from the Bloch symbols that `spectrum` ships
    calls = {"dense": 0, "bloch": 0}
    dense, bloch = orc.eigenvalues_symmetric, orc.bloch_eigenvalues

    def counted_dense(m):
        calls["dense"] += 1
        return dense(m)

    def counted_bloch(b0, b1, sign, n):
        calls["bloch"] += 1
        return bloch(b0, b1, sign, n)

    monkeypatch.setattr(orc, "eigenvalues_symmetric", counted_dense)
    monkeypatch.setattr(orc, "bloch_eigenvalues", counted_bloch)
    ver.run_verification(4)
    assert calls == {"dense": 4, "bloch": 8}


@pytest.fixture
def fresh_block_cells():
    cells = lap.block_cells
    cells.cache_clear()
    yield cells
    cells.cache_clear()


def test_moved_bloch_cells_fail_the_spectrum_union(
    monkeypatch, capsys, fresh_block_cells
):
    def moved(family):
        b0, b1, sign = fresh_block_cells(family)
        b0 = ((b0[0][0] + 1e-6, *b0[0][1:]), *b0[1:])
        return b0, b1, sign

    monkeypatch.setattr(lap, "block_cells", moved)
    rows = [
        c for c in ver.run_verification(2).checks if c.name == "block_spectrum_union"
    ]
    assert [(c.n, c.passed) for c in rows] == [(1, False), (2, False)]
    assert cli.main(["verify", "--n-max", "2"]) == 1
    assert "FAIL  block_spectrum_union" in capsys.readouterr().out
