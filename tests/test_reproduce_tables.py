import csv
import importlib.util
from pathlib import Path

import pytest

from octachain import cli
from octachain import closed_forms as cf
from octachain import exact_algebra as xa
from octachain import reference_data as ref
from octachain.verification import report_to_json, run_verification

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_tables_writes_all_artifacts(tmp_path):
    script = load_script()
    assert script.main(["--n-max", "2", "--out-dir", str(tmp_path)]) == 0
    for name in ("dk_table.csv", "tree_table.csv", "verification.json"):
        assert (tmp_path / name).is_file()
    report = (tmp_path / "verification.json").read_text()
    assert report == report_to_json(run_verification(2)) + "\n"


def _read_csv(path):
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def test_reproduce_tables_csv_rows_match_the_per_n_values(tmp_path):
    # every row of both tables, rebuilt from the per-n closed forms and the
    # bundled published data
    assert load_script().main(["--n-max", "1", "--out-dir", str(tmp_path)]) == 0
    dk = [["n", "exact", "rounded", "published", "match"]]
    for n in range(1, 31):
        q = cf.dk_index(n)
        rounded, published = xa.frac_to_decimal_str(q, 2), ref.PUBLISHED_DK[n]
        match = "yes" if rounded == published else "no"
        dk.append([str(n), xa.frac_to_str(q), rounded, published, match])
    assert _read_csv(tmp_path / "dk_table.csv") == dk
    assert [row[4] for row in dk[1:]] == ["yes"] + ["no"] * 29

    trees = [["n", "computed", "published", "match", "note"]]
    for n in range(1, 13):
        count, published = cf.spanning_trees(n), ref.PUBLISHED_TREES[n]
        match = "yes" if count == published else "no"
        note = ref.TREE_NORMALIZATION_NOTES.get(n, "")
        trees.append([str(n), str(count), str(published), match, note])
    assert _read_csv(tmp_path / "tree_table.csv") == trees
    assert all(row[3] == "yes" for row in trees[1:])


def test_reproduce_tables_out_dir_on_a_file_is_a_usage_error(capsys, tmp_path):
    script = load_script()
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with pytest.raises(SystemExit) as exc:
        script.main(["--out-dir", str(not_a_dir)])
    assert exc.value.code == 2
    assert "--out-dir" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, columns, argv",
    [
        ("dk_table.csv", (0, 2), ["table", "dk", "--to", "30"]),
        ("tree_table.csv", (0, 1), ["table", "trees", "--to", "12"]),
    ],
    ids=["dk", "trees"],
)
def test_reproduce_tables_rows_equal_the_table_command(capsys, tmp_path, name, columns, argv):
    # the script and `octachain table` render the same rows, byte for byte
    assert load_script().main(["--n-max", "1", "--out-dir", str(tmp_path)]) == 0
    raw = (tmp_path / name).read_bytes()
    assert b"\r" not in raw
    capsys.readouterr()
    assert cli.main(argv) == 0
    table = capsys.readouterr().out.splitlines()[1:]
    rows = raw.decode().splitlines()[1:]
    assert [",".join(row.split(",")[i] for i in columns) for row in rows] == table
