import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from octachain import cli
from octachain import closed_forms as cf
from octachain import exact_algebra as xa
from octachain import reference_data as ref


def run_cli(args):
    return cli.main(args)


def test_graph_json(capsys):
    assert run_cli(["graph", "--n", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "moebius"
    assert data["vertices"] == 6
    assert data["edges"][0] == [0, 1]


def test_graph_edgelist_default_kind(capsys):
    assert run_cli(["graph", "--n", "1", "--format", "edgelist"]) == 0
    assert capsys.readouterr().out == "0 1\n0 3\n0 5\n1 2\n2 3\n3 4\n4 5\n"


def test_graph_linear_dot(capsys):
    assert run_cli(["graph", "--n", "2", "--kind", "linear", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "graph L2 {"


def test_graph_rejects_nonpositive_n():
    with pytest.raises(SystemExit) as exc:
        run_cli(["graph", "--n", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("n", [10**19, 10**30], ids=["1e19", "1e30"])
@pytest.mark.parametrize("command", ["graph", "spectrum"])
def test_n_past_any_array_size_is_a_usage_error(capsys, command, n):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--n", str(n)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"value must be at most {sys.maxsize // 144}" in err
    assert "Traceback" not in err


def test_n_up_to_the_array_bound_parses():
    parser = cli.build_parser()
    limit = sys.maxsize // 144
    for command in ("graph", "spectrum"):
        assert parser.parse_args([command, "--n", str(limit)]).n == limit


def test_graph_rejects_bad_kind():
    with pytest.raises(SystemExit) as exc:
        run_cli(["graph", "--n", "1", "--kind", "hex"])
    assert exc.value.code == 2


def test_spectrum_full_csv(capsys):
    assert run_cli(["spectrum", "--n", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,eigenvalue,block"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    values = [float(r[1]) for r in rows]
    blocks = [r[2] for r in rows]
    expected = [0.0, 0.5, 5 / 6, 7 / 6, 1.5, 2.0]
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, abs=1e-9)
    assert blocks == ["A", "S", "S", "A", "A", "S"]
    assert [int(r[0]) for r in rows] == list(range(6))


def test_spectrum_block_json(capsys):
    assert run_cli(["spectrum", "--n", "1", "--matrix", "S", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 1
    assert data["matrix"] == "S"
    assert data["eigenvalues"] == pytest.approx([0.5, 5 / 6, 2.0], abs=1e-9)


def test_spectrum_full_json_labels(capsys):
    assert run_cli(["spectrum", "--n", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matrix"] == "full"
    assert len(data["eigenvalues"]) == 12
    assert {e["block"] for e in data["eigenvalues"]} == {"A", "S"}
    vals = [e["value"] for e in data["eigenvalues"]]
    assert vals == sorted(vals)


def test_table_dk_csv(capsys):
    assert run_cli(["table", "dk", "--from", "1", "--to", "3"]) == 0
    assert capsys.readouterr().out == "n,dk\n1,73.13\n2,448.67\n3,1251.40\n"


def test_table_dk_compare(capsys):
    assert run_cli(["table", "dk", "--from", "1", "--to", "2", "--compare-paper"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,dk,published,match"
    assert lines[1] == "1,73.13,73.13,yes"
    assert lines[2] == "2,448.67,319.17,no"


def test_table_trees_compare_all_match(capsys):
    assert run_cli(
        ["table", "trees", "--from", "1", "--to", "12", "--compare-paper"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,trees,published,match"
    assert lines[1] == "1,15,15,yes"
    assert lines[-1] == "12,1020809018952,1020809018952,yes"
    assert all(line.endswith(",yes") for line in lines[1:])


def test_table_trees_mutation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cf, "table_terms", lambda which, start, end: [(7, 1), (7, 1)])
    code = run_cli(["table", "trees", "--from", "1", "--to", "2", "--compare-paper"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(",no")


def _reference_table(which, start, end, fmt, compare):
    """The table output rendered row by row from the per-n closed forms."""
    rows = []
    for n in range(start, end + 1):
        if which == "trees":
            exact = value = str(cf.spanning_trees(n))
        else:
            q, places = (cf.dk_index(n), 2) if which == "dk" else (cf.kemeny(n), 6)
            exact, value = xa.frac_to_str(q), xa.frac_to_decimal_str(q, places)
        row = {"n": n, "exact": exact, "value": value}
        if compare:
            published = {"dk": ref.PUBLISHED_DK, "trees": ref.PUBLISHED_TREES}[which][n]
            row["published"] = str(published)
            row["match"] = value == str(published)
        rows.append(row)
    if fmt == "json":
        return json.dumps({"which": which, "rows": rows}) + "\n"
    lines = [f"n,{which}" + (",published,match" if compare else "")]
    for row in rows:
        line = f"{row['n']},{row['value']}"
        if compare:
            line += f",{row['published']},{'yes' if row['match'] else 'no'}"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "which, start, end, compare",
    [
        pytest.param("dk", 1, 300, False, id="dk-300-False"),
        pytest.param("kemeny", 1, 300, False, id="kemeny-300-False"),
        pytest.param("trees", 1, 300, False, id="trees-300-False"),
        pytest.param("dk", 1, 30, True, id="dk-30-True"),
        pytest.param("trees", 1, 12, True, id="trees-12-True"),
        pytest.param("dk", 2990, 3000, False, id="dk-2990-3000-False"),
        pytest.param("kemeny", 2990, 3000, False, id="kemeny-2990-3000-False"),
    ],
)
def test_table_matches_per_n_rendering(capsys, which, start, end, compare, fmt):
    argv = ["table", which, "--from", str(start), "--to", str(end), "--format", fmt]
    assert run_cli(argv + (["--compare-paper"] if compare else [])) == 0
    assert capsys.readouterr().out == _reference_table(which, start, end, fmt, compare)


@pytest.mark.parametrize("which", ["dk", "kemeny"])
def test_table_csv_rounds_without_a_gcd(capsys, monkeypatch, which):
    # Fraction reduces through math.gcd: the CSV rows are rounded from the
    # unreduced pairs, while the json exact column is still reduced
    want = _reference_table(which, 1, 50, "csv", False)

    def no_gcd(*args):
        raise AssertionError("math.gcd called")

    monkeypatch.setattr(math, "gcd", no_gcd)
    assert run_cli(["table", which, "--to", "50"]) == 0
    assert capsys.readouterr().out == want
    with pytest.raises(AssertionError, match="math.gcd called"):
        run_cli(["table", which, "--to", "50", "--format", "json"])


def test_table_kemeny_json(capsys):
    assert run_cli(["table", "kemeny", "--from", "1", "--to", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["which"] == "kemeny"
    assert data["rows"][0] == {"n": 1, "exact": "1097/210", "value": "5.223810"}
    assert data["rows"][1]["value"] == "16.023810"


def test_table_dk_json_exact(capsys):
    assert run_cli(["table", "dk", "--from", "1", "--to", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"] == [{"n": 1, "exact": "1097/15", "value": "73.13"}]


def test_table_kemeny_compare_rejected():
    with pytest.raises(SystemExit) as exc:
        run_cli(["table", "kemeny", "--from", "1", "--to", "2", "--compare-paper"])
    assert exc.value.code == 2


def test_table_compare_range_limits():
    with pytest.raises(SystemExit) as exc:
        run_cli(["table", "dk", "--from", "1", "--to", "31", "--compare-paper"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["table", "trees", "--from", "1", "--to", "13", "--compare-paper"])
    assert exc.value.code == 2


def test_table_exact_column_past_the_digit_limit(capsys):
    # dk(10000) has a denominator of about 4480 digits
    argv = ["table", "dk", "--from", "10000", "--to", "10000", "--format", "json"]
    assert run_cli(argv) == 0
    exact = json.loads(capsys.readouterr().out)["rows"][0]["exact"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(exact) == cf.dk_index(10000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_table_bad_range():
    with pytest.raises(SystemExit) as exc:
        run_cli(["table", "dk", "--from", "3", "--to", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["table", "dk", "--from", "5", "--to", "3"], "usage: octachain table "),
        (["verify", "--json-out", "missing/r.json"], "usage: octachain verify "),
    ],
    ids=["table", "verify"],
)
def test_usage_errors_name_the_subcommand(capsys, monkeypatch, tmp_path, argv, usage):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(usage)


def test_verify_passes(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code = run_cli(["verify", "--n-max", "2", "--json-out", str(out_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "tree_count_oracle" in out
    assert "published_dk" in out
    data = json.loads(out_file.read_text())
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] == len(data["checks"])


def _masked_numeric_actuals(report):
    # the float strings of the numeric checks depend on the LAPACK build, so
    # each is checked against its tolerance here and then masked
    for check in report["checks"]:
        if check["mode"] != "numeric":
            continue
        tol, actual = check["tolerance"], check["actual"]
        if check["name"] == "block_spectrum_union":
            assert float(actual.removeprefix("gap ")) <= tol
        else:
            lam_max = float(actual.removeprefix("max eigenvalue "))
            if check["expected"].endswith("(bipartite)"):
                assert abs(lam_max - 2.0) <= tol
            else:
                assert lam_max < 2.0 - tol
        check["actual"] = "<numeric>"
    return report


def test_verify_golden_output(capsys, tmp_path):
    # SHA-256 of the stdout and the --json-out report of `verify --n-max 3`;
    # any change to a check name, verdict, rendering or key order shows here
    out_file = tmp_path / "report.json"
    assert run_cli(["verify", "--n-max", "3", "--json-out", str(out_file)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == (
        "16103e4e670b0bad091267d2cb84c7ebab810c2a8dcc1f52b2f61b3246c8d6bd"
    )
    report = _masked_numeric_actuals(json.loads(out_file.read_text()))
    assert hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest() == (
        "49be8500abdee350d7c1f961923e289a1aaa65ea0732b182ace1330d068e6f2e"
    )


def test_verify_unwritable_json_out_exits_2_before_running(capsys, monkeypatch, tmp_path):
    def run_verification(n_max):
        raise AssertionError("the suite ran before the output was opened")

    monkeypatch.setattr(cli.ver, "run_verification", run_verification)
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--json-out", str(tmp_path / "missing" / "r.json")])
    assert exc.value.code == 2
    assert "--json-out" in capsys.readouterr().err


def test_verify_empty_json_out_exits_2_before_running(capsys, monkeypatch):
    def run_verification(n_max):
        raise AssertionError("the suite ran with no report file open")

    monkeypatch.setattr(cli.ver, "run_verification", run_verification)
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--json-out", ""])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot write --json-out file: " in err


def test_verify_mutation_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cf, "spanning_trees", lambda n: 999)
    code = run_cli(["verify", "--n-max", "2"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli([])
    assert exc.value.code == 2


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "octachain", "graph", "--n", "1", "--format", "edgelist"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0 1\n0 3\n0 5\n1 2\n2 3\n3 4\n4 5\n"


def test_subprocess_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "octachain", "graph", "--n", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "--n" in proc.stderr


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_interpreter(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_exact_commands_never_load_numpy():
    proc = _fresh_interpreter(
        "import contextlib, io, sys\n"
        "import octachain\n"
        "from octachain import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['table', 'dk', '--to', '3']) == 0\n"
        "    assert cli.main(['graph', '--n', '2']) == 0\n"
        "from octachain import laplacian as lap\n"
        "lap.normalized_laplacian(octachain.build_moebius_octagonal(3))\n"
        "for family in 'AS':\n"
        "    lap.block_cells(family)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_spectrum_loads_numpy_on_its_float_call(capsys):
    proc = _fresh_interpreter(
        "import sys\n"
        "from octachain import cli\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported at startup'\n"
        "code = cli.main(['spectrum', '--n', '2'])\n"
        "assert 'numpy' in sys.modules, 'numpy was never imported'\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert run_cli(["spectrum", "--n", "2"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_build_parser_is_shared_and_clearable():
    assert cli.build_parser() is cli.build_parser()
    assert callable(cli.build_parser.cache_clear)
    assert callable(cli.build_parser.cache_info)


@pytest.mark.parametrize(
    "before, argv",
    [
        (["spectrum", "--n", "2", "--format", "json"], ["spectrum", "--n", "2"]),
        (["table", "dk", "--to", "3", "--compare-paper"], ["table", "dk", "--to", "3"]),
    ],
    ids=["spectrum", "table"],
)
def test_consecutive_calls_keep_no_state(capsys, before, argv):
    cli.build_parser.cache_clear()
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(before) == 0
    capsys.readouterr()
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == first
    assert "published" not in first


def test_usage_error_after_a_success_is_unchanged(capsys):
    bad = ["table", "dk", "--from", "5", "--to", "2"]
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        run_cli(bad)
    assert exc.value.code == 2
    fresh = capsys.readouterr()

    assert run_cli(["table", "dk", "--to", "3"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(bad)
    assert exc.value.code == 2
    assert capsys.readouterr() == fresh
    assert run_cli(["table", "dk", "--to", "3"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "2"],
        ["table", "dk", "--to", "3"],
        ["graph", "--n", "2", "--format", "edgelist"],
        ["spectrum", "--n", "2"],
    ],
    ids=["verify", "table", "graph", "spectrum"],
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # the read end closes long before the interpreter has started up
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "octachain", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate()
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError(), "octachain: out of memory: allocation failed"),
        (
            MemoryError("Unable to allocate 7.11 PiB"),
            "octachain: out of memory: Unable to allocate 7.11 PiB",
        ),
    ],
    ids=["bare", "numpy"],
)
def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch, error, line):
    def main():
        raise error

    monkeypatch.setattr(cli, "main", main)
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", line + "\n")


def test_spectrum_labels_and_values_match_the_dense_blocks(capsys):
    from octachain import oracles as orc
    from walk_matrix import dense_fold_block

    n = 40
    assert run_cli(["spectrum", "--n", str(n)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    values = [float(v) for _, v, _ in rows]
    assert values == sorted(values)
    for family in "AS":
        got = [float(v) for _, v, b in rows if b == family]
        assert len(got) == 3 * n
        dense = orc.eigenvalues_symmetric(dense_fold_block(n, family))
        assert max(abs(a - b) for a, b in zip(got, dense)) <= 1e-12


def test_spectrum_reaches_large_n(capsys):
    assert run_cli(["spectrum", "--n", "20000", "--matrix", "S", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    values = data["eigenvalues"]
    assert len(values) == 60000
    assert values == sorted(values)
    assert 0.0 <= values[0] and values[-1] <= 2.0


def _on_full_disk(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "octachain", *argv],
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        **kwargs,
    )


needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full"
)


@needs_dev_full
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "1"],
        ["table", "dk", "--to", "3"],
        ["graph", "--n", "2", "--format", "edgelist"],
        ["spectrum", "--n", "2"],
    ],
    ids=["verify", "table", "graph", "spectrum"],
)
def test_full_stdout_exits_2_without_a_traceback(argv):
    with open("/dev/full", "w") as full:
        proc = _on_full_disk(argv, stdout=full)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "cannot write the output" in proc.stderr


@needs_dev_full
def test_verify_json_out_on_a_full_disk_exits_2():
    proc = _on_full_disk(
        ["verify", "--n-max", "1", "--json-out", "/dev/full"], stdout=subprocess.PIPE
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "cannot write --json-out" in proc.stderr
