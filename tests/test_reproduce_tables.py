import importlib.util
from pathlib import Path

import pytest

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


def test_reproduce_tables_out_dir_on_a_file_is_a_usage_error(capsys, tmp_path):
    script = load_script()
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    with pytest.raises(SystemExit) as exc:
        script.main(["--out-dir", str(not_a_dir)])
    assert exc.value.code == 2
    assert "--out-dir" in capsys.readouterr().err
