"""Tests of the benchmark itself, at the tiny "smoke" sizes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_ops  # noqa: E402
import run as bench_run  # noqa: E402
from bench_trace import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# end-to-end metrics that only some workloads print
GROUP_METRICS = {
    "verify": set(),
    "tables": {"table_dk_s", "table_trees_s", "large_n_s"},
    "spectrum": {"spectrum_large_s", "spectrum_sweep_s"},
}


def smoke_run(trace: int) -> dict[str, tuple[list[str], dict]]:
    """{workload: (human-readable lines, result)} from one `--workload all`."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    runs, lines = {}, []
    for line in done.stdout.splitlines():
        if line.startswith("{"):
            runs[lines[0].split()[0]] = (lines, json.loads(line))
            lines = []
        elif not line.startswith("#"):
            lines.append(line)
    return runs


def test_smoke_emits_every_end_to_end_metric():
    runs = smoke_run(trace=0)
    assert sorted(runs) == sorted(bench_run.WORKLOADS)
    names = {m["name"] for m in SPEC["end_to_end"]}
    for workload, (lines, result) in runs.items():
        assert set(result["metrics"]) == names
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert result["correct"] and result["failed"] == 0
        printed = {line.split()[1] for line in lines}
        assert printed == names | {"failed_ratio"} | GROUP_METRICS[workload]
    # the known defect stays visible as a failed op of the tables pass
    failed_ratio = next(l for l in runs["tables"][0] if " failed_ratio " in l)
    assert failed_ratio.split()[2] == "0.25"


def test_smoke_emits_every_per_layer_metric():
    runs = smoke_run(trace=1)
    names = [m["name"] for m in SPEC["per_layer"]]
    assert names == bench_run.PER_LAYER
    for lines, result in runs.values():
        assert set(result["metrics"]) == set(names)
        assert result["metrics"]["trace_overhead_ratio"]["value"] > 0
    calls = runs["verify"][1]["metrics"]["exact_algebra.bareiss_det_int.calls"]
    assert calls["value"] > 0 and calls["unit"] == "count"


def test_corrupted_golden_digest_is_a_failed_op(monkeypatch, capsys):
    golden = bench_ops.load_golden()
    golden["smoke"]["table_dk"] = "0" * 64
    monkeypatch.setattr(bench_ops, "load_golden", lambda: golden)
    args = bench_run.parse_args(["--workload", "tables", "--smoke", "--seconds", "0"])
    assert bench_run.run_workload(args) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert result["failed"] == 1 and not result["correct"]
    assert any(line.startswith("# op table_dk: sha256") for line in out)


def test_only_the_recorded_defect_counts_as_known():
    def raises(exc):
        def run():
            raise exc

        return run

    limit = ValueError("Exceeds the limit (4300 digits) for integer string conversion")
    op = bench_ops.Op("t", "g", raises(limit), lambda out: None, known_defect=True)
    assert bench_ops.execute(op).status == "known_defect"
    op.run = raises(ValueError("something else"))
    assert bench_ops.execute(op).status == "failed"
    op.known_defect = False
    op.run = raises(limit)
    assert bench_ops.execute(op).status == "failed"


def test_trace_wraps_every_import_site():
    from octachain import exact_algebra, oracles

    original = oracles.bareiss_det_int
    oracles.spanning_trees_oracle.cache_clear()
    tracer = Tracer()
    with tracer.installed():
        assert oracles.bareiss_det_int is not original
        assert oracles.spanning_trees_oracle((3, ((0, 1), (1, 2), (0, 2)))) == 3
    assert oracles.bareiss_det_int is original
    assert exact_algebra.bareiss_det_int is original
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["oracles.spanning_trees_oracle", "laplacian.combinatorial_laplacian"]
    child = next(s for s in tracer.spans if s[0] == "exact_algebra.bareiss_det_int")
    assert tracer.spans[child[1]][0] == "oracles.spanning_trees_oracle"
    assert child[4] == 8  # a 2x2 cofactor: order cubed
    totals = tracer.aggregate(0, len(tracer.spans))
    root = tracer.spans[0]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root[3] - root[2])


def test_decimal_digits_matches_str_across_the_split():
    x = 7**5000  # 4226 digits: split in two, still printable by str()
    assert bench_ops.decimal_digits(x) == str(x)
