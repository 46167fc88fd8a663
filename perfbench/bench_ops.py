"""The benchmark's workloads: fixed ops, how each is run, and how its output
is checked.

Every op goes through a public entry point of the program, ``cli.main(argv)``
with stdout captured or ``closed_forms.spectral_summary``, and is looked up
through its module at call time so that the trace shim sees it. Outputs that
must stay byte-identical are compared against SHA-256 digests in
``golden.json``; spectra are compared numerically against ``numpy.linalg.
eigvalsh`` of a matrix the benchmark builds itself from ``ChainGraph.edges``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from octachain import cli
from octachain import closed_forms as cf
from octachain import exact_algebra as xa
from octachain import graph_gen as gg

from bench_trace import package_modules

GOLDEN_PATH = Path(__file__).with_name("golden.json")
EIGEN_TOL = 1e-9

# "full" is what the benchmark measures; "smoke" is a tiny copy of every op
# that the benchmark's own tests run in a few seconds.
SIZES = {
    "full": {
        "verify_n": 10,
        "verify_summary": "241/250 checks passed, 0 failed, 9 informational",
        "dk_to": 1500,
        "trees_to": 2000,
        "large_n": 20000,
        "spectrum_large": 40,
        "sweep_to": 16,
    },
    "smoke": {
        "verify_n": 2,
        "verify_summary": "49/50 checks passed, 0 failed, 1 informational",
        "dk_to": 20,
        "trees_to": 20,
        "large_n": 200,
        "spectrum_large": 4,
        "sweep_to": 3,
    },
}

# Known defect: every tree count with n >= 4795 has more than 4300 digits, and
# `table trees` renders it with str(), which Python refuses beyond that limit.
# The op stays in the `tables` pass and is reported as a failed op until the
# program renders such counts; its digest in golden.json is that of the output
# the CLI gives once it does.
DEFECT_FROM, DEFECT_TO = 4790, 4800
DEFECT_MESSAGE = "Exceeds the limit"
DEFECT_OP = f"trees_{DEFECT_FROM}_{DEFECT_TO}"


@dataclass
class Op:
    """One operation of a pass: `run` returns (exit code, output text)."""

    name: str
    group: str
    run: Callable[[], tuple[int, str]]
    check: Callable[[str], str | None]
    known_defect: bool = False


@dataclass
class Outcome:
    seconds: float
    status: str  # "ok", "failed" or "known_defect"
    detail: str = ""


@dataclass
class Workload:
    ops: list[Op]
    groups: dict[str, str] = field(default_factory=dict)  # metric -> group


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def execute(op: Op) -> Outcome:
    """Run one op, timing only the call, then check what it produced."""
    clock = time.perf_counter
    start = clock()
    try:
        code, out = op.run()
    except SystemExit as exc:  # argparse usage errors exit through here
        return Outcome(clock() - start, "failed", f"exit {exc.code}")
    except Exception as exc:  # any raise is a failed op, never a crash
        seconds = clock() - start
        if op.known_defect and isinstance(exc, ValueError) and DEFECT_MESSAGE in str(exc):
            return Outcome(seconds, "known_defect", f"ValueError: {exc}"[:120])
        return Outcome(seconds, "failed", f"{type(exc).__name__}: {exc}"[:200])
    seconds = clock() - start
    if code != 0:
        return Outcome(seconds, "failed", f"exit code {code}")
    try:
        problem = op.check(out)
    except (ValueError, KeyError, TypeError) as exc:  # output did not parse
        problem = f"malformed output: {type(exc).__name__}: {exc}"[:200]
    if problem is not None:
        return Outcome(seconds, "failed", problem)
    return Outcome(seconds, "ok")


# ---------------------------------------------------------------------------
# Caches
# ---------------------------------------------------------------------------


def find_caches() -> dict:
    """Every lru_cache reachable from the package's module namespaces."""
    caches = {}
    for module in package_modules():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(
                getattr(obj, "cache_info", None)
            ):
                short = obj.__module__.rsplit(".", 1)[-1]
                caches[f"{short}.{obj.__qualname__}"] = obj
    return caches


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def digest_check(expected: str | None, summary: str | None = None):
    def check(out: str) -> str | None:
        if summary is not None:
            last = out.rstrip("\n").rsplit("\n", 1)[-1]
            if last != summary:
                return f"summary line {last!r} != {summary!r}"
        got = digest(out)
        if got != expected:
            return f"sha256 {got[:12]} != golden {str(expected)[:12]}"
        return None

    return check


def reference_spectra(n: int) -> dict[str, np.ndarray]:
    """Eigenvalues of I - D^-1/2 A D^-1/2 and of its two mirror-fold blocks.

    The matrix is built here from the graph's edge list; with vertices
    ordered top path then bottom path it is [[X, Y], [Y, X]], whose fold
    gives the blocks X + Y ("A") and X - Y ("S").
    """
    g = gg.build_moebius_octagonal(n)
    size, m = g.vertex_count, 3 * n
    adj = np.zeros((size, size))
    for a, b in g.edges:
        adj[a, b] = adj[b, a] = 1.0
    scale = 1.0 / np.sqrt(adj.sum(axis=1))
    normalized = scale[:, None] * adj * scale[None, :]
    x, y = normalized[:m, :m], normalized[:m, m:]
    return {
        "full": np.sort(1.0 - np.linalg.eigvalsh(normalized)),
        "A": np.sort(1.0 - np.linalg.eigvalsh(x + y)),
        "S": np.sort(1.0 - np.linalg.eigvalsh(x - y)),
    }


def _compare(label: str, got: list[float], want: np.ndarray) -> str | None:
    if len(got) != len(want):
        return f"{label}: {len(got)} eigenvalues, expected {len(want)}"
    gap = float(np.max(np.abs(np.sort(np.array(got)) - want))) if len(got) else 0.0
    if not gap <= EIGEN_TOL:
        return f"{label}: eigenvalue gap {gap:.3e} > {EIGEN_TOL:g}"
    return None


def spectrum_check(n: int, matrix: str, fmt: str):
    ref = reference_spectra(n)

    def check(out: str) -> str | None:
        if fmt == "csv":
            lines = out.rstrip("\n").split("\n")
            if lines[0] != "index,eigenvalue,block":
                return f"bad csv header {lines[0]!r}"
            rows = [line.split(",") for line in lines[1:]]
            pairs = [(float(value), block) for _, value, block in rows]
        else:
            data = json.loads(out)
            if data.get("n") != n or data.get("matrix") != matrix:
                return "json header does not match the request"
            if matrix == "full":
                pairs = [(e["value"], e["block"]) for e in data["eigenvalues"]]
            else:
                pairs = [(v, matrix) for v in data["eigenvalues"]]
        if matrix != "full":
            return _compare(matrix, [v for v, _ in pairs], ref[matrix])
        for label in ("A", "S"):
            count = sum(1 for _, b in pairs if b == label)
            if count != 3 * n:
                return f"block {label} occurs {count} times, expected {3 * n}"
        return (
            _compare("full", [v for v, _ in pairs], ref["full"])
            or _compare("A", [v for v, b in pairs if b == "A"], ref["A"])
            or _compare("S", [v for v, b in pairs if b == "S"], ref["S"])
        )

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def render_large_n(n: int) -> str:
    """spectral_summary(n) rendered as the CLI renders table values, plus
    every exact value in hex (hex() has no digit limit)."""
    s = cf.spectral_summary(n)
    fractions = (s.sum_recip_alpha, s.sum_recip_rho, s.dk, s.kemeny)
    lines = [
        xa.frac_to_decimal_str(s.dk, 2),
        xa.frac_to_decimal_str(s.kemeny, 6),
        xa.frac_to_decimal_str(s.sum_recip_alpha, 6),
        xa.frac_to_decimal_str(s.sum_recip_rho, 6),
    ]
    lines += [f"{hex(q.numerator)}/{hex(q.denominator)}" for q in fractions]
    lines.append(hex(s.tau))
    return "\n".join(lines) + "\n"


def build(name: str, size: str, golden: dict) -> Workload:
    """The ops of one pass of workload `name` at size "full" or "smoke".

    `golden` maps each size to the digests of its ops' outputs, by op name.
    """
    p = SIZES[size]
    digests = golden.get(size, {})

    def cli_op(op_name, group, argv, check=None, known_defect=False):
        check = check or digest_check(digests.get(op_name))
        return Op(op_name, group, lambda: run_cli(argv), check, known_defect)

    if name == "verify":
        verify = ["verify", "--n-max", str(p["verify_n"])]
        summary = digest_check(digests.get("verify"), p["verify_summary"])
        return Workload([cli_op("verify", "verify", verify, summary)])
    if name == "tables":
        large_n = p["large_n"]
        defect = ["table", "trees", "--from", str(DEFECT_FROM), "--to", str(DEFECT_TO)]
        ops = [
            cli_op("table_dk", "table_dk", ["table", "dk", "--to", str(p["dk_to"])]),
            cli_op(
                "table_trees", "table_trees", ["table", "trees", "--to", str(p["trees_to"])]
            ),
            cli_op(DEFECT_OP, "table_trees", defect, known_defect=True),
            Op(
                "large_n",
                "large_n",
                lambda: (0, render_large_n(large_n)),
                digest_check(digests.get("large_n")),
            ),
        ]
        groups = {"table_dk_s": "table_dk", "table_trees_s": "table_trees", "large_n_s": "large_n"}
        return Workload(ops, groups)
    if name == "spectrum":
        big = p["spectrum_large"]
        ops = [
            cli_op(
                "spectrum_large",
                "spectrum_large",
                ["spectrum", "--n", str(big)],
                spectrum_check(big, "full", "csv"),
            )
        ]
        for k in range(1, p["sweep_to"] + 1):
            for matrix in ("full", "A", "S"):
                ops.append(
                    cli_op(
                        f"spectrum_{k}_{matrix}",
                        "spectrum_sweep",
                        ["spectrum", "--n", str(k), "--matrix", matrix, "--format", "json"],
                        spectrum_check(k, matrix, "json"),
                    )
                )
        groups = {"spectrum_large_s": "spectrum_large", "spectrum_sweep_s": "spectrum_sweep"}
        return Workload(ops, groups)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------------


def decimal_digits(x: int) -> str:
    """str(x) for x >= 0, without the interpreter's 4300-digit limit."""
    if x < 10**4000:
        return str(x)
    half = int(x.bit_length() * 0.30103) // 2
    high, low = divmod(x, 10**half)
    return decimal_digits(high) + decimal_digits(low).rjust(half, "0")


def capture_golden() -> dict:
    """Digests of the current program's outputs, for every size.

    The known-defect op gets the digest of the CSV the CLI prints once it
    renders tree counts of any length.
    """
    rows = ["n,trees"] + [
        f"{n},{decimal_digits(cf.spanning_trees(n))}"
        for n in range(DEFECT_FROM, DEFECT_TO + 1)
    ]
    golden = {}
    for size in SIZES:
        digests = golden[size] = {}
        for name in ("verify", "tables"):
            for op in build(name, size, {}).ops:
                text = "\n".join(rows) + "\n" if op.known_defect else op.run()[1]
                digests[op.name] = digest(text)
    return golden
