"""Command-line interface.

Four subcommands:

* ``graph``     -- emit a chain graph as json / edge list / DOT;
* ``spectrum``  -- eigenvalues of the normalized Laplacian (as the labelled
  union of the two fold blocks) or of a single block, each block's from
  its 3 x 3 Bloch symbols, so any n is in reach;
* ``table``     -- closed-form value tables (dk / trees / kemeny), optionally
  compared against the published rows with ``--compare-paper``;
* ``verify``    -- run the full cross-check suite and report pass/fail.

Exit codes: 0 on success, 1 when a verification or required comparison
fails, 2 for usage errors, for output that cannot be written (a
``--json-out`` report, or the console script's stdout on a full disk) and
for a console-script run that runs out of memory, and 141 (128 + SIGPIPE)
when the console script's stdout is closed before all the output is
written.  Comparisons of the dk table are informational (the published
rows beyond the first are known to diverge; the oracles side with the
closed form) and never affect the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import graph_gen as gg
from . import laplacian as lap
from . import oracles as orc
from . import reference_data as ref
from . import verification as ver


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("value must be a positive integer")
    # 144 bytes per angle of spectrum's complex 3 x 3 Bloch symbols, the
    # largest per-n array of any command: past this, its size overflows
    if value > sys.maxsize // 144:
        raise argparse.ArgumentTypeError(f"value must be at most {sys.maxsize // 144}")
    return value


def _cmd_graph(args) -> int:
    builder = (
        gg.build_moebius_octagonal
        if args.kind == gg.MOEBIUS
        else gg.build_linear_octagonal
    )
    text = gg.export(builder(args.n), args.format)
    if not text.endswith("\n"):
        text += "\n"
    sys.stdout.write(text)
    return 0


def _cmd_spectrum(args) -> int:
    full = args.matrix == "full"
    pairs = sorted(
        (v, family)
        for family in ("AS" if full else args.matrix)
        for v in orc.bloch_eigenvalues(*lap.block_cells(family), args.n)
    )

    if args.format == "csv":
        lines = ["index,eigenvalue,block"]
        lines += [f"{i},{v:.17g},{b}" for i, (v, b) in enumerate(pairs)]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        eigenvalues = [{"value": v, "block": b} if full else v for v, b in pairs]
        sys.stdout.write(
            json.dumps(
                {"n": args.n, "matrix": args.matrix, "eigenvalues": eigenvalues}
            )
            + "\n"
        )
    return 0


def _cmd_table(args, parser: argparse.ArgumentParser) -> int:
    if args.end < args.start:
        parser.error("--to must not be smaller than --from")
    as_json, compare = args.format == "json", args.compare_paper
    try:
        rows = ref.table_rows(args.which, args.start, args.end, compare, as_json)
    except ValueError as exc:
        parser.error(str(exc))

    out = []  # the rows for json; for csv only their lines
    mismatch = False
    for row in rows:
        mismatch |= compare and not row["match"]
        if as_json:
            out.append(row)
            continue
        line = f"{row['n']},{row['value']}"
        if compare:
            line += f",{row['published']},{'yes' if row['match'] else 'no'}"
        out.append(line)

    if as_json:
        sys.stdout.write(json.dumps({"which": args.which, "rows": out}) + "\n")
    else:
        header = f"n,{args.which}" + (",published,match" if compare else "")
        sys.stdout.write("\n".join([header, *out]) + "\n")
    # dk rows are informational; a trees mismatch fails
    return 1 if mismatch and args.which == "trees" else 0


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    # the report file is opened before the long run, so a bad path fails
    # first, and written and closed before stdout; run_verification does no
    # I/O, so an OSError here is the report file's own
    try:
        with (
            open(args.json_out, "w", encoding="utf-8")
            if args.json_out is not None
            else contextlib.nullcontext()
        ) as out:
            report = ver.run_verification(args.n_max)
            if args.json_out is not None:
                out.write(ver.report_to_json(report) + "\n")
    except OSError as exc:
        parser.error(f"cannot write --json-out file: {exc}")
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "PASS" if c.passed else ("INFO" if c.informational else "FAIL")
        line = f"{status}  {c.name:<{width}}  n={c.n}"
        if not c.passed:
            line += f"  (expected {c.expected}, got {c.actual})"
        if c.note:
            line += f"  [{c.note}]"
        print(line)
    s = report.summary
    print(
        f"{s['passed']}/{s['total']} checks passed, "
        f"{s['failed']} failed, {s['informational']} informational"
    )
    return 0 if s["failed"] == 0 else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser shared by every `main` call in the process.

    Parsing keeps no state on it: each `parse_args` makes a fresh namespace,
    and the handlers use the parser only for `error`.  Callers must not add
    to it or change it.
    """
    parser = argparse.ArgumentParser(
        prog="octachain",
        description="Octagonal chain graphs and their normalized-Laplacian "
        "spectral invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="emit a chain graph")
    p_graph.add_argument("--n", type=positive_int, required=True)
    p_graph.add_argument(
        "--kind", choices=(gg.MOEBIUS, gg.LINEAR), default=gg.MOEBIUS
    )
    p_graph.add_argument(
        "--format", choices=("json", "edgelist", "dot"), default="json"
    )
    p_graph.set_defaults(handler=lambda args: _cmd_graph(args))

    p_spec = sub.add_parser(
        "spectrum", help="eigenvalues of the closed chain or one fold block"
    )
    p_spec.add_argument("--n", type=positive_int, required=True)
    p_spec.add_argument("--matrix", choices=("full", "A", "S"), default="full")
    p_spec.add_argument("--format", choices=("csv", "json"), default="csv")
    p_spec.set_defaults(handler=lambda args: _cmd_spectrum(args))

    p_table = sub.add_parser("table", help="closed-form value tables")
    p_table.add_argument("which", choices=("dk", "trees", "kemeny"))
    p_table.add_argument(
        "--from", dest="start", type=positive_int, default=1
    )
    p_table.add_argument("--to", dest="end", type=positive_int, default=10)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument(
        "--compare-paper",
        action="store_true",
        help="add published-row comparison columns (dk rows are "
        "informational; a trees mismatch sets exit code 1)",
    )
    p_table.set_defaults(handler=lambda args: _cmd_table(args, p_table))

    p_verify = sub.add_parser("verify", help="run the full cross-check suite")
    p_verify.add_argument("--n-max", type=positive_int, default=6)
    p_verify.add_argument("--json-out", default=None)
    p_verify.set_defaults(handler=lambda args: _cmd_verify(args, p_verify))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


def entry() -> None:
    """Console script: `main` on the process's argv, then exit with its code."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout
        _silence_stdout()
        code = 141
    except OSError as exc:  # stdout could not be written, on a full disk say
        _silence_stdout()
        print(f"octachain: cannot write the output: {exc}", file=sys.stderr)
        code = 2
    except MemoryError as exc:  # an n far too large to hold, say
        reason = str(exc) or "allocation failed"
        print(f"octachain: out of memory: {reason}", file=sys.stderr)
        code = 2
    sys.exit(code)


def _silence_stdout() -> None:
    """Point stdout at devnull, so the interpreter's final flush of what is
    left in its buffer cannot raise again (see "Note on SIGPIPE" in the
    `signal` docs)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
