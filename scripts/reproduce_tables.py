#!/usr/bin/env python3
"""Rebuild the summary tables and the verification report from scratch.

Three artifacts are written to --out-dir:

  dk_table.csv        multiplicative degree-Kirchhoff index for n = 1..30:
                      exact rational, 2-decimal rendering, and the bundled
                      published figure with a match column
  tree_table.csv      spanning-tree counts for n = 1..12 against the
                      normalized published sequence
  verification.json   full cross-check report (closed forms vs oracles)

A short recap is printed to stdout.  Exit status is 0 only if every
non-informational verification check passes and every tree count matches;
the published dk figures are known to disagree for n >= 2 and do not
affect the exit status.  A usage error, such as an --out-dir that cannot
be created, exits with status 2 before any work.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from octachain import reference_data as ref
from octachain.verification import report_to_json, run_verification

DK_RANGE = range(1, 31)
TREE_RANGE = range(1, 13)


def write_table(path: Path, which: str, span: range, header: list[str]) -> int:
    """Write the rows n in `span` of the `which` table, each compared with
    its published figure; return how many disagree."""
    mismatches = 0
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in ref.table_rows(which, span[0], span[-1], compare=True, exact=True):
            mismatches += not row["match"]
            match = "yes" if row["match"] else "no"
            if which == "dk":
                cells = [row["n"], row["exact"], row["value"], row["published"], match]
            else:
                note = ref.TREE_NORMALIZATION_NOTES.get(row["n"], "")
                cells = [row["n"], row["value"], row["published"], match, note]
            writer.writerow(cells)
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=Path("output"),
        help="directory for the generated artifacts (default: %(default)s)",
    )
    parser.add_argument(
        "--n-max",
        type=int,
        default=6,
        help="largest chain length exercised by the verification suite "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)
    if args.n_max < 1:
        parser.error("--n-max must be a positive integer")

    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"--out-dir: cannot create {args.out_dir}: {exc.strerror}")

    dk_path = args.out_dir / "dk_table.csv"
    dk_mismatches = write_table(
        dk_path, "dk", DK_RANGE, ["n", "exact", "rounded", "published", "match"]
    )
    print(
        f"wrote {dk_path}: {len(DK_RANGE)} rows, {dk_mismatches} published figures "
        "disagree (expected for n >= 2; informational only)"
    )

    tree_path = args.out_dir / "tree_table.csv"
    tree_mismatches = write_table(
        tree_path, "trees", TREE_RANGE, ["n", "computed", "published", "match", "note"]
    )
    print(f"wrote {tree_path}: {len(TREE_RANGE)} rows, {tree_mismatches} mismatches")

    report = run_verification(args.n_max)
    json_path = args.out_dir / "verification.json"
    json_path.write_text(report_to_json(report) + "\n")
    summary = report.summary
    print(
        f"wrote {json_path}: {summary['passed']}/{summary['total']} checks passed, "
        f"{summary['failed']} failed, {summary['informational']} informational"
    )

    return 0 if summary["failed"] == 0 and tree_mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
