"""octachain benchmark: one closed-loop client drives fixed workloads through
the program's public entry points and reports end-to-end and per-layer
metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                    # every workload, one process each

Run it from the root of a source tree; it imports the program from ``src/``.
A pass runs every op of the workload once, in an order shuffled by the seed,
with every ``lru_cache`` of the package cleared first, as each CLI call
starts with empty caches. Passes repeat until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: the trace shim
wraps the public functions of every layer from outside. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("verify", "tables", "spectrum")
MIN_PASSES = {"full": 3, "smoke": 1}
SETUP_REPS = {"full": 7, "smoke": 1}
SETUP_CODE = "import octachain.cli as c; c.build_parser()"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# <module>.<function>.<stat>; see README.md for which end-to-end metric and
# workload each one should move
PER_LAYER = [
    "oracles.resistance_matrix_exact.self_s",
    "oracles.resistance_matrix_exact.hit_ratio",
    "exact_algebra.invert_fraction_matrix.self_s",
    "exact_algebra.invert_fraction_matrix.order3",
    "oracles.charpoly_exact.self_s",
    "oracles.charpoly_exact.calls",
    "exact_algebra.bareiss_det_int.self_s",
    "exact_algebra.bareiss_det_int.calls",
    "exact_algebra.bareiss_det_int.order3",
    "oracles.kemeny_oracle.self_s",
    "oracles.kemeny_oracle.hit_ratio",
    "exact_algebra.det_fraction.self_s",
    "exact_algebra.det_fraction.calls",
    "exact_algebra.leading_principal_minors.self_s",
    "oracles.spanning_trees_oracle.self_s",
    "verification.run_verification.self_s",
    "oracles.eigenvalues_symmetric.self_s",
    "oracles.eigenvalues_symmetric.calls",
    "oracles.eigenvalues_symmetric.order3",
    "laplacian.block_decompose.self_s",
    "laplacian.block_decompose.hit_ratio",
    "laplacian.normalized_laplacian.self_s",
    "graph_gen.build_moebius_octagonal.self_s",
    "graph_gen.build_moebius_octagonal.hit_ratio",
    "laplacian.rational_block_image.self_s",
    "laplacian.rational_phase_image.self_s",
    "laplacian.rational_walk_laplacian.self_s",
    "laplacian.combinatorial_laplacian.self_s",
    "graph_gen.is_connected.self_s",
    "graph_gen.is_bipartite.self_s",
    "closed_forms.xi.self_s",
    "closed_forms.xi.calls",
    "exact_algebra.quad_pow.self_s",
    "exact_algebra.quad_pow.calls",
    "exact_algebra.lucas_t.self_s",
    "exact_algebra.lucas_t.calls",
    "exact_algebra.lucas_u.self_s",
    "exact_algebra.lucas_u.calls",
    "closed_forms.spanning_trees.self_s",
    "closed_forms.w_minor.self_s",
    "closed_forms.w_minor.hit_ratio",
    "closed_forms.q_minor.self_s",
    "closed_forms.q_minor.hit_ratio",
    "closed_forms.minor_det_la.self_s",
    "closed_forms.minor_det_ls.self_s",
    "cli.main.self_s",
    "exact_algebra.frac_to_str.self_s",
    "exact_algebra.frac_to_decimal_str.self_s",
    "trace_overhead_ratio",
]
STAT_UNITS = {"self_s": "s", "calls": "count", "order3": "count", "hit_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return STAT_UNITS.get(metric.rsplit(".", 1)[-1], "ratio")


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def git_rev() -> str:
    """The commit checked out at ROOT, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(reps: int) -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    building its parser, after one untimed run that writes bytecode."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = pinned_env()
    subprocess.run(cmd, env=env, check=True, cwd=ROOT)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Pass:
    def __init__(self, outcomes, cache_stats, spans, traced):
        self.outcomes = outcomes  # [(op, Outcome)] in run order
        self.cache_stats = cache_stats  # name -> CacheInfo at the end
        self.spans = spans  # (start, stop) indices into the tracer's spans
        self.traced = traced
        self.wall = sum(o.seconds for _, o in outcomes)

    def group_time(self, group: str) -> float:
        return sum(o.seconds for op, o in self.outcomes if op.group == group)


def run_pass(workload, rng, caches, tracer=None) -> Pass:
    from bench_ops import execute

    for cache in caches.values():
        cache.cache_clear()
    gc.collect()
    ops = list(workload.ops)
    rng.shuffle(ops)
    first = len(tracer.spans) if tracer else 0
    with tracer.installed() if tracer else nullcontext():
        outcomes = [(op, execute(op)) for op in ops]
    stats = {name: cache.cache_info() for name, cache in caches.items()}
    spans = (first, len(tracer.spans)) if tracer else None
    return Pass(outcomes, stats, spans, tracer is not None)


def run_passes(workload, args, size, tracer=None) -> list[Pass]:
    """Closed loop: each pass starts when the previous one has ended. With a
    tracer, untraced and traced passes alternate, at least one of each."""
    from bench_ops import find_caches

    rng = random.Random(args.seed)
    caches = find_caches()
    passes: list[Pass] = []
    start = time.perf_counter()

    def done() -> bool:
        if time.perf_counter() - start < args.seconds:
            return False
        if tracer is not None:
            return any(p.traced for p in passes) and any(not p.traced for p in passes)
        return len(passes) >= MIN_PASSES[size]

    while not done():
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(workload, rng, caches, tracer if traced else None))
    return passes


def failures(passes) -> tuple[int, int, int, list[str]]:
    attempted = failed = defects = 0
    notes = []
    for p in passes:
        for op, outcome in p.outcomes:
            attempted += 1
            if outcome.status == "failed":
                failed += 1
                notes.append(f"{op.name}: {outcome.detail}")
            elif outcome.status == "known_defect":
                defects += 1
                notes.append(f"{op.name}: known defect, {outcome.detail}")
    return attempted, failed, defects, notes


def layer_metrics(passes, per_pass) -> dict[str, float]:
    """The PER_LAYER metrics; `per_pass` holds the span aggregates of each
    traced pass."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        if metric == "trace_overhead_ratio":
            values[metric] = statistics.median(p.wall for p in traced) / statistics.median(
                p.wall for p in plain
            )
            continue
        func, stat = metric.rsplit(".", 1)
        if stat == "hit_ratio":
            infos = [p.cache_stats[func] for p in traced if func in p.cache_stats]
            hits = sum(info.hits for info in infos)
            lookups = hits + sum(info.misses for info in infos)
            values[metric] = hits / lookups if lookups else 0.0
        else:
            values[metric] = statistics.median(
                agg[func][stat] if func in agg else 0.0 for agg in per_pass
            )
    return values


def print_metric(workload: str, name: str, value, unit: str, note: str = "") -> None:
    print(f"{workload:<9} {name:<52} {value:<22} {unit:<6} {note}".rstrip())


def run_workload(args) -> int:
    from bench_ops import build, load_golden
    from bench_trace import Tracer

    size = "smoke" if args.smoke else "full"
    workload = build(args.workload, size, load_golden())
    env = environment()
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} size={size} seed={args.seed} trace={args.trace}")

    tracer = Tracer() if args.trace else None
    if not args.trace:
        setup_s = measure_setup(SETUP_REPS[size])
    passes = run_passes(workload, args, size, tracer)
    attempted, failed, defects, notes = failures(passes)
    for note in sorted(set(notes)):
        print(f"# op {note}")
    name = args.workload

    if args.trace:
        traced = [p for p in passes if p.traced]
        per_pass = [tracer.aggregate(*p.spans) for p in traced]
        metrics = layer_metrics(passes, per_pass)
        print(f"# self time and calls summed over {len(traced)} traced passes")
        totals: dict[str, list] = {}
        for agg in per_pass:
            for func, entry in agg.items():
                total = totals.setdefault(func, [0.0, 0])
                total[0] += entry["self_s"]
                total[1] += entry["calls"]
        for func, (self_s, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
            print(f"#   {func:<44} {self_s:>10.4f} s {calls:>9} calls")
        covered = sum(self_s for self_s, _ in totals.values())
        traced_wall = sum(p.wall for p in traced)
        print(
            f"# layers' self time covers {covered / traced_wall:.4f} of the traced "
            f"pass time {traced_wall:.4f} s"
        )
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"{name}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        for metric in PER_LAYER:
            print_metric(name, metric, metrics[metric], unit_of(metric))
    else:
        walls = [p.wall for p in passes]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print_metric(name, "wall_s", metrics["wall_s"], "s", f"median of {len(walls)} passes")
        print_metric(name, "setup_s", setup_s, "s", f"median of {SETUP_REPS[size]} interpreters")
        print_metric(name, "peak_rss_mb", metrics["peak_rss_mb"], "MiB")
        print_metric(
            name,
            "failed_ratio",
            (failed + defects) / attempted,
            "ratio",
            f"{failed} failed + {defects} known-defect of {attempted} ops",
        )
        for metric, group in workload.groups.items():
            value = statistics.median(p.group_time(group) for p in passes)
            print_metric(name, metric, value, "s", f"median of {len(passes)} passes")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": END_TO_END.get(metric) or unit_of(metric)}
            for metric, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, env=pinned_env(), cwd=ROOT)
        status = status or done.returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's tests"
    )
    parser.add_argument(
        "--write-golden",
        action="store_true",
        help="recompute golden.json from the current program and exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "octachain" / "__init__.py").is_file():
        print(f"error: no octachain sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        from bench_ops import GOLDEN_PATH, capture_golden

        GOLDEN_PATH.write_text(json.dumps(capture_golden(), indent=2) + "\n")
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
