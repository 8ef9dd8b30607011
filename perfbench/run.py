"""Auric serving/refit benchmark: one command, four workloads.

    python3 perfbench/run.py --workload launch-seq --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1      # every workload, traced and not
    python3 perfbench/run.py --print-spec        # the BENCHMARK.json document

A run generates its inputs from ``--seed``, boots the system in separate
processes, drives the workload from this process for ``--seconds``,
checks every answer against an in-process oracle, prints a report and,
as its last line, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics untraced (``--trace 0``), the per-layer metrics
traced (``--trace 1``).  It exits 1 on a wrong answer or a void run, 2
when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)
sys.path.insert(1, os.path.join(ROOT, "src"))

from perfbench import spec  # noqa: E402


def metadata(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "workload": {
            name: {"generator": generator, "params": params, "seed": seed}
            for name, generator, params, _ in spec.WORKLOADS
        }[workload],
        "seconds": seconds,
        "trace": trace,
    }


def _commit() -> str:
    """HEAD of the checkout, read without running git (None outside a
    repository)."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return None


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    from perfbench.workloads import RUNNERS, Run

    base = os.path.join(HERE, "_work")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    try:
        run = Run(
            seed=seed, seconds=seconds, trace=trace, work_dir=work_dir,
            nproc=len(os.sched_getaffinity(0)),
        )
        return RUNNERS[workload](run)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _result_line(outcome, trace: bool) -> dict:
    names = [m[0] for m in (spec.PER_LAYER if trace else spec.END_TO_END)]
    units = {m[0]: m[1] for m in spec.PER_LAYER + spec.END_TO_END}
    source = outcome.layers if trace else outcome.metrics
    return {
        "correct": outcome.incorrect == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed + outcome.incorrect,
        "metrics": {
            name: {"value": float(source.get(name, 0.0)), "unit": units[name]}
            for name in names
        },
    }


def print_report(workload: str, outcome, trace: bool, meta: dict) -> None:
    error_share = (outcome.failed + outcome.incorrect) / max(outcome.attempted, 1)
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    print(f"== {workload} ({'traced' if trace else 'untraced'}) ==")
    print(f"  {'attempted':<36} {outcome.attempted}")
    print(f"  {'error_share':<36} {error_share:.6f}")
    for name, value in sorted(outcome.report.items()):
        print(f"  {name:<36} {value:.6g}")
    if trace:
        moves = dict(spec.layer_table())
        for name, unit, _, _ in spec.PER_LAYER:
            value = outcome.layers.get(name, 0.0)
            print(f"  {name:<36} {value:>12.6g} {unit:<6} -> {moves[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced and "
                        "print the tracing overhead")
    parser.add_argument("--print-spec", action="store_true")
    args = parser.parse_args(argv)

    if args.print_spec:
        sys.stdout.write(spec.render())
        return 0
    if not args.all and args.workload is None:
        parser.error("--workload (or --all) is required")
    try:
        import repro  # noqa: F401
        import numpy  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    from perfbench.workloads import VoidRun

    workloads = spec.WORKLOAD_NAMES if args.all else (args.workload,)
    modes = (False, True) if args.all else (bool(args.trace),)
    last = None
    overhead = {}
    for workload in workloads:
        p50 = {}
        for trace in modes:
            meta = metadata(workload, args.seed, args.seconds, trace)
            try:
                outcome = run_one(workload, args.seed, args.seconds, trace)
            except VoidRun as exc:
                print(f"error: void run: {exc}", file=sys.stderr)
                return 1
            print_report(workload, outcome, trace, meta)
            p50[trace] = outcome.layers.get("trace.p50_ms") if trace else outcome.metrics["p50_ms"]
            last = _result_line(outcome, trace)
            if not last["correct"]:
                print(f"error: {outcome.incorrect} incorrect answers", file=sys.stderr)
                print(json.dumps(last))
                return 1
        if args.all:
            overhead[workload] = p50[True] - p50[False]
    if args.all:
        print("== tracing overhead (traced - untraced p50, ms) ==")
        for workload, delta in overhead.items():
            print(f"  {workload:<36} {delta:+.4f}")
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
