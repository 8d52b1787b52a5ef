#!/usr/bin/env python3
"""curvlab benchmark: three workloads, checked outputs, whole-run metrics.

    python3 perfbench/run.py --workload impose|pinch|classify --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--workload W] [--seed N]

A run builds the workload's inputs from the seed, then replays whole rounds
of the same checked operations until S seconds have passed.  Untraced runs
(--trace 0) report the end-to-end metrics; traced runs (--trace 1) wrap
curvlab's layer boundaries and report per-layer figures per round.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  --self-test feeds
every check deliberately wrong answers and fails unless each is caught.
"""

import os

# one thread for BLAS/OpenMP, fixed before numpy is imported
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
SETUP_REPEATS = 3          # fresh-process set-ups per run; setup_s is their median
SETUP_TIMEOUT_S = 120

SPANS = ("tensors.eval", "tensors.eval_c", "tensors.failing_symmetries",
         "tensors.sectional", "spaces.tuple_from_rng", "spaces.light_isometry",
         "polarization.expand", "linsolve.add_row", "linsolve.nullspace",
         "constancy.constant_holomorphic", "constancy.constant_antiholomorphic",
         "constancy.constant_biholomorphic", "harness.impose", "harness.random_element",
         "harness.probe_unboundedness", "io_format.parse_document",
         "io_format.build_tensor", "cli.main")
COUNTERS = ("harness.impose.probes_used", "harness.probe_unboundedness.evaluations")


def load_curvlab() -> None:
    """Import curvlab from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import curvlab
    except ImportError as exc:
        raise SystemExit(f"error: cannot import curvlab from {SRC}: {exc}")
    if Path(curvlab.__file__).resolve().parent != SRC / "curvlab":
        raise SystemExit(f"error: curvlab was imported from {curvlab.__file__}, not {SRC}")


def build(workload: str, seed: int):
    """Write the workload's inputs under a fresh work directory; its ops."""
    import workloads          # imports curvlab, so only after load_curvlab()
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, workdir), workdir


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def measure_setup(workload: str, seed: int) -> list:
    """Wall time of SETUP_REPEATS fresh processes that import curvlab and set up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
    return samples


def run_rounds(ops, seconds: float, tracer=None) -> dict:
    """Replay whole rounds of `ops` until `seconds` have passed.

    Only the calls into curvlab are timed; the checks run between them.
    """
    attempted = failed = rounds = 0
    op_time = 0.0
    problems, errors, round_op_times = [], [], []
    phase_start = time.perf_counter()
    while True:
        ctx = {}
        times = []
        for op in ops:
            attempted += 1
            root = tracer.operation(op.name) if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with root:
                    out = op.run()
            except Exception as exc:        # the program failed this op: count it, go on
                failed += 1
                errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                op_time += elapsed
                times.append(elapsed)
            problems.extend(f"{op.name}: {p}" for p in op.problems(out, ctx))
        rounds += 1
        round_op_times.append(times)
        if time.perf_counter() - phase_start >= seconds:
            break
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "op_time_s": op_time, "wall_s": time.perf_counter() - phase_start,
            "ops_per_s": (attempted - failed) / op_time, "problems": problems,
            "errors": errors, "op_names": [op.name for op in ops],
            "op_seconds": round_op_times}


def per_layer(tracer, summary: dict) -> dict:
    rounds = summary["rounds"]

    def per_round(total):
        return total // rounds if isinstance(total, int) and total % rounds == 0 else total / rounds
    totals = tracer.totals()
    metrics = {}
    for span in SPANS:
        calls, self_s = totals.get(span, (0, 0.0))
        metrics[f"{span}.calls"] = {"value": per_round(calls), "unit": "count"}
        metrics[f"{span}.self_s"] = {"value": self_s / rounds, "unit": "s"}
    offered = totals.get("linsolve.add_row", (0, 0.0))[0]
    absorbed = tracer.counters.get("linsolve.add_row.absorbed", 0)
    metrics["linsolve.add_row.absorbed_ratio"] = {
        "value": absorbed / offered if offered else 0.0, "unit": "ratio"}
    for name in COUNTERS:
        metrics[name] = {"value": per_round(tracer.counters.get(name, 0)), "unit": "count"}
    metrics["traced.ops_per_s"] = {"value": summary["ops_per_s"], "unit": "1/s"}
    return metrics


def benchmark(args) -> int:
    env = environment()
    load_curvlab()
    import numpy
    env["numpy"] = numpy.__version__
    setup_samples = measure_setup(args.workload, args.seed)
    ops, workdir = build(args.workload, args.seed)
    tracer = None
    try:
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        summary = run_rounds(ops, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        metrics = {"setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                   "ops_per_s": {"value": summary["ops_per_s"], "unit": "1/s"},
                   "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"}}
    else:
        metrics = per_layer(tracer, summary)
    correct = not summary["problems"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_samples_s": setup_samples,
              "peak_rss_mib": peak_rss_mib, "correct": correct, "metrics": metrics,
              **summary}
    if tracer is not None:
        record["spans"] = tracer.spans
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}: seed={args.seed} rounds={summary['rounds']} "
          f"attempted={summary['attempted']} failed={summary['failed']} "
          f"op_time_s={summary['op_time_s']:.3f} wall_s={summary['wall_s']:.3f}")
    for line in summary["errors"]:
        print(f"failed op: {line}")
    for line in summary["problems"]:
        print(f"wrong output: {line}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


def self_test(args) -> int:
    """Each check must pass the program's answer and reject every perturbed one."""
    load_curvlab()
    names = [args.workload] if args.workload else ["impose", "pinch", "classify"]
    bad = 0
    for name in names:
        ops, workdir = build(name, args.seed)
        tried = caught = 0
        try:
            ctx = {}
            for op in ops:
                out = op.run()
                before = dict(ctx)
                problems = op.problems(out, ctx)
                if problems:
                    bad += 1
                    print(f"  {op.name}: correct answer rejected: {problems}")
                for label, perturb in op.perturb:
                    tried += 1
                    found = op.problems(perturb(out), dict(before))
                    if found:
                        caught += 1
                    else:
                        bad += 1
                        print(f"  {op.name}: wrong answer not caught: {label}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"self-test {name}: {len(ops)} ops checked, {caught}/{tried} wrong answers caught")
    print("self-test: " + ("PASS" if bad == 0 else f"FAIL ({bad} problems)"))
    return 0 if bad == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("impose", "pinch", "classify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        load_curvlab()
        _, workdir = build(args.workload, args.seed)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
