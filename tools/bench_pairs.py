#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against a change: BENCH_<PR>.json.

    python tools/bench_pairs.py --parent REV --pr N [--pairs 10] [--seconds 25] \
        [--trace-seconds S] [--claim WORKLOAD:METRIC] [--change TEXT] \
        WORKLOAD:SEED[:PAIRS] ...

The parent side is `git archive REV`, unpacked into a temporary directory;
the change side is a copy of this working tree's files (tracked or not, but
not ignored) in another one, so that both sides run from fresh directories
of the same kind and no figure, `peak_rss_mib` included, depends on where a
side runs from.  Each WORKLOAD:SEED gets `--pairs`
pairs of untraced `perfbench/run.py` runs, one per side back to back, the
side that runs first alternating from pair to pair.  The result file has the
layout of BENCH_16.json: per workload and end-to-end metric the runs, median
and quartiles (inclusive method) of each side, the pairs the change won
(ties count for neither) and the ratio of the medians, plus the machine.
With --trace-seconds, one traced run per side follows the pairs, and its
nonzero per-layer figures go under the workload's "traced" key.  The file
is rewritten after every pair, so a cut run keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHOD = ("perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0, run on two "
          "checkouts in fresh temporary directories (the parent commit, unpacked from git "
          "archive, and a copy of the change's working-tree files); each pair runs both "
          "sides back to back, alternating which "
          "side runs first. Medians and quartiles (inclusive method) are over the runs of one "
          "side; change_wins counts pairs where the change read better.")


def unpack(rev: str, into: Path) -> None:
    """The tree of commit `rev`, written under `into`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as fh:
        fh.write(archive)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(into, filter="data")


def copy_worktree(into: Path) -> None:
    """The working tree's files that git does not ignore, copied under `into`."""
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, names.decode().split("\0")):
        source = ROOT / name
        if source.is_file():        # a tracked file deleted in the working tree is left out
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run: the JSON object its last output line holds."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"error: no output from {checkout}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def compare(parent: list, change: list, better: str) -> dict:
    wins = sum(c > p if better == "higher" else c < p for p, c in zip(parent, change))
    out = {"better": better, "parent": summary(parent), "change": summary(change),
           "change_wins": f"{wins}/{len(parent)}"}
    out["median_ratio"] = out["change"]["median"] / out["parent"]["median"]
    return out


def machine() -> dict:
    import numpy
    facts = {"cpus": os.cpu_count(), "cpu_model": platform.processor() or platform.machine(),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "blas_threads": 1}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(line.split(":", 1)[1].strip()
                                      for line in fh if line.startswith("model name"))
        with open("/proc/meminfo") as fh:
            facts["memory_mib"] = int(fh.readline().split()[1]) // 1024
    except (OSError, StopIteration):
        pass
    return facts


def bench_workload(sides: dict, workload: str, seed: int, pairs: int, seconds: float,
                   trace_seconds: float, metrics: dict, record: dict, save) -> None:
    entry = {"workload": workload, "seed": seed, "pairs": 0}
    record["workloads"].append(entry)
    runs = {side: [] for side in sides}
    for i in range(pairs):
        order = list(sides) if i % 2 == 0 else list(reversed(sides))
        for side in order:
            runs[side].append(run_once(sides[side], workload, seed, seconds))
            print(f"{workload}:{seed} pair {i + 1}/{pairs} {side}: "
                  f"{runs[side][-1]['metrics']['ops_per_s']['value']:.1f} ops/s", flush=True)
        entry.update(
            pairs=i + 1,
            all_correct=all(r["correct"] for side in sides for r in runs[side]),
            failed_ops={side: sum(r["failed"] for r in runs[side]) for side in sides},
            attempted_ops={side: sum(r["attempted"] for r in runs[side]) for side in sides})
        if i > 0:       # quartiles need two runs
            entry["metrics"] = {
                name: compare(*([r["metrics"][name]["value"] for r in runs[side]]
                                for side in sides), better)
                for name, better in metrics.items()}
        save()
    if trace_seconds > 0:
        traced = {side: run_once(sides[side], workload, seed, trace_seconds, trace=1)["metrics"]
                  for side in sides}
        entry["traced"] = {name: {side: traced[side][name]["value"] for side in sides}
                           for name in traced["parent"]
                           if any(traced[side][name]["value"] for side in sides)}
        save()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("specs", nargs="+", metavar="WORKLOAD:SEED[:PAIRS]")
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--pr", required=True, help="the number in BENCH_<PR>.json")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per spec without PAIRS")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace-seconds", type=float, default=0.0)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--change", default="", help="one line saying what the change does")
    args = parser.parse_args(argv)
    specs = []
    for spec in args.specs:
        workload, seed, pairs = (spec.split(":") + [None, None])[:3]
        seed, pairs = int(seed or 0), int(pairs or args.pairs)
        specs.append((workload, seed, pairs))
        if pairs < 2:
            parser.error(f"{spec}: quartiles need at least 2 pairs")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {"change": args.change, "method": METHOD.format(seconds=args.seconds),
              "machine": machine(), "workloads": []}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        record["claim"] = {"workload": workload, "metric": metric, "better": metrics[metric]}
    out = ROOT / f"BENCH_{args.pr}.json"

    def save():
        out.write_text(json.dumps(record, indent=1) + "\n")

    sides = {side: Path(tempfile.mkdtemp(prefix=f"bench-{side}-"))
             for side in ("parent", "change")}
    try:
        unpack(args.parent, sides["parent"])
        copy_worktree(sides["change"])
        for workload, seed, pairs in specs:
            bench_workload(sides, workload, seed, pairs, args.seconds, args.trace_seconds,
                           metrics, record, save)
    finally:
        for checkout in sides.values():
            shutil.rmtree(checkout, ignore_errors=True)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
