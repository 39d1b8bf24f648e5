"""Run the benchmark on a parent commit and on the working tree, in alternating pairs.

    python3 tools/ab_bench.py PARENT [--pairs N] -o BENCH_N.json

    python3 tools/ab_bench.py HEAD~1 --pairs 10 -o BENCH_32.json

The parent side is ``git archive PARENT``, unpacked; the change side is a
copy of the working tree without ``.bench_build`` and ``.git``. Both go in a
temporary directory, so each run generates its seed's inputs fresh in its
own tree. Pair k runs ``python3 bench/run.py --workload all --seed s`` once
in each tree, for the seeds s = 101 .. 100 + N: an odd seed runs the parent
first, an even seed the change first, so a drift of the host's speed over
the runs falls on both sides alike.

The file written holds, for every workload and end-to-end metric that
``BENCHMARK.json`` lists, each side's median and quartiles
(``statistics.quantiles(n=4)``), the number of pairs where the change read
lower, the relative change of the medians, and whether that change is within
the metric's bound; beside them the failed operations of each side, the
seeds, the protocol and the benchmark's environment record. A run that
exits non-zero stops the tool.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 101
ENVIRONMENT_KEYS = ("nproc", "machine", "python", "numpy", "blas_threads")


def build_trees(parent: str, work: Path) -> tuple[str, Path, Path]:
    """The full id of commit ``parent``, and under ``work`` its tree and a copy
    of the working tree."""
    git = ["git", "-C", str(ROOT)]
    commit = subprocess.run([*git, "rev-parse", "--verify", f"{parent}^{{commit}}"],
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    archive = subprocess.run([*git, "archive", commit], stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(work / "parent", filter="data")
    shutil.copytree(ROOT, work / "change", ignore=shutil.ignore_patterns(".bench_build", ".git"))
    return commit, work / "parent", work / "change"


def run_bench(tree: Path, seed: int) -> dict:
    """The last line of ``bench/run.py --workload all --seed SEED`` run in
    ``tree``: each workload's result, its failed operations and metrics."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def bench_environment(tree: Path) -> dict:
    """The host the benchmark recorded in ``tree``'s first result file."""
    record = json.loads(min((tree / ".bench_build" / "stresswatch" / "results")
                            .glob("*-trace0.json")).read_text(encoding="ascii"))
    return {key: record["environment"][key] for key in ENVIRONMENT_KEYS}


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric, the parent and change medians with
    quartiles, the pairs where the change read lower, the relative change of
    the medians and whether it is within the metric's bound; and each side's
    failed operations. ``pairs`` holds (parent, change) results of
    ``run_bench``, ``end_to_end`` the list of that name in ``BENCHMARK.json``."""
    workloads = {}
    for name in pairs[0][0]:
        metrics = {}
        for metric in end_to_end:
            parent, change = ([side[name]["metrics"][metric["name"]]["value"] for side in sides]
                              for sides in zip(*pairs))
            p_mid, c_mid = statistics.median(parent), statistics.median(change)
            rel = (c_mid - p_mid) / p_mid
            sign = 1 if metric["better"] == "lower" else -1
            p_q1, _, p_q3 = statistics.quantiles(parent, n=4)
            c_q1, _, c_q3 = statistics.quantiles(change, n=4)
            metrics[metric["name"]] = {
                "parent_median": p_mid, "parent_q1": p_q1, "parent_q3": p_q3,
                "change_median": c_mid, "change_q1": c_q1, "change_q3": c_q3,
                "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
                "rel_change": rel,
                "within_bound": sign * rel <= metric["bound"],
            }
        workloads[name] = metrics
    failed = {side: sum(r["failed"] for run in runs for r in run.values())
              for side, runs in zip(("parent", "change"), zip(*pairs))}
    return {"workloads": workloads, "failed_ops": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="the commit to compare the working tree against")
    ap.add_argument("--pairs", type=int, default=10, help="parent/change pairs (default 10)")
    ap.add_argument("-o", "--output", required=True, help="the BENCH_N.json file to write")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.pairs))
    pairs = []
    with tempfile.TemporaryDirectory() as work:
        try:
            commit, parent_tree, change_tree = build_trees(args.parent, Path(work))
            trees = {"parent": parent_tree, "change": change_tree}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                run = {side: run_bench(trees[side], seed) for side in order}
                pairs.append((run["parent"], run["change"]))
                print(f"seed {seed}: {' then '.join(order)} done", file=sys.stderr)
        except (subprocess.CalledProcessError, RuntimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        environment = bench_environment(change_tree)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    record = {
        "parent_commit": commit,
        "command": "python3 bench/run.py --workload all --seed <s>",
        "protocol": (
            f"{args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, bench/run.py's default "
            "--seconds and --trace 0; odd seeds run the parent first, even seeds the change "
            "first; each side runs in its own copy of its tree (parent: git archive of the "
            "parent commit; change: the working tree without .bench_build and .git), so each "
            "run generates its seed's inputs fresh. Times are the benchmark's reference "
            "seconds. q1/q3 are statistics.quantiles(runs, n=4); change_lower_in_pairs counts "
            "the pairs where the change's value is lower; within_bound compares rel_change "
            "with the metric's BENCHMARK.json bound."),
        "environment": environment,
        "seeds": seeds,
        **summarize(pairs, end_to_end),
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
