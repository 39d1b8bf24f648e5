"""Run one stresswatch command in fresh interpreters and report its one-shot cost.

    python3 tools/cold_run.py [-n RUNS] CMD [ARG ...]

    python3 tools/cold_run.py -n 7 budget --days 30 --soc-out /tmp/soc.csv --json

Each run starts a new ``python -m stresswatch.cli CMD ARG ...`` with the
package's ``src/`` directory first on ``PYTHONPATH`` and its output discarded.
The child's resource usage comes from ``os.wait4``, so it is that child's
alone: the peak resident set (``ru_maxrss``) and the minor page faults
(``ru_minflt``), import and set-up included. One line gives the median of
each over the runs, with the wall time, and the first run's wall time
beside the median wall time. An in-process benchmark hides these costs:
the first call in a process pays the page faults of its buffers, and later
calls reuse the memory.

The runs share their arguments, so an output path is written afresh by run 1
only when it did not exist before, and rewritten by runs 2..n: in the example
above, with no ``/tmp/soc.csv`` at the start, the first wall time is a fresh
write and the median a rewrite. Run 1 also pays any cold start of the
interpreter's files.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def cold_run(argv: list[str]) -> dict:
    """Wall seconds, peak RSS (MB), minor faults and exit code of one fresh run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "stresswatch.cli", *argv], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return {"wall_s": wall, "maxrss_mb": usage.ru_maxrss / 1024.0,
            "minflt": usage.ru_minflt, "code": child.returncode}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("-n", "--runs", type=int, default=5, help="fresh interpreters (default 5)")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="stresswatch subcommand and args")
    args = ap.parse_args(argv)
    if not args.command:
        ap.error("give a stresswatch subcommand to run")
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    runs = [cold_run(args.command) for _ in range(args.runs)]
    failed = [r["code"] for r in runs if r["code"] != 0]
    if failed:
        print(f"error: {len(failed)} of {len(runs)} runs exited non-zero ({failed[0]})",
              file=sys.stderr)
        return 1
    wall, maxrss, minflt = (statistics.median(r[k] for r in runs)
                            for k in ("wall_s", "maxrss_mb", "minflt"))
    print(f"runs {len(runs)}  wall {wall:.3f} s (first {runs[0]['wall_s']:.3f} s)  "
          f"maxrss {maxrss:.1f} MB  minflt {minflt:.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
