"""tools/cold_run.py runs a stresswatch command in fresh interpreters and
reports the child's own wall time, peak RSS and minor page faults."""

import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cold_run.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cold_run", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cold_run_reports_one_fresh_run(capsys):
    cold_run = load_tool()
    assert cold_run.main(["-n", "1", "footprint", "--network", "A"]) == 0
    line = capsys.readouterr().out
    got = re.fullmatch(r"runs 1  wall (\S+) s \(first (\S+) s\)  maxrss (\S+) MB  "
                       r"minflt (\d+)\n", line)
    assert got, line
    wall, first, maxrss, minflt = map(float, got.groups())
    assert wall == first > 0
    # the child imports numpy, so it holds megabytes and faults its pages in
    assert 5 < maxrss < 1000
    assert minflt > 100

    assert cold_run.main(["-n", "1", "footprint"]) == 1
    assert "exited non-zero (5)" in capsys.readouterr().err


def test_cold_run_prints_the_first_wall_time_beside_the_median(capsys, monkeypatch):
    # with an output path, run 1 may write a new file and the rest rewrite it
    cold_run = load_tool()
    walls = iter([0.5, 0.2, 0.4, 0.3])
    monkeypatch.setattr(cold_run, "cold_run", lambda argv: {
        "wall_s": next(walls), "maxrss_mb": 40.0, "minflt": 7000, "code": 0})
    assert cold_run.main(["-n", "4", "budget", "--days", "30", "--soc-out", "soc.csv"]) == 0
    assert capsys.readouterr().out == (
        "runs 4  wall 0.350 s (first 0.500 s)  maxrss 40.0 MB  minflt 7000\n")
