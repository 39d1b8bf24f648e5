"""The README's examples run as written.

The ``python`` block runs in a fresh interpreter against the package in
``src/``, and the two ``yaml`` blocks load through the readers they document,
so a removed export or a stricter check cannot break them unnoticed. Each
``$ stresswatch`` transcript that shows output and reads only checked-in
fixtures runs too, and its stdout must match the README byte for byte. The
ratios the README quotes are derived from the built-in calibration table.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from stresswatch import builtin_calibration, load_calibration, scenario_from_config

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# the README's input names for the fixtures in tests/data
FIXTURES = {"ecg.csv": "ecg_60s.csv", "gsr.csv": "gsr_60s.csv"}


def readme_blocks(lang):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def runnable_transcripts():
    """``(argv, shown)`` for each ``$ stresswatch`` line of the ``sh`` blocks
    that shows output and names no file but a fixture; the output runs to
    the next command, and blank lines before it only separate the two."""
    for block in readme_blocks("sh"):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, shown = command.partition("\n")
            argv = line.split()[1:]
            files = [arg for arg in argv if re.search(r"\.[a-z]+$", arg)]
            if shown.strip() and all(arg in FIXTURES for arg in files):
                yield ([str(ROOT / "tests" / "data" / FIXTURES[arg]) if arg in FIXTURES else arg
                        for arg in argv], shown.rstrip("\n") + "\n")


TRANSCRIPTS = list(runnable_transcripts())


def test_readme_transcripts_that_run_are_the_expected_ones():
    assert [argv[0] for argv, _ in TRANSCRIPTS] == ["features", "report", "budget", "footprint"]


@pytest.mark.parametrize("argv, shown", TRANSCRIPTS, ids=[argv[0] for argv, _ in TRANSCRIPTS])
def test_readme_transcript_runs_as_written(tmp_path, argv, shown):
    run = subprocess.run([sys.executable, "-m", "stresswatch.cli", *argv], cwd=tmp_path,
                         env=ENV, capture_output=True, timeout=300)
    assert (run.returncode, run.stdout) == (0, shown.encode())


def test_readme_examples_run(tmp_path):
    (script,) = readme_blocks("python")
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=ENV,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr

    calibration, scenario = readme_blocks("yaml")
    (tmp_path / "calib.yaml").write_text(calibration)
    (tmp_path / "scenario.yaml").write_text(scenario)
    table = load_calibration(tmp_path / "calib.yaml")
    assert table.platforms == ("cortex_m4",)
    assert table.network_weights == {"A": 3003, "B": 81032}
    assert scenario_from_config(tmp_path / "scenario.yaml").name == "commute-day"


def test_readme_ratios_follow_from_the_calibration_table():
    # the abstract's "more than one order of magnitude" is the time ratio on
    # net B; report's speedup column is the cycle ratio, and energy is a third
    table = builtin_calibration()
    m4, wolf = "cortex_m4", "ri5cy_multi8"
    time_us = {p: table.cycles[p]["B"] / table.clock_hz[p] * 1e6 for p in (m4, wolf)}
    cycles = {n: table.cycles[m4][n] / table.cycles[wolf][n] for n in ("A", "B")}
    energy = table.energy_uj[m4]["B"] / table.energy_uj[wolf]["B"]
    time = time_us[m4] / time_us[wolf]
    assert time > 10 > cycles["B"] > energy
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert (f"a latency ratio on network B: {time_us[m4]:.1f} us on `cortex_m4` against "
            f"{time_us[wolf]:.2f} us on `ri5cy_multi8`, {time:.1f}x.") in text
    assert "64 MHz against 100 MHz" in text
    assert (table.clock_hz[m4], table.clock_hz[wolf]) == (64e6, 100e6)
    assert (f"the cycle ratio, which leaves the clocks out: {cycles['B']:.2f}x on B and "
            f"{cycles['A']:.2f}x on A. The energy ratio on B is {energy:.2f}x") in text
