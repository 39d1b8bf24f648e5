"""The README's examples run as written.

The ``python`` block runs in a fresh interpreter against the package in
``src/``, and the two ``yaml`` blocks load through the readers they document,
so a removed export or a stricter check cannot break them unnoticed. The
ratios the README quotes are derived from the built-in calibration table.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from stresswatch import builtin_calibration, load_calibration, scenario_from_config

ROOT = Path(__file__).resolve().parent.parent


def readme_blocks(lang):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.M | re.S)


def test_readme_examples_run(tmp_path):
    (script,) = readme_blocks("python")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
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
