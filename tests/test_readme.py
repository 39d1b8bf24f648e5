"""The README's examples run as written.

The ``python`` block runs in a fresh interpreter against the package in
``src/``, and the two ``yaml`` blocks load through the readers they document,
so a removed export or a stricter check cannot break them unnoticed.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from stresswatch import load_calibration, scenario_from_config

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
