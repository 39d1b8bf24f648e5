"""The checked-in fixtures under tests/data/ are what tools/gen_golden.py
writes, byte for byte: model files, features, labels and the trained net."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_golden.py"


def test_gen_golden_reproduces_every_fixture(tmp_path, data_dir, monkeypatch):
    # the tool puts src/ and tests/ on sys.path when it is loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("gen_golden", TOOL)
    gen_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_golden)

    gen_golden.main(tmp_path)
    made = sorted(p.name for p in tmp_path.iterdir())
    assert made == sorted(p.name for p in data_dir.iterdir())
    for name in made:
        assert (tmp_path / name).read_bytes() == (data_dir / name).read_bytes(), name
