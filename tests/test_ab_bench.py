"""tools/ab_bench.py runs the benchmark on a parent commit and on the working
tree in alternating pairs, and summarizes each end-to-end metric. These
tests feed it canned results: no benchmark runs."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_bench.py"
BENCHMARK_METRICS = [m["name"] for m in
                     json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(failed=0, **values):
    """One ``bench/run.py --workload all`` last line, for workloads "a" and "b"."""
    metrics = {k: {"value": v, "unit": "s"} for k, v in values.items()}
    return {"a": {"correct": not failed, "attempted": 10, "failed": failed, "metrics": metrics},
            "b": {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}}


def test_summary_of_canned_pairs():
    ab_bench = load_tool()
    parent_wall, change_wall = [1.0, 1.2, 1.1, 1.3, 0.9], [1.1, 1.5, 1.6, 1.2, 1.4]
    parent_rss, change_rss = [40.0, 41.0, 42.0, 43.0, 44.0], [43.0, 44.0, 45.0, 46.0, 47.0]
    parent_rate, change_rate = [10.0] * 5, [9.5, 9.0, 9.2, 9.4, 8.0]
    pairs = [(result(wall_s=pw, peak_rss_mb=pr, rate=pq),
              result(failed=int(i == 3), wall_s=cw, peak_rss_mb=cr, rate=cq))
             for i, (pw, cw, pr, cr, pq, cq) in enumerate(zip(
                 parent_wall, change_wall, parent_rss, change_rss, parent_rate, change_rate))]
    got = ab_bench.summarize(pairs, END_TO_END)
    assert got["failed_ops"] == {"parent": 0, "change": 1}
    assert set(got["workloads"]) == {"a", "b"}
    wall = got["workloads"]["a"]["wall_s"]
    assert wall == {
        "parent_median": 1.1, "parent_q1": statistics.quantiles(parent_wall, n=4)[0],
        "parent_q3": statistics.quantiles(parent_wall, n=4)[2],
        "change_median": 1.4, "change_q1": statistics.quantiles(change_wall, n=4)[0],
        "change_q3": statistics.quantiles(change_wall, n=4)[2],
        # lower in the pair 1.3 -> 1.2 only
        "change_lower_in_pairs": 1,
        "rel_change": pytest.approx(0.3 / 1.1),  # +27% against a 25% bound
        "within_bound": False,
    }
    rss = got["workloads"]["b"]["peak_rss_mb"]
    assert (rss["change_lower_in_pairs"], rss["rel_change"]) == (0, 3.0 / 42.0)
    assert rss["within_bound"]  # +7.1% against a 10% bound
    # higher is better: an 8% fall is within a 10% bound
    rate = got["workloads"]["a"]["rate"]
    assert rate["change_lower_in_pairs"] == 5
    assert rate["rel_change"] == pytest.approx(-0.08)
    assert rate["within_bound"]


def canned_tree(tree, results, seed, passes, setups):
    """A tree whose bench/run.py prints a canned last line for workloads "a"
    and "b", and whose result files under ``results`` hold the given host
    seconds."""
    (tree / "bench").mkdir(parents=True)
    line = json.dumps(result(wall_s=1.0))
    (tree / "bench" / "run.py").write_text(f"print('# header')\nprint({line!r})\n")
    (tree / results).mkdir(parents=True)
    for name in ("a", "b"):
        record = {"pass_raw_s": passes[name], "setup_raw_s": setups[name]}
        (tree / results / f"{name}-seed{seed}-trace0.json").write_text(
            json.dumps(record), encoding="ascii")
    return tree


def test_host_seconds_come_from_each_run_s_result_file(tmp_path):
    ab_bench = load_tool()
    pairs = []
    for seed, (p_pass, c_pass) in zip((101, 102, 103), ((0.5, 0.4), (0.7, 0.6), (0.6, 0.65))):
        trees = [canned_tree(tmp_path / f"{side}{seed}", ab_bench.RESULTS, seed,
                             {"a": [v, 9.0, v - 1.0], "b": [2.0, 2.0]},
                             {"a": [0.1, 0.2, 0.3, 0.4], "b": [v]})
                 for side, v in (("parent", p_pass), ("change", c_pass))]
        pairs.append(tuple(ab_bench.run_bench(tree, seed) for tree in trees))
    # the medians of each run's lists, beside the printed metrics
    assert pairs[0][0]["a"]["metrics"] == {
        "wall_s": {"value": 1.0, "unit": "s"},
        "host_wall_s": {"value": 0.5, "unit": "s"},
        "host_setup_s": {"value": 0.25, "unit": "s"}}
    assert pairs[0][1]["b"]["metrics"]["host_setup_s"]["value"] == 0.4
    host = [{"name": name} for name in ab_bench.HOST_FIGURES]
    got = ab_bench.summarize(pairs, END_TO_END[:1] + host)["workloads"]
    wall = got["a"]["host_wall_s"]
    assert wall == {
        "parent_median": 0.6, "parent_q1": statistics.quantiles([0.5, 0.7, 0.6], n=4)[0],
        "parent_q3": statistics.quantiles([0.5, 0.7, 0.6], n=4)[2],
        "change_median": 0.6, "change_q1": statistics.quantiles([0.4, 0.6, 0.65], n=4)[0],
        "change_q3": statistics.quantiles([0.4, 0.6, 0.65], n=4)[2],
        "change_lower_in_pairs": 2,
        "rel_change": 0.0,
    }
    assert got["b"]["host_setup_s"]["change_median"] == 0.6
    assert got["a"]["wall_s"]["within_bound"]


def test_pairs_alternate_which_side_runs_first(tmp_path, monkeypatch):
    ab_bench = load_tool()
    calls = []
    trees = tmp_path / "parent", tmp_path / "change"
    monkeypatch.setattr(ab_bench, "build_trees", lambda parent, work: ("f" * 40, *trees))
    monkeypatch.setattr(ab_bench, "bench_environment", lambda tree: {"tree": tree.name})

    def run_bench(tree, seed):
        calls.append((seed, tree.name))
        return result(**{**dict.fromkeys(BENCHMARK_METRICS + list(ab_bench.HOST_FIGURES), 1.0),
                         "wall_s": 1.0 if tree.name == "parent" else 0.9})

    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    out = tmp_path / "BENCH_0.json"
    assert ab_bench.main(["HEAD~1", "--pairs", "3", "-o", str(out)]) == 0
    # odd seeds run the parent first, even seeds the change
    assert calls == [(101, "parent"), (101, "change"), (102, "change"), (102, "parent"),
                     (103, "parent"), (103, "change")]
    record = json.loads(out.read_text())
    assert record["parent_commit"] == "f" * 40
    assert record["seeds"] == [101, 102, 103]
    assert record["environment"] == {"tree": "change"}
    assert record["failed_ops"] == {"parent": 0, "change": 0}
    assert set(record["workloads"]["a"]) == {*BENCHMARK_METRICS, "host_wall_s", "host_setup_s"}
    wall = record["workloads"]["a"]["wall_s"]
    assert (wall["change_lower_in_pairs"], wall["within_bound"]) == (3, True)
    assert "within_bound" not in record["workloads"]["a"]["host_wall_s"]


def test_a_failed_bench_run_stops_the_tool(tmp_path, monkeypatch, capsys):
    ab_bench = load_tool()
    monkeypatch.setattr(ab_bench, "build_trees",
                        lambda parent, work: ("f" * 40, tmp_path / "p", tmp_path / "c"))

    def run_bench(tree, seed):
        raise RuntimeError(f"bench in {tree} exited 2:\nerror: no inputs")

    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    out = tmp_path / "BENCH_0.json"
    assert ab_bench.main(["HEAD~1", "--pairs", "2", "-o", str(out)]) == 1
    assert "exited 2" in capsys.readouterr().err
    assert not out.exists()
