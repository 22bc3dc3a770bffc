import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load(ROOT / "tools" / "bench_pairs.py")
summary = load(ROOT / "perfbench" / "compare.py").summary


def test_claim_block_pairs_runs_by_seed_in_the_metric_direction():
    parent = {1: 10.0, 2: 12.0, 3: 11.0}
    change = {1: 9.0, 2: 13.0, 3: 10.0, 4: 1.0}  # seed 4 has no parent run: not a pair
    q1, median, q3 = summary(list(parent.values()))
    lower = bench_pairs.block(parent, change, "lower", summary)
    assert lower["pairs_better"] == "2/3"
    assert bench_pairs.block(parent, change, "higher", summary)["pairs_better"] == "1/3"
    assert lower["parent_q1_median_q3"] == [round(q1, 4), median, round(q3, 4)]
    assert lower["parent_quartile_spread"] == round(q3 - q1, 4)
    assert lower["change_q1_median_q3"][1] == 10.0
    assert lower["change_of_median"] == "-9.1%"
    assert lower["median_difference"] == 1.0


def test_a_revision_that_cannot_be_exported_exits_2(tmp_path):
    # exit 1 is compare's regression verdict, so a setup failure must not use it
    with pytest.raises(SystemExit) as exc:
        bench_pairs.export("no-such-revision", str(tmp_path / "tree"))
    assert exc.value.code == 2


def test_traced_times_are_divided_by_their_run_host_factor():
    record = {"workload": "reduce_spline", "trace": 1, "host_factor": 0.5, "meta": {"seed": 1},
              "raw_metrics": {"x": 1}, "metrics": {"a.b_ms": 0.03, "a.calls": 4.0}}
    out = bench_pairs.host_scaled(record)
    assert out["metrics"] == {"a.b_ms": 0.03, "a.b_ms/host_factor": 0.06, "a.calls": 4.0}
    assert out["host_factor"] == 0.5 and out["workload"] == "reduce_spline"
    assert "meta" not in out and "raw_metrics" not in out
    assert record["metrics"] == {"a.b_ms": 0.03, "a.calls": 4.0}


def test_traced_runs_alternate_which_tree_runs_first(monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "run", lambda tree, workload, seed, seconds, record, trace=0:
                        calls.append((tree, workload, seed, record, trace)))
    trees = {"parent": "P", "change": "C"}
    bench_pairs.trace_runs(trees, ["w1", "w2"], 20, 15, {"parent": "p.jsonl", "change": "c.jsonl"})
    order = [("P", 20), ("C", 20), ("C", 21), ("P", 21)]
    assert calls == [(tree, w, seed, f"{tree.lower()}.jsonl", 1) for w in ("w1", "w2") for tree, seed in order]
