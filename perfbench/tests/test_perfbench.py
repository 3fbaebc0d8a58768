"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import plan as plans  # noqa: E402
import run  # noqa: E402
from run import TAIL_BEYOND, tail  # noqa: E402
import tracer  # noqa: E402
from tracer import summarize  # noqa: E402


@pytest.mark.parametrize("n", [1, 5, 10, 11, 12, 20, 28, 35, 56, 90, 100, 101, 250, 1000, 1500])
def test_tail_is_highest_percentile_with_ten_beyond(n):
    values = [float(v) for v in range(n)]
    random.Random(n).shuffle(values)
    value, pct = tail(values)
    beyond = sum(v > value for v in values)
    if n <= TAIL_BEYOND:
        assert (value, pct) == (n - 1, 100)
        return
    assert beyond >= TAIL_BEYOND
    # One whole percentile higher leaves fewer than ten beyond.
    next_rank = -(-(pct + 1) * n // 100)
    assert n - next_rank < TAIL_BEYOND


@pytest.mark.parametrize("n, expected", [(11, (0, 9)), (28, (17, 64)), (100, (89, 90)), (1500, (1484, 99))])
def test_tail_known_values(n, expected):
    assert tail([float(v) for v in range(n)]) == expected


def test_self_times_of_nested_spans_sum_to_root_wall():
    names = ["a", "b", "c"]
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and c [5, 9]; a second root b [20, 21].
    name = [0, 1, 2, 2, 1]
    start = [0.0, 1.0, 2.0, 5.0, 20.0]
    end = [10.0, 4.0, 3.0, 9.0, 21.0]
    parent = [-1, 0, 1, 0, -1]
    summary = summarize(names, name, start, end, parent, {})
    spans = summary["spans"]
    assert spans["a"]["self_s"] == pytest.approx(3.0)
    assert spans["b"]["self_s"] == pytest.approx(2.0 + 1.0)
    assert spans["c"]["self_s"] == pytest.approx(5.0)
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(summary["root_wall_s"])


def _small_round() -> dict:
    return {"prefixes": [{"name": "g", "argv": ["build", "--class", "Graph", "--n", "2", "--seed", "1"]}],
            "items": [
                {"id": "build", "argv": ["build", "--class", "Graph", "--n", "2", "--seed", "3", "--verify"]},
                {"id": "check", "argv": ["check", "--class", "Graph", "--check", "extension", "--k", "2",
                                         "--in", "{work}/g.json"]},
                {"id": "enum", "call": ["enumerate_members", "Tournament", 4]},
                {"id": "prop", "call": ["check_property", "LinearGraph", "SAP", 3]},
            ]}


def test_traced_round_self_times_and_digest():
    round_ = _small_round()
    with tempfile.TemporaryDirectory(dir=BENCH) as work:
        plain = run.run_worker(round_, "run", Path(work), 60)
        traced = run.run_worker(round_, "trace", Path(work), 60)
    plan = {"rounds": [round_]}
    refs = {i: [row["sha"], row["code"]] for i, row in plain["rows"].items()}
    assert len(refs) == 4
    assert run.check_items(plan, [plain], refs)[:3] == run.check_items(plan, [traced], refs)[:3]
    assert run.check_items(plan, [traced], refs)[1] == 0
    summary = traced["last"]["trace"]
    assert traced["last"]["bindings"] >= len(tracer.SPANS) + len(tracer.FACTORIES)
    for name, row in summary["spans"].items():
        assert row["self_s"] <= row["wall_s"] + 1e-9, name
    assert sum(row["self_s"] for row in summary["spans"].values()) <= summary["root_wall_s"] + 1e-6
    assert summary["spans"]["cli.main"]["calls"] == 2
    assert summary["counts"]["analysis.items"] > 0


def test_deadline_kills_worker_and_fails_unfinished_items():
    round_ = {"prefixes": [], "items": [
        {"id": "quick", "argv": ["build", "--class", "Graph", "--n", "1", "--seed", "1"]},
        {"id": "slow", "call": ["enumerate_members", "Tournament", 6]},
    ]}
    with tempfile.TemporaryDirectory(dir=BENCH) as work:
        result = run.run_worker(round_, "run", Path(work), 1.5)
    assert result["killed"]
    refs = {"quick": [result["rows"]["quick"]["sha"], 0]}
    attempted, failed, _, notes = run.check_items({"rounds": [round_]}, [result], refs)
    assert (attempted, failed) == (2, 1)
    assert notes == ["slow: unfinished"]


def test_plans_identical_under_two_hash_seeds():
    code = ("import json, plan; print(json.dumps([plan.make_plan(w, s, 20) "
            "for w in plan.WORKLOADS for s in (0, 7)], sort_keys=True))")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        outs.append(subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])


def test_every_plannable_item_has_a_reference():
    oracle = json.loads(run.ORACLE.read_text())
    for workload in plans.WORKLOADS:
        pool = {i["id"] for r in plans.pool_plan(workload)["rounds"] for i in r["items"]}
        assert pool <= set(oracle[workload])
        for seed in (0, 1, 12345):
            for seconds in (1, 20, 60):
                for round_ in plans.make_plan(workload, seed, seconds)["rounds"]:
                    planned = [i["id"] for i in round_["items"]]
                    assert set(planned) <= pool
                    assert len(planned) == len(set(planned))


def test_benchmark_json_names_the_metrics_the_code_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert spec["per_layer"] == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(plans.WORKLOADS)


def test_speed_factor_scales_to_the_reference_loop_time():
    results = [
        {"rows": {"a": {"cal": 0.008}, "b": {"cal": 0.008}}, "last": {"cal": [0.002]}},
        {"rows": {}, "last": {"cal": [0.008, 0.002]}},
        {"rows": {}, "last": None},
    ]
    assert run.speed_factor(results) == pytest.approx(run.CAL_REF_S / 0.008)
