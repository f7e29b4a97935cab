"""Tests of the benchmark itself: inputs, wrappers, arithmetic, checks.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent


# -- seeded inputs -----------------------------------------------------------


def _whatif(seed):
    history, requests = workloads.whatif_requests(seed)
    return [history] + requests


@pytest.mark.parametrize(
    "generate", [workloads.risk_requests, workloads.optimize_requests, _whatif]
)
def test_same_seed_same_inputs_other_seed_other_inputs(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_request_shapes_do_not_depend_on_the_seed():
    for seed in (0, 1):
        counts = sorted(len(r["scenarios"]) for r in workloads.optimize_requests(seed))
        assert counts == sorted(
            list(range(1, workloads.OPTIMIZE_MAX_SCENARIOS + 1)) * workloads.OPTIMIZE_REPEATS
        )
        history, requests = workloads.whatif_requests(seed)
        markers = [workloads.task_marker(t) for t in history["tasks"]]
        assert len(set(markers)) == workloads.WHATIF_HISTORY
        fresh = [
            workloads.task_marker(t)
            for r in requests
            for t in r["tasks"]
            if workloads.task_marker(t) not in set(markers)
        ]
        sizes = [len(r["tasks"]) for r in requests]
        assert sorted(sizes) == sorted(workloads.WHATIF_BATCH_SIZES)
        assert len(fresh) == len(set(fresh)) == sum(sizes) - sum(
            round(2 * n / 3) for n in sizes
        )
        grids = [
            r["ensemble"]["generate"]["object_grid"]["count"]
            for r in workloads.risk_requests(seed)
        ]
        assert sorted(grids) == list(workloads.RISK_GRID_COUNTS)


# -- self-time arithmetic ----------------------------------------------------


def test_self_times_subtract_the_union_of_child_intervals():
    spans = [
        ("request", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 2.0, 3.0, 1),
        ("b", 3.5, 4.0, 1),
        ("a", 6.0, 9.0, 0),
        ("d", 6.5, 7.5, 4),
        ("e", 7.0, 8.0, 4),  # overlaps its sibling d
        ("c", 8.0, 12.0, 4),  # runs past its parent: clipped
    ]
    totals = layers.self_times(spans)
    assert totals["request"] == pytest.approx(10 - 4 - 3)
    assert totals["a"] == pytest.approx((4 - 1.5) + (3 - 2.5))
    assert totals["b"] == pytest.approx(1.5)
    assert totals["c"] == pytest.approx(4.0)
    assert totals["d"] == pytest.approx(1.0)
    assert totals["e"] == pytest.approx(1.0)


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    spans = [
        ("request", 0.0, 10.0, -1),
        ("x", 0.5, 6.0, 0),
        ("y", 1.0, 2.0, 1),
        ("z", 2.5, 5.5, 1),
        ("y", 3.0, 4.0, 3),
        ("x", 7.0, 9.5, 0),
    ]
    assert sum(layers.self_times(spans).values()) == pytest.approx(10.0)


# -- wrappers ----------------------------------------------------------------


def _bindings():
    return {
        (name, attribute): value
        for name, module in sys.modules.items()
        if module is not None and (name == "repro" or name.startswith("repro."))
        for attribute, value in vars(module).items()
    } | {
        (cls.__name__, attribute): cls.__dict__[attribute]
        for cls in (
            workloads.engine.ResultCache,
            workloads.engine.DiskCache,
            workloads.risk.RiskAssessment,
        )
        for attribute in ("get", "put", "to_dict")
        if attribute in cls.__dict__
    }


@pytest.fixture
def whatif(tmp_path):
    workload = workloads.WhatifCache(workloads.DEFAULT_SEED, str(tmp_path), None)
    workload.setup()
    workload.prepare_checks()
    yield workload
    workload.close()


def test_plain_run_after_traced_run_gives_identical_outputs(whatif):
    risk = workloads.RiskEnsemble(workloads.DEFAULT_SEED, "", None)
    optimize = workloads.OptimizeSweep(workloads.DEFAULT_SEED, "", None)
    risk.setup()
    optimize.setup()
    plain = [risk.run(0)[0], optimize.run(0)[0], whatif.run(0)[0]]
    before = _bindings()

    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = []
        for request_id, workload in enumerate((risk, optimize)):
            tracer.begin_request(request_id)
            traced.append(workload.run(0)[0])
            tracer.end_request()
        whatif.start_round()
        tracer.begin_request(2)
        traced.append(whatif.run(0)[0])
        tracer.end_request()
    finally:
        tracer.restore()

    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
    whatif.start_round()
    assert [risk.run(0)[0], optimize.run(0)[0], whatif.run(0)[0]] == plain == traced
    # The traced requests reached the digest, key and cache layers.
    assert tracer.totals["calls:risk.aggregate.digest"] == 3 * risk.run(0)[1]
    assert tracer.totals["calls:engine.keys"] > 0
    assert tracer.totals["cache.hits"] > 0


def test_layer_self_times_and_remainder_add_up_to_the_request_time():
    workload = workloads.RiskEnsemble(workloads.DEFAULT_SEED, "", None)
    workload.setup()
    tracer = layers.Tracer()
    tracer.install()
    try:
        for request_id in range(2):
            tracer.begin_request(request_id)
            workload.run(request_id)
            tracer.end_request()
    finally:
        tracer.restore()
    values = tracer.metrics(0.0, 0.0, 0.0)
    parts = sum(values[metric] for metric in layers.SELF_TIME_METRICS.values())
    assert parts == pytest.approx(values["trace.request_ms"], rel=1e-9)
    names = {name for _, name_ids, *_ in tracer.log for name in name_ids}
    assert {n for n, i in tracer.names.items() if i in names} <= set(layers.SELF_TIME_METRICS)
    members = [workload.run(i)[1] for i in range(2)]
    assert values["risk.aggregate.dedup_ratio"] == pytest.approx(2 * 67 / sum(members))
    assert values["core.normal_mode.repeats"] == 67


# -- timing ------------------------------------------------------------------


class Counting(workloads.Workload):
    """Three requests that take no work; counts its set-ups."""

    setups = 0

    def setup(self):
        self.setups += 1
        self.requests = [{}, {}, {}]

    def run(self, index):
        return "{}", index, None


def test_times_are_scaled_by_the_reference_taken_right_before(monkeypatch):
    nominal = run.reference.NOMINAL_SECONDS
    factors = itertools.cycle([1.0, 2.0, 4.0])
    monkeypatch.setattr(run.reference, "seconds", lambda: next(factors) * nominal)
    workload = Counting(workloads.DEFAULT_SEED, "", None)
    workload.setup()
    result = run.measure(workload, seconds=0.0, min_requests=4, resetups=2)
    assert workload.setups == 3 and len(result["setups"]) == 2
    assert result["rounds"] == 2
    assert result["attempted"] == 6 and result["failed"] == 0
    assert result["assessments"] == 2 * (0 + 1 + 2)
    assert {host / nominal for host in result["references"]} == {1.0, 2.0, 4.0}
    expected = [t * nominal / host for t, host in zip(result["raw"], result["references"])]
    assert result["untraced"] == pytest.approx(expected, rel=1e-12)
    assert result["request_seconds"] == pytest.approx(sum(expected), rel=1e-12)


def test_the_reference_work_is_fixed():
    assert run.reference.work() == run.reference.work()
    assert run.reference.seconds() > 0


# -- output checks -------------------------------------------------------------


class AlteredRisk(workloads.RiskEnsemble):
    """Reports a downtime mean one part in a thousand too high."""

    def run(self, index):
        output, count, extra = super().run(index)
        report = json.loads(output)
        report["downtime"]["mean"] *= 1.001
        return workloads.ser.canonical_json(report), count, extra


def test_an_altered_output_is_counted_as_a_failure(tmp_path):
    goldens = workloads.load_goldens(str(run.GOLDENS))["risk-ensemble"]
    workload = AlteredRisk(workloads.DEFAULT_SEED, str(tmp_path), goldens)
    workload.setup()
    result = run.measure(workload, seconds=0.0, min_requests=1)
    assert result["attempted"] == len(workloads.RISK_GRID_COUNTS)
    assert result["failed"] == result["attempted"]
    output = workload.run(0)[0]
    problems = workload.check(0, output, None)
    assert len(problems) == 2  # golden digest and mean identity


def test_unaltered_outputs_pass_every_check(whatif):
    for name in ("risk-ensemble", "optimize-sweep"):
        goldens = workloads.load_goldens(str(run.GOLDENS))[name]
        workload = workloads.WORKLOAD_CLASSES[name](workloads.DEFAULT_SEED, "", goldens)
        workload.setup()
        output, _, extra = workload.run(0)
        assert workload.check(0, output, extra) == []
    output, _, extra = whatif.run(0)
    assert any(cached for _, _, cached in extra)
    assert whatif.check(0, output, extra) == []


def test_checks_catch_each_kind_of_drift(whatif):
    ranking = {"ranking": [{"objective": 2.0, "name": "a"}, {"objective": 1.0, "name": "b"}]}
    assert workloads.check_optimize(json.dumps(ranking)) != []

    pool = workloads.OptimizePool(workloads.DEFAULT_SEED, "", None)
    pool.requests = workloads.optimize_requests(workloads.DEFAULT_SEED)
    serial = workloads.run_optimize(pool.requests[0])[0]
    assert pool.check(0, serial, None) == []
    assert pool.check(0, serial.replace('"best":', '"best" :'), None) != []

    output, _, extra = whatif.run(0)
    hit = next((task, value, True) for task, value, cached in extra if cached)
    stale = {workloads.task_marker(hit[0]): "0" * 64}
    assert workloads.check_hits([hit], stale) != []
    assert workloads.check_golden(output, workloads.digest(output + " ")) != []


def test_infinite_severities_give_an_infinite_expected_mean():
    rows = [
        {"rate_per_year": 1.0, "recovery_time": math.inf, "data_loss": 2.0, "penalty": 3.0},
        {"rate_per_year": 2.0, "recovery_time": 1.0, "data_loss": 4.0, "penalty": 0.0},
    ]
    report = {
        "years": 2.0,
        "per_member": rows,
        "downtime": {"mean": math.inf},
        "loss": {"mean": 2.0 * (2.0 + 8.0)},
        "penalty": {"mean": 2.0 * 3.0},
    }
    assert workloads.check_risk(workloads.ser.canonical_json(report)) == []
    report["downtime"]["mean"] = 1e9
    assert len(workloads.check_risk(workloads.ser.canonical_json(report))) == 1


# -- the benchmark definition ------------------------------------------------


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert [m["name"] for m in spec["per_layer"]] == layers.layer_metric_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        m["name"]: m["unit"] for m in layers.LAYER_METRICS
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_without_the_program_the_runner_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "risk-ensemble",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
