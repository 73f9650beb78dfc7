"""Smoke test of the benchmark at ``--smoke`` scale (a few % of each workload).

Every repetition runs in-process here, traced and untraced, so the whole
module takes a few seconds.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("trace")
    return {
        name: {
            "plain": run.measure(name, 42, 0, smoke=True),
            "traced": run.measure(name, 42, 0, trace=True, smoke=True, trace_dir=trace_dir),
            "trace_file": trace_dir / f"trace-{name}-seed42.jsonl",
        }
        for name in WORKLOADS
    }


def test_metric_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(results, workload, capsys):
    for trace, key in ((False, "plain"), (True, "traced")):
        printed = run.report(results[workload][key], SPEC, trace)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert printed == {
            m["name"]: {"value": printed[m["name"]]["value"], "unit": m["unit"]}
            for m in declared
        }
    end_to_end = results[workload]["plain"]["metrics"]
    assert all(value > 0 for value in end_to_end.values()), end_to_end


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_pass_the_gate_and_tracing_changes_none(results, workload):
    plain, traced = results[workload]["plain"], results[workload]["traced"]
    assert plain["checks"] == [] and traced["checks"] == []
    assert plain["failed"] == traced["failed"] == 0
    assert plain["fingerprint"] == traced["fingerprint"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_add_up_to_the_traced_wall(results, workload):
    for layers in results[workload]["traced"]["traced_reps"]:
        total = sum(layers[k] for k in run.self_time_metrics(layers))
        assert total == pytest.approx(layers["trace.wall_s"], rel=0.05)
    spans = results[workload]["trace_file"].read_text().splitlines()
    first = json.loads(spans[0])
    assert set(first) == {"id", "name", "start_us", "end_us", "parent", "rid"}


def test_preflight_reproduces_the_lossy_city_golden():
    assert run.preflight(smoke=True, deadline=0)["ok"]


def test_compare_verdicts():
    a = [1.00, 1.01, 0.99, 1.00]
    within = compare.set_verdict(a, [1.02, 1.03, 1.01, 1.02], better="lower", bound=0.1)
    assert within == "within bound"
    assert compare.set_verdict(a, [1.2, 1.21, 1.19, 1.2], better="lower", bound=0.1) == "worse"
    assert compare.set_verdict(a, [1.2, 1.21, 1.19, 1.2], better="higher", bound=0.1) == "better"
    assert compare.set_verdict(a, [0.5, 1.5, 0.7, 1.4], better="lower", bound=0.1) == "unresolved"
    assert compare.set_verdict(a, [0.5, 0.51, 0.52, 0.5], better="lower", bound=0.01) == "better"
    parent = [1.0 + 0.01 * i for i in range(10)]
    assert compare.paired_verdict(parent, [p * 0.8 for p in parent], better="lower")["gain"]
    assert not compare.paired_verdict(parent, parent[::-1], better="lower")["gain"]


def test_compare_judges_a_lone_run_and_a_set_by_the_same_statistic():
    def run_file(seed, best, reps):
        return {"seed": seed, "workloads": {"w": {
            "metrics": {"run_s": best}, "reps": [{"run_s": r} for r in reps]}}}

    # A slow phase hit the lone run: its median repetition is 1.3, its best 1.0.
    lone = [run_file(1, 1.00, [1.00, 1.30, 1.32, 1.35, 1.02])]
    several = [run_file(s, 1.00 + 0.01 * s, [1.00 + 0.01 * s] * 3) for s in range(1, 5)]
    a, a_spread = compare.set_values(lone, "w", "run_s")
    b, b_spread = compare.set_values(several, "w", "run_s")
    assert a == [1.00] and b == [1.01, 1.02, 1.03, 1.04]
    assert a_spread == compare._spread([1.00, 1.30, 1.32, 1.35, 1.02])
    assert b_spread == compare._spread(b)


def test_paired_mode_refuses_checkouts_with_different_benchmarks(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text('{"run_seconds": 25}')
        (tmp_path / side / "bench" / "run.py").write_text("")
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert compare.benchmark_differences(parent, change) == []
    (change / "BENCHMARK.json").write_text('{"run_seconds": 5}')
    (change / "bench" / "extra.py").write_text("")
    assert compare.benchmark_differences(parent, change) == ["BENCHMARK.json", "bench/extra.py"]
