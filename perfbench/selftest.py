"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

Named so that the repository's own test run does not collect it.
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _tiny(workload, trace, seed=7):
    return bench._summary(bench.run(workload, seed, 0.1, trace, time.perf_counter(), tiny=True))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = _tiny(workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_reference_is_counted_as_failed(monkeypatch):
    right = workloads.homogeneous_ratio
    monkeypatch.setattr(workloads, "homogeneous_ratio", lambda nu, p: right(nu, p) * (1 + 1e-6))
    result = _tiny("admissibility-sweep", trace=True)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["failed_frac"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_counts_repeat_for_a_fixed_seed(workload):
    first, second = (_tiny(workload, trace=True)["metrics"] for _ in range(2))
    counts = [name for name, m in first.items() if m["unit"] in ("count", "bytes", "ratio")]
    assert counts
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


def test_layers_idle_where_predicted():
    sim = _tiny("simulation", trace=True)["metrics"]
    assert sim["quadrature.log_integrate.calls"]["value"] == 0
    assert sim["simulator.steps"]["value"] > 0
    for workload in ("admissibility-sweep", "weight-construction"):
        assert _tiny(workload, trace=True)["metrics"]["simulator.steps"]["value"] == 0
