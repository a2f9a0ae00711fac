"""What the benchmark in ``perfbench/`` needs of fragkit: the names it traces,
its warm-up, and a tiny cycle of each workload that passes the benchmark's own
check of every operation's output.

The benchmark's own self-test is not collected here, so a rename or a dropped
keyword that breaks the benchmark would otherwise pass this suite.  Nothing in
``perfbench/`` is changed; it is only imported.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, name, span", tracer.FUNCTIONS)
def test_traced_function_resolves(module, name, span):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module, cls, method, span", tracer.METHODS)
def test_traced_method_resolves(module, cls, method, span):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))


def test_warm_up_runs(tmp_path):
    bench.warm_up(str(tmp_path))


@pytest.mark.parametrize("workload", sorted(workloads._CYCLES))
def test_tiny_cycle_passes_the_benchmark_checks(tmp_path, workload):
    # each op's own verifier, the benchmark's check of its output, runs here too
    for op in workloads.make_cycle(workload, 4, 0, str(tmp_path), tiny=True):
        elapsed, failure = bench._execute(op, None)
        assert failure is None, f"{op.label}: {failure}"
