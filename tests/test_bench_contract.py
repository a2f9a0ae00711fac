"""What the benchmark in ``perfbench/`` needs of fragkit: the names it traces and its warm-up.

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


@pytest.mark.parametrize("module, name, span", tracer.FUNCTIONS)
def test_traced_function_resolves(module, name, span):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module, cls, method, span", tracer.METHODS)
def test_traced_method_resolves(module, cls, method, span):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))


def test_warm_up_runs(tmp_path):
    bench.warm_up(str(tmp_path))
