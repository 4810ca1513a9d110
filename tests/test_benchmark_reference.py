"""The benchmark workloads reproduce their recorded seed-0 outputs.

Runs each workload of ``perfbench/workloads.py`` (set-up, job, checks)
once in this process at the recorded seed and compares its outputs with
``perfbench/reference/``, so a change that the benchmark would report as
incorrect fails here first.  Nothing under ``perfbench/`` is written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["em_continuous", "mixture_cli", "score_forecast"])
def test_seed_zero_outputs_match_reference(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(workloads.DEFAULT_SEED, tmp_path)
    out = workload.run(inputs)
    workload.check(inputs, out)
    assert out.failures == {}
    assert workloads.compare_reference(name, workload.reference_values(out)) == {}
