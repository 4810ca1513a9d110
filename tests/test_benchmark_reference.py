"""The benchmark workloads reproduce their recorded seed-0 outputs.

Runs each workload of ``perfbench/workloads.py`` (set-up, job, checks)
once in this process at the recorded seed and compares its outputs with
``perfbench/reference/``, so a change that the benchmark would report as
incorrect fails here first.  Nothing under ``perfbench/`` is written; the
``workloads`` fixture that loads the module lives in ``conftest.py``.
"""

import pytest


@pytest.mark.parametrize("name", ["em_continuous", "mixture_cli", "score_forecast"])
def test_seed_zero_outputs_match_reference(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(workloads.DEFAULT_SEED, tmp_path)
    out = workload.run(inputs)
    workload.check(inputs, out)
    assert out.failures == {}
    assert workloads.compare_reference(name, workload.reference_values(out)) == {}
