"""The benchmark workloads reproduce their recorded seed-0 outputs.

Runs each workload of ``perfbench/workloads.py`` (set-up, job, checks)
once in this process at the recorded seed and compares its outputs with
``perfbench/reference/``, so a change that the benchmark would report as
incorrect fails here first.  The set-up inputs are also pinned: built with
the package's samplers and writer and with the one-draw-per-call oracles
in their place, they must be the same bytes, so two versions of the
package are always benchmarked on the same inputs.  Nothing under
``perfbench/`` is written; the ``workloads`` fixture that loads the module
lives in ``conftest.py``.
"""

import pytest

import cthmm_subtyping
from cthmm_subtyping import cohort_io

from oracles import choice_hidden_path, save_cohort_by_row


@pytest.mark.parametrize("name", ["em_continuous", "mixture_cli", "score_forecast"])
def test_seed_zero_outputs_match_reference(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(workloads.DEFAULT_SEED, tmp_path)
    out = workload.run(inputs)
    workload.check(inputs, out)
    assert out.failures == {}
    assert workloads.compare_reference(name, workload.reference_values(out)) == {}


def _setup_bytes(workload, seed, workdir):
    """Every file the set-up writes, and its trajectories, as bytes."""
    inputs = workload.setup(seed, workdir)
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    arrays = [(t.patient_id, t.times.tobytes(), t.observations.tobytes())
              for t in inputs.get("trajectories", [])]
    return files, arrays


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["em_continuous", "mixture_cli", "score_forecast"])
def test_setup_inputs_match_the_oracle_samplers(workloads, name, seed, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name]
    (tmp_path / "ours").mkdir()
    (tmp_path / "oracle").mkdir()
    ours = _setup_bytes(workload, seed, tmp_path / "ours")
    monkeypatch.setattr(cthmm_subtyping, "sample_hidden_path", choice_hidden_path)
    monkeypatch.setattr(cohort_io, "save_cohort", save_cohort_by_row)
    oracle = _setup_bytes(workload, seed, tmp_path / "oracle")
    assert ours[0].keys() == oracle[0].keys()
    assert ours == oracle
    assert ours[0] or ours[1]
