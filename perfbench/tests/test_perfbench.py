"""Tests of the benchmark itself: tracer fidelity, repeatable counts, seeds.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

The last three tests start full benchmark runs and take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
from cthmm_subtyping import ctmc, inference, learning  # noqa: E402
import cthmm_subtyping as cs  # noqa: E402

#: A seed other than the default, so only the seed-independent checks apply.
OTHER_SEED = 7


def _small_model_and_trajectory():
    rng = np.random.default_rng(3)
    mask = cs.full_mask(3)
    model = cs.SubtypeModel(
        initial=np.full(3, 1 / 3),
        generator=cs.validate_generator(rng.uniform(0.2, 1.0, (3, 3)) * mask, mask),
        emissions=cs.EmissionTable(tables=(rng.dirichlet(np.ones(4), size=3),)),
    )
    times = np.array([0.0, 0.4, 1.1, 1.6, 2.9])
    obs = np.array([[0], [1], [-1], [3], [2]])
    return model, cs.Trajectory("t", times, obs)


def _package_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == tracer.PACKAGE or name.startswith(tracer.PACKAGE + ".")
        for attr, value in vars(module).items()
    }


def test_tracer_restores_every_binding():
    before = _package_bindings()
    with tracer.Tracer():
        assert learning.forward_backward is not before[("cthmm_subtyping.learning",
                                                        "forward_backward")]
        assert learning.forward_backward is inference.forward_backward
        assert ctmc.expm.__wrapped__ is before[("cthmm_subtyping.ctmc", "expm")]
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_tracer_self_time_and_counts():
    model, trajectory = _small_model_and_trajectory()
    with tracer.Tracer() as t:
        ll = inference.trajectory_log_likelihood(model, trajectory)
    assert ll == inference.trajectory_log_likelihood(model, trajectory)
    summary = t.summary()
    outer = summary["inference.trajectory_log_likelihood"]
    fb = summary["inference.forward_backward"]
    assert outer["calls"] == fb["calls"] == 1
    assert fb["timesteps"] == trajectory.length
    assert outer["self_s"] == pytest.approx(outer["s"] - fb["s"], abs=1e-12)
    # The generator is new to this process, so every gap (all distinct)
    # needs its own kernel, and every kernel is one 3 x 3 exponential.
    assert summary["ctmc.transition_matrix"]["calls"] == trajectory.length - 1
    assert summary["ctmc.expm"]["calls"] == trajectory.length - 1
    assert summary["ctmc.expm"]["n3"] == 27 * (trajectory.length - 1)
    assert summary["ctmc.end_conditioned_stats"] == {"calls": 0, "s": 0.0, "self_s": 0.0}


def test_missing_function_is_absent_not_zero(monkeypatch):
    model, trajectory = _small_model_and_trajectory()
    monkeypatch.delattr(ctmc, "end_conditioned_stats")
    with tracer.Tracer() as t:
        inference.trajectory_log_likelihood(model, trajectory)
    rep = {"layers": t.summary(), "reassign": (0, 0.0), "latencies_ms": [], "job_s": 1.0}
    metrics, absent = run.per_layer([rep], [rep])
    assert "ctmc.end_conditioned_stats.calls" in absent
    assert "ctmc.end_conditioned_stats.self_s" in absent
    assert "ctmc.end_conditioned_stats.calls" not in metrics
    # Layers that exist but did not run are measured as zero.
    assert metrics["learning.e_step.calls"]["value"] == 0
    assert metrics["inference.forward_backward.calls"]["value"] == 1


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.LAYER_METRICS
    ]
    rep = {"setup_s": 1.0, "job_s": 2.0, "patients": 10, "peak_rss_mb": 80.0}
    reported = run.end_to_end([rep])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, metric["unit"]) for name, metric in reported.items()
    ]


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return record, result


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("em_continuous", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_on_another_seed(workload):
    """Seed-independent checks pass, and tracing leaves outputs bit-identical."""
    record, result = _result(_bench(workload, OTHER_SEED, 1))
    assert result["correct"], record["failures"]
    assert result["failed"] == 0
    reps = record["repetitions"]
    assert {r["traced"] for r in reps} == {True, False}
    assert len({r["digest"] for r in reps}) == 1
    assert not record["absent"]
    assert [name for name, *_ in run.LAYER_METRICS] == list(result["metrics"])


def test_two_traced_runs_give_identical_counts():
    first, _ = _result(_bench("em_continuous", OTHER_SEED, 1))
    second, _ = _result(_bench("em_continuous", OTHER_SEED, 1))
    assert first["counts"] == second["counts"]
    assert first["counts"]["ctmc.expm"]["calls"] > 0
