"""Each benchmark job, run under the benchmark's span tracer, in process.

A traced run must give the benchmark every span its per-layer metrics
read, keep every counter working, record only finite numbers, and leave
the job's outputs exactly as an untraced run leaves them.
"""

import math

import pytest


@pytest.mark.parametrize("name", ["em_continuous", "mixture_cli", "score_forecast"])
def test_traced_job_reports_every_layer_metric(name, workloads, tracer, perfbench_run, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(workloads.DEFAULT_SEED, tmp_path)
    # A job's check reads the files the job wrote, so each run is checked
    # before the next one overwrites them.
    untraced = workload.run(inputs)
    workload.check(inputs, untraced)
    with tracer.Tracer() as traced:
        out = workload.run(inputs)
    workload.check(inputs, out)
    assert untraced.failures == out.failures == {}
    assert workload.digest(out) == workload.digest(untraced)
    assert traced.broken_counters == set()
    summary = traced.summary()
    spans = {source[0] for _, _, source in perfbench_run.LAYER_METRICS if source is not None}
    assert spans <= set(summary)
    for span, entry in summary.items():
        for field, value in entry.items():
            assert math.isfinite(value), (span, field)
