"""Benchmark entry point: repeated fresh-interpreter runs of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``worker.py`` once per repetition, one at a time, each in a new
interpreter, until the next repetition would end after ``--seconds``
(but at least ``MIN_REPS`` of them).  With ``--trace 0`` it reports the
end-to-end metrics as medians over the repetitions; with ``--trace 1``
it alternates untraced and traced repetitions and reports the per-layer
metrics from the traced ones, the score latencies from the untraced
ones and the tracing overhead from both.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the environment and the per-repetition figures; the same record
is written to ``.perfbench_work/last-<workload>-trace<0|1>.json``.
Run from a checkout that holds ``src/cthmm_subtyping``; elsewhere the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("em_continuous", "mixture_cli", "score_forecast")
MIN_REPS = {0: 3, 1: 4}

#: No repetition starts that could end after this many seconds of the run.
RUN_LIMIT_S = 160.0

#: Thread settings handed to every repetition; the matrices are small, so
#: one BLAS thread is what the library would use anyway.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Per-layer metrics: name, unit, (span, field).  ``None`` marks a metric
#: computed otherwise; ``per_layer`` handles those by name.
LAYER_METRICS = (
    ("ctmc.expm.calls", "count", ("ctmc.expm", "calls")),
    ("ctmc.expm.matrices", "count", ("ctmc.expm", "matrices")),
    ("ctmc.expm.n3", "count", ("ctmc.expm", "n3")),
    ("ctmc.expm.s", "s", ("ctmc.expm", "s")),
    ("ctmc.end_conditioned_stats.calls", "count",
     ("ctmc.end_conditioned_stats", "calls")),
    ("ctmc.end_conditioned_stats.self_s", "s",
     ("ctmc.end_conditioned_stats", "self_s")),
    ("ctmc.transition_matrix.calls", "count", ("ctmc.transition_matrix", "calls")),
    ("ctmc.transition_matrix.self_s", "s", ("ctmc.transition_matrix", "self_s")),
    ("inference.forward_backward.calls", "count",
     ("inference.forward_backward", "calls")),
    ("inference.forward_backward.self_s", "s",
     ("inference.forward_backward", "self_s")),
    ("inference.forward_backward.timesteps", "count",
     ("inference.forward_backward", "timesteps")),
    ("inference.predictive_bin_distributions.self_s", "s",
     ("inference.predictive_bin_distributions", "self_s")),
    ("evaluation.forecast_cross_entropy.self_s", "s",
     ("evaluation.forecast_cross_entropy", "self_s")),
    ("emissions.log_emission_matrix.calls", "count",
     ("emissions.log_emission_matrix", "calls")),
    ("emissions.log_emission_matrix.self_s", "s",
     ("emissions.log_emission_matrix", "self_s")),
    ("learning.e_step.calls", "count", ("learning.e_step", "calls")),
    ("learning.e_step.self_s", "s", ("learning.e_step", "self_s")),
    ("learning.e_step.distinct_gaps", "count", None),
    ("learning.generator_update_terms.self_s", "s",
     ("learning.generator_update_terms", "self_s")),
    ("learning.em_iterations", "count",
     ("learning.fit_disease_model", "em_iterations")),
    ("mixture.rounds", "count", ("mixture.fit_mixture", "rounds")),
    ("mixture.reassign_calls", "count", None),
    ("mixture.reassign_s", "s", None),
    ("cohort_io.load_cohort.s", "s", ("cohort_io.load_cohort", "s")),
    ("cohort_io.load_cohort.rows", "count", ("cohort_io.load_cohort", "rows")),
    ("cohort_io.save_model.s", "s", ("cohort_io.save_model", "s")),
    ("cli.main.self_s", "s", ("cli.main", "self_s")),
    ("score_latency_p50_ms", "ms", None),
    ("score_latency_p99_ms", "ms", None),
    ("trace.overhead_ratio", "ratio", None),
)

TIME_FIELDS = ("s", "self_s")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import scipy

    return {
        "machine": f"{platform.machine()} {_cpu_model()}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": THREAD_ENV,
        "git_commit": _git_commit(),
    }


def run_rep(workload: str, seed: int, traced: bool, repdir: Path, timeout: float):
    """One repetition in a fresh interpreter; returns its result or an error line."""
    repdir.mkdir(parents=True)
    result_path = repdir / "result.json"
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spawned = time.monotonic()
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--workdir", str(repdir), "--result", str(result_path),
        "--spawned", repr(spawned), "--trace", "1" if traced else "0",
    ]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition timed out after {timeout:.0f}s"
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"repetition exited with code {proc.returncode}: {tail[0]}"
    return json.loads(result_path.read_text(encoding="utf-8")), None


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(reps: list[dict]) -> dict:
    """Run-level end-to-end metrics: medians over the repetitions."""
    med = statistics.median
    return {
        "setup_s": {"value": med(r["setup_s"] for r in reps), "unit": "s"},
        "job_s": {"value": med(r["job_s"] for r in reps), "unit": "s"},
        "patients_per_s": {"value": med(r["patients"] / r["job_s"] for r in reps),
                           "unit": "1/s"},
        "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in reps), "unit": "MB"},
    }


def _layer_value(reps: list[dict], span: str, field: str):
    """Median over traced reps of one span field; None when absent."""
    values = []
    for rep in reps:
        entry = rep["layers"].get(span)
        if entry is None:
            return None
        if field not in entry:
            if entry["calls"] > 0:
                return None  # the counter no longer matches the function
            values.append(0)
        else:
            values.append(entry[field])
    return statistics.median(values)


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    metrics, absent = {}, []
    for name, unit, source in LAYER_METRICS:
        if source is not None:
            value = _layer_value(traced, *source)
        elif name == "learning.e_step.distinct_gaps":
            total = _layer_value(traced, "learning.e_step", "distinct_gaps")
            calls = _layer_value(traced, "learning.e_step", "calls")
            value = None if total is None else (total / calls if calls else 0.0)
        elif name in ("mixture.reassign_calls", "mixture.reassign_s"):
            part = 0 if name.endswith("calls") else 1
            value = (None if any(r["reassign"] is None for r in traced)
                     else statistics.median(r["reassign"][part] for r in traced))
        elif name == "score_latency_p50_ms":
            value = statistics.median(_percentile(r["latencies_ms"], 50) for r in untraced)
        elif name == "score_latency_p99_ms":
            value = statistics.median(_percentile(r["latencies_ms"], 99) for r in untraced)
        else:  # trace.overhead_ratio
            value = (statistics.median(r["job_s"] for r in traced)
                     / statistics.median(r["job_s"] for r in untraced) - 1.0)
        if value is None:
            absent.append(name)
        else:
            metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def _counts(rep: dict) -> dict:
    return {
        span: {k: v for k, v in entry.items() if k not in TIME_FIELDS}
        for span, entry in rep["layers"].items()
    } | {"reassign": rep["reassign"] and rep["reassign"][0]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "cthmm_subtyping" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'cthmm_subtyping'}", file=sys.stderr)
        return 2

    rundir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    start = time.monotonic()
    reps: list[dict] = []
    traced_flags: list[bool] = []
    errors: list[str] = []
    slowest = 0.0
    while True:
        elapsed = time.monotonic() - start
        count = len(reps) + len(errors)
        if count >= MIN_REPS[args.trace] and elapsed + slowest > args.seconds:
            break
        if count and elapsed + slowest > RUN_LIMIT_S:
            break
        traced = bool(args.trace) and count % 2 == 1
        began = time.monotonic()
        result, error = run_rep(args.workload, args.seed, traced, rundir / f"rep{count}",
                                timeout=max(5.0, RUN_LIMIT_S + 10.0 - elapsed))
        slowest = max(slowest, time.monotonic() - began)
        if error is not None:
            errors.append(error)
            continue
        reps.append(result)
        traced_flags.append(traced)
    WORK.mkdir(exist_ok=True)
    last_spans = sorted(rundir.glob("rep*/spans.npz"))
    if last_spans:
        shutil.copyfile(last_spans[-1], WORK / f"last-{args.workload}-spans.npz")
    shutil.rmtree(rundir, ignore_errors=True)

    failures = {f"repetition {i}": e for i, e in enumerate(errors)}
    for rep in reps:
        failures.update(rep["failures"])
    attempted = sum(r["attempted"] for r in reps) + len(errors)
    failed = sum(len(r["failures"]) for r in reps) + len(errors)

    untraced = [r for r, t in zip(reps, traced_flags) if not t]
    traced = [r for r, t in zip(reps, traced_flags) if t]
    absent: list[str] = []
    if len({r["digest"] for r in reps}) > 1:
        failures["digest"] = "repetitions produced different outputs"
        failed += 1
    if args.trace:
        if not untraced or not traced:
            metrics = {}
        else:
            metrics, absent = per_layer(untraced, traced)
            if any(_counts(r) != _counts(traced[0]) for r in traced):
                failures["counts"] = "traced repetitions recorded different counts"
                failed += 1
    else:
        metrics = end_to_end(reps) if reps else {}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("latencies_ms", "layers", "failures")}
            | {"traced": t, "failed": len(r["failures"])}
            for r, t in zip(reps, traced_flags)
        ],
        "errors": errors,
        "absent": absent,
        "counts": _counts(traced[0]) if traced else None,
        "failures": dict(list(failures.items())[:20]),
    }
    (WORK / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    for op, reason in list(failures.items())[:20]:
        print(f"failed {op}: {reason}", file=sys.stderr)
    print(json.dumps(record))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, failed, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
