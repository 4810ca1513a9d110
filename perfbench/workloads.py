"""Seeded inputs, timed jobs and output checks for the benchmark workloads.

Each workload is three steps, called by ``worker.py`` in one fresh
interpreter:

* ``setup(seed, workdir)`` builds the inputs (synthetic cohorts, CSV
  files, configurations).  Its time counts as set-up.
* ``run(inputs)`` is the timed job.  It calls the package only through
  module attributes, so a tracer installed before it sees every call.
* ``check(inputs, out)`` turns the job's outputs into a list of failed
  operations (one line each), and ``outputs`` / ``digest`` give the values
  compared with the recorded reference and across repetitions.

The package is imported by ``worker.py`` before anything here runs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cthmm_subtyping as cs
from cthmm_subtyping import cli, cohort_io, evaluation, learning, mixture

#: Seed whose outputs are recorded under ``reference/``.
DEFAULT_SEED = 0

#: Relative tolerance for the reference comparison, fixed from float64
#: round-off: a reordered sum of O(1e4) terms stays well inside it.
REFERENCE_RTOL = 1e-9

#: Largest allowed drop of the EM log-likelihood between iterations.
EM_DROP_TOL = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _observation_counts(n_patients: int, low: int, high: int, rng) -> np.ndarray:
    """Per-patient observation counts spread evenly over [low, high].

    The multiset is the same for every seed and only its order is
    shuffled, so the total number of timestamps (and therefore the work)
    does not depend on the seed.
    """
    counts = np.rint(np.linspace(low, high, n_patients)).astype(int)
    return rng.permutation(counts)


def _sample(model_mixture, counts, missing_rates, rng) -> tuple[list, np.ndarray]:
    """Sample labelled trajectories with exponential gaps and per-feature missingness.

    Hidden paths come from ``synthesis.sample_hidden_path``; bins are drawn
    for all timestamps of a feature at once by inverse-CDF lookup.
    """
    trajectories = []
    labels = np.empty(len(counts), dtype=int)
    missing_rates = np.asarray(missing_rates, dtype=float)
    for i, n_obs in enumerate(counts):
        label = int(rng.choice(model_mixture.n_subtypes, p=model_mixture.prior))
        model = model_mixture.models[label]
        times = np.concatenate([[0.0], np.cumsum(rng.exponential(1.0, size=n_obs - 1))])
        path = cs.sample_hidden_path(model.generator, model.initial, times[-1], rng)
        hidden = path.state_at(times)
        obs = np.column_stack([
            (rng.random(n_obs)[:, None] > np.cumsum(table, axis=1)[hidden]).sum(axis=1)
            for table in model.emissions.tables
        ])
        obs = np.minimum(obs, np.array(model.emissions.bin_counts) - 1)
        obs[rng.random(obs.shape) < missing_rates[None, :]] = cs.MISSING
        trajectories.append(
            cs.Trajectory(patient_id=f"p{i:05d}", times=times, observations=obs)
        )
        labels[i] = label
    return trajectories, labels


def _scheme(bin_counts) -> cs.BinningScheme:
    return cs.BinningScheme(
        tuple(
            cs.FeatureBinning(name=f"f{d}", lower=0.0, upper=1.0, bins=bins)
            for d, bins in enumerate(bin_counts)
        )
    )


def _chain_model(rates, peaks, n_bins=5, peak_mass=0.85) -> cs.SubtypeModel:
    """Left-to-right subtype with one emission peak per (state, feature)."""
    peaks = np.asarray(peaks, dtype=int)
    n_states = peaks.shape[0]
    raw = np.zeros((n_states, n_states))
    for k, rate in enumerate(rates):
        raw[k, k + 1] = rate
    mask = cs.left_to_right_mask(n_states)
    tables = []
    for d in range(peaks.shape[1]):
        table = np.full((n_states, n_bins), (1.0 - peak_mass) / (n_bins - 1))
        table[np.arange(n_states), peaks[:, d]] = peak_mass
        tables.append(table / table.sum(axis=1, keepdims=True))
    initial = np.zeros(n_states)
    initial[0] = 1.0
    return cs.SubtypeModel(
        initial=initial,
        generator=cs.validate_generator(raw, mask),
        emissions=cs.EmissionTable(tables=tuple(tables)),
    )


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def _floats_bytes(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@dataclass
class Outcome:
    """What one timed job produced."""

    patients: int
    attempted: int
    job_s: float
    values: dict = field(default_factory=dict)
    #: Failed operations: operation ("fit" or a patient id) -> reason.
    failures: dict[str, str] = field(default_factory=dict)
    latencies_ms: list[float] = field(default_factory=list)


# --------------------------------------------------------------------------
# em_continuous: single-subtype EM on raw, unquantized gaps.

EM_PATIENTS = 128
EM_OBSERVATIONS = (5, 40)
EM_STATES = 4
EM_ITERATIONS = 2


def em_setup(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    scheme = _scheme((5, 5))
    truth = cs.random_mixture(1, EM_STATES, scheme, seed=101, structure="full")
    counts = _observation_counts(EM_PATIENTS, *EM_OBSERVATIONS, rng)
    trajectories, _ = _sample(truth, counts, (0.2, 0.2), rng)
    config = cs.EmConfig(
        max_iterations=EM_ITERATIONS,
        tolerance=1e-300,
        restarts=1,
        structure="full",
        seed=seed,
    )
    return {"trajectories": trajectories, "config": config, "bins": scheme.bin_counts}


def em_run(inputs: dict) -> Outcome:
    start = time.perf_counter()
    try:
        _, diag = learning.fit_disease_model(
            inputs["trajectories"], EM_STATES, inputs["config"], bin_counts=inputs["bins"]
        )
    except Exception as err:  # a failed fit is reported, not raised
        return Outcome(len(inputs["trajectories"]), 1, time.perf_counter() - start,
                       failures={"fit": f"raised {type(err).__name__}: {err}"})
    job_s = time.perf_counter() - start
    return Outcome(
        len(inputs["trajectories"]), 1, job_s,
        values={"trace": list(diag.trace), "iterations": diag.iterations},
    )


def em_check(inputs: dict, out: Outcome) -> None:
    if out.failures:
        return
    trace = np.asarray(out.values["trace"])
    if out.values["iterations"] != EM_ITERATIONS or trace.size != EM_ITERATIONS + 1:
        out.failures["fit"] = f"stopped after {out.values['iterations']} iterations"
    elif not np.all(np.isfinite(trace)):
        out.failures["fit"] = "EM trace is not finite"
    elif np.diff(trace).min() < -EM_DROP_TOL:
        out.failures["fit"] = f"EM trace dropped by {-np.diff(trace).min():.3e}"


def em_digest(out: Outcome) -> str:
    return _digest(_floats_bytes(out.values.get("trace", [])))


def em_reference_values(out: Outcome) -> dict:
    return {"trace": out.values["trace"]}


# --------------------------------------------------------------------------
# mixture_cli: ``cthmm-subtype fit`` on a CSV cohort, run to convergence.

MIX_PATIENTS = 200
MIX_OBSERVATIONS = (15, 25)
MIX_PEAKS = ([[0, 0], [1, 1], [2, 2]], [[4, 4], [3, 3], [1, 0]])
MIX_RATES = ([0.5, 0.3], [0.25, 0.6])
MIX_MIN_ACCURACY = 0.95
#: Cap on each inner EM fit.  Uncapped, the number of E-steps to
#: convergence ranged from 52 to 89 over eight seeds of a cohort like this
#: one, a spread no bounded time metric can absorb; the hard-EM rounds
#: still run to their fixed point.
MIX_EM_ITERATIONS = 8
_ACCURACY_LINE = re.compile(r"label accuracy vs ground truth .*: ([0-9.]+)")


def mix_setup(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 2])
    scheme = cohort_io.BinningScheme(cohort_io.DEFAULT_FEATURES)
    truth = cs.MixtureModel(
        models=tuple(_chain_model(r, p) for r, p in zip(MIX_RATES, MIX_PEAKS)),
        prior=np.full(2, 0.5),
        assignments=np.empty(0, dtype=int),
        objective_trace=[],
        scheme=scheme,
    )
    counts = _observation_counts(MIX_PATIENTS, *MIX_OBSERVATIONS, rng)
    trajectories, labels = _sample(truth, counts, (0.2, 0.2), rng)
    data = workdir / "cohort.csv"
    truth_path = workdir / "truth.csv"
    config_path = workdir / "config.json"
    cohort_io.save_cohort(trajectories, data, scheme)
    with truth_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["patient_id", "subtype"])
        writer.writerows([t.patient_id, int(m)] for t, m in zip(trajectories, labels))
    config = {
        "features": [
            {"name": f.name, "lower": f.lower, "upper": f.upper, "bins": f.bins}
            for f in scheme.features
        ],
        "subtypes": 2,
        "states": 3,
        "left_to_right": True,
        "seed": seed,
        "em": {"restarts": 2, "delta_quantization": 0.05,
               "max_iterations": MIX_EM_ITERATIONS},
    }
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = ["fit", "--config", str(config_path), "--data", str(data),
            "--out", str(workdir / "model.json"), "--truth", str(truth_path)]
    return {"argv": argv, "model": workdir / "model.json", "patients": MIX_PATIENTS}


def mix_run(inputs: dict) -> Outcome:
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(inputs["argv"])
    except Exception as err:  # a crashed command is a failed fit
        return Outcome(inputs["patients"], 1, time.perf_counter() - start,
                       failures={"fit": f"raised {type(err).__name__}: {err}"})
    job_s = time.perf_counter() - start
    return Outcome(inputs["patients"], 1, job_s,
                   values={"code": code, "stdout": stdout.getvalue()})


def mix_check(inputs: dict, out: Outcome) -> None:
    if out.failures:
        return
    if out.values["code"] != 0:
        out.failures["fit"] = f"exited with code {out.values['code']}"
        return
    match = _ACCURACY_LINE.search(out.values["stdout"])
    if match is None:
        out.failures["fit"] = "printed no label accuracy"
        return
    accuracy = float(match.group(1))
    if accuracy < MIX_MIN_ACCURACY:
        out.failures["fit"] = f"label accuracy {accuracy:.4f} < {MIX_MIN_ACCURACY}"
    fitted = cohort_io.load_model(inputs["model"])
    if fitted.assignments.size != inputs["patients"]:
        out.failures["fit"] = "model file holds the wrong number of assignments"
    out.values["accuracy"] = accuracy
    out.values["assignments"] = fitted.assignments.tolist()
    out.values["objective_trace"] = list(fitted.objective_trace)


def mix_digest(out: Outcome) -> str:
    return _digest(
        np.asarray(out.values.get("assignments", []), dtype=np.int64).tobytes(),
        _floats_bytes(out.values.get("objective_trace", [])),
        repr(out.values.get("accuracy")).encode(),
    )


def mix_reference_values(out: Outcome) -> dict:
    return {
        "assignments": out.values["assignments"],
        "objective_trace": out.values["objective_trace"],
    }


# --------------------------------------------------------------------------
# score_forecast: CSV ingest, assignment and forecast scoring, no fitting.

SCORE_PATIENTS = 1100
SCORE_OBSERVATIONS = (12, 22)
SCORE_BINS = (5, 5, 4, 4, 3, 6, 3, 5)
SCORE_MISSING = (0.2, 0.3, 0.8, 0.85, 0.85, 0.9, 0.9, 0.9)
SCORE_PREFIX = 0.7


def score_setup(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng([seed, 3])
    scheme = _scheme(SCORE_BINS)
    model = cs.random_mixture(3, 4, scheme, seed=303, structure="full")
    counts = _observation_counts(SCORE_PATIENTS, *SCORE_OBSERVATIONS, rng)
    trajectories, _ = _sample(model, counts, SCORE_MISSING, rng)
    data = workdir / "cohort.csv"
    cohort_io.save_cohort(trajectories, data, scheme)
    return {"data": data, "scheme": scheme, "mixture": model, "patients": len(trajectories)}


def score_run(inputs: dict) -> Outcome:
    model = inputs["mixture"]
    out = Outcome(inputs["patients"], inputs["patients"], 0.0)
    subtypes, best, entropies = [], [], []
    start = time.perf_counter()
    try:
        cohort = cohort_io.load_cohort(inputs["data"], inputs["scheme"])
    except Exception as err:  # nothing could be scored
        out.job_s = time.perf_counter() - start
        reason = f"ingest raised {type(err).__name__}: {err}"
        out.failures = {f"patient {i}": reason for i in range(out.attempted)}
        return out
    for trajectory in cohort:
        t0 = time.perf_counter()
        try:
            subtype, scores = mixture.assign_subtype(model, trajectory)
            entropy = evaluation.forecast_cross_entropy(model, trajectory, SCORE_PREFIX)
        except Exception as err:  # one patient failed; keep scoring the rest
            out.failures[trajectory.patient_id] = f"{type(err).__name__}: {err}"
            continue
        out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        subtypes.append(subtype)
        best.append(float(scores[subtype]))
        entropies.append(entropy)
    out.job_s = time.perf_counter() - start
    for i in range(len(cohort), out.attempted):
        out.failures[f"patient {i}"] = "missing after ingest"
    out.values = {
        "ids": [t.patient_id for t in cohort],
        "cohort": cohort,
        "subtypes": subtypes,
        "best_scores": best,
        "cross_entropies": entropies,
    }
    return out


def _uniform_cross_entropy(trajectory, bin_counts) -> float:
    _, _, held = cs.prefix_split(trajectory, SCORE_PREFIX)
    logs = [math.log(bin_counts[d]) for _, d in zip(*np.nonzero(held != cs.MISSING))]
    return sum(logs) / len(logs)


def score_check(inputs: dict, out: Outcome) -> None:
    if not out.values or out.failures:
        return
    entropies = np.asarray(out.values["cross_entropies"])
    for pid, value in zip(out.values["ids"], entropies):
        if not (math.isfinite(value) and value >= 0.0):
            out.failures[pid] = f"cross-entropy {value!r}"
    bins = inputs["scheme"].bin_counts
    uniform = np.mean([_uniform_cross_entropy(t, bins) for t in out.values["cohort"]])
    if not entropies.mean() < uniform:
        # The cohort-level check fails every scored patient.
        reason = f"mean cross-entropy {entropies.mean():.4f} is not below uniform {uniform:.4f}"
        out.failures.update((pid, reason) for pid in out.values["ids"])
    del out.values["cohort"]


def score_digest(out: Outcome) -> str:
    return _digest(
        np.asarray(out.values.get("subtypes", []), dtype=np.int64).tobytes(),
        _floats_bytes(out.values.get("best_scores", [])),
        _floats_bytes(out.values.get("cross_entropies", [])),
    )


def score_reference_values(out: Outcome) -> dict:
    return {
        "subtypes": out.values["subtypes"],
        "best_scores": out.values["best_scores"],
        "cross_entropies": out.values["cross_entropies"],
    }


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    digest: object
    reference_values: object
    #: Whether an operation is one scored patient (else one fit).
    per_patient: bool = False


WORKLOADS = {
    "em_continuous": Workload(em_setup, em_run, em_check, em_digest, em_reference_values),
    "mixture_cli": Workload(mix_setup, mix_run, mix_check, mix_digest, mix_reference_values),
    "score_forecast": Workload(
        score_setup, score_run, score_check, score_digest, score_reference_values,
        per_patient=True,
    ),
}


def compare_reference(name: str, values: dict) -> dict[int, str]:
    """Differences from the recorded default-seed outputs.

    Returns element index -> reason for every recorded value that differs
    (integers exactly, floats beyond ``REFERENCE_RTOL``); index -1 when a
    whole series is missing or has another length.
    """
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return {-1: f"no reference outputs at {path.name}"}
    expected = json.loads(path.read_text(encoding="utf-8"))
    problems: dict[int, str] = {}
    for key, want in expected.items():
        got = values.get(key)
        if got is None or len(got) != len(want):
            problems[-1] = f"reference {key}: length differs"
            continue
        want_a, got_a = np.asarray(want), np.asarray(got)
        if want_a.dtype.kind in "iub":
            bad = np.nonzero(want_a != got_a)[0]
        else:
            bad = np.nonzero(~np.isclose(got_a, want_a, rtol=REFERENCE_RTOL, atol=0.0))[0]
        for i in bad:
            problems.setdefault(int(i), f"{key}: got {got[i]!r}, recorded {want[i]!r}")
    return problems
