"""Independent reference implementations used to check the library.

Everything here recomputes results from first principles: truncated
series for the matrix exponential, exhaustive enumeration over hidden
sequences for posteriors, vectorised path simulation for
end-conditioned expectations, and cell-by-cell CSV ingest.  None of it
calls back into the package code paths it verifies.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from cthmm_subtyping import (
    DuplicateTimestamp,
    EmptyCohort,
    ParseError,
    Trajectory,
    UnknownColumn,
)


def discretize_value(value: float, feature, scheme) -> int:
    """Scalar binning rule: half-open bins except the last, NaN and
    out-of-range values missing (-1)."""
    binning = scheme.features[scheme.index(feature)]
    value = float(value)
    if math.isnan(value) or value < binning.lower or value > binning.upper:
        return -1
    idx = int((value - binning.lower) / binning.width)
    return min(idx, binning.bins - 1)


def load_cohort_by_cell(path, scheme) -> list[Trajectory]:
    """Cohort CSV ingest that parses and bins one cell at a time.

    Same contract as ``cohort_io.load_cohort``, errors and messages
    included.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyCohort(f"{path}: no header row")
        for column in ("patient_id", "time", *scheme.names):
            if column not in reader.fieldnames:
                raise UnknownColumn(f"{path}: missing required column {column!r}")

        rows: dict[str, list[tuple[float, list[int]]]] = {}
        for row in reader:
            line_no = reader.line_num  # physical line, blank lines included
            pid = (row.get("patient_id") or "").strip()
            if not pid:
                raise ParseError(f"{path}:{line_no}: empty patient_id")
            try:
                t = float(row["time"])
            except (TypeError, ValueError):
                raise ParseError(
                    f"{path}:{line_no}: time {row.get('time')!r} is not a number"
                ) from None
            if not math.isfinite(t):
                raise ParseError(f"{path}:{line_no}: time {t} is not finite")
            bins = []
            for d, name in enumerate(scheme.names):
                raw = (row.get(name) or "").strip()
                if raw == "":
                    bins.append(-1)
                    continue
                try:
                    value = float(raw)
                except ValueError:
                    raise ParseError(
                        f"{path}:{line_no}: feature {name!r} value {raw!r} is not a number"
                    ) from None
                bins.append(discretize_value(value, d, scheme))
            rows.setdefault(pid, []).append((t, bins))

    if not rows:
        raise EmptyCohort(f"{path}: no data rows")

    cohort = []
    for pid, records in rows.items():
        records.sort(key=lambda r: r[0])
        times = np.array([t for t, _ in records])
        if not np.all(np.diff(times) > 0):
            raise DuplicateTimestamp(f"{path}: duplicate timestamp for patient {pid!r}")
        obs = np.array([b for _, b in records], dtype=int)
        cohort.append(Trajectory(patient_id=pid, times=times, observations=obs))
    return cohort


def taylor_expm(matrix: np.ndarray, terms: int = 60) -> np.ndarray:
    """Plain truncated power series for the matrix exponential."""
    total = np.eye(matrix.shape[0])
    term = np.eye(matrix.shape[0])
    for n in range(1, terms + 1):
        term = term @ matrix / n
        total = total + term
    return total


def emission_log_likelihood(table, state: int, observation: np.ndarray) -> float:
    """Log-probability of one observation vector given a hidden state.

    Missing features (-1) contribute nothing; an all-missing vector scores 0.
    """
    total = 0.0
    for d, probs in enumerate(table.tables):
        j = int(observation[d])
        if j != -1:
            total += float(np.log(probs[state, j]))
    return total


def emission_probs(tables: list[np.ndarray], observations: np.ndarray) -> np.ndarray:
    """Per-(timepoint, state) likelihoods; missing entries (-1) are skipped."""
    n = observations.shape[0]
    n_states = tables[0].shape[0]
    out = np.ones((n, n_states))
    for i in range(n):
        for d, table in enumerate(tables):
            j = observations[i, d]
            if j != -1:
                out[i] *= table[:, j]
    return out


def enumerate_posteriors(
    pi: np.ndarray,
    rates: np.ndarray,
    tables: list[np.ndarray],
    times: np.ndarray,
    observations: np.ndarray,
):
    """Brute-force joint over all K**n hidden sequences.

    Returns (log_likelihood, gamma, xi) computed by direct summation.
    """
    n = times.size
    n_states = pi.size
    kernels = [expm(rates * gap) for gap in np.diff(times)]
    b = emission_probs(tables, observations)

    total = 0.0
    gamma = np.zeros((n, n_states))
    xi = np.zeros((max(n - 1, 0), n_states, n_states))
    for sequence in itertools.product(range(n_states), repeat=n):
        p = pi[sequence[0]] * b[0, sequence[0]]
        for i in range(1, n):
            p *= kernels[i - 1][sequence[i - 1], sequence[i]] * b[i, sequence[i]]
        total += p
        for i, state in enumerate(sequence):
            gamma[i, state] += p
        for i in range(n - 1):
            xi[i, sequence[i], sequence[i + 1]] += p
    return np.log(total), gamma / total, xi / total


def scaled_forward_backward(
    pi: np.ndarray,
    rates: np.ndarray,
    tables: list[np.ndarray],
    times: np.ndarray,
    observations: np.ndarray,
):
    """Per-trajectory scaled forward-backward, one Python loop per pass.

    The step-by-step recursion the batched passes replaced: per-step
    maximum-shifted emission weights, one ``expm`` per gap, and separate
    alpha, beta and xi loops.  Returns (log_likelihood, gamma, xi); the
    log-likelihood is -inf when some step has probability zero.
    """
    n, n_states = times.size, pi.size
    log_b = np.zeros((n, n_states))
    with np.errstate(divide="ignore"):
        for d, table in enumerate(tables):
            seen = observations[:, d] != -1
            log_b[seen] += np.log(table[:, observations[seen, d]]).T
    shift = log_b.max(axis=1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    b = np.exp(log_b - shift[:, None])
    kernels = [expm(rates * gap) for gap in np.diff(times)]

    alpha = np.empty((n, n_states))
    scale = np.empty(n)
    forward = pi * b[0]
    for i in range(n):
        if i > 0:
            forward = (alpha[i - 1] @ kernels[i - 1]) * b[i]
        scale[i] = forward.sum()
        alpha[i] = forward / scale[i] if scale[i] > 0 else np.nan

    beta = np.empty((n, n_states))
    beta[n - 1] = 1.0
    for i in range(n - 2, -1, -1):
        weighted = b[i + 1] * beta[i + 1]
        beta[i] = (kernels[i] @ weighted) / scale[i + 1] if scale[i + 1] > 0 else np.nan

    xi = np.empty((n - 1, n_states, n_states))
    for i in range(n - 1):
        xi[i] = alpha[i][:, None] * kernels[i] * (b[i + 1] * beta[i + 1])[None, :]
        xi[i] = xi[i] / scale[i + 1] if scale[i + 1] > 0 else np.nan

    if not np.all(scale > 0):
        return -np.inf, alpha * beta, xi
    return float(np.sum(np.log(scale) + shift)), alpha * beta, xi


def enumerate_predictive(
    pi: np.ndarray,
    rates: np.ndarray,
    tables: list[np.ndarray],
    times: np.ndarray,
    observations: np.ndarray,
    future_time: float,
) -> list[np.ndarray]:
    """Predictive bin distributions at one future time, by enumeration."""
    n = times.size
    n_states = pi.size
    kernels = [expm(rates * gap) for gap in np.diff(times)]
    bridge = expm(rates * (future_time - times[-1]))
    b = emission_probs(tables, observations)

    weight = np.zeros(n_states)
    for sequence in itertools.product(range(n_states), repeat=n):
        p = pi[sequence[0]] * b[0, sequence[0]]
        for i in range(1, n):
            p *= kernels[i - 1][sequence[i - 1], sequence[i]] * b[i, sequence[i]]
        weight += p * bridge[sequence[-1]]
    weight /= weight.sum()
    return [weight @ table for table in tables]


def mc_end_conditioned(
    rates: np.ndarray,
    delta: float,
    start: int,
    n_paths: int,
    rng: np.random.Generator,
):
    """Simulate paths from ``start`` over [0, delta] and bucket by end state.

    Returns a dict with per-path jump counts and sojourn times plus the
    final states, so callers can form conditioned or unconditioned means
    and standard errors.
    """
    n_states = rates.shape[0]
    exit_rates = -np.diag(rates)
    jump = np.where(np.eye(n_states, dtype=bool), 0.0, rates)
    totals = jump.sum(axis=1)
    cdf = np.cumsum(
        jump / np.where(totals > 0, totals, 1.0)[:, None], axis=1
    )

    state = np.full(n_paths, start, dtype=int)
    t = np.zeros(n_paths)
    sojourn = np.zeros((n_paths, n_states))
    counts = np.zeros((n_paths, n_states, n_states))

    active = np.nonzero(exit_rates[state] > 0)[0]
    finished = exit_rates[start] == 0
    if finished:
        sojourn[:, start] = delta
        active = np.empty(0, dtype=int)

    while active.size:
        current = state[active]
        dt = rng.exponential(1.0 / exit_rates[current])
        lands = t[active] + dt
        over = lands >= delta

        done = active[over]
        sojourn[done, state[done]] += delta - t[done]

        go = active[~over]
        if go.size:
            here = state[go]
            sojourn[go, here] += dt[~over]
            u = rng.random(go.size)
            nxt = (u[:, None] > cdf[here]).sum(axis=1)
            counts[go, here, nxt] += 1
            state[go] = nxt
            t[go] = lands[~over]
            absorbed = exit_rates[nxt] == 0
            stuck = go[absorbed]
            sojourn[stuck, nxt[absorbed]] += delta - t[stuck]
            active = go[~absorbed]
        else:
            active = go

    return {"counts": counts, "sojourn": sojourn, "end_state": state}


def conditioned_moments(sample: dict, end_state: int):
    """Means and standard errors among paths that finished in ``end_state``."""
    keep = sample["end_state"] == end_state
    n = int(keep.sum())
    if n == 0:
        return None
    counts = sample["counts"][keep]
    sojourn = sample["sojourn"][keep]
    return {
        "n": n,
        "mean_counts": counts.mean(axis=0),
        "se_counts": counts.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(counts[0]),
        "mean_sojourn": sojourn.mean(axis=0),
        "se_sojourn": sojourn.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(sojourn[0]),
    }
