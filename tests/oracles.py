"""Independent reference implementations used to check the library.

Everything here recomputes results from first principles: a truncated
series and a 40-digit mpmath exponential for the matrix exponential,
exhaustive enumeration over hidden sequences for posteriors, vectorised
path simulation for end-conditioned expectations, and cell-by-cell CSV
ingest.  None of it calls back into the package code paths it verifies,
save the serial EM loops: they run the package's own E- and M-steps one
fit at a time, as the fits ran before they were batched, and so pin the
lockstep scheduler that replaced them, not the steps; likewise the
per-patient forecast score runs the package's own forward pass on one
prefix at a time and pins the cohort scorer that replaced it.  The packing,
quantization and bin counts that build the cohort layout one trajectory
at a time pin the concatenated cohort that replaced them.  The eigen closed
forms built from complex basis products, one kernel and one integral per
gap, pin the eigenprojector kernels and the summed interval integral that
replaced them.  ``quantize_gaps`` is no reference: it hands a list of
trajectories to the package's own cohort quantization.  The samplers and
the CSV writer at the end draw with one ``Generator.choice`` or
``Generator.exponential`` call per draw and write one row at a time, and
so pin the random stream and the file bytes of the package's own.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
from scipy.linalg import expm

from dataclasses import replace

from cthmm_subtyping import (
    MISSING,
    DuplicateTimestamp,
    ExpmInaccuracy,
    EmptyCohort,
    HiddenPath,
    ImpossibleTrajectory,
    MixtureModel,
    NoHeldOutObservations,
    ParseError,
    SubtypeModel,
    SubtypingError,
    SyntheticCohort,
    Trajectory,
    UnknownColumn,
    ctmc,
    evaluation,
    inference,
    learning,
    mixture,
)
from cthmm_subtyping.emissions import feature_totals, stacked_columns


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


# --------------------------------------------------------------------------
# The eigen closed forms as the package built them before a kernel was a
# product with the eigenprojectors and the interval integrals a sum taken in
# the eigenbasis: complex (G, K, K) basis products, one per gap.


def complex_matmul(stack: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``stack @ matrix`` for complex arrays, as one real product.

    A complex row read as (re_0, im_0, re_1, im_1, ...) times the real
    form of ``matrix`` (each entry a + ib spread over the 2 x 2 block
    [[a, b], [-b, a]]) is the complex product's row, read the same way.
    One (K, K) ``matrix`` multiplies every row of the stack in a single
    product; a stack of matrices pairs up with ``stack`` as ``@`` does.
    """
    real = np.empty(matrix.shape[:-2] + (2 * matrix.shape[-2], 2 * matrix.shape[-1]))
    real[..., 0::2, 0::2] = real[..., 1::2, 1::2] = matrix.real
    real[..., 0::2, 1::2] = matrix.imag
    real[..., 1::2, 0::2] = -matrix.imag
    rows = np.ascontiguousarray(stack, dtype=complex).view(float)
    if matrix.ndim > 2:
        return (rows @ real).view(complex)
    product = rows.reshape(-1, rows.shape[-1]) @ real
    return product.view(complex).reshape(stack.shape[:-1] + matrix.shape[-1:])


def basis_product_kernels(rates: np.ndarray, spectrum: tuple, gaps: np.ndarray) -> np.ndarray:
    """``ctmc._kernels`` with V diag(exp(gap * values)) V^-1 as the closed
    form: the same fallback, zero-gap identity, drift guard and
    renormalisation, with numpy's own reductions."""
    gaps = np.asarray(gaps, dtype=float)
    values, vectors, inverse, usable = spectrum
    eigen = bool(np.all(usable))
    if not eigen:
        values, vectors, inverse = values[usable], vectors[usable], inverse[usable]
    growth = np.exp(values[:, None, :] * gaps[:, None])
    probs = complex_matmul(vectors[:, None] * growth[..., None, :], inverse[:, None]).real
    if not eigen:
        probs, closed = np.empty(rates.shape[:1] + gaps.shape + rates.shape[1:]), probs
        probs[usable] = closed
        probs[~usable] = expm(rates[~usable][:, None] * gaps[:, None, None])
    zero = gaps == 0
    if np.any(zero):
        probs[:, zero] = np.eye(rates.shape[-1])
    drift = np.abs(probs.sum(axis=-1) - 1.0).max(axis=-1)
    broken = ~(drift <= ctmc._ROW_SUM_MAX) | (probs.min(axis=(-2, -1)) < -ctmc._ROW_SUM_MAX)
    if np.any(broken):
        m, g = np.argwhere(broken)[0]
        raise ExpmInaccuracy(
            f"matrix exponential row sums drifted by {drift[m, g]:.3e} "
            f"for interval {gaps[g]}"
        )
    probs = np.clip(probs, 0.0, 1.0)
    renormalise = drift > ctmc._ROW_SUM_TOL
    if np.any(renormalise):
        probs[renormalise] /= probs[renormalise].sum(axis=-1, keepdims=True)
    return probs


def interval_integrals_by_block(spectrum: tuple, blocks: np.ndarray,
                                intervals: np.ndarray) -> np.ndarray:
    """The eigen route's integral of expm(s Q) B_i expm((delta_i - s) Q)
    over (0, delta_i) for every block on its own (B, n, n): V [(V^-1 B_i V)
    * Phi_i] V^-1 through :func:`complex_matmul`, with Phi as the package
    builds it.  ``spectrum`` must be usable."""
    values, vectors, inverse, usable = spectrum
    assert usable[0]
    values, vectors, inverse = values[0], vectors[0], inverse[0]
    n = len(values)
    growth = np.exp(np.multiply.outer(intervals, values))
    j, k = np.triu_indices(n, 1)
    split = values[j] - values[k]
    z = np.multiply.outer(intervals, split)
    near = np.abs(z) < 0.1
    z = np.where(near, z, 0.0)
    series = np.full_like(z, 1 / math.factorial(11))
    for m in range(10, 0, -1):
        series *= z
        series += 1 / math.factorial(m)
    reciprocal = np.divide(1.0, split, out=np.zeros_like(split), where=split != 0)
    pairs = np.where(near, intervals[:, None] * growth[:, k] * series,
                     (growth[:, j] - growth[:, k]) * reciprocal)
    phi = np.empty((len(intervals), n, n), dtype=complex)
    phi[:, j, k] = phi[:, k, j] = pairs
    phi[:, range(n), range(n)] = intervals[:, None] * growth
    # Left products go through transposes: U X = (X^T U^T)^T.
    eigenbasis = complex_matmul(
        complex_matmul(blocks, vectors).swapaxes(1, 2), inverse.T).swapaxes(1, 2)
    weighted = complex_matmul(eigenbasis * phi, inverse)
    return complex_matmul(weighted.swapaxes(1, 2), vectors.T).swapaxes(1, 2).real


def mp_kernel_and_integral(
    rates: np.ndarray, block: np.ndarray, gap: float, digits: int = 40
) -> tuple[np.ndarray, np.ndarray]:
    """expm(gap Q) and the integral of expm(s Q) B expm((gap - s) Q) over
    (0, gap), both rounded from one ``mpmath.expm`` of the augmented matrix
    [[Q, B], [0, Q]] * gap at ``digits`` significant digits."""
    n = rates.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = aug[n:, n:] = rates
    aug[:n, n:] = block
    with mpmath.workdps(digits):
        scaled = mpmath.matrix(aug.tolist()) * mpmath.mpf(float(gap))
        full = np.array(mpmath.expm(scaled).tolist(), dtype=float)
    return full[:n, :n], full[:n, n:]


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


def m_step_emissions_by_feature(
    counts: list[np.ndarray], smoothing: float
) -> list[np.ndarray]:
    """Emission update one feature at a time: the smoothed ratio of each
    (K, j) count block, uniform where a row's denominator is zero."""
    tables = []
    for block in counts:
        j = block.shape[1]
        totals = block.sum(axis=1, keepdims=True)
        smoothed = block + smoothing
        denom = totals + j * smoothing
        table = np.where(denom > 0, smoothed / np.where(denom > 0, denom, 1.0), 1.0 / j)
        tables.append(table / table.sum(axis=1, keepdims=True))
    return tables


def bin_frequencies_by_feature(
    trajectories: list[Trajectory], bin_counts: tuple[int, ...], smoothing: float
) -> list[np.ndarray]:
    """Smoothed observed bin frequencies, one bincount per feature."""
    out = []
    for d, j in enumerate(bin_counts):
        column = np.concatenate([t.observations[:, d] for t in trajectories])
        seen = np.bincount(column[column != -1], minlength=j)
        smoothed = seen + max(smoothing, 1e-6)
        out.append(smoothed / smoothed.sum())
    return out


def bin_histograms_by_feature(
    trajectories: list[Trajectory], bin_counts: tuple[int, ...]
) -> np.ndarray:
    """Per-patient observed-bin frequencies, one feature at a time,
    features side by side; a feature never observed stays all zero."""
    rows = []
    for t in trajectories:
        row = []
        for d, j in enumerate(bin_counts):
            column = t.observations[:, d]
            h = np.bincount(column[column != -1], minlength=j).astype(float)
            row.append(h / max(h.sum(), 1))
        rows.append(np.concatenate(row))
    return np.array(rows)


def scatter_counts(
    gamma: np.ndarray,
    columns: np.ndarray,
    n_columns: int,
    xi: np.ndarray,
    gap_index: np.ndarray,
    n_gaps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """E-step counts by unbuffered scatter-add, one row at a time.

    ``gamma`` (n, K) and ``columns`` (n, D) are one fit's rows in the
    order they are summed (packed order for the E-step), ``xi`` (s, K, K)
    its pair posteriors and ``gap_index`` (s,) their gaps, in that order.
    Returns the emission counts (K, n_columns), the MISSING column
    dropped, and the pair counts (n_gaps, K, K).
    """
    counts = np.zeros((n_columns + 1, gamma.shape[1]))
    np.add.at(counts, columns, gamma[:, None, :])
    pair_counts = np.zeros((n_gaps,) + xi.shape[1:])
    np.add.at(pair_counts, gap_index, xi)
    return np.ascontiguousarray(counts[:-1].T), pair_counts


def random_emission_tables(
    n_states: int,
    bin_counts: tuple[int, ...],
    rng: np.random.Generator,
    base_freqs: list[np.ndarray],
) -> list[np.ndarray]:
    """A restart's emission tables, drawn and normalised one feature at a
    time: the base frequencies times 1 + 0.2 U(-1, 1) noise."""
    tables = []
    for d, j in enumerate(bin_counts):
        noise = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=(n_states, j))
        table = base_freqs[d][None, :] * noise
        tables.append(table / table.sum(axis=1, keepdims=True))
    return tables


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


# --------------------------------------------------------------------------
# The cohort layout one trajectory at a time, as the package built it before
# a cohort was concatenated once; and the test-only batch entry points.


def transition_kernels(rates: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """``expm(gap * Q)`` for M generators (M, K, K) and G gaps, shape (M, G, K, K);
    the first generator past the drift guard raises its ``ExpmInaccuracy``."""
    rates = np.asarray(rates, dtype=float)
    return ctmc._checked(*ctmc._kernels(rates, ctmc._eigensystem(rates), gaps))


def packed_posteriors(models, packing):
    """The pair-packed pass's outputs by name, gathered back to batch order,
    with the packing layout beside them: pair b's rows start at
    ``starts[b]``, model m's sorted distinct gaps are
    ``gaps[gap_starts[m]:gap_starts[m + 1]]``, ``gap_index`` holds each
    ``xi`` row's gap index into ``gaps`` and ``kernels[g]`` is the kernel
    of ``gaps[g]``."""
    log_likelihood, gamma, xi, log_scale, kernels, _ = inference._forward_backward(models, packing)
    pair_rows = np.delete(packing.rows, packing.starts)  # the packed rows that end a pair
    return SimpleNamespace(log_likelihood=log_likelihood, gamma=gamma[packing.rows],
                           xi=xi[pair_rows - packing.sizes[0]], log_scale=log_scale,
                           kernels=kernels, starts=packing.starts, gaps=packing.gaps,
                           gap_starts=packing.gap_starts, gap_index=packing.slot[pair_rows])


def forward_backward_batch(model, trajectories):
    """The one-model pair-packed pass over a batch of trajectories."""
    cohort = inference._Cohort.of(trajectories, model.emissions.bin_counts)
    return packed_posteriors([model], inference._pack(cohort, [np.arange(len(cohort))]))


def pack_by_trajectory(trajectories, members, bin_counts):
    """The arrays of a packing of model m with ``trajectories[i]`` for every i in
    ``members[m]``, plus its binned ``columns``, from per-trajectory diffs."""
    cohort_lengths = np.array([t.length for t in trajectories])
    pair_model = np.repeat(np.arange(len(members)), [len(group) for group in members])
    pair_member = np.concatenate(members)
    lengths = cohort_lengths[pair_member]
    ends = np.cumsum(lengths)
    starts = ends - lengths
    rank = np.empty_like(lengths)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(lengths.size)
    sizes = np.cumsum(np.bincount(lengths - 1)[::-1])[::-1]
    offsets = np.cumsum(sizes) - sizes
    step = np.arange(ends[-1]) - np.repeat(starts, lengths)
    rows = offsets[step] + np.repeat(rank, lengths)
    runs = [m for m in range(len(members)) if m == 0 or not (
        members[m] is members[m - 1] or np.array_equal(members[m], members[m - 1]))]
    runs.append(len(members))
    blocks, gap_index, gap_starts = [], [], [0]
    for first, stop in zip(runs, runs[1:]):
        diffs = [np.diff(trajectories[i].times) for i in members[first]]
        gaps, index = np.unique(np.concatenate(diffs), return_inverse=True)
        for _ in range(first, stop):
            blocks.append(gaps)
            gap_index.append(index + gap_starts[-1])
            gap_starts.append(gap_starts[-1] + gaps.size)
    slot = np.zeros_like(rows)
    slot[rows[step > 0]] = np.concatenate(gap_index)
    row_model, source = np.empty_like(rows), np.empty_like(rows)
    row_model[rows] = np.repeat(pair_model, lengths)
    cohort_starts = np.cumsum(cohort_lengths) - cohort_lengths
    source[rows] = np.repeat(cohort_starts[pair_member], lengths) + step
    observations = np.concatenate([t.observations for t in trajectories])
    return {
        "pair_model": pair_model, "pair_member": pair_member, "sizes": sizes,
        "offsets": offsets, "rows": rows, "starts": starts, "ends": ends,
        "row_model": row_model, "gaps": np.concatenate(blocks),
        "gap_starts": np.array(gap_starts), "runs": runs, "slot": slot,
        "columns": stacked_columns(observations[source], bin_counts),
    }


def quantize_gaps(trajectories, step):
    """The trajectories of ``learning._quantized``'s cohort, after its step check."""
    learning._check_step(step)
    cohort = learning._quantized(inference._Cohort.of(trajectories), step)
    times = np.split(cohort.times, cohort.starts[1:])
    return [Trajectory(t.patient_id, q, t.observations) for t, q in zip(trajectories, times)]


def quantize_by_trajectory(trajectories, step):
    """``quantize_gaps`` with one diff, rint and cumsum per trajectory."""
    reach = max((abs(t.times[0]) + t.times[-1] - t.times[0] + (t.length - 1) * step
                 for t in trajectories), default=step)
    unit = np.spacing(2.0 * max(reach, step))
    step_units = max(np.rint(step / unit), 1.0)
    out = []
    for traj in trajectories:
        ticks = np.maximum(np.rint(np.diff(traj.times) / (step_units * unit)), 1.0)
        offsets = np.concatenate([[0.0], np.cumsum(ticks * step_units)])
        times = (np.rint(traj.times[0] / unit) + offsets) * unit
        out.append(Trajectory(traj.patient_id, times, traj.observations))
    return out


def bin_frequencies_by_trajectory(trajectories, bin_counts, smoothing):
    """Smoothed observed frequency of every bin, from the concatenated trajectories."""
    columns = stacked_columns(np.concatenate([t.observations for t in trajectories]), bin_counts)
    seen = np.bincount(columns.ravel(), minlength=sum(bin_counts) + 1)[:-1]
    smoothed = seen + max(smoothing, 1e-6)
    return smoothed / feature_totals(smoothed, bin_counts)


def bin_histograms_by_trajectory(trajectories, bin_counts):
    """Per-patient observed-bin frequencies, from the concatenated trajectories."""
    columns = stacked_columns(np.concatenate([t.observations for t in trajectories]), bin_counts)
    width = sum(bin_counts) + 1
    patient = np.repeat(np.arange(len(trajectories)), [t.length for t in trajectories])
    cells = (patient[:, None] * width + columns).ravel()
    counts = np.bincount(cells, minlength=len(trajectories) * width).reshape(-1, width)[:, :-1]
    return counts / np.maximum(feature_totals(counts, bin_counts), 1)


# --------------------------------------------------------------------------
# Forecast scoring one patient at a time: a prefix trajectory, a forward
# pass and a kernel stack per patient, as the package scored before every
# prefix of a cohort went through one pass.


def held_out_loss(fitted, trajectory, prefix_fraction):
    """Summed negative log-probability of the held-out observed bins, and how
    many bins were scored; raises what ``forecast_cross_entropy`` raises."""
    prefix, held_times, held_obs = evaluation.prefix_split(trajectory, prefix_fraction)
    observed = held_obs != MISSING
    if not observed.any():
        raise NoHeldOutObservations(
            f"patient {trajectory.patient_id!r} has no scorable held-out observations"
        )
    (subtype,), _, (filtered,) = mixture.assign_subtypes(fitted, [prefix])
    model = fitted.models[subtype]
    predicted = inference.propagate_filter(model, filtered, held_times - prefix.times[-1])
    columns = stacked_columns(held_obs, model.emissions.bin_counts)
    p = np.minimum(np.take_along_axis(predicted, columns, axis=1), 1.0)
    impossible = np.argwhere(observed & ~(p > 0))
    if impossible.size:
        i, d = impossible[0]
        raise ImpossibleTrajectory(
            f"patient {trajectory.patient_id!r}: held-out bin {held_obs[i, d]} of feature {d} "
            f"has no probability under subtype {subtype}"
        )
    return float(-np.log(p[observed]).sum()), int(observed.sum())


# --------------------------------------------------------------------------
# Serial EM: one fit at a time, one E-step call per iteration.


def serial_run_em(trajectories, model, config):
    """EM of one model on its own members; raises what ends the fit."""
    diag = learning.FitDiagnostics()
    previous_ll = None
    for _ in range(config.max_iterations):
        stats, ll = learning.e_step(model, trajectories)
        diag.trace.append(ll)
        if previous_ll is not None and abs(ll - previous_ll) / (abs(ll) + 1.0) < config.tolerance:
            diag.converged = True
            break
        previous_ll = ll
        diag.iterations += 1

        emissions = learning.m_step_emissions(stats, config.smoothing)
        if config.terminal_intervention_feature is not None:
            emissions = learning._apply_terminal_intervention(
                emissions, config.terminal_intervention_feature, config.smoothing
            )
        pi = learning.m_step_initial(stats)
        generator, degenerate = learning.m_step_generator(stats)
        diag.degenerate_events += len(degenerate)
        model = SubtypeModel(initial=pi, generator=generator, emissions=emissions)
    else:
        _, ll = learning.e_step(model, trajectories)
        diag.trace.append(ll)
    diag.log_likelihood = diag.trace[-1]
    return model, diag


def start_rate_scale(trajectories):
    """2^-round(log2(mean gap)) over every gap of every trajectory; 1 with no gaps."""
    gaps = np.concatenate([np.diff(t.times) for t in trajectories])
    return 2.0 ** -round(math.log2(gaps.mean())) if gaps.size else 1.0


def serial_fit_prepared(trajectories, n_states, bin_counts, config, rate_scale=None):
    """Seeded restarts run one after another; the best by final log-likelihood.

    Start rates are scaled by ``rate_scale``, by default the
    :func:`start_rate_scale` of ``trajectories``.
    """
    if rate_scale is None:
        rate_scale = start_rate_scale(trajectories)
    base_freqs = bin_frequencies_by_trajectory(trajectories, bin_counts, config.smoothing)
    best, scores, failure = None, [], None
    for seq in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(seq)
        start = learning._random_start(n_states, bin_counts, config, rng, base_freqs, rate_scale)
        try:
            model, diag = serial_run_em(trajectories, start, config)
        except SubtypingError as err:
            failure = err
            scores.append(-np.inf)
            continue
        scores.append(diag.log_likelihood)
        if best is None or diag.log_likelihood > best[1].log_likelihood:
            best = (model, diag)
    if best is None:
        raise failure
    best[1].restart_scores = scores
    return best


def serial_fit_mixture(trajectories, n_subtypes, n_states, config, scheme=None):
    """Hard-EM subtyping that refits the subtypes one after another."""
    n = len(trajectories)
    cohort = learning._prepare_cohort(
        trajectories, config, scheme.bin_counts if scheme is not None else None
    )
    bin_counts = cohort.bin_counts
    if config.delta_quantization is not None:
        trajectories = quantize_by_trajectory(trajectories, config.delta_quantization)
    rate_scale = start_rate_scale(trajectories)
    rng = np.random.default_rng(config.seed)
    assignments = mixture._initial_partition(cohort, n_subtypes, rng)
    prior = np.full(n_subtypes, 1.0 / n_subtypes)
    models = [None] * n_subtypes
    diagnostics = [None] * n_subtypes
    trace = []
    for _ in range(config.mixture_iterations):
        for m in range(n_subtypes):
            members = [trajectories[i] for i in np.nonzero(assignments == m)[0]]
            if models[m] is None:
                models[m], diagnostics[m] = serial_fit_prepared(
                    members, n_states, bin_counts, replace(config, seed=config.seed + m),
                    rate_scale,
                )
            else:
                models[m], diagnostics[m] = serial_run_em(members, models[m], config)
        with np.errstate(divide="ignore"):
            log_prior = float(np.log(prior)[assignments].sum())
        trace.append(sum(d.log_likelihood for d in diagnostics) + log_prior)
        fitted = MixtureModel(tuple(models), prior, assignments, trace, scheme)
        proposed, scores, _ = mixture.assign_subtypes(fitted, trajectories)
        best_scores = scores[np.arange(n), proposed]
        trace.append(float(best_scores.sum()))
        proposed = mixture._repair_empty_subtypes(proposed, best_scores, n_subtypes)
        if np.array_equal(proposed, assignments):
            break
        assignments = proposed
    return replace(fitted, assignments=assignments), diagnostics


def choice_hidden_path(generator, initial, horizon, seed) -> HiddenPath:
    """``sample_hidden_path`` with one ``choice`` per state and one
    ``exponential`` per holding time."""
    rng = np.random.default_rng(seed)
    rates = generator.rates
    exit_rates = -np.diag(rates)
    state = int(rng.choice(generator.size, p=np.asarray(initial, dtype=float)))
    times = [0.0]
    states = [state]
    t = 0.0
    while exit_rates[state] > 0:
        t += rng.exponential(1.0 / exit_rates[state])
        if t >= horizon:
            break
        jump = rates[state].copy()
        jump[state] = 0.0
        state = int(rng.choice(generator.size, p=jump / jump.sum()))
        times.append(t)
        states.append(state)
    return HiddenPath(times=np.array(times), states=np.array(states, dtype=int))


def choice_trajectory(model, obs_times, missing_rate, seed, patient_id="synthetic"):
    """``sample_trajectory`` with one ``choice`` per observed cell."""
    obs_times = np.asarray(obs_times, dtype=float)
    rng = np.random.default_rng(seed)
    horizon = float(obs_times[-1] - obs_times[0])
    if horizon > 0:
        path = choice_hidden_path(model.generator, model.initial, horizon, rng)
        hidden = path.state_at(obs_times - obs_times[0])
    else:
        hidden = np.array([int(rng.choice(model.n_states, p=model.initial))])
    n, n_features = obs_times.size, model.n_features
    obs = np.empty((n, n_features), dtype=int)
    for i, state in enumerate(hidden):
        for d in range(n_features):
            table = model.emissions.tables[d][state]
            obs[i, d] = rng.choice(table.size, p=table)
    if missing_rate > 0:
        obs[rng.random((n, n_features)) < missing_rate] = MISSING
    return (
        Trajectory(patient_id=patient_id, times=obs_times, observations=obs),
        np.asarray(hidden, dtype=int),
    )


def choice_cohort(mixture_model, n_patients, time_config, missing_rate=0.0, seed=0):
    """``sample_cohort`` drawing through :func:`choice_trajectory`."""
    trajectories, labels, hidden_states = [], [], []
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_patients)):
        rng = np.random.default_rng(stream)
        label = int(rng.choice(mixture_model.n_subtypes, p=mixture_model.prior))
        n_obs = int(
            rng.integers(time_config.min_observations, time_config.max_observations + 1)
        )
        gaps = rng.exponential(time_config.mean_gap, size=n_obs - 1)
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        trajectory, hidden = choice_trajectory(
            mixture_model.models[label], times, missing_rate, rng, patient_id=f"p{i:05d}"
        )
        trajectories.append(trajectory)
        labels.append(label)
        hidden_states.append(hidden)
    return SyntheticCohort(
        trajectories=trajectories,
        labels=np.array(labels, dtype=int),
        hidden_states=hidden_states,
        seed=seed,
        missing_rate=missing_rate,
        time_config=time_config,
    )


def save_cohort_by_row(cohort, path, scheme) -> None:
    """``save_cohort`` writing one row, and formatting one cell, at a time."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["patient_id", "time", *scheme.names])
        for trajectory in cohort:
            for i, t in enumerate(trajectory.times):
                cells = [trajectory.patient_id, repr(float(t))]
                for d, feature in enumerate(scheme.features):
                    j = trajectory.observations[i, d]
                    cells.append("" if j == MISSING else repr(float(feature.centers[j])))
                writer.writerow(cells)
