"""Exact posterior inference for trajectories under subtype models.

The hidden state evolves as a CTMC observed at irregular timestamps, so
the transition kernel between consecutive observations is the matrix
exponential of the gap times the generator.  The recursions are scaled
(per-step normalisation) which keeps them stable for trajectories of
tens of thousands of points and yields the log-likelihood as the sum of
log scaling constants.  Forward-backward and the forward-only filter
run over one pair-packed layout: a batch is a list of (model,
trajectory) pairs packed time-major, and one Python loop over time steps
serves every pair at once, each row reading its own model's emission
table and kernels.  So one pass covers the restarts of one cohort, the
subtypes of a mixture on their member sets, or every subtype against
every trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ctmc import (
    GeneratorMatrix,
    _checked,
    _generator_kernels,
    _read_only,
    _reduce_columns,
    left_to_right_mask,
    sojourn_expectation,
)
from .emissions import (
    MISSING,
    BinningScheme,
    EmissionTable,
    expected_feature_value,
    log_emission_matrix,
    split_features,
    stacked_columns,
)
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NonCausalQuery,
    StructureNotChain,
)


@dataclass(frozen=True)
class Trajectory:
    """One patient's observation record.

    ``times`` are strictly increasing timestamps; ``observations`` is an
    (n, D) integer array of bin indices with MISSING marking absent
    features.
    """

    patient_id: str
    times: np.ndarray
    observations: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        obs = np.asarray(self.observations)
        if times.ndim != 1 or times.size < 1:
            raise InvariantViolation("trajectory needs at least one timestamp")
        if not np.all(np.isfinite(times)):
            raise InvariantViolation(f"patient {self.patient_id!r}: timestamps must be finite")
        if not np.all(times[1:] > times[:-1]):
            raise InvariantViolation(
                f"patient {self.patient_id!r}: timestamps must be strictly increasing"
            )
        # The span bounds every gap; as Python floats it overflows to inf without a warning.
        if not float(times[-1]) - float(times[0]) < np.inf:
            raise InvariantViolation(
                f"patient {self.patient_id!r}: timestamps must span a finite interval"
            )
        if obs.ndim != 2 or obs.shape[0] != times.size:
            raise InvariantViolation(
                f"patient {self.patient_id!r}: observations must be (n_times, n_features)"
            )
        if obs.dtype.kind != "i":
            # Whole numbers in the int64 range are bin indices too; NaN,
            # inf, fractions and booleans are not.
            whole = obs.dtype.kind in "uf" and np.all(
                np.isfinite(obs) & (obs == np.trunc(obs)) & (np.abs(obs) < 2.0**63)
            )
            if not whole:
                raise InvariantViolation(
                    f"patient {self.patient_id!r}: bin indices must be integers"
                )
        obs = obs.astype(int, copy=False)
        if np.any(obs < MISSING):
            raise InvariantViolation(
                f"patient {self.patient_id!r}: bin indices must be >= 0 or the missing marker"
            )
        object.__setattr__(self, "times", _read_only(times))
        object.__setattr__(self, "observations", _read_only(obs))

    @property
    def length(self) -> int:
        return self.times.size

    @property
    def n_features(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True, eq=False)
class _Cohort:
    """A cohort in columnar form, the one place trajectories are concatenated.

    Trajectory b is rows ``starts[b]`` to ``starts[b] + lengths[b]`` of
    ``times`` (N,) and ``observations`` (N, D); its gaps start at
    ``gaps[starts[b] - b]``.
    """

    patient_ids: tuple[str, ...]
    times: np.ndarray  # (N,)
    observations: np.ndarray  # (N, D)
    lengths: np.ndarray  # (B,)
    starts: np.ndarray = field(init=False)  # (B,)
    _columns: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", np.cumsum(self.lengths) - self.lengths)

    @cached_property
    def gaps(self) -> np.ndarray:
        """(N - B,): one ``np.diff`` over all times without the entries that
        cross into the next trajectory, built on first use."""
        return np.delete(np.diff(self.times), self.starts[1:] - 1)

    @classmethod
    def of(cls, trajectories: list[Trajectory] | _Cohort, n_features: int | None = None) -> _Cohort:
        """``trajectories`` in columnar form; a cohort is returned as it is.

        The first trajectory whose feature count is not ``n_features``, that
        of the models that will read the cohort, or else the first
        trajectory's, raises :class:`DimensionMismatch`.
        """
        if isinstance(trajectories, _Cohort):
            return trajectories
        if not trajectories:
            return cls((), np.empty(0), np.empty((0, 0), dtype=int), np.empty(0, dtype=int))
        expected = trajectories[0].n_features if n_features is None else n_features
        odd = next((t for t in trajectories if t.n_features != expected), None)
        if odd is not None:
            detail = f"not {expected}" if n_features is None else f"model expects {expected}"
            raise DimensionMismatch(
                f"patient {odd.patient_id!r} has {odd.n_features} features, {detail}")
        return cls(tuple(t.patient_id for t in trajectories),
                   np.concatenate([t.times for t in trajectories]),
                   np.concatenate([t.observations for t in trajectories]),
                   np.array([t.length for t in trajectories]))

    def heads(self, rows: np.ndarray, lengths: np.ndarray) -> _Cohort:
        """The cohort of the rows marked in ``rows`` (N,), which must be the
        first ``lengths[b]`` >= 1 rows of every trajectory b; the binned
        columns built so far are cut the same way."""
        heads = _Cohort(self.patient_ids, self.times[rows], self.observations[rows], lengths)
        heads._columns.update((key, columns[rows]) for key, columns in self._columns.items())
        return heads

    def __len__(self) -> int:
        return self.lengths.size

    def columns(self, bin_counts: tuple[int, ...]) -> np.ndarray:
        """:func:`~.emissions.stacked_columns` of every row (N, D), built on
        first use for these bin counts and kept."""
        if bin_counts not in self._columns:
            self._columns[bin_counts] = stacked_columns(self.observations, bin_counts)
        return self._columns[bin_counts]


@dataclass(frozen=True)
class SubtypeModel:
    """Complete disease-trajectory model: initial law, generator, emissions."""

    initial: np.ndarray
    generator: GeneratorMatrix
    emissions: EmissionTable

    def __post_init__(self) -> None:
        initial = np.asarray(self.initial, dtype=float)
        if initial.ndim != 1:
            raise InvariantViolation("initial distribution must be a vector")
        if not np.all(initial >= 0) or abs(initial.sum() - 1.0) > 1e-12:
            raise InvariantViolation("initial distribution must be a probability vector")
        if initial.size != self.generator.size:
            raise InvariantViolation("initial distribution size differs from state count")
        if self.emissions.n_states != self.generator.size:
            raise InvariantViolation("emission table state count differs from generator")
        object.__setattr__(self, "initial", _read_only(initial))

    @property
    def n_states(self) -> int:
        return self.generator.size

    @property
    def n_features(self) -> int:
        return self.emissions.n_features


@dataclass(frozen=True)
class PosteriorSummary:
    """Forward-backward output for one trajectory.

    ``gamma[i, k]`` is the posterior of hidden state k at timestamp i;
    ``xi[i]`` is the joint posterior over states at timestamps i and i+1;
    ``log_scale[i]`` is the log scaling constant of step i, so
    ``log_likelihood == log_scale.sum()``.
    """

    log_likelihood: float
    gamma: np.ndarray
    xi: np.ndarray
    log_scale: np.ndarray


@dataclass(frozen=True)
class _Packing:
    """Time-major layout of a batch of (model, trajectory) pairs.

    Model m pairs with cohort trajectory i for each i in its member list;
    the pairs run model by model (``pair_model``, ``pair_member``), and
    so do their rows ("batch order").  The packed layout puts the longest
    pairs first: step i holds the ``sizes[i]`` pairs longer than i, always
    in the same order, so those alive at a step are a prefix of those
    alive at the step before; packed row ``offsets[i] + r`` is step i of
    the r-th of them.  ``rows[n]`` is the packed row of batch row n,
    ``pair_rows[j]`` the packed row that ends batch pair j and
    ``pair_before[j]`` the one that starts it.  Packed row p belongs to
    model ``row_model[p]``, reads cohort observation row ``source[p]``,
    and ends a pair with gap ``gaps[slot[p]]`` (rows of the first step end
    no pair).
    Model m's sorted distinct gaps are
    ``gaps[gap_starts[m]:gap_starts[m + 1]]``; consecutive models with the
    same members form a run, from model ``runs[r]`` to ``runs[r + 1]``,
    whose blocks repeat one set of gaps.
    """

    cohort: _Cohort
    pair_model: np.ndarray  # (B,)
    pair_member: np.ndarray  # (B,)
    sizes: np.ndarray  # (T,)
    offsets: np.ndarray  # (T,)
    rows: np.ndarray  # (N,)
    starts: np.ndarray  # (B,)
    ends: np.ndarray  # (B,)
    row_model: np.ndarray  # (N,)
    source: np.ndarray  # (N,)
    gaps: np.ndarray  # (G,)
    gap_starts: np.ndarray  # (M + 1,)
    runs: list[int]
    pair_rows: np.ndarray  # (N - B,)
    slot: np.ndarray  # (N,)

    def steps(self) -> list[tuple[int, int, int]]:
        """(first row of the step before, first row, size) of steps 1 .. T-1."""
        return list(zip(self.offsets, self.offsets[1:], self.sizes[1:]))

    @cached_property
    def pair_before(self) -> np.ndarray:
        """The packed row that starts each batch pair (N - B,); forward-backward only."""
        return np.delete(self.rows, self.ends - 1)


def _pack(cohort: _Cohort, members: list[np.ndarray]) -> _Packing:
    """Pack model m with trajectory i of ``cohort`` for every i in ``members[m]``."""
    if not all(len(group) for group in members):
        raise InvariantViolation("need at least one trajectory")
    pair_model = np.repeat(np.arange(len(members)), [len(group) for group in members])
    pair_member = np.concatenate(members)
    lengths = cohort.lengths[pair_member]
    ends = np.cumsum(lengths)
    starts = ends - lengths
    rank = np.empty_like(lengths)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(lengths.size)
    sizes = np.cumsum(np.bincount(lengths - 1)[::-1])[::-1]
    offsets = np.cumsum(sizes) - sizes
    step = np.arange(ends[-1]) - np.repeat(starts, lengths)
    rows = offsets[step] + np.repeat(rank, lengths)
    batch_model = np.repeat(pair_model, lengths)
    batch_source = np.repeat(cohort.starts[pair_member], lengths) + step
    paired = np.nonzero(step > 0)[0]
    # Cohort row r of trajectory i, past its first, ends i's gap r - i - 1.
    pair_gaps = (batch_source - np.repeat(pair_member, lengths) - 1)[paired]
    model_bounds = np.searchsorted(batch_model[paired], np.arange(len(members) + 1))
    runs = [m for m in range(len(members)) if m == 0 or not (
        members[m] is members[m - 1] or np.array_equal(members[m], members[m - 1]))]
    runs.append(len(members))
    blocks, gap_index, gap_starts = [], [], [0]
    for first, stop in zip(runs, runs[1:]):
        own = pair_gaps[model_bounds[first] : model_bounds[first + 1]]
        gaps, index = np.unique(cohort.gaps[own], return_inverse=True)
        for _ in range(first, stop):
            blocks.append(gaps)
            gap_index.append(index + gap_starts[-1])
            gap_starts.append(gap_starts[-1] + gaps.size)
    pair_rows = rows[paired]
    slot = np.zeros_like(rows)
    slot[pair_rows] = np.concatenate(gap_index)
    row_model, source = np.empty_like(rows), np.empty_like(rows)
    row_model[rows] = batch_model
    source[rows] = batch_source
    return _Packing(
        cohort=cohort,
        pair_model=pair_model,
        pair_member=pair_member,
        sizes=sizes,
        offsets=offsets,
        rows=rows,
        starts=starts,
        ends=ends,
        row_model=row_model,
        source=source,
        gaps=np.concatenate(blocks),
        gap_starts=np.array(gap_starts),
        runs=runs,
        pair_rows=pair_rows,
        slot=slot,
    )


def _pair_kernels(models: list[SubtypeModel], packing: _Packing) -> tuple:
    """Each model's kernels for its own distinct gaps, in the order of
    ``packing.gaps``, and each model's :func:`~.ctmc._kernels` failure.

    A run of models with the same members (every model of a forward
    filter, the restarts on one cohort) shares one stacked exponential;
    no model is evaluated at a gap it does not own.
    """
    n_states = models[0].n_states
    kernels, failures = [], []
    for first, stop in zip(packing.runs, packing.runs[1:]):
        probs, broken = _generator_kernels(
            [model.generator for model in models[first:stop]],
            packing.gaps[packing.gap_starts[first] : packing.gap_starts[first + 1]],
        )
        kernels.append(probs.reshape(-1, n_states, n_states))
        failures += broken
    return kernels[0] if len(kernels) == 1 else np.concatenate(kernels), failures


def _emission_weights(
    models: list[SubtypeModel], packing: _Packing
) -> tuple[np.ndarray, np.ndarray]:
    """Shifted emission likelihoods (N, K) and the shifts (N,), packed.

    Each row is weighed under its own model.  Its log weights are shifted
    by their maximum before exponentiation so very unlikely observations
    cannot underflow.
    """
    tables = [model.emissions for model in models]
    columns = packing.cohort.columns(tables[0].bin_counts)[packing.source]
    log_b = log_emission_matrix(tables, columns, packing.row_model)
    shift = _reduce_columns(np.maximum, log_b)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return np.exp(log_b - shift[:, None]), shift


def _forward(models: list[SubtypeModel], packing: _Packing) -> tuple[np.ndarray, ...]:
    """The scaled forward recursion over a packed batch of pairs.

    All models must share the state count.  Returns the kernels (G, K, K)
    and each model's kernel failure, the kernels of packed rows
    ``sizes[0]`` on (N - B, K, K), the packed emission weights b (N, K),
    scaling constants (N) and scaled alphas (N, K), and the log scaling
    constants (N,) in batch order with their per-pair sums (B,).  A zero
    scale (an impossible step) makes alpha NaN from there on, and the
    pair's log-likelihood -inf; so do a broken model's NaN kernels, which
    no other model's rows read.
    """
    kernels, failures = _pair_kernels(models, packing)
    b, shift = _emission_weights(models, packing)
    n_first = packing.sizes[0]
    steps = kernels[packing.slot[n_first:]]
    scale = np.empty(b.shape[0])
    alpha = np.empty(b.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        initial = np.stack([model.initial for model in models])[packing.row_model[:n_first]]
        forward = initial * b[:n_first]
        scale[:n_first] = _reduce_columns(np.add, forward)
        alpha[:n_first] = forward / scale[:n_first, None]
        for before, start, size in packing.steps():
            here = slice(start, start + size)
            step = steps[start - n_first : start - n_first + size]
            forward = (alpha[before : before + size, None, :] @ step)[:, 0, :] * b[here]
            scale[here] = _reduce_columns(np.add, forward)
            alpha[here] = forward / scale[here, None]
        log_scale = (np.log(scale) + shift)[packing.rows]
    possible = np.logical_and.reduceat(scale[packing.rows] > 0, packing.starts)
    total = np.add.reduceat(log_scale, packing.starts)
    return kernels, failures, steps, b, scale, alpha, log_scale, np.where(possible, total, -np.inf)


def forward_filter(
    models: list[SubtypeModel], trajectories: list[Trajectory]
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-only pass of every model over every trajectory.

    All models must share the state count.  Every (model, trajectory)
    pair is one row of a pair-packed batch: one stacked exponential
    builds the kernels for the distinct gaps under all models and one
    time loop runs the scaled forward recursion for all pairs.  Returns
    the log-likelihoods (M, B), -inf for an impossible trajectory, and
    the filtered state laws at each trajectory's last timestamp (M, B, K).
    A model past the drift guard raises its :class:`ExpmInaccuracy`.
    """
    if len({(model.n_states, model.n_features) for model in models}) != 1:
        raise InvariantViolation("models disagree on state or feature count")
    cohort = _Cohort.of(trajectories, models[0].n_features)
    packing = _pack(cohort, [np.arange(len(cohort))] * len(models))
    _, failures, *_, alpha, _, log_likelihood = _forward(models, packing)
    shape = (len(models), len(cohort))
    log_likelihood = _checked(log_likelihood, failures).reshape(shape)
    return log_likelihood, alpha[packing.rows[packing.ends - 1]].reshape(shape + alpha.shape[-1:])


def _forward_backward(
    models: list[SubtypeModel], packing: _Packing
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
    """Scaled forward-backward pass over a packed batch of pairs.

    The forward recursion of :func:`_forward`, then one backward loop over
    time steps; each row uses the kernels of its own model.  The pairwise
    posteriors need no loop and are built in place, in batch order.
    Returns the log-likelihoods (B,), the state posteriors gamma (N, K)
    with the pairwise ones xi (N - B, K, K) and the log scaling constants
    (N,), all in batch order, the kernels (G, K, K) of ``packing.gaps``
    and each model's kernel failure.
    """
    kernels, failures, steps, b, scale, alpha, log_scale, log_likelihood = _forward(models, packing)
    n_first = packing.sizes[0]
    # Dividing by NaN where a scale is zero propagates the impossibility.
    live_scale = np.where(scale > 0, scale, np.nan)
    beta = np.ones(b.shape)
    for before, start, size in reversed(packing.steps()):
        here = slice(start, start + size)
        step = steps[start - n_first : start - n_first + size]
        behind = (step @ (b[here] * beta[here])[..., None])[..., 0]
        beta[before : before + size] = behind / live_scale[here, None]

    ends = packing.pair_rows
    xi = steps[ends - n_first]
    xi *= alpha[packing.pair_before, :, None]
    xi *= (b[ends] * beta[ends])[:, None, :]
    xi /= live_scale[ends, None, None]
    return log_likelihood, (alpha * beta)[packing.rows], xi, log_scale, kernels, failures


def forward_backward(model: SubtypeModel, trajectory: Trajectory) -> PosteriorSummary:
    """Scaled forward-backward pass under the continuous-time HMM.

    The one-pair case of the pair-packed pass.  If the trajectory has
    probability zero under the model the log-likelihood is -inf and the
    posteriors are NaN from the impossible step onward.  A kernel past the
    drift guard raises :class:`ExpmInaccuracy`.
    """
    packing = _pack(_Cohort.of([trajectory], model.n_features), [np.arange(1)])
    log_likelihood, gamma, xi, log_scale, _, failures = _forward_backward([model], packing)
    return PosteriorSummary(float(_checked(log_likelihood, failures)[0]), gamma, xi, log_scale)


def trajectory_log_likelihood(model: SubtypeModel, trajectory: Trajectory) -> float:
    """Marginal log-probability of the observations under the model."""
    log_likelihood, _ = forward_filter([model], [trajectory])
    return float(log_likelihood[0, 0])


def propagate_filter(model: SubtypeModel, filtered: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Bin laws after a filtered state law, one (K,) or one per gap (gaps, K),
    evolves for each gap.

    The gaps' kernels come from one stacked exponential; returns a (gaps,
    columns) array in the layout of :func:`~.emissions.stacked_columns`.
    """
    states = filtered[..., None, :] @ _checked(*_generator_kernels([model.generator], gaps))[0]
    return states[:, 0] @ model.emissions.stacked


def predictive_bin_distributions(
    model: SubtypeModel,
    prefix: Trajectory,
    future_times: np.ndarray,
) -> list[list[np.ndarray]]:
    """Predictive per-feature bin probabilities at future timestamps.

    The hidden-state filter at the end of the prefix is propagated through
    the interval kernel for each requested gap and mixed with the emission
    tables.  Returns one list of per-feature probability vectors per
    future time.
    """
    future_times = np.asarray(future_times, dtype=float)
    if future_times.ndim != 1 or future_times.size < 1:
        raise InvariantViolation("future_times must be a non-empty 1-d sequence")
    if not np.all(future_times[1:] > future_times[:-1]):
        raise InvariantViolation("future_times must be strictly increasing")
    t_end = prefix.times[-1]
    if not future_times[0] > t_end:
        raise NonCausalQuery(
            f"future time {future_times[0]} does not follow the prefix end {t_end}"
        )
    _, filtered = forward_filter([model], [prefix])
    predicted = propagate_filter(model, filtered[0, 0], future_times - t_end)
    return [split_features(row, model.emissions.bin_counts) for row in predicted]


@dataclass(frozen=True)
class ProgressionStage:
    """One state in a typical course: how long, and what it looks like."""

    state: int
    expected_duration: float
    expected_values: np.ndarray


def progression_trajectory(
    model: SubtypeModel,
    scheme: BinningScheme,
    start_state: int = 0,
) -> list[ProgressionStage]:
    """Typical course through the remaining states of a chain-structured model.

    Requires the left-to-right structure mask: every state from
    ``start_state`` onward is visited in order, holding for its expected
    sojourn time; the final absorbing state reports an infinite duration.
    """
    n_states = model.n_states
    if np.any(model.generator.mask != left_to_right_mask(n_states)):
        raise StructureNotChain("progression reports need the left-to-right mask")
    if not 0 <= start_state < n_states:
        raise InvariantViolation(f"start_state {start_state} out of range")

    durations = sojourn_expectation(model.generator)
    stages = []
    for k in range(start_state, n_states):
        values = np.array(
            [
                expected_feature_value(model.emissions, k, d, scheme)
                for d in range(scheme.n_features)
            ]
        )
        stages.append(
            ProgressionStage(state=k, expected_duration=float(durations[k]), expected_values=values)
        )
    return stages
