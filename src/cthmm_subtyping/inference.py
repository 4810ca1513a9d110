"""Exact posterior inference for trajectories under subtype models.

The hidden state evolves as a CTMC observed at irregular timestamps, so
the transition kernel between consecutive observations is the matrix
exponential of the gap times the generator.  The recursions are scaled
(per-step normalisation) which keeps them stable for trajectories of
tens of thousands of points and yields the log-likelihood as the sum of
log scaling constants.  They run over batches packed time-major: one
Python loop over time steps serves every trajectory (and, forward-only,
every model) at once, with the kernels for all distinct gaps built in
one stacked exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import GeneratorMatrix, _generator_kernels, left_to_right_mask, sojourn_expectation
from .emissions import (
    MISSING,
    BinningScheme,
    EmissionTable,
    expected_feature_value,
    log_emission_matrix,
    split_features,
)
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NonCausalQuery,
    StructureNotChain,
)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` frozen and C-contiguous, never freezing the caller's own array.

    A writable array may be the caller's, so it is copied first; an
    already read-only contiguous one, such as a slice of another
    trajectory's arrays, is kept without a copy.
    """
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, order="C")
    a.flags.writeable = False
    return a


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
        if not np.all(np.diff(times) > 0):
            raise InvariantViolation(
                f"patient {self.patient_id!r}: timestamps must be strictly increasing"
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
        initial = np.ascontiguousarray(initial)
        initial.flags.writeable = False
        object.__setattr__(self, "initial", initial)

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
class CohortPosteriors:
    """Forward-backward output for a batch of B trajectories.

    Rows follow the trajectories in batch order, one per timestamp (N in
    all); trajectory b's rows start at ``starts[b]``.  ``xi`` has one row
    per consecutive pair, in the same order as the concatenated gaps;
    ``gaps`` holds the batch's sorted distinct gaps, ``gap_index`` the
    index of each pair's gap into it and ``kernels[g]`` the transition
    matrix for ``gaps[g]``.
    """

    log_likelihood: np.ndarray  # (B,)
    gamma: np.ndarray  # (N, K)
    xi: np.ndarray  # (N - B, K, K)
    log_scale: np.ndarray  # (N,)
    starts: np.ndarray  # (B,)
    gaps: np.ndarray  # (G,)
    gap_index: np.ndarray  # (N - B,)
    kernels: np.ndarray  # (G, K, K)


@dataclass(frozen=True)
class _Packing:
    """Time-major layout of a batch, longest trajectories first.

    Step i holds the ``sizes[i]`` trajectories longer than i, always in the
    same order, so those alive at a step are a prefix of those alive at
    the step before; packed row ``offsets[i] + r`` is step i of the r-th
    of them.  ``rows[n]`` is the packed row of concatenated row n,
    ``pair_rows[j]`` the packed row that ends concatenated pair j, and
    ``slot[p]`` the gap index of the pair ending at packed row p (rows of
    the first step end no pair).
    """

    sizes: np.ndarray  # (T,)
    offsets: np.ndarray  # (T,)
    rows: np.ndarray  # (N,)
    starts: np.ndarray  # (B,)
    ends: np.ndarray  # (B,)
    gaps: np.ndarray  # (G,)
    pair_rows: np.ndarray  # (N - B,)
    slot: np.ndarray  # (N,)

    def steps(self) -> list[tuple[int, int, int]]:
        """(first row of the step before, first row, size) of steps 1 .. T-1."""
        return list(zip(self.offsets, self.offsets[1:], self.sizes[1:]))


def _pack(trajectories: list[Trajectory]) -> _Packing:
    lengths = np.array([t.length for t in trajectories])
    ends = np.cumsum(lengths)
    starts = ends - lengths
    rank = np.empty_like(lengths)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(lengths.size)
    sizes = np.cumsum(np.bincount(lengths - 1)[::-1])[::-1]
    offsets = np.cumsum(sizes) - sizes
    step = np.arange(ends[-1]) - np.repeat(starts, lengths)
    rows = offsets[step] + np.repeat(rank, lengths)
    gaps, gap_index = np.unique(
        np.concatenate([np.diff(t.times) for t in trajectories]), return_inverse=True
    )
    pair_rows = rows[step > 0]
    slot = np.zeros_like(rows)
    slot[pair_rows] = gap_index
    return _Packing(sizes, offsets, rows, starts, ends, gaps, pair_rows, slot)


def _observations(models: list[SubtypeModel], trajectories: list[Trajectory]) -> np.ndarray:
    """All observation rows of the batch, checked for every model's feature count."""
    if not trajectories:
        raise InvariantViolation("need at least one trajectory")
    for trajectory in trajectories:
        for model in models:
            if trajectory.n_features != model.n_features:
                raise DimensionMismatch(
                    f"patient {trajectory.patient_id!r} has {trajectory.n_features} "
                    f"features, model expects {model.n_features}"
                )
    return np.concatenate([t.observations for t in trajectories])


def _emission_weights(
    models: list[SubtypeModel], observations: np.ndarray, packing: _Packing
) -> tuple[np.ndarray, np.ndarray]:
    """Shifted emission likelihoods (M, N, K) and the shifts (M, N), packed.

    Each row's log weights are shifted by their maximum before
    exponentiation so very unlikely observations cannot underflow.
    """
    tables = [model.emissions for model in models]
    log_b = np.empty((len(models), observations.shape[0], models[0].n_states))
    log_b[:, packing.rows] = log_emission_matrix(tables, observations)
    shift = log_b.max(axis=-1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return np.exp(log_b - shift[..., None]), shift


def _forward(
    initial: np.ndarray, kernels: np.ndarray, b: np.ndarray, packing: _Packing
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled forward recursion for M models over a packed batch at once.

    ``initial`` is (M, K), ``kernels`` (M, G, K, K) and ``b`` (M, N, K).
    Returns the packed scaling constants (M, N) and scaled alphas
    (M, N, K).  A zero scale (an impossible step) makes alpha NaN from
    there on.
    """
    n_first = packing.sizes[0]
    scale = np.empty(b.shape[:-1])
    alpha = np.empty(b.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        forward = initial[:, None, :] * b[:, :n_first]
        scale[:, :n_first] = forward.sum(axis=-1)
        alpha[:, :n_first] = forward / scale[:, :n_first, None]
        for before, start, size in packing.steps():
            here = slice(start, start + size)
            step = kernels[:, packing.slot[here]]
            forward = (alpha[:, before : before + size, None, :] @ step)[..., 0, :] * b[:, here]
            scale[:, here] = forward.sum(axis=-1)
            alpha[:, here] = forward / scale[:, here, None]
    return scale, alpha


def _log_likelihood(
    scale: np.ndarray, shift: np.ndarray, packing: _Packing
) -> tuple[np.ndarray, np.ndarray]:
    """Log scaling constants (M, N) in batch order and their per-trajectory sums (M, B).

    A trajectory with any non-positive scale has probability zero under
    the model; its log-likelihood is -inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_scale = (np.log(scale) + shift)[:, packing.rows]
    possible = np.logical_and.reduceat(scale[:, packing.rows] > 0, packing.starts, axis=1)
    total = np.add.reduceat(log_scale, packing.starts, axis=1)
    return log_scale, np.where(possible, total, -np.inf)


def forward_filter(
    models: list[SubtypeModel], trajectories: list[Trajectory]
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-only pass of every model over every trajectory.

    All models must share the state count.  The kernels for the batch's
    distinct gaps under all models come from one stacked exponential and
    one time loop runs the scaled forward recursion for all (model,
    trajectory) pairs.  Returns the log-likelihoods (M, B), -inf for an
    impossible trajectory, and the filtered state laws at each
    trajectory's last timestamp (M, B, K).
    """
    if len({model.n_states for model in models}) != 1:
        raise InvariantViolation("models disagree on state count")
    observations = _observations(models, trajectories)
    packing = _pack(trajectories)
    kernels = _generator_kernels([model.generator for model in models], packing.gaps)
    b, shift = _emission_weights(models, observations, packing)
    initial = np.stack([model.initial for model in models])
    scale, alpha = _forward(initial, kernels, b, packing)
    _, log_likelihood = _log_likelihood(scale, shift, packing)
    return log_likelihood, alpha[:, packing.rows[packing.ends - 1]]


def forward_backward_batch(
    model: SubtypeModel, trajectories: list[Trajectory]
) -> CohortPosteriors:
    """Scaled forward-backward pass over a batch of trajectories.

    One stacked exponential builds the kernels for the batch's distinct
    gaps; the forward and backward recursions each loop over time steps
    with all trajectories still running at that step, and the pairwise
    posteriors need no loop.  A trajectory with probability zero has
    log-likelihood -inf and NaN posteriors from the impossible step onward.
    """
    observations = _observations([model], trajectories)
    packing = _pack(trajectories)
    kernels = _generator_kernels([model.generator], packing.gaps)[0]
    b, shift = _emission_weights([model], observations, packing)
    scale, alpha = _forward(model.initial[None], kernels[None], b, packing)
    log_scale, log_likelihood = _log_likelihood(scale, shift, packing)
    b, scale, alpha = b[0], scale[0], alpha[0]

    # Dividing by NaN where a scale is zero propagates the impossibility.
    live_scale = np.where(scale > 0, scale, np.nan)
    n_first = packing.sizes[0]
    pairs = slice(n_first, None)
    beta = np.ones(b.shape)
    for before, start, size in reversed(packing.steps()):
        here = slice(start, start + size)
        step = kernels[packing.slot[here]]
        behind = (step @ (b[here] * beta[here])[..., None])[..., 0]
        beta[before : before + size] = behind / live_scale[here, None]

    previous = np.arange(n_first, b.shape[0]) - np.repeat(packing.sizes[:-1], packing.sizes[1:])
    xi = (
        alpha[previous, :, None]
        * kernels[packing.slot[pairs]]
        * (b[pairs] * beta[pairs])[:, None, :]
    ) / live_scale[pairs, None, None]
    return CohortPosteriors(
        log_likelihood=log_likelihood[0],
        gamma=(alpha * beta)[packing.rows],
        xi=xi[packing.pair_rows - n_first],
        log_scale=log_scale[0],
        starts=packing.starts,
        gaps=packing.gaps,
        gap_index=packing.slot[packing.pair_rows],
        kernels=kernels,
    )


def forward_backward(model: SubtypeModel, trajectory: Trajectory) -> PosteriorSummary:
    """Scaled forward-backward pass under the continuous-time HMM.

    The single-trajectory case of :func:`forward_backward_batch`.  If the
    trajectory has probability zero under the model the log-likelihood is
    -inf and the posteriors are NaN from the impossible step onward.
    """
    posteriors = forward_backward_batch(model, [trajectory])
    return PosteriorSummary(
        log_likelihood=float(posteriors.log_likelihood[0]),
        gamma=posteriors.gamma,
        xi=posteriors.xi,
        log_scale=posteriors.log_scale,
    )


def trajectory_log_likelihood(model: SubtypeModel, trajectory: Trajectory) -> float:
    """Marginal log-probability of the observations under the model."""
    log_likelihood, _ = forward_filter([model], [trajectory])
    return float(log_likelihood[0, 0])


def propagate_filter(model: SubtypeModel, filtered: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Bin laws after a filtered state law evolves for each gap.

    The gaps' kernels come from one stacked exponential; returns a (gaps,
    columns) array in the layout of :func:`~.emissions.stacked_columns`.
    """
    states = filtered @ _generator_kernels([model.generator], gaps)[0]
    return states @ model.emissions.stacked


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
    if not np.all(np.diff(future_times) > 0):
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
