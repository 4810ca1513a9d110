"""Exact posterior inference for one trajectory under one subtype model.

The hidden state evolves as a CTMC observed at irregular timestamps, so
the transition kernel between consecutive observations is the matrix
exponential of the gap times the generator.  The forward-backward pass is
scaled (per-step normalisation) which keeps it stable for trajectories of
tens of thousands of points and yields the log-likelihood as the sum of
log scaling constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import GeneratorMatrix, left_to_right_mask, sojourn_expectation, transition_matrix
from .emissions import (
    MISSING,
    BinningScheme,
    EmissionTable,
    expected_feature_value,
    log_emission_matrix,
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
        obs = np.asarray(self.observations, dtype=int)
        if times.ndim != 1 or times.size < 1:
            raise InvariantViolation("trajectory needs at least one timestamp")
        if np.any(np.diff(times) <= 0):
            raise InvariantViolation(
                f"patient {self.patient_id!r}: timestamps must be strictly increasing"
            )
        if obs.ndim != 2 or obs.shape[0] != times.size:
            raise InvariantViolation(
                f"patient {self.patient_id!r}: observations must be (n_times, n_features)"
            )
        if np.any(obs < MISSING):
            raise InvariantViolation("bin indices must be >= 0 or the missing marker")
        times = np.ascontiguousarray(times)
        times.flags.writeable = False
        obs = np.ascontiguousarray(obs)
        obs.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "observations", obs)

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
        if np.any(initial < 0) or abs(initial.sum() - 1.0) > 1e-12:
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


def _interval_kernels(generator: GeneratorMatrix, times: np.ndarray) -> list[np.ndarray]:
    return [transition_matrix(generator, gap).probs for gap in np.diff(times)]


def forward_backward(model: SubtypeModel, trajectory: Trajectory) -> PosteriorSummary:
    """Scaled forward-backward pass under the continuous-time HMM.

    Emission weights are shifted by their per-step maximum before
    exponentiation so very unlikely observations cannot underflow; the
    shift is folded back into the scaling constants.  If the trajectory
    has probability zero under the model the log-likelihood is -inf and
    the posteriors are NaN from the impossible step onward.
    """
    _check_dimensions(model, trajectory)
    n, n_states = trajectory.length, model.n_states
    log_b = log_emission_matrix(model.emissions, trajectory.observations)
    shift = log_b.max(axis=1)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    b = np.exp(log_b - shift[:, None])
    kernels = _interval_kernels(model.generator, trajectory.times)

    alpha = np.empty((n, n_states))
    scale = np.empty(n)
    forward = model.initial * b[0]
    scale[0] = forward.sum()
    alpha[0] = forward / scale[0] if scale[0] > 0 else np.nan
    for i in range(1, n):
        forward = (alpha[i - 1] @ kernels[i - 1]) * b[i]
        scale[i] = forward.sum()
        alpha[i] = forward / scale[i] if scale[i] > 0 else np.nan

    beta = np.empty((n, n_states))
    beta[n - 1] = 1.0
    for i in range(n - 2, -1, -1):
        weighted = b[i + 1] * beta[i + 1]
        beta[i] = (kernels[i] @ weighted) / scale[i + 1] if scale[i + 1] > 0 else np.nan

    gamma = alpha * beta
    xi = np.empty((n - 1, n_states, n_states))
    for i in range(n - 1):
        if scale[i + 1] > 0:
            xi[i] = (
                alpha[i][:, None] * kernels[i] * (b[i + 1] * beta[i + 1])[None, :]
            ) / scale[i + 1]
        else:
            xi[i] = np.nan

    with np.errstate(divide="ignore"):
        log_scale = np.log(scale) + shift
    return PosteriorSummary(
        log_likelihood=float(log_scale.sum()),
        gamma=gamma,
        xi=xi,
        log_scale=log_scale,
    )


def trajectory_log_likelihood(model: SubtypeModel, trajectory: Trajectory) -> float:
    """Marginal log-probability of the observations under the model."""
    return forward_backward(model, trajectory).log_likelihood


def _check_dimensions(model: SubtypeModel, trajectory: Trajectory) -> None:
    if trajectory.n_features != model.n_features:
        raise DimensionMismatch(
            f"trajectory has {trajectory.n_features} features, model expects {model.n_features}"
        )
    for d, count in enumerate(model.emissions.bin_counts):
        column = trajectory.observations[:, d]
        if np.any(column >= count):
            raise DimensionMismatch(
                f"feature {d}: bin index out of range for {count} bins"
            )


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
        raise ValueError("future_times must be a non-empty 1-d sequence")
    if np.any(np.diff(future_times) <= 0):
        raise ValueError("future_times must be strictly increasing")
    t_end = prefix.times[-1]
    if future_times[0] <= t_end:
        raise NonCausalQuery(
            f"future time {future_times[0]} does not follow the prefix end {t_end}"
        )

    # gamma at the final step is the filtered distribution: the backward
    # weights there are identically one.
    filtered = forward_backward(model, prefix).gamma[-1]

    out: list[list[np.ndarray]] = []
    for t in future_times:
        state_dist = filtered @ transition_matrix(model.generator, t - t_end).probs
        per_feature = [state_dist @ table for table in model.emissions.tables]
        out.append(per_feature)
    return out


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
        raise ValueError(f"start_state {start_state} out of range")

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
