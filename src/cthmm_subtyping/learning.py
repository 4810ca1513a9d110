"""EM training of one subtype model over a set of trajectories.

The E-step runs one batched forward-backward over the cohort and
accumulates three sufficient statistics: posterior-weighted emission
counts, initial-state posteriors, and pairwise hidden-state counts per
distinct time gap between consecutive observations.  The M-step has
closed forms for all three parameter blocks; the generator update
divides end-conditioned expected jump counts by end-conditioned
expected sojourn times, both aggregated over the per-gap pair counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .ctmc import (
    P_FLOOR,
    RATE_MAX,
    RATE_MIN,
    GeneratorMatrix,
    _interval_integral,
    full_mask,
    left_to_right_mask,
    transition_kernels,
    validate_generator,
)
from .emissions import EmissionTable, stacked_columns
from .errors import (
    DimensionMismatch,
    ImpossibleTrajectory,
    InvariantViolation,
    SubtypingError,
)
from .inference import SubtypeModel, Trajectory, forward_backward_batch

_OCCUPANCY_FLOOR = 1e-10


@dataclass
class SufficientStats:
    """Accumulated E-step statistics for one model over a cohort.

    ``gaps`` holds the sorted distinct inter-observation gaps (shape G) and
    ``pair_counts[g]`` the K x K posterior counts of (state before, state
    after) pairs at gap ``gaps[g]`` (shape G x K x K).
    ``generator`` is the generator the statistics were accumulated under,
    the one the generator update revises, and ``transition_probs[g]`` its
    P(``gaps[g]``) from the E-step.  Statistics built by hand may leave the
    kernels out; the update then builds them from ``generator``.
    """

    gaps: np.ndarray
    pair_counts: np.ndarray
    gamma_initial: np.ndarray
    emission_counts: tuple[np.ndarray, ...]
    generator: GeneratorMatrix | None = None
    transition_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.generator is None and self.transition_probs is not None:
            raise InvariantViolation("transition kernels need the generator they came from")


@dataclass(frozen=True)
class EmConfig:
    """Knobs for EM training and the surrounding subtyping loop."""

    max_iterations: int = 200
    tolerance: float = 1e-6
    smoothing: float = 1e-3
    structure: str = "full"
    seed: int = 0
    restarts: int = 5
    delta_quantization: float | None = None
    terminal_intervention_feature: int | None = None
    mixture_iterations: int = 50

    def __post_init__(self) -> None:
        integers = ["max_iterations", "seed", "restarts", "mixture_iterations"]
        if self.terminal_intervention_feature is not None:
            integers.append("terminal_intervention_feature")
        for name in integers:
            if not isinstance(getattr(self, name), Integral):
                raise InvariantViolation(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise InvariantViolation(f"seed must be >= 0, got {self.seed}")
        if not self.tolerance > 0:
            raise InvariantViolation("tolerance must be positive")
        if self.max_iterations < 1:
            raise InvariantViolation("need at least one EM iteration")
        if self.structure not in ("full", "left-to-right"):
            raise InvariantViolation(f"unknown structure kind {self.structure!r}")
        if self.restarts < 1:
            raise InvariantViolation("need at least one restart")
        if self.mixture_iterations < 1:
            raise InvariantViolation("need at least one mixture iteration")
        if self.delta_quantization is not None and not self.delta_quantization > 0:
            raise InvariantViolation("quantization step must be positive")
        if not 0 <= self.smoothing < np.inf:
            raise InvariantViolation(f"smoothing must be finite and >= 0, got {self.smoothing}")


@dataclass
class FitDiagnostics:
    """What happened during a fit, for logging and reports."""

    iterations: int = 0
    converged: bool = False
    log_likelihood: float = -np.inf
    trace: list[float] = field(default_factory=list)
    restart_scores: list[float] = field(default_factory=list)
    degenerate_events: int = 0


def structure_mask(kind: str, n_states: int) -> np.ndarray:
    if kind == "left-to-right":
        return left_to_right_mask(n_states)
    return full_mask(n_states)


def quantize_gaps(trajectories: list[Trajectory], step: float) -> list[Trajectory]:
    """Snap inter-observation gaps to a grid, keeping the first timestamp.

    Gaps round to the nearest multiple of ``step`` but never below one
    step, so timestamps stay strictly increasing.  Applying this before
    training bounds the number of distinct gaps (and therefore matrix
    exponentials) without touching the data files themselves.
    """
    out = []
    for traj in trajectories:
        gaps = np.diff(traj.times)
        ticks = np.maximum(np.rint(gaps / step), 1.0)
        times = traj.times[0] + np.concatenate([[0.0], np.cumsum(ticks * step)])
        out.append(
            Trajectory(
                patient_id=traj.patient_id,
                times=times,
                observations=traj.observations,
            )
        )
    return out


def e_step(
    model: SubtypeModel, trajectories: list[Trajectory]
) -> tuple[SufficientStats, float]:
    """Accumulate sufficient statistics and the total log-likelihood.

    One batched forward-backward pass covers the whole cohort; its
    distinct gaps index both the transition kernels and the pair-count
    slots, and the kernels ride along on the statistics for the generator
    update.  Raises :class:`ImpossibleTrajectory` for a trajectory with
    probability zero under ``model``, whose posteriors are undefined.
    """
    posteriors = forward_backward_batch(model, trajectories)
    impossible = np.nonzero(~np.isfinite(posteriors.log_likelihood))[0]
    if impossible.size:
        b = impossible[0]
        raise ImpossibleTrajectory(
            f"patient {trajectories[b].patient_id!r} has log-likelihood "
            f"{posteriors.log_likelihood[b]} under the current model"
        )
    bin_counts = model.emissions.bin_counts
    columns = stacked_columns(np.concatenate([t.observations for t in trajectories]), bin_counts)
    counts = np.zeros((sum(bin_counts) + 1, model.n_states))
    np.add.at(counts, columns, posteriors.gamma[:, None, :])
    emission_counts = tuple(
        np.ascontiguousarray(block.T) for block in np.split(counts[:-1], np.cumsum(bin_counts[:-1]))
    )
    pair_counts = np.zeros(posteriors.kernels.shape)
    np.add.at(pair_counts, posteriors.gap_index, posteriors.xi)
    stats = SufficientStats(
        gaps=posteriors.gaps,
        pair_counts=pair_counts,
        gamma_initial=posteriors.gamma[posteriors.starts].sum(axis=0),
        emission_counts=emission_counts,
        generator=model.generator,
        transition_probs=posteriors.kernels,
    )
    return stats, float(posteriors.log_likelihood.sum())


def m_step_emissions(stats: SufficientStats, smoothing: float) -> EmissionTable:
    """Closed-form emission update: smoothed ratio of posterior counts.

    With smoothing zero and an all-zero count row the ratio is undefined;
    that row falls back to uniform so the table stays a valid distribution.
    """
    tables = []
    for counts in stats.emission_counts:
        j = counts.shape[1]
        totals = counts.sum(axis=1, keepdims=True)
        smoothed = counts + smoothing
        denom = totals + j * smoothing
        table = np.where(denom > 0, smoothed / np.where(denom > 0, denom, 1.0), 1.0 / j)
        table = table / table.sum(axis=1, keepdims=True)
        tables.append(table)
    return EmissionTable(tables=tuple(tables))


def m_step_initial(stats: SufficientStats) -> np.ndarray:
    """Closed-form initial-distribution update: normalised first-step posteriors."""
    total = stats.gamma_initial.sum()
    if total <= 0:
        raise InvariantViolation("no initial-state mass accumulated")
    pi = stats.gamma_initial / total
    return pi / pi.sum()


def generator_update_terms(stats: SufficientStats) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of the closed-form generator update.

    For each allowed transition (a, b) the numerator is the expected
    number of a -> b jumps and the denominator the expected time spent in
    ``a``, both end-conditioned under ``stats.generator`` and aggregated
    over the per-gap pair counts.  With A = counts / P(gap) (zero where P
    is below ``P_FLOOR``), the upper-right block D of
    expm([[Q, A^T], [0, Q]] gap) gives the sojourn times on its diagonal
    and the jumps as Q * D^T; one stacked exponential covers every
    distinct gap.  P(gap) is the E-step's kernel when ``stats`` carry one.
    """
    previous = stats.generator
    if previous is None:
        raise InvariantViolation("statistics carry no generator to update")
    probs = stats.transition_probs
    if probs is None:
        probs = transition_kernels(previous.rates[None], stats.gaps)[0]
    reachable = probs >= P_FLOOR
    weights = np.where(reachable, stats.pair_counts / np.where(reachable, probs, 1.0), 0.0)
    integral = _interval_integral(
        previous.rates, weights.transpose(0, 2, 1), stats.gaps
    ).sum(axis=0)
    numer = np.clip(previous.mask * previous.rates * integral.T, 0.0, None)
    denom = np.clip(np.diag(integral), 0.0, None)
    return numer, denom


def m_step_generator(stats: SufficientStats) -> tuple[GeneratorMatrix, tuple[int, ...]]:
    """Closed-form generator update of ``stats.generator``.

    Allowed transitions get expected-jumps / expected-sojourn, clamped into
    [RATE_MIN, RATE_MAX] (so a transition that was never seen is pinned at
    the lower bound instead of freezing at zero).  A state whose expected
    occupancy is below 1e-10 would divide by nothing, so its previous row
    is kept; such states are returned as the second element.
    """
    numer, denom = generator_update_terms(stats)
    previous = stats.generator
    mask = previous.mask
    has_exit = mask.any(axis=1)
    degenerate = tuple(int(a) for a in np.nonzero(has_exit & (denom < _OCCUPANCY_FLOOR))[0])
    rates = np.zeros_like(numer)
    for a in range(previous.size):
        if not has_exit[a]:
            continue
        if a in degenerate:
            rates[a] = np.abs(previous.rates[a]) * mask[a]
            continue
        rates[a] = np.clip(numer[a] / denom[a], RATE_MIN, RATE_MAX) * mask[a]
    return validate_generator(rates, mask), degenerate


def _empirical_bin_frequencies(
    trajectories: list[Trajectory], bin_counts: tuple[int, ...], smoothing: float
) -> list[np.ndarray]:
    columns = stacked_columns(np.concatenate([t.observations for t in trajectories]), bin_counts)
    seen = np.bincount(columns.ravel(), minlength=sum(bin_counts) + 1)[:-1]
    smoothed = np.split(seen + max(smoothing, 1e-6), np.cumsum(bin_counts[:-1]))
    return [counts / counts.sum() for counts in smoothed]


def _apply_terminal_intervention(
    table: EmissionTable, feature: int, epsilon: float
) -> EmissionTable:
    """Pin the intervention indicator: certain in the last state, absent before."""
    if not (0 <= feature < table.n_features and table.tables[feature].shape[1] == 2):
        raise InvariantViolation(f"terminal intervention feature {feature} is not a binary feature")
    pinned = np.tile([1.0 - epsilon, epsilon], (table.n_states, 1))
    pinned[-1] = [epsilon, 1.0 - epsilon]
    tables = list(table.tables)
    tables[feature] = pinned
    return EmissionTable(tables=tuple(tables))


def _random_start(
    n_states: int,
    bin_counts: tuple[int, ...],
    config: EmConfig,
    rng: np.random.Generator,
    base_freqs: list[np.ndarray],
) -> SubtypeModel:
    pi = rng.dirichlet(np.ones(n_states))
    mask = structure_mask(config.structure, n_states)
    raw = rng.uniform(0.01, 1.0, size=(n_states, n_states)) * mask
    generator = validate_generator(raw, mask)
    tables = []
    for d, j in enumerate(bin_counts):
        noise = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=(n_states, j))
        table = base_freqs[d][None, :] * noise
        tables.append(table / table.sum(axis=1, keepdims=True))
    emissions = EmissionTable(tables=tuple(tables))
    if config.terminal_intervention_feature is not None:
        emissions = _apply_terminal_intervention(
            emissions, config.terminal_intervention_feature, config.smoothing
        )
    return SubtypeModel(initial=pi, generator=generator, emissions=emissions)


def _run_em(
    trajectories: list[Trajectory],
    model: SubtypeModel,
    config: EmConfig,
) -> tuple[SubtypeModel, FitDiagnostics]:
    diag = FitDiagnostics()
    previous_ll = None
    for _ in range(config.max_iterations):
        stats, ll = e_step(model, trajectories)
        diag.trace.append(ll)
        if previous_ll is not None and abs(ll - previous_ll) / (abs(ll) + 1.0) < config.tolerance:
            diag.converged = True
            break
        previous_ll = ll
        diag.iterations += 1

        emissions = m_step_emissions(stats, config.smoothing)
        if config.terminal_intervention_feature is not None:
            emissions = _apply_terminal_intervention(
                emissions, config.terminal_intervention_feature, config.smoothing
            )
        pi = m_step_initial(stats)
        generator, degenerate = m_step_generator(stats)
        diag.degenerate_events += len(degenerate)
        model = SubtypeModel(initial=pi, generator=generator, emissions=emissions)
    else:
        # Ran out of iterations: score the final M-step output so the
        # returned model matches the last trace entry.
        _, ll = e_step(model, trajectories)
        diag.trace.append(ll)
    diag.log_likelihood = diag.trace[-1]
    return model, diag


def _prepare_cohort(
    trajectories: list[Trajectory],
    config: EmConfig,
    bin_counts: tuple[int, ...] | None = None,
) -> tuple[list[Trajectory], tuple[int, ...]]:
    """Check a training cohort, fix its bin counts and, when
    ``config.delta_quantization`` is set, snap its gaps to that grid.

    Without given counts each feature gets its largest observed bin index
    plus one, and at least two bins.
    """
    if not trajectories:
        raise InvariantViolation("cannot fit a model with no trajectories")
    if len({t.n_features for t in trajectories}) != 1:
        raise DimensionMismatch("trajectories disagree on feature count")
    observed_max = np.max([t.observations.max(axis=0) for t in trajectories], axis=0)
    if bin_counts is None:
        bin_counts = tuple(int(m) + 1 for m in np.maximum(observed_max, 1))
    if len(bin_counts) != observed_max.size or np.any(observed_max >= bin_counts):
        raise DimensionMismatch(f"bin counts {bin_counts} miss observed bin indices {observed_max}")
    if not np.isfinite(config.smoothing * max(bin_counts, default=0)):
        raise InvariantViolation(f"smoothing {config.smoothing} overflows over {bin_counts} bins")
    if config.delta_quantization is not None:
        trajectories = quantize_gaps(trajectories, config.delta_quantization)
    return trajectories, tuple(bin_counts)


def _fit_prepared(
    trajectories: list[Trajectory],
    n_states: int,
    bin_counts: tuple[int, ...],
    config: EmConfig,
) -> tuple[SubtypeModel, FitDiagnostics]:
    """EM with seeded restarts on a prepared cohort."""
    if n_states < 1:
        raise InvariantViolation("need at least one state")

    base_freqs = _empirical_bin_frequencies(trajectories, bin_counts, config.smoothing)
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    best: tuple[SubtypeModel, FitDiagnostics] | None = None
    scores: list[float] = []
    failure: SubtypingError | None = None
    for seq in seeds:
        rng = np.random.default_rng(seq)
        start = _random_start(n_states, bin_counts, config, rng, base_freqs)
        try:
            model, diag = _run_em(trajectories, start, config)
        except SubtypingError as err:
            failure = err
            scores.append(-np.inf)
            continue
        scores.append(diag.log_likelihood)
        if best is None or diag.log_likelihood > best[1].log_likelihood:
            best = (model, diag)
    if best is None:
        raise failure  # every restart failed
    best[1].restart_scores = scores
    return best


def fit_disease_model(
    trajectories: list[Trajectory],
    n_states: int,
    config: EmConfig,
    bin_counts: tuple[int, ...] | None = None,
) -> tuple[SubtypeModel, FitDiagnostics]:
    """Fit one subtype model by EM with seeded random restarts.

    Parameters
    ----------
    trajectories
        Cohort to fit; at least one trajectory.
    n_states
        Number of hidden disease states.
    config
        EM settings.  When ``delta_quantization`` is set, inter-observation
        gaps are snapped to that grid before training so both the E- and
        M-step see identical gaps (this preserves exact EM monotonicity on
        the quantized record).
    bin_counts
        Bins per feature; a larger observed bin index raises
        :class:`DimensionMismatch`.  Defaults to the largest observed bin
        index plus one, which undercounts when the tail bin of a feature
        never occurs in this cohort; pass the scheme counts when available.

    Returns
    -------
    (model, diagnostics)
        Best model over restarts by final log-likelihood, plus the trace.
    """
    trajectories, bin_counts = _prepare_cohort(trajectories, config, bin_counts)
    return _fit_prepared(trajectories, n_states, bin_counts, config)
