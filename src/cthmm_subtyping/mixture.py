"""Hard-EM subtyping: alternate best-subtype assignment with refitting.

Each patient is assigned the subtype maximising the joint score
log prior + trajectory log-likelihood, then each subtype's model is
refit on its assigned patients, all subtypes' fits in one lockstep EM
run.  The alternation stops as soon as no assignment changes, which is
an exact fixed point of the procedure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .emissions import BinningScheme, feature_totals
from .errors import InvariantViolation, TooFewPatients
from .inference import SubtypeModel, Trajectory, _Cohort, forward_filter
from .learning import EmConfig, _bin_counts, _fit_sets, _prepare_cohort, _restarts


@dataclass
class MixtureModel:
    """A fitted set of subtype models plus the training bookkeeping."""

    models: tuple[SubtypeModel, ...]
    prior: np.ndarray
    assignments: np.ndarray
    objective_trace: list[float]
    scheme: BinningScheme | None = None

    def __post_init__(self) -> None:
        if not self.models:
            raise InvariantViolation("mixture needs at least one subtype")
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != (len(self.models),):
            raise InvariantViolation("prior length differs from subtype count")
        if not np.all(prior >= 0) or abs(prior.sum() - 1.0) > 1e-12:
            raise InvariantViolation("subtype prior must be a probability vector")
        first = self.models[0]
        for model in self.models[1:]:
            if model.n_states != first.n_states:
                raise InvariantViolation("subtypes disagree on state count")
            if model.emissions.bin_counts != first.emissions.bin_counts:
                raise InvariantViolation("subtypes disagree on feature bins")
        assignments = np.asarray(self.assignments, dtype=int)
        if assignments.size and (
            assignments.min() < 0 or assignments.max() >= len(self.models)
        ):
            raise InvariantViolation("assignment outside subtype range")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "assignments", assignments)

    @property
    def n_subtypes(self) -> int:
        return len(self.models)

    @property
    def n_states(self) -> int:
        return self.models[0].n_states


def assign_subtypes(
    mixture: MixtureModel, trajectories: list[Trajectory]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best subtype of every trajectory, from one forward-only pass.

    The joint score of subtype m is log prior + trajectory log-likelihood.
    Returns the best subtypes (B,), all joint scores (B, M), and each
    trajectory's filtered state law at its last timestamp under its best
    subtype (B, K).  Ties break toward the lowest subtype index.
    """
    log_likelihood, filtered = forward_filter(list(mixture.models), trajectories)
    with np.errstate(divide="ignore"):
        scores = np.log(mixture.prior)[None, :] + log_likelihood.T
    best = scores.argmax(axis=1)
    return best, scores, filtered[best, np.arange(best.size)]


def assign_subtype(mixture: MixtureModel, trajectory: Trajectory) -> tuple[int, np.ndarray]:
    """Best subtype for a trajectory plus all per-subtype joint log scores.

    Ties break toward the lowest subtype index.
    """
    best, scores, _ = assign_subtypes(mixture, [trajectory])
    return int(best[0]), scores[0]


def assignment_posteriors(mixture: MixtureModel, trajectory: Trajectory) -> np.ndarray:
    """Posterior over subtypes: softmax of the joint log scores."""
    _, scores = assign_subtype(mixture, trajectory)
    top = scores.max()
    if not math.isfinite(top):
        raise InvariantViolation("all subtype scores are -inf for this trajectory")
    weights = np.exp(scores - top)
    return weights / weights.sum()


def _bin_histograms(cohort: _Cohort, bin_counts: tuple[int, ...]) -> np.ndarray:
    """Per-patient observed-bin frequency vectors, features concatenated."""
    counts = _bin_counts(cohort, bin_counts)
    return counts / np.maximum(feature_totals(counts, bin_counts), 1)


def _initial_partition(
    cohort: _Cohort,
    n_subtypes: int,
    rng: np.random.Generator,
    bin_counts: tuple[int, ...],
) -> np.ndarray:
    """Seed the alternation by clustering per-patient bin histograms.

    A short seeded Lloyd iteration over histogram vectors gives the first
    refit pass label-coherent groups, which keeps the restart search from
    fitting compromise models to mixed data.  Degenerate clusterings fall
    back to a balanced random partition.
    """
    n = len(cohort)
    if n_subtypes == 1:
        return np.zeros(n, dtype=int)
    points = _bin_histograms(cohort, bin_counts)
    centroids = points[rng.choice(n, size=n_subtypes, replace=False)]
    assignments = np.zeros(n, dtype=int)
    for _ in range(25):
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        updated = distances.argmin(axis=1)
        if np.array_equal(updated, assignments):
            break
        assignments = updated
        for m in range(n_subtypes):
            members = points[assignments == m]
            if members.size:
                centroids[m] = members.mean(axis=0)
    if np.bincount(assignments, minlength=n_subtypes).min() == 0:
        fallback = np.empty(n, dtype=int)
        fallback[rng.permutation(n)] = np.arange(n) % n_subtypes
        return fallback
    return assignments


def _repair_empty_subtypes(
    assignments: np.ndarray, best_scores: np.ndarray, n_subtypes: int
) -> np.ndarray:
    """Re-seed emptied subtypes with the worst-scoring patients.

    Patients are eligible donors only while their current subtype keeps at
    least two members, so the repair cannot cascade into a new empty
    subtype.  Forced moves can lower the objective for one alternation;
    the trace records it when that happens.
    """
    n = assignments.size
    quota = max(1, math.ceil(n / (10 * n_subtypes)))
    assignments = assignments.copy()
    for m in range(n_subtypes):
        if np.any(assignments == m):
            continue
        order = np.argsort(best_scores, kind="stable")
        moved = 0
        for idx in order:
            member_count = np.count_nonzero(assignments == assignments[idx])
            if member_count < 2:
                continue
            assignments[idx] = m
            best_scores[idx] = np.inf  # never steal the same patient twice
            moved += 1
            if moved == quota:
                break
    return assignments


def fit_mixture(
    trajectories: list[Trajectory],
    n_subtypes: int,
    n_states: int,
    config: EmConfig,
    scheme: BinningScheme | None = None,
) -> MixtureModel:
    """Cluster patients into subtypes by alternating assignment and refits.

    The first round fits each subtype from random restarts on a seeded
    histogram-clustered partition; later rounds warm-start from the
    previous parameters so the joint objective cannot decrease.  The
    subtype prior stays uniform.  Gaps and bin counts are prepared once
    for the whole cohort; the bin counts come from ``scheme`` when given.

    Returns the fitted :class:`MixtureModel` with training assignments and
    the log-objective trace (one entry after every assignment pass and
    every refit pass).
    """
    if n_subtypes < 1:
        raise InvariantViolation(f"need at least one subtype, got {n_subtypes}")
    n = len(trajectories)
    if n < n_subtypes:
        raise TooFewPatients(f"{n} patients cannot fill {n_subtypes} subtypes")
    cohort, bin_counts = _prepare_cohort(
        trajectories, config, scheme.bin_counts if scheme is not None else None
    )

    rng = np.random.default_rng(config.seed)
    assignments = _initial_partition(cohort, n_subtypes, rng, bin_counts)
    prior = np.full(n_subtypes, 1.0 / n_subtypes)

    models: list[SubtypeModel] = []
    trace: list[float] = []

    for _ in range(config.mixture_iterations):
        # Refit every subtype on its current members, all fits in lockstep:
        # every restart of every subtype in the first round, then one warm
        # refit per subtype.
        groups = [np.nonzero(assignments == m)[0] for m in range(n_subtypes)]
        if models:
            start_sets = [[(members, model)] for members, model in zip(groups, models)]
        else:
            start_sets = [_restarts(cohort, members, n_states, bin_counts,
                                    replace(config, seed=config.seed + m))
                          for m, members in enumerate(groups)]
        fitted = _fit_sets(cohort, start_sets, config)
        models = [model for model, _ in fitted]
        with np.errstate(divide="ignore"):
            log_prior = float(np.log(prior)[assignments].sum())
        trace.append(sum(diag.log_likelihood for _, diag in fitted) + log_prior)

        # Reassign every patient to its best-scoring subtype.
        mixture = MixtureModel(tuple(models), prior, assignments, trace, scheme)
        proposed, scores, _ = assign_subtypes(mixture, cohort)
        best_scores = scores[np.arange(n), proposed]
        trace.append(float(best_scores.sum()))
        proposed = _repair_empty_subtypes(proposed, best_scores, n_subtypes)
        if np.array_equal(proposed, assignments):
            break
        assignments = proposed
    return replace(mixture, assignments=assignments)
