"""Forecast evaluation: cohort splitting and prefix-conditioned cross-entropy.

A test patient's subtype is identified from the leading portion of their
record, then the remaining observations are scored by the negative log
probability the chosen subtype assigns to the bins actually observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .emissions import MISSING, stacked_columns
from .errors import (
    EmptyCohort,
    ImpossibleTrajectory,
    InvariantViolation,
    NoHeldOutObservations,
)
from .inference import Trajectory, propagate_filter
from .learning import EmConfig
from .mixture import MixtureModel, assign_subtypes, fit_mixture


def _ceil_share(fraction: float, count: int) -> int:
    # Tiny backoff so 0.7 * 10 style float noise cannot bump the ceiling.
    return math.ceil(fraction * count - 1e-9)


def split_cohort(
    cohort: list[Trajectory], train_fraction: float, seed: int
) -> tuple[list[Trajectory], list[Trajectory]]:
    """Disjoint, exhaustive train/test split by seeded shuffle.

    The first ceil(fraction * N) shuffled patients form the training set.
    """
    if not cohort:
        raise EmptyCohort("cannot split an empty cohort")
    if not 0 < train_fraction < 1:
        raise InvariantViolation("train_fraction must lie strictly between 0 and 1")
    order = np.random.default_rng(seed).permutation(len(cohort))
    n_train = _ceil_share(train_fraction, len(cohort))
    train = [cohort[i] for i in order[:n_train]]
    test = [cohort[i] for i in order[n_train:]]
    return train, test


def prefix_split(
    trajectory: Trajectory, prefix_fraction: float
) -> tuple[Trajectory, np.ndarray, np.ndarray]:
    """Keep the first ceil(fraction * n) timepoints, hold out the rest.

    Returns the prefix trajectory together with the held-out timestamps
    and observations (both possibly empty).
    """
    if not 0 < prefix_fraction < 1:
        raise InvariantViolation("prefix_fraction must lie strictly between 0 and 1")
    n_prefix = _ceil_share(prefix_fraction, trajectory.length)
    prefix = Trajectory(
        patient_id=trajectory.patient_id,
        times=trajectory.times[:n_prefix],
        observations=trajectory.observations[:n_prefix],
    )
    return prefix, trajectory.times[n_prefix:], trajectory.observations[n_prefix:]


def _held_out_loss(
    mixture: MixtureModel, trajectory: Trajectory, prefix_fraction: float
) -> tuple[float, int]:
    """Summed negative log-probability of the held-out observed bins, and
    how many bins were scored; see :func:`forecast_cross_entropy`."""
    prefix, held_times, held_obs = prefix_split(trajectory, prefix_fraction)
    observed = held_obs != MISSING
    if not observed.any():
        raise NoHeldOutObservations(
            f"patient {trajectory.patient_id!r} has no scorable held-out observations"
        )
    (subtype,), _, (filtered,) = assign_subtypes(mixture, [prefix])
    model = mixture.models[subtype]
    predicted = propagate_filter(model, filtered, held_times - prefix.times[-1])
    columns = stacked_columns(held_obs, model.emissions.bin_counts)
    # Mixing weights can overshoot one by a few ulps; keep scores >= 0.
    p = np.minimum(np.take_along_axis(predicted, columns, axis=1), 1.0)
    impossible = np.argwhere(observed & ~(p > 0))
    if impossible.size:
        i, d = impossible[0]
        raise ImpossibleTrajectory(
            f"patient {trajectory.patient_id!r}: held-out bin {held_obs[i, d]} of feature {d} "
            f"has no probability under subtype {subtype}"
        )
    return float(-np.log(p[observed]).sum()), int(observed.sum())


def forecast_cross_entropy(
    mixture: MixtureModel, trajectory: Trajectory, prefix_fraction: float
) -> float:
    """Mean negative log-probability of the held-out observed bins.

    The subtype is chosen from the prefix alone; missing held-out features
    are skipped.  Raises :class:`NoHeldOutObservations` when nothing
    remains to score, :class:`ImpossibleTrajectory` for a bin of zero
    predicted probability.
    """
    total, scored = _held_out_loss(mixture, trajectory, prefix_fraction)
    return total / scored


@dataclass
class ForecastReport:
    """Cohort-level forecast summary plus the per-patient scores behind it."""

    subtypes: int
    states: int
    prefix_fraction: float
    seed: int
    per_patient: list[tuple[str, float]] = field(default_factory=list)
    n_scored_observations: int = 0
    n_skipped_patients: int = 0

    @property
    def n_patients(self) -> int:
        return len(self.per_patient)

    @property
    def mean(self) -> float:
        if not self.per_patient:
            return math.nan
        return float(np.mean([s for _, s in self.per_patient]))

    @property
    def standard_error(self) -> float:
        if len(self.per_patient) < 2:
            return 0.0
        scores = np.array([s for _, s in self.per_patient])
        return float(np.std(scores, ddof=1) / math.sqrt(scores.size))

    def to_record(self) -> dict:
        return {
            "subtypes": self.subtypes,
            "states": self.states,
            "prefix_fraction": self.prefix_fraction,
            "seed": self.seed,
            "mean_cross_entropy": self.mean,
            "standard_error": self.standard_error,
            "patients_scored": self.n_patients,
            "observations_scored": self.n_scored_observations,
            "patients_skipped": self.n_skipped_patients,
        }


def forecast_report(
    mixture: MixtureModel,
    cohort: list[Trajectory],
    prefix_fraction: float,
    seed: int = 0,
) -> ForecastReport:
    """Score every patient, averaging per patient first and then over patients.

    Patients whose held-out portion is empty or entirely missing are
    excluded from the average and counted as skipped; when that leaves no
    patient to score, raises :class:`NoHeldOutObservations`.
    """
    report = ForecastReport(
        subtypes=mixture.n_subtypes,
        states=mixture.n_states,
        prefix_fraction=prefix_fraction,
        seed=seed,
    )
    for trajectory in cohort:
        try:
            total, scored = _held_out_loss(mixture, trajectory, prefix_fraction)
        except NoHeldOutObservations:
            report.n_skipped_patients += 1
            continue
        report.per_patient.append((trajectory.patient_id, total / scored))
        report.n_scored_observations += scored
    if not report.per_patient:
        raise NoHeldOutObservations(
            f"none of {len(cohort)} patients has held-out observations "
            f"after a {prefix_fraction} prefix"
        )
    return report


@dataclass
class GridEvaluation:
    """Forecast reports for every requested (subtypes, states) pair."""

    subtype_counts: list[int]
    state_counts: list[int]
    cells: dict[tuple[int, int], ForecastReport]
    n_train: int
    n_test: int
    train_fraction: float
    seed: int

    def to_records(self) -> list[dict]:
        return [
            self.cells[(m, k)].to_record()
            for m in self.subtype_counts
            for k in self.state_counts
        ]

    def render_text(self) -> str:
        """Plain-text table: rows are subtype counts, columns state counts."""
        header = ["Subtypes \\ States"] + [str(k) for k in self.state_counts]
        rows = [header]
        for m in self.subtype_counts:
            row = [str(m)]
            for k in self.state_counts:
                cell = self.cells[(m, k)]
                row.append(f"{cell.mean:.4f} +/- {cell.standard_error:.4f}")
            rows.append(row)
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        lines = [
            "  ".join(entry.ljust(w) for entry, w in zip(row, widths)).rstrip()
            for row in rows
        ]
        return "\n".join(lines)


def grid_evaluate(
    cohort: list[Trajectory],
    subtype_counts: list[int],
    state_counts: list[int],
    config: EmConfig,
    train_fraction: float = 0.8,
    prefix_fraction: float = 0.7,
    split_seed: int = 0,
    scheme=None,
) -> GridEvaluation:
    """Fit and score every (subtypes, states) combination on one shared split."""
    if not subtype_counts or not state_counts:
        raise InvariantViolation("need at least one subtype count and one state count")
    train, test = split_cohort(cohort, train_fraction, split_seed)
    if not test:
        raise EmptyCohort("the split left no test patients")
    cells = {}
    for m in subtype_counts:
        for k in state_counts:
            mixture = fit_mixture(train, m, k, config, scheme=scheme)
            cells[(m, k)] = forecast_report(
                mixture, test, prefix_fraction, seed=config.seed
            )
    return GridEvaluation(
        subtype_counts=list(subtype_counts),
        state_counts=list(state_counts),
        cells=cells,
        n_train=len(train),
        n_test=len(test),
        train_fraction=train_fraction,
        seed=split_seed,
    )
