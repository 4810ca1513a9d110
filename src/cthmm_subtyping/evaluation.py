"""Forecast evaluation: cohort splitting and prefix-conditioned cross-entropy.

A test patient's subtype is identified from the leading portion of their
record, then the remaining observations are scored by the negative log
probability the chosen subtype assigns to the bins actually observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .emissions import MISSING
from .errors import (
    EmptyCohort,
    ImpossibleTrajectory,
    InvariantViolation,
    NoHeldOutObservations,
)
from .inference import Trajectory, _Cohort, propagate_filter
from .learning import EmConfig, _checked_seed
from .mixture import MixtureModel, assign_subtypes, fit_mixture


def _ceil_share(fraction: float, count: int | np.ndarray, name: str):
    """ceil(fraction * count) and at least one, elementwise over an array
    ``count``; the fraction, called ``name``, must lie in (0, 1)."""
    if not 0 < fraction < 1:
        raise InvariantViolation(f"{name} must lie strictly between 0 and 1")
    # Tiny backoff so 0.7 * 10 style float noise cannot bump the ceiling.
    return np.maximum(np.ceil(fraction * count - 1e-9), 1).astype(int)


def split_cohort(
    cohort: list[Trajectory], train_fraction: float, seed: int
) -> tuple[list[Trajectory], list[Trajectory]]:
    """Disjoint, exhaustive train/test split by seeded shuffle.

    The first ceil(fraction * N) shuffled patients, and at least one, form
    the training set.
    """
    if not cohort:
        raise EmptyCohort("cannot split an empty cohort")
    n_train = _ceil_share(train_fraction, len(cohort), "train_fraction")
    order = np.random.default_rng(_checked_seed(seed)).permutation(len(cohort))
    train = [cohort[i] for i in order[:n_train]]
    test = [cohort[i] for i in order[n_train:]]
    return train, test


def prefix_split(
    trajectory: Trajectory, prefix_fraction: float
) -> tuple[Trajectory, np.ndarray, np.ndarray]:
    """Keep the first ceil(fraction * n) timepoints, and at least one, hold out the rest.

    Returns the prefix trajectory together with the held-out timestamps
    and observations (both possibly empty).
    """
    n_prefix = _ceil_share(prefix_fraction, trajectory.length, "prefix_fraction")
    prefix = Trajectory(
        patient_id=trajectory.patient_id,
        times=trajectory.times[:n_prefix],
        observations=trajectory.observations[:n_prefix],
    )
    return prefix, trajectory.times[n_prefix:], trajectory.observations[n_prefix:]


def _held_out_losses(
    mixture: MixtureModel, trajectories: list[Trajectory], prefix_fraction: float
) -> tuple[list[float], list[int]]:
    """Each patient's summed negative log-probability of its held-out observed
    bins, and how many bins were scored (0 for a patient with none).

    Every prefix is cut as :func:`prefix_split` cuts it and scored in one
    forward pass; each chosen subtype then propagates its patients'
    filtered laws over all their held-out gaps in one kernel stack.
    """
    cohort = _Cohort.of(trajectories, mixture.models[0].emissions.bin_counts)
    n_prefix = _ceil_share(prefix_fraction, cohort.lengths, "prefix_fraction")
    cut = np.repeat(cohort.starts + n_prefix, cohort.lengths)  # each row's first held-out row
    held = np.arange(cut.size) >= cut
    observed = (cohort.observations != MISSING) & held[:, None]
    rows = np.nonzero(observed.any(axis=1))[0]
    observed = observed[rows]
    owner = np.searchsorted(cohort.starts, rows, "right") - 1
    entries = owner[np.nonzero(observed)[0]]  # the patient of each scored bin
    scored = np.bincount(entries, minlength=len(cohort))
    if not rows.size:
        return [0.0] * len(cohort), scored.tolist()

    best, _, filtered = assign_subtypes(mixture, cohort.heads(~held, n_prefix))
    gaps = cohort.times[rows] - cohort.times[cut[rows] - 1]
    chosen = best[owner]
    p = np.empty(observed.shape)
    for m in set(chosen.tolist()):
        here = np.nonzero(chosen == m)[0]
        predicted = propagate_filter(mixture.models[m], filtered[owner[here]], gaps[here])
        p[here] = predicted[np.arange(here.size)[:, None], cohort.columns[rows[here]]]
    # Mixing weights can overshoot one by a few ulps; keep scores >= 0.
    np.minimum(p, 1.0, out=p)
    impossible = observed & ~(p > 0)
    if impossible.any():
        i, d = np.argwhere(impossible)[0]
        raise ImpossibleTrajectory(
            f"patient {cohort.patient_ids[owner[i]]!r}: held-out bin "
            f"{cohort.observations[rows[i], d]} of feature {d} "
            f"has no probability under subtype {chosen[i]}"
        )
    totals = np.bincount(entries, -np.log(p[observed]), minlength=len(cohort))
    return totals.tolist(), scored.tolist()


def forecast_cross_entropy(
    mixture: MixtureModel, trajectory: Trajectory, prefix_fraction: float
) -> float:
    """Mean negative log-probability of the held-out observed bins.

    The subtype is chosen from the prefix alone; missing held-out features
    are skipped.  Raises :class:`NoHeldOutObservations` when nothing
    remains to score, :class:`ImpossibleTrajectory` for a bin of zero
    predicted probability.
    """
    (total,), (scored,) = _held_out_losses(mixture, [trajectory], prefix_fraction)
    if not scored:
        raise NoHeldOutObservations(
            f"patient {trajectory.patient_id!r} has no scorable held-out observations"
        )
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
    totals, counts = _held_out_losses(mixture, cohort, prefix_fraction)
    report = ForecastReport(
        subtypes=mixture.n_subtypes,
        states=mixture.n_states,
        prefix_fraction=prefix_fraction,
        seed=seed,
        per_patient=[(t.patient_id, total / scored)
                     for t, total, scored in zip(cohort, totals, counts) if scored],
        n_scored_observations=sum(counts),
        n_skipped_patients=counts.count(0),
    )
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
