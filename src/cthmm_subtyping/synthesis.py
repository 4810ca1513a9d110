"""Seeded synthetic cohorts sampled from a known mixture model.

Hidden paths are simulated jump by jump (exponential holding times, jump
probabilities proportional to the off-diagonal rates), observation times
come from a configurable renewal process, and observations are drawn from
the state's emission tables with independent missingness.  Everything is
reproducible from the seed; per-patient streams are split from one seed
sequence so cohorts parallelise cleanly.

Each categorical draw is one uniform looked up in a :func:`_cdf`, as
``Generator.choice`` draws, and each holding time is ``scale *
standard_exponential()``, as ``Generator.exponential`` computes it, so the
stream is bit for bit that of one ``choice`` or ``exponential`` call per draw.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .ctmc import GeneratorMatrix, validate_generator
from .emissions import MISSING, BinningScheme, EmissionTable
from .errors import InvariantViolation, NonPositiveInterval
from .inference import SubtypeModel, Trajectory
from .learning import _apply_terminal_intervention, _checked_integer, _checked_seed, structure_mask
from .mixture import MixtureModel


@dataclass(frozen=True)
class ObservationTimeConfig:
    """Renewal process for observation times: count range and mean gap."""

    min_observations: int = 5
    max_observations: int = 40
    mean_gap: float = 1.0

    def __post_init__(self) -> None:
        _checked_integer("min_observations", self.min_observations)
        _checked_integer("max_observations", self.max_observations)
        if not 1 <= self.min_observations <= self.max_observations:
            raise InvariantViolation("observation count range is empty")
        if not 0 < self.mean_gap < math.inf:  # also rejects NaN
            raise InvariantViolation(f"mean gap must be finite and > 0, got {self.mean_gap}")


@dataclass(frozen=True)
class HiddenPath:
    """Piecewise-constant state path: jump times and the states entered."""

    times: np.ndarray
    states: np.ndarray

    def state_at(self, t: float | np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.times, t, side="right") - 1
        return self.states[np.maximum(idx, 0)]


@dataclass
class SyntheticCohort:
    """Sampled trajectories plus the ground truth that generated them."""

    trajectories: list[Trajectory]
    labels: np.ndarray
    hidden_states: list[np.ndarray]
    seed: int
    missing_rate: float
    time_config: ObservationTimeConfig


# ``Generator.choice`` rejects probabilities whose sum is this far from 1.
_CHOICE_ATOL = math.sqrt(np.finfo(float).eps)


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative distribution of ``p`` (last axis) as ``Generator.choice`` builds it.

    A draw is the number of entries at or below one ``rng.random()``:
    ``np.searchsorted(cdf, u, side="right")``, or ``bisect_right`` on a list.
    """
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _initial_law(initial, n_states: int) -> np.ndarray:
    """``initial`` as floats, if ``Generator.choice(n_states, p=initial)`` accepts it.

    Anything it rejects, a wrong shape, NaN, a negative entry or a
    compensated sum more than ``_CHOICE_ATOL`` from 1, raises
    :class:`InvariantViolation` instead.
    """
    p = np.asarray(initial, dtype=float)
    if p.shape != (n_states,):
        raise InvariantViolation(
            f"initial distribution must have shape ({n_states},), got {p.shape}"
        )
    total, carry = float(p[0]), 0.0  # Kahan summation, as choice sums
    for value in p[1:].tolist():
        value -= carry
        step = total + value
        carry = (step - total) - value
        total = step
    if math.isnan(total) or np.any(p < 0) or abs(total - 1.0) > _CHOICE_ATOL:
        raise InvariantViolation(f"initial distribution is not a probability vector: {p}")
    return p


def sample_hidden_path(
    generator: GeneratorMatrix,
    initial: np.ndarray,
    horizon: float,
    seed: int | np.random.Generator,
) -> HiddenPath:
    """Simulate one CTMC path on [0, horizon].

    Holding times are exponential with the state's exit rate; the jump
    target is drawn proportionally to the outgoing rates.  Absorbing
    states hold to the horizon.
    """
    if not 0 < horizon < math.inf:  # also rejects NaN
        raise NonPositiveInterval(f"horizon must be finite and > 0, got {horizon}")
    p = _initial_law(initial, generator.size)
    if not isinstance(seed, np.random.Generator):
        _checked_seed(seed)
    rng = np.random.default_rng(seed)
    uniform, exponential = rng.random, rng.standard_exponential
    rates = generator.rates
    exit_rates = (-np.diag(rates)).tolist()

    state = bisect_right(_cdf(p).tolist(), uniform())
    times = [0.0]
    states = [state]
    jumps = {}  # state -> its jump CDF, built at the first jump out of it
    t = 0.0
    while exit_rates[state] > 0:
        t += (1.0 / exit_rates[state]) * exponential()
        if t >= horizon:
            break
        if state not in jumps:
            jump = rates[state].copy()
            jump[state] = 0.0
            jumps[state] = _cdf(jump / jump.sum()).tolist()
        state = bisect_right(jumps[state], uniform())
        times.append(t)
        states.append(state)
    return HiddenPath(times=np.array(times), states=np.array(states, dtype=int))


def sample_trajectory(
    model: SubtypeModel,
    obs_times: np.ndarray,
    missing_rate: float,
    seed: int | np.random.Generator,
    patient_id: str = "synthetic",
) -> tuple[Trajectory, np.ndarray]:
    """Sample one trajectory at the given times; also return the hidden states."""
    # The times pass a trajectory's own checks before anything is drawn.
    obs_times = Trajectory(patient_id, obs_times, np.zeros((np.size(obs_times), 0), int)).times
    if not 0 <= missing_rate <= 1:
        raise InvariantViolation("missing rate must lie in [0, 1]")

    if not isinstance(seed, np.random.Generator):
        _checked_seed(seed)
    rng = np.random.default_rng(seed)
    horizon = float(obs_times[-1] - obs_times[0])
    if horizon > 0:
        path = sample_hidden_path(model.generator, model.initial, horizon, rng)
        hidden = path.state_at(obs_times - obs_times[0])
    else:
        hidden = np.array([np.searchsorted(_cdf(model.initial), rng.random(), side="right")])

    # One uniform per (time, feature) cell in row-major order, as one
    # choice call per cell drew them.
    uniforms = rng.random((obs_times.size, model.n_features))
    obs = np.column_stack([
        (_cdf(table)[hidden] <= u[:, None]).sum(axis=1)
        for table, u in zip(model.emissions.tables, uniforms.T)
    ])
    if missing_rate > 0:
        obs[rng.random(obs.shape) < missing_rate] = MISSING
    return (
        Trajectory(patient_id=patient_id, times=obs_times, observations=obs),
        np.asarray(hidden, dtype=int),
    )


def sample_cohort(
    mixture: MixtureModel,
    n_patients: int,
    time_config: ObservationTimeConfig | None = None,
    missing_rate: float = 0.0,
    seed: int = 0,
) -> SyntheticCohort:
    """Sample a labelled cohort from a mixture model."""
    if _checked_integer("n_patients", n_patients) < 1:
        raise InvariantViolation("need at least one patient")
    time_config = time_config or ObservationTimeConfig()
    streams = np.random.SeedSequence(_checked_seed(seed)).spawn(n_patients)
    prior = _cdf(mixture.prior).tolist()

    trajectories = []
    labels = np.empty(n_patients, dtype=int)
    hidden_states = []
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        label = bisect_right(prior, rng.random())
        n_obs = int(
            rng.integers(time_config.min_observations, time_config.max_observations + 1)
        )
        gaps = rng.exponential(time_config.mean_gap, size=n_obs - 1)
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        trajectory, hidden = sample_trajectory(
            mixture.models[label], times, missing_rate, rng, patient_id=f"p{i:05d}"
        )
        trajectories.append(trajectory)
        labels[i] = label
        hidden_states.append(hidden)
    return SyntheticCohort(
        trajectories=trajectories,
        labels=labels,
        hidden_states=hidden_states,
        seed=seed,
        missing_rate=missing_rate,
        time_config=time_config,
    )


def random_mixture(
    n_subtypes: int,
    n_states: int,
    scheme: BinningScheme,
    seed: int = 0,
    structure: str = "left-to-right",
    terminal_intervention_feature: int | None = None,
    smoothing: float = 1e-3,
) -> MixtureModel:
    """A seeded, well-separated generating mixture for simulations.

    Each subtype drifts its emission peaks across states in a different
    direction, so both the static bin distributions and their progression
    distinguish the subtypes.
    """
    if _checked_integer("n_subtypes", n_subtypes) < 1:
        raise InvariantViolation("need at least one subtype")
    _checked_integer("n_states", n_states)
    rng = np.random.default_rng(_checked_seed(seed))
    models = []
    for m in range(n_subtypes):
        mask = structure_mask(structure, n_states)
        raw = rng.uniform(0.25, 0.65, size=(n_states, n_states)) * mask
        generator = validate_generator(raw, mask)

        tables = []
        for d, bins in enumerate(scheme.bin_counts):
            table = np.full((n_states, bins), 0.2 / max(bins - 1, 1))
            for k in range(n_states):
                span = (k / max(n_states - 1, 1)) * (bins - 1)
                ascending = (m + d) % 2 == 0
                peak = int(round(span if ascending else (bins - 1) - span))
                peak = (peak + m) % bins
                table[k, peak] = 0.8
            tables.append(table / table.sum(axis=1, keepdims=True))
        emissions = _apply_terminal_intervention(
            EmissionTable(tables=tuple(tables)), terminal_intervention_feature, smoothing
        )

        initial = np.full(n_states, 0.1 / max(n_states - 1, 1))
        initial[0] = 0.9
        initial = initial / initial.sum()
        models.append(SubtypeModel(initial=initial, generator=generator, emissions=emissions))
    prior = np.full(n_subtypes, 1.0 / n_subtypes)
    return MixtureModel(
        models=tuple(models),
        prior=prior,
        assignments=np.empty(0, dtype=int),
        objective_trace=[],
        scheme=scheme,
    )
