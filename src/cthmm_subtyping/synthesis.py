"""Seeded synthetic cohorts sampled from a known mixture model.

Hidden paths are simulated jump by jump (exponential holding times, jump
probabilities proportional to the off-diagonal rates), observation times
come from a configurable renewal process, and observations are drawn from
the state's emission tables with independent missingness.  Everything is
reproducible from the seed; per-patient streams are split from one seed
sequence so cohorts parallelise cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctmc import GeneratorMatrix, validate_generator
from .emissions import MISSING, BinningScheme, EmissionTable
from .errors import InvariantViolation, NonPositiveInterval
from .inference import SubtypeModel, Trajectory
from .learning import _apply_terminal_intervention, structure_mask
from .mixture import MixtureModel


@dataclass(frozen=True)
class ObservationTimeConfig:
    """Renewal process for observation times: count range and mean gap."""

    min_observations: int = 5
    max_observations: int = 40
    mean_gap: float = 1.0
    start: float = 0.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_observations <= self.max_observations:
            raise InvariantViolation("observation count range is empty")
        if self.mean_gap <= 0:
            raise InvariantViolation("mean gap must be positive")


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
    if horizon <= 0:
        raise NonPositiveInterval(f"horizon must be > 0, got {horizon}")
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


def sample_trajectory(
    model: SubtypeModel,
    obs_times: np.ndarray,
    missing_rate: float,
    seed: int | np.random.Generator,
    patient_id: str = "synthetic",
) -> tuple[Trajectory, np.ndarray]:
    """Sample one trajectory at the given times; also return the hidden states."""
    obs_times = np.asarray(obs_times, dtype=float)
    if obs_times.ndim != 1 or obs_times.size < 1:
        raise InvariantViolation("need at least one observation time")
    if np.any(np.diff(obs_times) <= 0):
        raise InvariantViolation("observation times must be strictly increasing")
    if not 0 <= missing_rate <= 1:
        raise InvariantViolation("missing rate must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    horizon = float(obs_times[-1] - obs_times[0])
    if horizon > 0:
        path = sample_hidden_path(model.generator, model.initial, horizon, rng)
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


def sample_cohort(
    mixture: MixtureModel,
    n_patients: int,
    time_config: ObservationTimeConfig | None = None,
    missing_rate: float = 0.0,
    seed: int = 0,
) -> SyntheticCohort:
    """Sample a labelled cohort from a mixture model."""
    if n_patients < 1:
        raise InvariantViolation("need at least one patient")
    time_config = time_config or ObservationTimeConfig()
    streams = np.random.SeedSequence(seed).spawn(n_patients)

    trajectories = []
    labels = np.empty(n_patients, dtype=int)
    hidden_states = []
    for i, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        label = int(rng.choice(mixture.n_subtypes, p=mixture.prior))
        n_obs = int(
            rng.integers(time_config.min_observations, time_config.max_observations + 1)
        )
        gaps = rng.exponential(time_config.mean_gap, size=n_obs - 1)
        times = time_config.start + np.concatenate([[0.0], np.cumsum(gaps)])
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
    rng = np.random.default_rng(seed)
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
        emissions = EmissionTable(tables=tuple(tables))
        if terminal_intervention_feature is not None:
            emissions = _apply_terminal_intervention(
                emissions, terminal_intervention_feature, smoothing
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
