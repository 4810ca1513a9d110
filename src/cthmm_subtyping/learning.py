"""EM training of subtype models, many fits in lockstep.

A fit is a start model and the member trajectories it is fitted to:
the seeded restarts of one subtype share a cohort, and the subtypes of
a mixture have disjoint member sets.  Every iteration runs one
pair-packed forward-backward pass over the fits still running and
accumulates, per fit, three sufficient statistics: posterior-weighted
emission counts, initial-state posteriors, and pairwise hidden-state
counts per distinct time gap between consecutive observations.  The
M-step has closed forms for all three parameter blocks; the generator
update divides end-conditioned expected jump counts by end-conditioned
expected sojourn times, both aggregated over the per-gap pair counts.
Each fit keeps its own stopping rule, so its iterates are those of a
run on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .ctmc import (
    P_FLOOR,
    RATE_MAX,
    RATE_MIN,
    GeneratorMatrix,
    _checked,
    _generator_kernels,
    _interval_integral,
    full_mask,
    left_to_right_mask,
    validate_generator,
)
from .emissions import EmissionTable, feature_totals, split_features
from .errors import (
    DimensionMismatch,
    ImpossibleTrajectory,
    InvariantViolation,
    SubtypingError,
)
from .inference import SubtypeModel, Trajectory, _Cohort, _forward_backward, _pack, _Packing

_OCCUPANCY_FLOOR = 1e-10


@dataclass
class SufficientStats:
    """Accumulated E-step statistics for one model over a cohort.

    ``gaps`` holds the sorted distinct inter-observation gaps (shape G) and
    ``pair_counts[g]`` the K x K posterior counts of (state before, state
    after) pairs at gap ``gaps[g]`` (shape G x K x K).
    ``emission_counts`` holds the posterior counts of every (state, bin)
    pair (K x C) in the stacked layout of ``bin_counts``, C being their sum.
    ``generator`` is the generator the statistics were accumulated under,
    the one the generator update revises, and ``transition_probs[g]`` its
    P(``gaps[g]``) from the E-step.  Statistics built by hand may leave the
    kernels out; the update then builds them from ``generator``.
    """

    gaps: np.ndarray
    pair_counts: np.ndarray
    gamma_initial: np.ndarray
    emission_counts: np.ndarray
    bin_counts: tuple[int, ...]
    generator: GeneratorMatrix | None = None
    transition_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.emission_counts.shape[-1] != sum(self.bin_counts):
            raise InvariantViolation("emission counts do not match their bin counts")
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
        integers = ["max_iterations", "restarts", "mixture_iterations"]
        if self.terminal_intervention_feature is not None:
            integers.append("terminal_intervention_feature")
        for name in integers:
            _checked_integer(name, getattr(self, name))
        _checked_seed(self.seed)
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
        if self.delta_quantization is not None:
            _check_step(self.delta_quantization)
        if not 0 <= self.smoothing < np.inf:
            raise InvariantViolation(f"smoothing must be finite and >= 0, got {self.smoothing}")
        if self.terminal_intervention_feature is not None and not self.smoothing < 0.5:
            # The smoothing is the pinned table's epsilon; from 0.5 up the pin inverts.
            raise InvariantViolation(
                f"smoothing must be below 0.5 with a pinned intervention, got {self.smoothing}"
            )


@dataclass
class FitDiagnostics:
    """What happened during a fit, for logging and reports."""

    iterations: int = 0
    converged: bool = False
    log_likelihood: float = -np.inf
    trace: list[float] = field(default_factory=list)
    restart_scores: list[float] = field(default_factory=list)
    degenerate_events: int = 0


def _checked_integer(name: str, value: int) -> int:
    """``value``, if it is an integer other than a bool; otherwise :class:`InvariantViolation`."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvariantViolation(f"{name} must be an integer, got {value!r}")
    return value


def _checked_seed(seed: int) -> int:
    """``seed``, if it is an integer >= 0; otherwise :class:`InvariantViolation`."""
    if _checked_integer("seed", seed) < 0:
        raise InvariantViolation(f"seed must be >= 0, got {seed}")
    return seed


def structure_mask(kind: str, n_states: int) -> np.ndarray:
    if kind == "left-to-right":
        return left_to_right_mask(n_states)
    return full_mask(n_states)


def _check_step(step: float) -> None:
    """Raise :class:`InvariantViolation` unless ``step`` is a finite, positive gap grid."""
    if not 0 < step < np.inf:
        raise InvariantViolation(f"delta_quantization must be finite and > 0, got {step}")


def quantize_gaps(trajectories: list[Trajectory], step: float) -> list[Trajectory]:
    """Snap inter-observation gaps to a grid, keeping the first timestamps.

    Gaps round to the nearest multiple of ``step`` but never below one
    step, so timestamps stay strictly increasing.  Every quantized time
    sits on one lattice of a power-of-two ``unit`` shared by the cohort:
    the ulp of the largest quantized time, with one bit of headroom.  The
    step snaps to a whole number of units (at least one), so sums and
    differences of times are exact and equal tick counts give bitwise
    equal gaps in every trajectory.  Applying this before training leaves
    one matrix exponential per grid value without touching the data
    files themselves.  First timestamps move to the lattice, by at most
    half a unit.  ``step`` must be finite and positive.
    """
    _check_step(step)
    cohort = _quantized(_Cohort.of(trajectories), step)
    times = np.split(cohort.times, cohort.starts[1:])
    return [Trajectory(t.patient_id, q, t.observations) for t, q in zip(trajectories, times)]


def _quantized(cohort: _Cohort, step: float) -> _Cohort:
    """:func:`quantize_gaps` of a cohort, as one cohort."""
    first = cohort.times[cohort.starts]
    last = cohort.times[cohort.starts + cohort.lengths - 1]
    # Bounds every quantized |time|; the doubling is the headroom bit.
    reach = np.max(np.abs(first) + last - first + (cohort.lengths - 1) * step, initial=step)
    unit = np.spacing(2.0 * reach)
    step_units = max(np.rint(step / unit), 1.0)
    # Count ticks against the snapped step: below the time resolution
    # the requested one would inflate every gap.
    ticks = np.maximum(np.rint(cohort.gaps / (step_units * unit)), 1.0) * step_units
    # Each trajectory's tick total is a whole number below 2**53, so its
    # running sums are exact as integers, even where the cohort-wide sum
    # wraps modulo 2**64.  A trajectory's first row takes zero ticks.
    firsts = cohort.starts - np.arange(len(cohort))
    running = np.cumsum(np.insert(ticks.astype(np.int64), firsts, 0))
    offsets = running - np.repeat(running[cohort.starts], cohort.lengths)
    times = (np.repeat(np.rint(first / unit), cohort.lengths) + offsets) * unit
    return replace(cohort, times=times)


def _scatter_rows(index: np.ndarray, rows: np.ndarray, length: int) -> np.ndarray:
    """``out[index[i]] += rows[i]`` for every i, as one weighted ``np.bincount``.

    ``rows`` broadcasts to ``index.shape + (w,)``; returns (length, w).
    Each cell adds its terms in the order of i, as an unbuffered
    scatter-add does, so the sums are bitwise those of ``np.add.at``.
    """
    width = rows.shape[-1]
    cells = (index[..., None] * width + np.arange(width)).ravel()
    weights = np.broadcast_to(rows, index.shape + (width,)).ravel()
    return np.bincount(cells, weights, minlength=length * width).reshape(length, width)


def _e_steps(
    packing: _Packing, models: list[SubtypeModel]
) -> list[tuple[SufficientStats, float] | SubtypingError]:
    """One E-step per model from one pair-packed forward-backward pass.

    Model m's statistics cover only its own members and its own distinct
    gaps, so they equal those of an E-step run on it alone.  A model whose
    kernels failed the drift guard gets its :class:`ExpmInaccuracy` in
    place of its statistics, and one under which a member has probability
    zero an :class:`ImpossibleTrajectory`; the others are untouched.  The
    kernel failure is looked for first, since NaN kernels also make a
    member impossible.
    """
    log_likelihoods, gammas, xis, _, all_kernels, failures = _forward_backward(models, packing)
    cohort = packing.cohort
    pair_bounds = np.searchsorted(packing.pair_model, np.arange(len(models) + 1))
    row_bounds = np.append(packing.starts, gammas.shape[0])[pair_bounds]
    out: list[tuple[SufficientStats, float] | SubtypingError] = []
    for m, model in enumerate(models):
        if failures[m] is not None:
            out.append(failures[m])
            continue
        pairs = slice(pair_bounds[m], pair_bounds[m + 1])
        members = packing.pair_member[pairs]
        log_likelihood = log_likelihoods[pairs]
        impossible = np.nonzero(~np.isfinite(log_likelihood))[0]
        if impossible.size:
            b = impossible[0]
            out.append(ImpossibleTrajectory(
                f"patient {cohort.patient_ids[members[b]]!r} has log-likelihood "
                f"{log_likelihood[b]} under the current model"
            ))
            continue
        rows = slice(row_bounds[m], row_bounds[m + 1])
        # xi has one row fewer per pair than gamma.
        steps = slice(row_bounds[m] - pairs.start, row_bounds[m + 1] - pairs.stop)
        own = slice(packing.gap_starts[m], packing.gap_starts[m + 1])
        gamma = gammas[rows]
        bin_counts = model.emissions.bin_counts
        columns = cohort.columns(bin_counts)[packing.source[packing.rows[rows]]]
        counts = _scatter_rows(columns, gamma[:, None, :], sum(bin_counts) + 1)
        kernels = all_kernels[own]
        pair_counts = _scatter_rows(packing.slot[packing.pair_rows[steps]] - own.start,
                                    xis[steps].reshape(-1, model.n_states**2),
                                    len(kernels))
        stats = SufficientStats(
            gaps=packing.gaps[own],
            pair_counts=pair_counts.reshape(kernels.shape),
            gamma_initial=gamma[packing.starts[pairs] - rows.start].sum(axis=0),
            emission_counts=np.ascontiguousarray(counts[:-1].T),
            bin_counts=bin_counts,
            generator=model.generator,
            transition_probs=kernels,
        )
        out.append((stats, float(log_likelihood.sum())))
    return out


def e_step(
    model: SubtypeModel, trajectories: list[Trajectory]
) -> tuple[SufficientStats, float]:
    """Accumulate sufficient statistics and the total log-likelihood.

    One batched forward-backward pass covers the whole cohort; its
    distinct gaps index both the transition kernels and the pair-count
    slots, and the kernels ride along on the statistics for the generator
    update.  Raises :class:`ExpmInaccuracy` for a kernel past the drift
    guard, and :class:`ImpossibleTrajectory` for a trajectory with
    probability zero under ``model``, whose posteriors are undefined.
    """
    cohort = _Cohort.of(trajectories, model.n_features)
    (result,) = _e_steps(_pack(cohort, [np.arange(len(cohort))]), [model])
    if isinstance(result, SubtypingError):
        raise result
    return result


def m_step_emissions(stats: SufficientStats, smoothing: float) -> EmissionTable:
    """Closed-form emission update: smoothed ratio of posterior counts.

    With smoothing zero and a feature's counts all zero in a state the
    ratio is undefined; that feature falls back to uniform in that state
    so the table stays a valid distribution.
    """
    counts, bin_counts = stats.emission_counts, stats.bin_counts
    bins = np.repeat(bin_counts, bin_counts)  # bin count of each column's feature
    smoothed = counts + smoothing
    denom = feature_totals(counts, bin_counts) + bins * smoothing
    table = np.where(denom > 0, smoothed / np.where(denom > 0, denom, 1.0), 1.0 / bins)
    table = table / feature_totals(table, bin_counts)
    return EmissionTable(tables=tuple(split_features(table, bin_counts)))


def m_step_initial(stats: SufficientStats) -> np.ndarray:
    """Closed-form initial-distribution update: normalised first-step posteriors."""
    total = stats.gamma_initial.sum()
    if not total > 0:  # also NaN
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
    expm([[Q, A^T], [0, Q]] gap), summed over the gaps by one
    ``_interval_integral`` call, gives the sojourn times on its diagonal
    and the jumps as Q * D^T.  P(gap) is the E-step's kernel when ``stats`` carry one;
    one built here past the drift guard raises :class:`ExpmInaccuracy`.
    """
    previous = stats.generator
    if previous is None:
        raise InvariantViolation("statistics carry no generator to update")
    probs = stats.transition_probs
    if probs is None:
        probs = _checked(*_generator_kernels([previous], stats.gaps))[0]
    reachable = probs >= P_FLOOR
    weights = np.where(reachable, stats.pair_counts / np.where(reachable, probs, 1.0), 0.0)
    integral = _interval_integral(
        previous.rates, previous.spectrum, weights.transpose(0, 2, 1), stats.gaps
    )
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
    stuck = denom < _OCCUPANCY_FLOOR
    degenerate = tuple(int(a) for a in np.nonzero(mask.any(axis=1) & stuck)[0])
    with np.errstate(divide="ignore", invalid="ignore"):  # stuck rows take no ratio
        ratio = np.clip(numer / denom[:, None], RATE_MIN, RATE_MAX)
    rates = np.where(stuck[:, None], np.abs(previous.rates), ratio) * mask
    return validate_generator(rates, mask), degenerate


def _bin_counts(cohort: _Cohort, bin_counts: tuple[int, ...]) -> np.ndarray:
    """Observed count of every bin per trajectory (B, C)."""
    width = sum(bin_counts) + 1
    patient = np.repeat(np.arange(len(cohort)), cohort.lengths)
    cells = (patient[:, None] * width + cohort.columns(bin_counts)).ravel()
    return np.bincount(cells, minlength=len(cohort) * width).reshape(-1, width)[:, :-1]


def _empirical_bin_frequencies(
    cohort: _Cohort, members: np.ndarray, bin_counts: tuple[int, ...], smoothing: float
) -> np.ndarray:
    """Smoothed observed frequency of every bin (C,) in trajectories
    ``members``, normalised per feature."""
    smoothed = _bin_counts(cohort, bin_counts)[members].sum(axis=0) + max(smoothing, 1e-6)
    return smoothed / feature_totals(smoothed, bin_counts)


def _apply_terminal_intervention(
    table: EmissionTable, feature: int | None, epsilon: float
) -> EmissionTable:
    """Pin the intervention indicator, if any: certain in the last state, absent before."""
    if feature is None:
        return table
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
    base_freqs: np.ndarray,
    rate_scale: float,
) -> SubtypeModel:
    pi = rng.dirichlet(np.ones(n_states))
    mask = structure_mask(config.structure, n_states)
    raw = rng.uniform(0.01, 1.0, size=(n_states, n_states)) * rate_scale * mask
    generator = validate_generator(raw, mask)
    # One draw per feature, in feature order, keeps the seeded stream.
    noise = np.hstack([rng.uniform(-1.0, 1.0, size=(n_states, j)) for j in bin_counts])
    table = base_freqs * (1.0 + 0.2 * noise)
    table = table / feature_totals(table, bin_counts)
    emissions = _apply_terminal_intervention(
        EmissionTable(tables=tuple(split_features(table, bin_counts))),
        config.terminal_intervention_feature, config.smoothing,
    )
    return SubtypeModel(initial=pi, generator=generator, emissions=emissions)


def _m_step(stats: SufficientStats, config: EmConfig) -> tuple[SubtypeModel, tuple[int, ...]]:
    """All three closed-form updates; also returns the degenerate states."""
    emissions = _apply_terminal_intervention(
        m_step_emissions(stats, config.smoothing),
        config.terminal_intervention_feature, config.smoothing,
    )
    pi = m_step_initial(stats)
    generator, degenerate = m_step_generator(stats)
    return SubtypeModel(initial=pi, generator=generator, emissions=emissions), degenerate


def _run_em(
    cohort: _Cohort,
    fits: list[tuple[np.ndarray, SubtypeModel]],
    config: EmConfig,
) -> list[tuple[SubtypeModel, FitDiagnostics] | SubtypingError]:
    """EM for every fit in lockstep; fit f is (member indices, start model).

    Each iteration is one pair-packed E-step over the fits still running.
    A fit stops by its own tolerance test or after ``max_iterations``
    M-steps, when one more E-step scores the final model so it matches
    the last trace entry; the batch is repacked only when a fit leaves it.
    Returns each fit's model and diagnostics, or the
    :class:`SubtypingError` that ended it: :func:`_e_steps` reports a
    broken kernel or an impossible member per fit, and an M-step error
    stays with its fit, so one fit's error leaves the others alone.
    """
    models = [model for _, model in fits]
    diagnostics = [FitDiagnostics() for _ in fits]
    outcomes: list = [None] * len(fits)
    active = list(range(len(fits)))
    packing = None
    while active:
        if packing is None:
            packing = _pack(cohort, [fits[f][0] for f in active])
        running = []
        for f, result in zip(active, _e_steps(packing, [models[f] for f in active])):
            if isinstance(result, SubtypingError):
                outcomes[f] = result
                continue
            stats, ll = result
            diag = diagnostics[f]
            if diag.iterations < config.max_iterations and diag.trace:
                diag.converged = abs(ll - diag.trace[-1]) / (abs(ll) + 1.0) < config.tolerance
            diag.trace.append(ll)
            if diag.converged or diag.iterations == config.max_iterations:
                diag.log_likelihood = ll
                outcomes[f] = (models[f], diag)
                continue
            try:
                models[f], degenerate = _m_step(stats, config)
            except SubtypingError as err:
                outcomes[f] = err
                continue
            diag.iterations += 1
            diag.degenerate_events += len(degenerate)
            running.append(f)
        if running != active:
            packing = None
        active = running
    return outcomes


def _prepare_cohort(
    trajectories: list[Trajectory],
    config: EmConfig,
    bin_counts: tuple[int, ...] | None = None,
) -> tuple[_Cohort, tuple[int, ...]]:
    """Check a training cohort, fix its bin counts and, when
    ``config.delta_quantization`` is set, snap its gaps to that grid.

    Without given counts each feature gets its largest observed bin index
    plus one, and at least two bins.
    """
    cohort = _Cohort.of(trajectories)
    if not len(cohort):
        raise InvariantViolation("cannot fit a model with no trajectories")
    observed_max = cohort.observations.max(axis=0)
    if bin_counts is None:
        bin_counts = tuple(int(m) + 1 for m in np.maximum(observed_max, 1))
    if len(bin_counts) != observed_max.size or np.any(observed_max >= bin_counts):
        raise DimensionMismatch(f"bin counts {bin_counts} miss observed bin indices {observed_max}")
    if not np.isfinite(config.smoothing * max(bin_counts, default=0)):
        raise InvariantViolation(f"smoothing {config.smoothing} overflows over {bin_counts} bins")
    if config.delta_quantization is not None:
        cohort = _quantized(cohort, config.delta_quantization)
    return cohort, tuple(bin_counts)


def _restarts(
    cohort: _Cohort,
    members: np.ndarray,
    n_states: int,
    bin_counts: tuple[int, ...],
    config: EmConfig,
) -> list[tuple[np.ndarray, SubtypeModel]]:
    """The seeded restart fits of one model on trajectories ``members`` of ``cohort``.

    Start rates are per the cohort's mean gap rounded to a power of two, so
    rescaling every time by 2^k rescales the fits exactly."""
    if n_states < 1:
        raise InvariantViolation("need at least one state")
    base_freqs = _empirical_bin_frequencies(cohort, members, bin_counts, config.smoothing)
    rate_scale = np.exp2(-np.rint(np.log2(cohort.gaps.mean()))) if cohort.gaps.size else 1.0
    seeds = np.random.SeedSequence(config.seed).spawn(config.restarts)
    return [
        (members, _random_start(n_states, bin_counts, config, np.random.default_rng(seq),
                                base_freqs, rate_scale))
        for seq in seeds
    ]


def _best_restart(
    outcomes: list[tuple[SubtypeModel, FitDiagnostics] | SubtypingError],
) -> tuple[SubtypeModel, FitDiagnostics]:
    """The restart with the highest final log-likelihood, first on ties.

    A failed restart scores -inf in ``restart_scores``; when every
    restart failed, the last one's error is raised.
    """
    fitted = [outcome for outcome in outcomes if not isinstance(outcome, SubtypingError)]
    if not fitted:
        raise outcomes[-1]
    best = max(fitted, key=lambda outcome: outcome[1].log_likelihood)
    best[1].restart_scores = [
        -np.inf if isinstance(outcome, SubtypingError) else outcome[1].log_likelihood
        for outcome in outcomes
    ]
    return best


def _fit_sets(
    cohort: _Cohort,
    start_sets: list[list[tuple[np.ndarray, SubtypeModel]]],
    config: EmConfig,
) -> list[tuple[SubtypeModel, FitDiagnostics]]:
    """Each set's :func:`_best_restart`, in set order (the first set of failed fits raises),
    from one lockstep :func:`_run_em` over every (members, start model) fit of every set."""
    outcomes = iter(_run_em(cohort, [fit for fits in start_sets for fit in fits], config))
    return [_best_restart([next(outcomes) for _ in fits]) for fits in start_sets]


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
    cohort, bin_counts = _prepare_cohort(trajectories, config, bin_counts)
    fits = _restarts(cohort, np.arange(len(cohort)), n_states, bin_counts, config)
    return _fit_sets(cohort, [fits], config)[0]
