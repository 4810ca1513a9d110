import numpy as np
import pytest

from cthmm_subtyping import (
    DimensionMismatch,
    EmConfig,
    InvariantViolation,
    MixtureModel,
    ObservationTimeConfig,
    TooFewPatients,
    Trajectory,
    assign_subtype,
    assign_subtypes,
    assignment_posteriors,
    fit_disease_model,
    fit_mixture,
    forward_backward,
    sample_cohort,
    sample_trajectory,
)
from cthmm_subtyping.inference import _Cohort
from cthmm_subtyping.mixture import _bin_histograms

from conftest import (
    best_permutation_accuracy,
    emission_total_variation,
    random_model,
    random_observations,
    random_times,
    separated_mixture,
    simple_scheme,
)
from oracles import quantize_gaps

TWO_SUBTYPE_PEAKS = [
    np.array([[0, 0], [1, 1], [2, 2]]),
    np.array([[4, 4], [3, 3], [1, 0]]),
]
TWO_SUBTYPE_RATES = [[0.5, 0.3], [0.25, 0.6]]


def _training_cohort(n=60, seed=17, missing=0.2):
    mixture = separated_mixture(TWO_SUBTYPE_PEAKS, TWO_SUBTYPE_RATES)
    cohort = sample_cohort(
        mixture,
        n,
        ObservationTimeConfig(min_observations=8, max_observations=20),
        missing_rate=missing,
        seed=seed,
    )
    return mixture, cohort


def _fit_config(**overrides):
    base = dict(
        seed=1,
        restarts=2,
        structure="left-to-right",
        max_iterations=40,
        delta_quantization=0.05,
    )
    base.update(overrides)
    return EmConfig(**base)


class TestFitMixture:
    def test_rescaling_time_by_a_power_of_two_rescales_the_fit_exactly(self):
        _, cohort = _training_cohort(n=120)
        fits = {}
        for k in (-10, -3, 0, 3, 10):
            scaled = [Trajectory(t.patient_id, t.times * 2.0**k, t.observations)
                      for t in cohort.trajectories]
            fits[k] = fit_mixture(scaled, 2, 3, _fit_config(delta_quantization=0.05 * 2.0**k))
        reference = fits[0]
        for k, fitted in fits.items():
            assert fitted.objective_trace == reference.objective_trace, k
            assert np.array_equal(fitted.assignments, reference.assignments)
            for model, expected in zip(fitted.models, reference.models, strict=True):
                assert np.array_equal(model.generator.rates * 2.0**k, expected.generator.rates)
                assert np.array_equal(model.initial, expected.initial)
                for table, expected_table in zip(model.emissions.tables,
                                                 expected.emissions.tables, strict=True):
                    assert np.array_equal(table, expected_table)

    def test_single_subtype_reduces_to_plain_fit(self):
        rng = np.random.default_rng(0)
        trajectories = []
        for i in range(8):
            n = int(rng.integers(2, 6))
            trajectories.append(
                Trajectory(
                    f"p{i}",
                    random_times(rng, n),
                    random_observations(rng, n, (3,)),
                )
            )
        config = EmConfig(seed=9, restarts=2, max_iterations=12)
        mixture = fit_mixture(trajectories, 1, 2, config)
        direct, _ = fit_disease_model(trajectories, 2, config)
        assert np.array_equal(mixture.models[0].initial, direct.initial)
        assert np.array_equal(mixture.models[0].generator.rates, direct.generator.rates)
        for a, b in zip(mixture.models[0].emissions.tables, direct.emissions.tables):
            assert np.array_equal(a, b)
        assert np.all(mixture.assignments == 0)

    def test_recovers_separated_subtypes(self):
        truth, cohort = _training_cohort(n=60, seed=17)
        assert emission_total_variation(truth.models[0], truth.models[1]) >= 0.5
        mixture = fit_mixture(cohort.trajectories, 2, 3, _fit_config())
        accuracy, _ = best_permutation_accuracy(mixture.assignments, cohort.labels, 2)
        assert accuracy >= 0.95

    def test_same_seed_identical_assignments(self):
        _, cohort = _training_cohort(n=30, seed=23)
        config = _fit_config(max_iterations=20)
        a = fit_mixture(cohort.trajectories, 2, 3, config)
        b = fit_mixture(cohort.trajectories, 2, 3, config)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.objective_trace == b.objective_trace

    def test_objective_trace_non_decreasing(self):
        _, cohort = _training_cohort(n=40, seed=29)
        mixture = fit_mixture(cohort.trajectories, 2, 3, _fit_config())
        diffs = np.diff(mixture.objective_trace)
        assert diffs.min() > -1e-8

    def test_fixed_point_of_assignment(self):
        _, cohort = _training_cohort(n=30, seed=31)
        mixture = fit_mixture(cohort.trajectories, 2, 3, _fit_config(max_iterations=25))
        reassigned = np.array(
            [
                assign_subtype(mixture, t)[0]
                for t in quantize_gaps(cohort.trajectories, 0.05)
            ]
        )
        assert np.array_equal(reassigned, mixture.assignments)

    def test_needs_at_least_one_subtype(self):
        rng = np.random.default_rng(1)
        t = Trajectory("p", np.array([0.0]), random_observations(rng, 1, (2,)))
        with pytest.raises(InvariantViolation):
            fit_mixture([t], 0, 2, EmConfig())

    def test_nan_prior_rejected(self):
        model = random_model(np.random.default_rng(2), 2, (2,))
        with pytest.raises(InvariantViolation, match="prior"):
            MixtureModel((model, model), np.array([np.nan, 1.0]), np.empty(0, int), [])

    def test_histograms_take_scheme_bins(self):
        rng = np.random.default_rng(3)
        cohort = [
            Trajectory(f"p{i}", random_times(rng, 6), random_observations(rng, 6, (3, 2)))
            for i in range(5)
        ]
        inferred = _bin_histograms(_Cohort.of(cohort, (3, 2)))
        widened = _bin_histograms(_Cohort.of(cohort, (5, 4)))
        assert inferred.shape == (5, 5)
        assert widened.shape == (5, 9)
        assert np.array_equal(widened[:, [0, 1, 2, 5, 6]], inferred)
        assert np.all(widened[:, [3, 4, 7, 8]] == 0.0)

    def test_bins_come_from_the_whole_cohort(self):
        # Half the patients only use bins {0, 1}, the other half {3, 4}: each
        # subtype's members alone would imply a different bin count.
        rng = np.random.default_rng(12)
        cohort = []
        for i in range(40):
            low = 0 if i % 2 == 0 else 3
            n = int(rng.integers(4, 9))
            observations = (low + rng.integers(0, 2, size=(n, 1))).astype(int)
            cohort.append(Trajectory(f"p{i}", random_times(rng, n), observations))
        config = EmConfig(seed=2, restarts=1, max_iterations=6, mixture_iterations=4)
        mixture = fit_mixture(cohort, 2, 1, config)
        assert all(model.emissions.bin_counts == (5,) for model in mixture.models)
        accuracy, _ = best_permutation_accuracy(mixture.assignments, np.arange(40) % 2, 2)
        assert accuracy == 1.0

    def test_scheme_bins_must_cover_observed_bins(self):
        rng = np.random.default_rng(13)
        cohort = [
            Trajectory(f"p{i}", random_times(rng, 4), np.full((4, 2), i % 5)) for i in range(6)
        ]
        with pytest.raises(DimensionMismatch):
            fit_mixture(cohort, 2, 1, EmConfig(restarts=1), scheme=simple_scheme(bins=3))

    def test_too_few_patients(self):
        rng = np.random.default_rng(1)
        t = Trajectory("p", np.array([0.0]), random_observations(rng, 1, (2,)))
        with pytest.raises(TooFewPatients):
            fit_mixture([t], 2, 2, EmConfig())

    def test_empty_subtype_repair_keeps_all_subtypes_alive(self):
        rng = np.random.default_rng(2)
        # Identical patients: one subtype would swallow everything.
        base_times = random_times(rng, 5)
        base_obs = random_observations(rng, 5, (3,), missing_rate=0.0)
        trajectories = [
            Trajectory(f"p{i}", base_times, base_obs) for i in range(6)
        ]
        config = EmConfig(seed=3, restarts=1, max_iterations=6, mixture_iterations=4)
        mixture = fit_mixture(trajectories, 2, 1, config)
        counts = np.bincount(mixture.assignments, minlength=2)
        assert np.all(counts > 0)


class TestAssignSubtype:
    def test_single_subtype_always_zero(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 2, (3,))
        mixture = MixtureModel(
            models=(model,),
            prior=np.array([1.0]),
            assignments=np.empty(0, dtype=int),
            objective_trace=[],
        )
        t = Trajectory("p", np.array([0.0, 1.0]), np.array([[0], [1]]))
        subtype, scores = assign_subtype(mixture, t)
        assert subtype == 0
        assert scores.shape == (1,)

    def test_identical_models_tie_break_to_lowest_index(self):
        rng = np.random.default_rng(4)
        model = random_model(rng, 2, (3,))
        mixture = MixtureModel(
            models=(model, model, model),
            prior=np.full(3, 1 / 3),
            assignments=np.empty(0, dtype=int),
            objective_trace=[],
        )
        t = Trajectory("p", np.array([0.0, 0.7]), np.array([[2], [0]]))
        subtype, scores = assign_subtype(mixture, t)
        assert subtype == 0
        assert scores[0] == scores[1] == scores[2]

    def test_recovers_generating_subtype(self):
        mixture = separated_mixture(TWO_SUBTYPE_PEAKS, TWO_SUBTYPE_RATES)
        times = np.cumsum(np.full(12, 0.8))
        trajectory, _ = sample_trajectory(mixture.models[1], times, 0.1, seed=44, patient_id="x")
        subtype, _ = assign_subtype(mixture, trajectory)
        assert subtype == 1

    def test_filtered_law_belongs_to_chosen_subtype(self):
        mixture = separated_mixture(TWO_SUBTYPE_PEAKS, TWO_SUBTYPE_RATES)
        times = np.cumsum(np.full(9, 0.7))
        for seed in range(4):
            trajectory, _ = sample_trajectory(mixture.models[seed % 2], times, 0.3, seed=seed)
            best, scores, filtered = assign_subtypes(mixture, [trajectory])
            expected_subtype, expected_scores = assign_subtype(mixture, trajectory)
            assert best[0] == expected_subtype
            assert np.array_equal(scores[0], expected_scores)
            gamma = forward_backward(mixture.models[best[0]], trajectory).gamma
            assert filtered[0] == pytest.approx(gamma[-1], rel=1e-12, abs=1e-15)

    def test_argmax_invariant_to_constant_score_shift(self):
        mixture = separated_mixture(TWO_SUBTYPE_PEAKS, TWO_SUBTYPE_RATES)
        times = np.cumsum(np.full(6, 1.0))
        trajectory, _ = sample_trajectory(mixture.models[0], times, 0.2, seed=45)
        subtype, scores = assign_subtype(mixture, trajectory)
        assert int(np.argmax(scores + 123.45)) == subtype

    def test_label_permutation_equivariance(self):
        mixture = separated_mixture(TWO_SUBTYPE_PEAKS, TWO_SUBTYPE_RATES)
        permuted = MixtureModel(
            models=(mixture.models[1], mixture.models[0]),
            prior=mixture.prior,
            assignments=np.empty(0, dtype=int),
            objective_trace=[],
        )
        times = np.cumsum(np.full(10, 0.9))
        for seed in range(5):
            trajectory, _ = sample_trajectory(
                mixture.models[seed % 2], times, 0.2, seed=seed
            )
            original, scores = assign_subtype(mixture, trajectory)
            swapped, swapped_scores = assign_subtype(permuted, trajectory)
            assert swapped == 1 - original
            assert swapped_scores == pytest.approx(scores[::-1])


class TestAssignSubtypes:
    def test_cohort_call_matches_per_patient_calls(self):
        mixture = separated_mixture(
            TWO_SUBTYPE_PEAKS + [np.array([[2, 4], [2, 2], [0, 4]])],
            TWO_SUBTYPE_RATES + [[0.4, 0.4]],
        )
        cohort = sample_cohort(
            mixture,
            50,
            ObservationTimeConfig(min_observations=1, max_observations=15),
            missing_rate=0.3,
            seed=47,
        ).trajectories
        best, scores, filtered = assign_subtypes(mixture, cohort)
        assert best.shape == (50,) and scores.shape == (50, 3) and filtered.shape == (50, 3)
        for b, trajectory in enumerate(cohort):
            subtype, expected = assign_subtype(mixture, trajectory)
            assert best[b] == subtype
            assert np.array_equal(scores[b], expected)

    def test_ties_go_to_lowest_index(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, 2, (3,))
        mixture = MixtureModel(
            models=(model, model),
            prior=np.array([0.5, 0.5]),
            assignments=np.empty(0, dtype=int),
            objective_trace=[],
        )
        cohort = [
            Trajectory(f"p{i}", random_times(rng, 4), random_observations(rng, 4, (3,)))
            for i in range(5)
        ]
        best, scores, _ = assign_subtypes(mixture, cohort)
        assert np.all(best == 0)
        assert np.array_equal(scores[:, 0], scores[:, 1])


class TestAssignmentPosteriors:
    def test_identical_models_give_uniform(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, (3,))
        mixture = MixtureModel(
            models=(model, model),
            prior=np.array([0.5, 0.5]),
            assignments=np.empty(0, dtype=int),
            objective_trace=[],
        )
        t = Trajectory("p", np.array([0.0, 1.2]), np.array([[1], [2]]))
        assert assignment_posteriors(mixture, t) == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_degenerate_prior_wins(self):
        rng = np.random.default_rng(6)
        mixture = MixtureModel(
            models=(random_model(rng, 2, (3,)), random_model(rng, 2, (3,))),
            prior=np.array([1.0, 0.0]),
            assignments=np.empty(0, dtype=int),
            objective_trace=[],
        )
        t = Trajectory("p", np.array([0.0, 1.0]), np.array([[0], [2]]))
        assert assignment_posteriors(mixture, t) == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_matches_direct_softmax(self):
        mixture = separated_mixture(TWO_SUBTYPE_PEAKS, TWO_SUBTYPE_RATES)
        times = np.cumsum(np.full(7, 1.1))
        trajectory, _ = sample_trajectory(mixture.models[0], times, 0.3, seed=46)
        _, scores = assign_subtype(mixture, trajectory)
        direct = np.exp(scores - scores.max())
        direct /= direct.sum()
        posterior = assignment_posteriors(mixture, trajectory)
        assert posterior == pytest.approx(direct, abs=1e-12)
        assert posterior.sum() == pytest.approx(1.0, abs=1e-12)
