import numpy as np
import pytest
from scipy.linalg import expm

from cthmm_subtyping import (
    MISSING,
    EmissionTable,
    ObservationTimeConfig,
    SubtypeModel,
    full_mask,
    sample_cohort,
    sample_hidden_path,
    sample_trajectory,
    validate_generator,
)

from conftest import chain_model, separated_mixture


def _absorbing_two_state(rate=1.0):
    return validate_generator(np.array([[0.0, rate], [0.0, 0.0]]), full_mask(2))


class TestSampleHiddenPath:
    def test_zero_generator_never_moves(self):
        q = validate_generator(np.zeros((3, 3)), full_mask(3))
        path = sample_hidden_path(q, np.array([0.0, 1.0, 0.0]), 50.0, seed=1)
        assert path.states.tolist() == [1]
        assert path.times.tolist() == [0.0]

    def test_mean_holding_time_matches_rate(self):
        q = _absorbing_two_state(rate=1.0)
        holds = []
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            path = sample_hidden_path(q, np.array([1.0, 0.0]), 10_000.0, rng)
            if path.states.size > 1:
                holds.append(path.times[1])
        holds = np.array(holds)
        se = holds.std(ddof=1) / np.sqrt(holds.size)
        assert abs(holds.mean() - 1.0) <= 3 * se

    def test_left_to_right_paths_never_decrease(self):
        model = chain_model([0.8, 0.6, 0.9], np.zeros((4, 1), dtype=int))
        rng = np.random.default_rng(3)
        for _ in range(200):
            path = sample_hidden_path(model.generator, model.initial, 8.0, rng)
            assert np.all(np.diff(path.states) >= 1)

    def test_state_at_interpolates_piecewise(self):
        q = _absorbing_two_state(rate=2.0)
        path = sample_hidden_path(q, np.array([1.0, 0.0]), 100.0, seed=4)
        assert path.state_at(0.0) == 0
        if path.times.size > 1:
            jump = path.times[1]
            assert path.state_at(jump - 1e-9) == 0
            assert path.state_at(jump) == 1

    def test_occupancy_matches_matrix_exponential(self):
        raw = np.array([[0.0, 0.9, 0.3], [0.2, 0.0, 0.7], [0.5, 0.1, 0.0]])
        q = validate_generator(raw, full_mask(3))
        initial = np.array([0.6, 0.3, 0.1])
        t_check = 1.4
        rng = np.random.default_rng(5)
        n = 30_000
        hits = np.zeros(3)
        for _ in range(n):
            path = sample_hidden_path(q, initial, t_check + 1e-9, rng)
            hits[path.state_at(t_check)] += 1
        freq = hits / n
        expected = initial @ expm(q.rates * t_check)
        se = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(freq - expected) <= 3 * se + 1e-12)


class TestSampleTrajectory:
    def test_full_masking_hides_everything_but_keeps_states(self):
        model = chain_model([0.5], np.array([[0], [4]]))
        times = np.arange(6.0)
        trajectory, hidden = sample_trajectory(model, times, 1.0, seed=6)
        assert np.all(trajectory.observations == MISSING)
        assert hidden.shape == (6,)
        assert set(hidden.tolist()) <= {0, 1}

    def test_point_mass_emissions_are_constant(self):
        q = validate_generator(np.zeros((1, 1)), full_mask(1))
        model = SubtypeModel(
            initial=np.array([1.0]),
            generator=q,
            emissions=EmissionTable(tables=(np.array([[0.0, 0.0, 1.0]]),)),
        )
        trajectory, _ = sample_trajectory(model, np.arange(8.0), 0.0, seed=7)
        assert np.all(trajectory.observations == 2)

    def test_empirical_frequencies_match_emission_table(self):
        q = validate_generator(np.zeros((1, 1)), full_mask(1))
        table = np.array([[0.5, 0.2, 0.3]])
        model = SubtypeModel(
            initial=np.array([1.0]),
            generator=q,
            emissions=EmissionTable(tables=(table,)),
        )
        n = 4000
        trajectory, _ = sample_trajectory(
            model, np.arange(float(n)), 0.0, seed=8
        )
        freq = np.bincount(trajectory.observations[:, 0], minlength=3) / n
        se = np.sqrt(table[0] * (1 - table[0]) / n)
        assert np.all(np.abs(freq - table[0]) <= 3 * se + 1e-12)

    def test_single_time_point(self):
        model = chain_model([0.5], np.array([[0], [4]]))
        trajectory, hidden = sample_trajectory(model, np.array([3.0]), 0.0, seed=9)
        assert trajectory.length == 1
        assert hidden.shape == (1,)


class TestSampleCohort:
    def test_single_patient_with_degenerate_prior(self):
        base = separated_mixture([np.array([[0], [4]])], [[0.5]])
        cohort = sample_cohort(base, 1, seed=10)
        assert cohort.labels.tolist() == [0]
        assert len(cohort.trajectories) == 1

    def test_label_frequencies_match_prior(self):
        mixture = separated_mixture(
            [np.array([[0], [2]]), np.array([[4], [3]])], [[0.5], [0.5]]
        )
        n = 10_000
        cohort = sample_cohort(
            mixture,
            n,
            ObservationTimeConfig(min_observations=1, max_observations=2),
            seed=11,
        )
        share = np.mean(cohort.labels == 0)
        se = np.sqrt(0.25 / n)
        assert abs(share - 0.5) <= 3 * se

    def test_same_seed_identical_cohort(self):
        mixture = separated_mixture(
            [np.array([[0], [2]]), np.array([[4], [3]])], [[0.4], [0.7]]
        )
        a = sample_cohort(mixture, 25, missing_rate=0.3, seed=12)
        b = sample_cohort(mixture, 25, missing_rate=0.3, seed=12)
        assert np.array_equal(a.labels, b.labels)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert ta.patient_id == tb.patient_id
            assert np.array_equal(ta.times, tb.times)
            assert np.array_equal(ta.observations, tb.observations)
        for ha, hb in zip(a.hidden_states, b.hidden_states):
            assert np.array_equal(ha, hb)

    def test_observation_counts_respect_config(self):
        mixture = separated_mixture([np.array([[0], [2]])], [[0.5]])
        cohort = sample_cohort(
            mixture,
            40,
            ObservationTimeConfig(min_observations=3, max_observations=7),
            seed=13,
        )
        lengths = [t.length for t in cohort.trajectories]
        assert min(lengths) >= 3 and max(lengths) <= 7

    def test_bad_config_rejected(self):
        from cthmm_subtyping import InvariantViolation

        with pytest.raises(InvariantViolation):
            ObservationTimeConfig(min_observations=5, max_observations=4)
        with pytest.raises(InvariantViolation):
            ObservationTimeConfig(mean_gap=0.0)
        with pytest.raises(InvariantViolation):
            ObservationTimeConfig(mean_gap=float("nan"))
