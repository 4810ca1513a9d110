import numpy as np
import pytest
from scipy.linalg import expm

from cthmm_subtyping import (
    MISSING,
    EmissionTable,
    GeneratorMatrix,
    InvariantViolation,
    MixtureModel,
    NonPositiveInterval,
    ObservationTimeConfig,
    SubtypeModel,
    full_mask,
    left_to_right_mask,
    random_mixture,
    sample_cohort,
    sample_hidden_path,
    sample_trajectory,
    validate_generator,
)

from conftest import (
    chain_model,
    random_emissions,
    random_generator,
    separated_mixture,
    simple_scheme,
)
from oracles import choice_cohort, choice_hidden_path, choice_trajectory


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
        with pytest.raises(InvariantViolation):
            ObservationTimeConfig(min_observations=5, max_observations=4)
        with pytest.raises(InvariantViolation):
            ObservationTimeConfig(mean_gap=0.0)
        with pytest.raises(InvariantViolation):
            ObservationTimeConfig(mean_gap=float("nan"))

    @pytest.mark.parametrize("settings", [{"mean_gap": float("inf")}], ids=["gap_inf"])
    def test_non_finite_timing_rejected(self, settings):
        with pytest.raises(InvariantViolation, match="finite"):
            ObservationTimeConfig(**settings)


def _generators():
    """Generators of every shape the sampler branches on, by name."""
    rng = np.random.default_rng(40)
    sparse = np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.5, 0.0, -0.5]])
    return {
        "full": random_generator(rng, 5),
        "full_8": random_generator(rng, 8, lo=0.01, hi=3.0),
        "left_to_right": random_generator(rng, 6, mask=left_to_right_mask(6)),
        "absorbing": _absorbing_two_state(rate=0.7),
        # Jump targets of probability zero under a full mask; state 1 absorbs.
        "zero_targets": GeneratorMatrix(rates=sparse, mask=full_mask(3)),
        "zero": validate_generator(np.zeros((3, 3)), full_mask(3)),
        "one_state": validate_generator(np.zeros((1, 1)), full_mask(1)),
    }


_GENERATORS = _generators()


def _initials(size, rng):
    """A point mass, a Dirichlet draw and one with zero-probability states."""
    point = np.zeros(size)
    point[-1] = 1.0
    holes = rng.dirichlet(np.ones(size))
    holes[::2] = 0.0
    holes = holes / holes.sum() if holes.sum() > 0 else point
    return [point, rng.dirichlet(np.ones(size)), holes]


def _assert_same_stream(a, b):
    """Both generators are at the same point of the same stream."""
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()


class TestStreamOracle:
    """The samplers return, and consume, bit for bit what one ``choice``
    or ``exponential`` call per draw did (``oracles.choice_*``)."""

    @pytest.mark.parametrize("name", list(_GENERATORS))
    @pytest.mark.parametrize("horizon", [1e-3, 0.5, 6.0, 60.0])
    def test_hidden_paths_and_next_draw_match(self, name, horizon):
        generator = _GENERATORS[name]
        rng = np.random.default_rng([41, generator.size, int(horizon * 1000)])
        for initial in _initials(generator.size, rng):
            for seed in range(25):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                path = sample_hidden_path(generator, initial, horizon, ours)
                expected = choice_hidden_path(generator, initial, horizon, theirs)
                assert path.times.tobytes() == expected.times.tobytes()
                assert np.array_equal(path.states, expected.states)
                assert path.states.dtype == expected.states.dtype
                _assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("name", list(_GENERATORS))
    @pytest.mark.parametrize("missing_rate", [0.0, 0.3, 1.0])
    def test_trajectories_and_next_draw_match(self, name, missing_rate):
        generator = _GENERATORS[name]
        rng = np.random.default_rng([42, generator.size])
        emissions = random_emissions(rng, generator.size, (2, 5, 3, 6, 4, 1, 3, 5))
        # Bins of probability zero in every table; the single-bin feature keeps its mass.
        tables = [t * (rng.random(t.shape) < 0.6) for t in emissions.tables]
        tables = [np.where(t.sum(axis=1, keepdims=True) > 0, t, 1.0) for t in tables]
        emissions = EmissionTable(tables=tuple(t / t.sum(axis=1, keepdims=True) for t in tables))
        for initial in _initials(generator.size, rng):
            model = SubtypeModel(initial=initial, generator=generator, emissions=emissions)
            for seed, n in enumerate([1, 2, 7, 20, 45]):
                times = 3.0 + np.cumsum(rng.uniform(0.05, 4.0, size=n))
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                traj, hidden = sample_trajectory(model, times, missing_rate, ours, "x")
                want, want_hidden = choice_trajectory(model, times, missing_rate, theirs, "x")
                assert traj.observations.dtype == want.observations.dtype
                assert traj.observations.tobytes() == want.observations.tobytes()
                assert traj.times.tobytes() == want.times.tobytes()
                assert hidden.tobytes() == want_hidden.tobytes()
                _assert_same_stream(ours, theirs)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_cohorts_match(self, seed):
        rng = np.random.default_rng([43, seed])
        models = tuple(
            SubtypeModel(initial=rng.dirichlet(np.ones(4)),
                         generator=random_generator(rng, 4, mask=mask),
                         emissions=random_emissions(rng, 4, (5, 3, 4)))
            for mask in (full_mask(4), left_to_right_mask(4), full_mask(4))
        )
        mixture = MixtureModel(models, np.array([0.5, 0.3, 0.2]), np.empty(0, dtype=int), [])
        config = ObservationTimeConfig(min_observations=1, max_observations=30, mean_gap=1.5)
        cohort = sample_cohort(mixture, 60, config, missing_rate=0.25, seed=seed)
        expected = choice_cohort(mixture, 60, config, missing_rate=0.25, seed=seed)
        assert cohort.labels.tobytes() == expected.labels.tobytes()
        for a, b in zip(cohort.trajectories, expected.trajectories, strict=True):
            assert a.patient_id == b.patient_id
            assert a.times.tobytes() == b.times.tobytes()
            assert a.observations.tobytes() == b.observations.tobytes()
        for a, b in zip(cohort.hidden_states, expected.hidden_states, strict=True):
            assert a.tobytes() == b.tobytes()


class TestSamplerInputs:
    @pytest.mark.parametrize("n_patients", [2.5, float("nan"), True])
    def test_patient_count_must_be_an_integer(self, n_patients):
        mixture = random_mixture(2, 2, simple_scheme())
        with pytest.raises(InvariantViolation, match="n_patients must be an integer"):
            sample_cohort(mixture, n_patients)

    @pytest.mark.parametrize("counts, name", [((2.0, 2), "n_subtypes"), ((2, True), "n_states")])
    def test_mixture_counts_must_be_integers(self, counts, name):
        with pytest.raises(InvariantViolation, match=f"{name} must be an integer"):
            random_mixture(*counts, simple_scheme())

    def test_mixture_needs_a_subtype(self):
        with pytest.raises(InvariantViolation, match="at least one subtype"):
            random_mixture(0, 2, simple_scheme())

    @pytest.mark.parametrize("counts, name", [((2.5, 4), "min_observations"),
                                              ((2, 4.0), "max_observations")])
    def test_observation_counts_must_be_integers(self, counts, name):
        with pytest.raises(InvariantViolation, match=f"{name} must be an integer"):
            ObservationTimeConfig(*counts)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_horizon_rejected(self, horizon):
        q = _absorbing_two_state()
        with pytest.raises(NonPositiveInterval):
            sample_hidden_path(q, np.array([1.0, 0.0]), horizon, seed=0)

    @pytest.mark.parametrize("times", [[0.0, float("inf")], [float("nan")], [-float("inf"), 1.0]])
    def test_non_finite_observation_times_rejected(self, times):
        model = chain_model([0.5], np.array([[0], [4]]))
        with pytest.raises(InvariantViolation, match="finite"):
            sample_trajectory(model, np.array(times), 0.0, seed=0)

    @pytest.mark.parametrize("initial", [
        [1.0], [0.5, 0.5, 0.0], [[0.5, 0.5]], 1.0, [1.5, -0.5], [float("nan"), 1.0],
        [0.5, 0.4], [1.0, float("inf")], [float("inf"), 1.0],
    ], ids=["short", "long", "2d", "scalar", "negative", "nan", "sum_0.9", "inf_last",
            "inf_first"])
    def test_bad_initial_is_a_typed_error(self, initial):
        with pytest.raises(InvariantViolation, match="initial distribution"):
            sample_hidden_path(_absorbing_two_state(), initial, 1.0, seed=0)

    def test_initial_accepted_exactly_where_choice_accepts_it(self):
        """Sums straddling choice's tolerance (about 1.5e-8) are accepted or
        rejected as ``Generator.choice`` does, judged by its compensated sum."""
        rng = np.random.default_rng(44)
        cases = [rng.dirichlet(np.ones(int(rng.choice([1, 2, 3, 5, 8])))) for _ in range(3000)]
        for i, p in enumerate(cases):
            cases[i] = p * (1.0 + rng.choice([-1, 1]) * rng.uniform(1.3e-8, 1.7e-8))
            if rng.random() < 0.1:
                cases[i][rng.integers(p.size)] = rng.choice([0.0, -1e-300, 1e-300])
        # Sums one rounding from the tolerance: the plain (pairwise) sum, or
        # the exactly rounded one, gives the other verdict from choice's.
        cases += [np.array(p) for p in (
            [0.05502149331542289, 0.2887426352449003, 0.6284133621084521, 0.027822524232386008],
            [0.3286592230105501, 0.3373498576294438, 0.33399093426116744],
            [0.008322464374052435, 0.05663865941105166, 0.42016929312932677,
             0.03345292554940332, 0.1613265931526641, 0.06476628417975086, 0.2553237951049122],
            [0.28394222030653254, 0.055320818297308595, 0.03398699102520272,
             0.00034412609587040996, 0.22278912175338714, 0.17104153708857028,
             0.23257517053196705],
        )]
        generators = {}
        verdicts = set()
        for p in cases:
            generator = generators.setdefault(p.size, random_generator(rng, p.size))
            try:
                np.random.default_rng(0).choice(p.size, p=p)
                choice_accepts = True
            except ValueError:
                choice_accepts = False
            try:
                sample_hidden_path(generator, p, 1.0, seed=0)
                accepted = True
            except InvariantViolation:
                accepted = False
            assert accepted == choice_accepts, p
            verdicts.add(accepted)
        assert verdicts == {True, False}
