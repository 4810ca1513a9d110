import warnings
from dataclasses import replace

import numpy as np
import pytest

from cthmm_subtyping import (
    P_FLOOR,
    DimensionMismatch,
    EmConfig,
    EmissionTable,
    ImpossibleTrajectory,
    InvariantViolation,
    MixtureModel,
    SufficientStats,
    SubtypeModel,
    Trajectory,
    e_step,
    end_conditioned_stats,
    fit_disease_model,
    full_mask,
    left_to_right_mask,
    m_step_emissions,
    m_step_generator,
    m_step_initial,
    quantize_gaps,
    sample_cohort,
    transition_matrix,
    validate_generator,
)
from cthmm_subtyping.learning import _run_em, generator_update_terms, structure_mask

from conftest import (
    chain_model,
    random_model,
    random_observations,
    random_times,
    separated_mixture,
)
from oracles import enumerate_posteriors


def _cohort(rng, n_trajectories, n_states, bin_counts, n_points=(2, 6), missing=0.2):
    model = random_model(rng, n_states, bin_counts)
    out = []
    for i in range(n_trajectories):
        n = int(rng.integers(*n_points))
        out.append(
            Trajectory(
                patient_id=f"p{i}",
                times=random_times(rng, n),
                observations=random_observations(rng, n, bin_counts, missing),
            )
        )
    return model, out


class TestEStep:
    def test_single_state_counts_are_raw_counts(self):
        rng = np.random.default_rng(0)
        model, trajectories = _cohort(rng, 4, 1, (3,))
        stats, _ = e_step(model, trajectories)
        gaps = [g for t in trajectories for g in np.diff(t.times)]
        total_pairs = stats.pair_counts.sum()
        assert total_pairs == pytest.approx(len(gaps), abs=1e-10)
        raw = np.zeros(3)
        for t in trajectories:
            seen = t.observations[t.observations[:, 0] != -1, 0]
            raw += np.bincount(seen, minlength=3)
        assert stats.emission_counts[0][0] == pytest.approx(raw, abs=1e-10)

    def test_single_pair_sums_to_one(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 2, (2,))
        trajectory = Trajectory(
            "p", np.array([0.0, 1.5]), np.array([[0], [1]])
        )
        stats, _ = e_step(model, [trajectory])
        assert stats.gaps.tolist() == [1.5]
        assert stats.pair_counts[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_pair_counts_match_enumeration(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 2, (2, 3))
        trajectories = [
            Trajectory(
                f"p{i}",
                random_times(rng, 3),
                random_observations(rng, 3, (2, 3)),
            )
            for i in range(2)
        ]
        stats, total = e_step(model, trajectories)
        expected: dict[float, np.ndarray] = {}
        expected_ll = 0.0
        for t in trajectories:
            ll, _, xi = enumerate_posteriors(
                model.initial,
                model.generator.rates,
                list(model.emissions.tables),
                t.times,
                t.observations,
            )
            expected_ll += ll
            for i, gap in enumerate(np.diff(t.times)):
                expected.setdefault(float(gap), np.zeros((2, 2)))
                expected[float(gap)] += xi[i]
        assert total == pytest.approx(expected_ll, abs=1e-10)
        assert stats.gaps.tolist() == sorted(expected)
        for gap, matrix in zip(stats.gaps, stats.pair_counts):
            assert np.abs(matrix - expected[gap]).max() < 1e-10

    def test_gap_totals_count_pairs(self):
        rng = np.random.default_rng(3)
        model, trajectories = _cohort(rng, 6, 3, (2, 2))
        stats, _ = e_step(model, trajectories)
        gap_census: dict[float, int] = {}
        for t in trajectories:
            for gap in np.diff(t.times):
                gap_census[float(gap)] = gap_census.get(float(gap), 0) + 1
        assert stats.gaps.tolist() == sorted(gap_census)
        for gap, matrix in zip(stats.gaps, stats.pair_counts):
            assert matrix.sum() == pytest.approx(gap_census[gap], abs=1e-8)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, (3, 3))
        bad = Trajectory("p", np.array([0.0]), np.array([[0]]))
        with pytest.raises(DimensionMismatch):
            e_step(model, [bad])

    def test_impossible_trajectory_names_patient(self):
        # State 0 always emits bin 0 and can never leave, so [[0], [1]] has
        # probability zero.
        model = SubtypeModel(
            initial=np.array([1.0, 0.0]),
            generator=validate_generator(np.zeros((2, 2)), full_mask(2)),
            emissions=EmissionTable(tables=(np.array([[1.0, 0.0], [0.0, 1.0]]),)),
        )
        impossible = Trajectory("ghost", np.array([0.0, 1.0]), np.array([[0], [1]]))
        with pytest.raises(ImpossibleTrajectory, match="ghost"):
            e_step(model, [impossible])
        with pytest.raises(ImpossibleTrajectory, match="ghost"):
            _run_em([impossible], model, EmConfig())


class TestMStepEmissions:
    def _stats(self, counts):
        return SufficientStats(
            gaps=np.empty(0),
            pair_counts=np.empty((0, counts.shape[0], counts.shape[0])),
            gamma_initial=np.ones(counts.shape[0]),
            emission_counts=(counts,),
        )

    def test_plain_ratio_without_smoothing(self):
        table = m_step_emissions(self._stats(np.array([[3.0, 1.0]])), 0.0)
        assert table.tables[0][0] == pytest.approx([0.75, 0.25], abs=1e-15)

    def test_zero_counts_smooth_to_uniform(self):
        table = m_step_emissions(self._stats(np.array([[0.0, 0.0, 0.0]])), 1e-3)
        assert table.tables[0][0] == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_smoothed_ratio_arithmetic(self):
        table = m_step_emissions(self._stats(np.array([[0.0, 10.0]])), 1e-3)
        assert table.tables[0][0, 0] == pytest.approx(1e-3 / 10.002, rel=1e-12)
        assert table.tables[0][0, 1] == pytest.approx(10.001 / 10.002, rel=1e-12)

    def test_zero_counts_without_smoothing_fall_back_to_uniform(self):
        table = m_step_emissions(self._stats(np.array([[0.0, 0.0]])), 0.0)
        assert table.tables[0][0] == pytest.approx([0.5, 0.5])


class TestMStepInitial:
    def _stats(self, gamma_initial):
        k = len(gamma_initial)
        return SufficientStats(
            gaps=np.empty(0),
            pair_counts=np.empty((0, k, k)),
            gamma_initial=np.asarray(gamma_initial, dtype=float),
            emission_counts=(np.zeros((len(gamma_initial), 2)),),
        )

    def test_normalisation(self):
        assert m_step_initial(self._stats([2.0, 2.0])) == pytest.approx([0.5, 0.5])

    def test_point_mass(self):
        assert m_step_initial(self._stats([7.0, 0.0])) == pytest.approx([1.0, 0.0])

    def test_single_patient_returns_its_posterior(self):
        rng = np.random.default_rng(6)
        model, trajectories = _cohort(rng, 1, 3, (2,))
        stats, _ = e_step(model, trajectories)
        from cthmm_subtyping import forward_backward

        gamma0 = forward_backward(model, trajectories[0]).gamma[0]
        assert m_step_initial(stats) == pytest.approx(gamma0, rel=1e-12)


class TestMStepGenerator:
    def test_recovers_generating_rate_from_dense_observations(self):
        truth = chain_model([0.5], np.array([[0], [4]]), peak_mass=0.9)
        mixture = MixtureModel(
            models=(truth,),
            prior=np.array([1.0]),
            assignments=np.empty(0, dtype=int),
            objective_trace=[],
        )
        from cthmm_subtyping import ObservationTimeConfig

        cohort = sample_cohort(
            mixture,
            150,
            ObservationTimeConfig(
                min_observations=15, max_observations=25, mean_gap=0.4
            ),
            missing_rate=0.0,
            seed=42,
        )
        stats, _ = e_step(truth, cohort.trajectories)
        updated, _ = m_step_generator(stats)
        assert updated.rates[0, 1] == pytest.approx(0.5, rel=0.10)

    def test_zero_transitions_clamp_to_rate_floor(self):
        previous = validate_generator(
            np.array([[0.0, 0.7], [0.0, 0.0]]), left_to_right_mask(2)
        )
        stats = SufficientStats(
            gaps=np.array([1.0]),
            pair_counts=np.array([[[1.0, 0.0], [0.0, 0.0]]]),
            gamma_initial=np.array([1.0, 0.0]),
            emission_counts=(np.zeros((2, 2)),),
            generator=previous,
        )
        updated, _ = m_step_generator(stats)
        assert updated.rates[0, 1] == 1e-6

    def test_single_state_stays_zero(self):
        previous = validate_generator(np.zeros((1, 1)), full_mask(1))
        stats = SufficientStats(
            gaps=np.array([0.5]),
            pair_counts=np.array([[[3.0]]]),
            gamma_initial=np.array([1.0]),
            emission_counts=(np.zeros((1, 2)),),
            generator=previous,
        )
        updated, _ = m_step_generator(stats)
        assert updated.rates.tolist() == [[0.0]]

    def test_degenerate_occupancy_keeps_previous_row(self):
        previous = validate_generator(
            np.array([[0.0, 0.7], [0.0, 0.0]]), left_to_right_mask(2)
        )
        stats = SufficientStats(
            gaps=np.array([1.0]),
            pair_counts=np.array([[[0.0, 0.0], [0.0, 1.0]]]),
            gamma_initial=np.array([0.0, 1.0]),
            emission_counts=(np.zeros((2, 2)),),
            generator=previous,
        )
        kept, degenerate = m_step_generator(stats)
        assert kept.rates[0, 1] == 0.7
        assert degenerate == (0,)

    def test_hand_built_statistics_build_their_kernels(self):
        rng = np.random.default_rng(12)
        model, trajectories = _cohort(rng, 6, 3, (2,))
        stats, _ = e_step(model, trajectories)
        assert stats.generator is model.generator
        expected, _ = m_step_generator(stats)
        # Without the E-step kernels the update builds P(gap) from the
        # statistics' own generator, and lands on the same rates.
        bare = replace(stats, transition_probs=None)
        updated, _ = m_step_generator(bare)
        assert np.array_equal(updated.rates, expected.rates)
        with pytest.raises(InvariantViolation, match="no generator"):
            generator_update_terms(replace(bare, generator=None))

    def test_kernels_need_their_generator(self):
        with pytest.raises(InvariantViolation, match="generator they came from"):
            SufficientStats(
                gaps=np.array([1.0]),
                pair_counts=np.ones((1, 2, 2)),
                gamma_initial=np.ones(2),
                emission_counts=(np.zeros((2, 2)),),
                transition_probs=np.full((1, 2, 2), 0.5),
            )

    @pytest.mark.parametrize("n_states", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("structure", ["full", "left-to-right"])
    def test_update_terms_match_end_conditioned_reference(self, structure, n_states):
        rng = np.random.default_rng(100 + n_states)
        mask = structure_mask(structure, n_states)
        previous = validate_generator(rng.uniform(0.05, 2.0, (n_states, n_states)) * mask, mask)
        gaps = np.unique(np.geomspace(1e-3, 10.0, 40) * rng.uniform(0.9, 1.1, 40))
        stats = SufficientStats(
            gaps=gaps,
            pair_counts=rng.uniform(0.0, 5.0, (gaps.size, n_states, n_states)),
            gamma_initial=np.ones(n_states),
            emission_counts=(np.zeros((n_states, 2)),),
            generator=previous,
        )
        numer = np.zeros((n_states, n_states))
        denom = np.zeros(n_states)
        for gap, counts in zip(gaps, stats.pair_counts):
            cond = end_conditioned_stats(previous, gap)
            numer += np.einsum("cdab,cd->ab", cond.expected_transitions, counts)
            denom += np.einsum("cda,cd->a", cond.expected_sojourn, counts)
        if structure == "left-to-right" and n_states > 1:
            probs = np.array([transition_matrix(previous, gap).probs for gap in gaps])
            assert np.any(probs < P_FLOOR)

        batched_numer, batched_denom = generator_update_terms(stats)
        scale = max(np.abs(numer).max(), np.abs(denom).max())
        assert np.abs(batched_numer - numer).max() <= 1e-10 * scale
        assert np.abs(batched_denom - denom).max() <= 1e-10 * scale


class TestFitDiseaseModel:
    def test_single_state_recovers_empirical_frequencies(self):
        rng = np.random.default_rng(7)
        _, trajectories = _cohort(rng, 10, 1, (3,), missing=0.3)
        config = EmConfig(seed=0, restarts=1, smoothing=1e-3)
        model, diag = fit_disease_model(trajectories, 1, config, bin_counts=(3,))
        counts = np.zeros(3)
        for t in trajectories:
            seen = t.observations[t.observations[:, 0] != -1, 0]
            counts += np.bincount(seen, minlength=3)
        expected = (counts + 1e-3) / (counts.sum() + 3e-3)
        assert model.emissions.tables[0][0] == pytest.approx(expected, rel=1e-9)
        assert diag.converged
        assert len(diag.trace) <= 3

    def test_monotone_log_likelihood_on_synthetic_cohort(self):
        mixture = separated_mixture(
            [np.array([[0, 0], [2, 2], [4, 4]])], [[0.5, 0.4]]
        )
        from cthmm_subtyping import ObservationTimeConfig

        cohort = sample_cohort(
            mixture,
            60,
            ObservationTimeConfig(min_observations=4, max_observations=12),
            missing_rate=0.2,
            seed=11,
        )
        config = EmConfig(
            seed=3,
            restarts=2,
            structure="left-to-right",
            max_iterations=40,
            delta_quantization=0.05,
        )
        _, diag = fit_disease_model(cohort.trajectories, 3, config, bin_counts=(5, 5))
        diffs = np.diff(diag.trace)
        assert diffs.min() > -1e-8

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(8)
        _, trajectories = _cohort(rng, 12, 2, (3,))
        config = EmConfig(seed=5, restarts=2, max_iterations=15)
        model_a, _ = fit_disease_model(trajectories, 2, config, bin_counts=(3,))
        model_b, _ = fit_disease_model(trajectories, 2, config, bin_counts=(3,))
        assert np.array_equal(model_a.initial, model_b.initial)
        assert np.array_equal(model_a.generator.rates, model_b.generator.rates)
        for a, b in zip(model_a.emissions.tables, model_b.emissions.tables):
            assert np.array_equal(a, b)

    def test_left_to_right_structure_respected(self):
        rng = np.random.default_rng(9)
        _, trajectories = _cohort(rng, 15, 3, (3,), n_points=(3, 8))
        config = EmConfig(
            seed=2, restarts=1, structure="left-to-right", max_iterations=10
        )
        model, _ = fit_disease_model(trajectories, 3, config, bin_counts=(3,))
        rates = model.generator.rates
        off = ~np.eye(3, dtype=bool)
        super_diag = np.zeros((3, 3), dtype=bool)
        super_diag[0, 1] = super_diag[1, 2] = True
        assert np.all(rates[off & ~super_diag] == 0.0)
        assert np.all(rates[2] == 0.0)

    def test_terminal_intervention_rows_pinned(self):
        mixture = separated_mixture(
            [np.array([[0, 0], [2, 0], [4, 1]])], [[0.6, 0.5]], n_bins=5
        )
        # rebuild with a binary indicator as the second feature
        from cthmm_subtyping import EmissionTable, SubtypeModel

        base = mixture.models[0]
        tables = (base.emissions.tables[0], np.array([[0.999, 0.001]] * 2 + [[0.001, 0.999]]))
        truth = SubtypeModel(
            initial=base.initial,
            generator=base.generator,
            emissions=EmissionTable(tables=tables),
        )
        truth_mixture = MixtureModel(
            models=(truth,),
            prior=np.array([1.0]),
            assignments=np.empty(0, dtype=int),
            objective_trace=[],
        )
        from cthmm_subtyping import ObservationTimeConfig

        cohort = sample_cohort(
            truth_mixture,
            40,
            ObservationTimeConfig(min_observations=5, max_observations=10),
            missing_rate=0.1,
            seed=21,
        )
        config = EmConfig(
            seed=4,
            restarts=1,
            structure="left-to-right",
            terminal_intervention_feature=1,
            max_iterations=10,
        )
        model, _ = fit_disease_model(cohort.trajectories, 3, config, bin_counts=(5, 2))
        eps = config.smoothing
        indicator = model.emissions.tables[1]
        assert indicator[-1, 1] >= 1.0 - 2 * eps
        assert np.all(indicator[:-1, 1] <= 2 * eps)

    def test_quantization_matches_prequantized_fit(self):
        rng = np.random.default_rng(10)
        _, trajectories = _cohort(rng, 10, 2, (3,))
        quantized = quantize_gaps(trajectories, 0.25)
        config_q = EmConfig(seed=6, restarts=1, max_iterations=8, delta_quantization=0.25)
        config_raw = EmConfig(seed=6, restarts=1, max_iterations=8)
        model_a, diag_a = fit_disease_model(trajectories, 2, config_q, bin_counts=(3,))
        model_b, diag_b = fit_disease_model(quantized, 2, config_raw, bin_counts=(3,))
        assert diag_a.trace == diag_b.trace
        assert np.array_equal(model_a.generator.rates, model_b.generator.rates)

    def test_given_bin_counts_must_cover_observed_bins(self):
        rng = np.random.default_rng(11)
        _, trajectories = _cohort(rng, 5, 2, (5,), missing=0.0)
        trajectories.append(Trajectory("top", np.array([0.0, 1.0]), np.array([[4], [4]])))
        config = EmConfig(seed=0, restarts=1, max_iterations=3)
        with pytest.raises(DimensionMismatch, match=r"\(3,\)"):
            fit_disease_model(trajectories, 2, config, bin_counts=(3,))
        with pytest.raises(DimensionMismatch):
            fit_disease_model(trajectories, 2, config, bin_counts=(5, 5))
        model, _ = fit_disease_model(trajectories, 2, config)
        assert model.emissions.bin_counts == (5,)

    def test_feature_count_must_agree(self):
        a = Trajectory("a", np.array([0.0, 1.0]), np.array([[0], [1]]))
        b = Trajectory("b", np.array([0.0, 1.0]), np.array([[0, 1], [1, 0]]))
        with pytest.raises(DimensionMismatch):
            fit_disease_model([a, b], 1, EmConfig(restarts=1, max_iterations=2))

    def test_quantized_gaps_stay_positive(self):
        t = Trajectory("p", np.array([0.0, 0.01, 0.02]), np.full((3, 1), -1))
        (q,) = quantize_gaps([t], 0.5)
        assert np.all(np.diff(q.times) == 0.5)


class TestEmConfig:
    @pytest.mark.parametrize(
        "settings",
        [
            {"smoothing": -1.0},
            {"smoothing": np.nan},
            {"smoothing": np.inf},
            {"tolerance": np.nan},
            {"delta_quantization": np.nan},
            {"mixture_iterations": 0},
            {"seed": -1},
            {"max_iterations": 2.5},
            {"mixture_iterations": 2.5},
            {"restarts": 1.5},
            {"seed": 1.5},
            {"seed": "1"},
            {"terminal_intervention_feature": 0.5},
            {"terminal_intervention_feature": "0"},
        ],
    )
    def test_invalid_settings_rejected(self, settings):
        with pytest.raises(InvariantViolation):
            EmConfig(**settings)

    def test_boundary_settings_accepted(self):
        assert EmConfig(smoothing=0.0).smoothing == 0.0

    def test_smoothing_that_overflows_the_bin_sums_rejected(self):
        rng = np.random.default_rng(6)
        cohort = [
            Trajectory(f"p{i}", random_times(rng, 5), random_observations(rng, 5, (5, 5)))
            for i in range(10)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="smoothing"):
                fit_disease_model(cohort, 2, EmConfig(smoothing=1e308, restarts=1))
            fit_disease_model(cohort, 2, EmConfig(smoothing=1e307, restarts=1, max_iterations=2))

    def test_numpy_integers_accepted(self):
        config = EmConfig(
            max_iterations=np.int64(3),
            seed=np.uint32(1),
            restarts=np.int32(2),
            mixture_iterations=np.int8(1),
            terminal_intervention_feature=np.int64(0),
        )
        assert (config.max_iterations, config.restarts) == (3, 2)

    @pytest.mark.parametrize("feature", [2, -1])
    def test_intervention_index_outside_features_rejected(self, feature):
        rng = np.random.default_rng(4)
        cohort = [
            Trajectory(f"p{i}", random_times(rng, 4), random_observations(rng, 4, (2, 2)))
            for i in range(3)
        ]
        config = EmConfig(max_iterations=2, restarts=1, terminal_intervention_feature=feature)
        with pytest.raises(InvariantViolation, match="is not a binary feature"):
            fit_disease_model(cohort, 2, config, bin_counts=(2, 2))


class TestStructureMask:
    def test_kinds(self):
        assert np.array_equal(structure_mask("full", 3), full_mask(3))
        assert np.array_equal(structure_mask("left-to-right", 3), left_to_right_mask(3))
