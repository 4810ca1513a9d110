import re
import warnings

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
    fit_mixture,
    full_mask,
    grid_evaluate,
    left_to_right_mask,
    m_step_emissions,
    m_step_generator,
    m_step_initial,
    random_mixture,
    sample_cohort,
    sample_hidden_path,
    sample_trajectory,
    split_cohort,
    transition_matrix,
    validate_generator,
)
from cthmm_subtyping.inference import _Cohort
from cthmm_subtyping.learning import (
    _empirical_bin_frequencies,
    _random_start,
    _run_em,
    generator_update_terms,
    structure_mask,
)
from cthmm_subtyping.mixture import _bin_histograms

from conftest import (
    chain_model,
    random_model,
    random_observations,
    random_times,
    separated_mixture,
    simple_scheme,
)
import oracles
from oracles import enumerate_posteriors, forward_backward_batch, quantize_gaps


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


def _hand_built(generator, gaps, **fields):
    """Statistics built by hand under ``generator``, carrying its kernels at
    ``gaps`` from :func:`transition_matrix` as E-step statistics do."""
    k = generator.size
    probs = np.array([transition_matrix(generator, gap).probs for gap in gaps]).reshape(-1, k, k)
    return SufficientStats(gaps=np.asarray(gaps, dtype=float), generator=generator,
                           transition_probs=probs, **fields)


def _no_gaps(k, **fields):
    """Hand-built statistics with no pairs, under a zero generator of k states."""
    return _hand_built(validate_generator(np.zeros((k, k)), full_mask(k)), [],
                       pair_counts=np.empty((0, k, k)), **fields)


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
        assert stats.emission_counts[0, :3] == pytest.approx(raw, abs=1e-10)

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
        cohort = _Cohort.of([impossible], model.emissions.bin_counts)
        (outcome,) = _run_em(cohort, [(np.arange(1), model)], EmConfig())
        assert isinstance(outcome, ImpossibleTrajectory)
        assert "ghost" in str(outcome)


class TestMStepEmissions:
    def _stats(self, counts):
        return _no_gaps(counts.shape[0], gamma_initial=np.ones(counts.shape[0]),
                        emission_counts=counts, bin_counts=(counts.shape[1],))

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_counts_are_rejected(self, bad):
        # A NaN count fails ``denom > 0`` and would leave its feature uniform.
        with pytest.raises(InvariantViolation, match="emission counts must be finite and >= 0"):
            m_step_emissions(self._stats(np.array([[bad, 1.0], [2.0, 1.0]])), 1e-3)


class TestMStepInitial:
    def _stats(self, gamma_initial):
        k = len(gamma_initial)
        return _no_gaps(k, gamma_initial=np.asarray(gamma_initial, dtype=float),
                        emission_counts=np.zeros((k, 2)), bin_counts=(2,))

    def test_normalisation(self):
        assert m_step_initial(self._stats([2.0, 2.0])) == pytest.approx([0.5, 0.5])

    def test_point_mass(self):
        assert m_step_initial(self._stats([7.0, 0.0])) == pytest.approx([1.0, 0.0])

    def test_no_mass_is_rejected(self):
        for gamma_initial in ([0.0, 0.0], [np.nan, 1.0]):
            with pytest.raises(InvariantViolation, match="no initial-state mass"):
                m_step_initial(self._stats(gamma_initial))

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

    def test_em_iteration_diagonalises_the_generator_once(self, eigensystem_calls):
        rng = np.random.default_rng(13)
        model, trajectories = _cohort(rng, 6, 3, (3, 2))
        stats, _ = e_step(model, trajectories)
        assert eigensystem_calls == [1]
        m_step_generator(stats)
        assert eigensystem_calls == [1]

    def test_zero_transitions_clamp_to_rate_floor(self):
        previous = validate_generator(
            np.array([[0.0, 0.7], [0.0, 0.0]]), left_to_right_mask(2)
        )
        stats = _hand_built(
            previous, [1.0],
            pair_counts=np.array([[[1.0, 0.0], [0.0, 0.0]]]),
            gamma_initial=np.array([1.0, 0.0]),
            emission_counts=np.zeros((2, 2)),
            bin_counts=(2,),
        )
        updated, _ = m_step_generator(stats)
        assert updated.rates[0, 1] == 1e-6

    def test_single_state_stays_zero(self):
        previous = validate_generator(np.zeros((1, 1)), full_mask(1))
        stats = _hand_built(
            previous, [0.5],
            pair_counts=np.array([[[3.0]]]),
            gamma_initial=np.array([1.0]),
            emission_counts=np.zeros((1, 2)),
            bin_counts=(2,),
        )
        updated, _ = m_step_generator(stats)
        assert updated.rates.tolist() == [[0.0]]

    def test_degenerate_occupancy_keeps_previous_row(self):
        previous = validate_generator(
            np.array([[0.0, 0.7], [0.0, 0.0]]), left_to_right_mask(2)
        )
        stats = _hand_built(
            previous, [1.0],
            pair_counts=np.array([[[0.0, 0.0], [0.0, 1.0]]]),
            gamma_initial=np.array([0.0, 1.0]),
            emission_counts=np.zeros((2, 2)),
            bin_counts=(2,),
        )
        kept, degenerate = m_step_generator(stats)
        assert kept.rates[0, 1] == 0.7
        assert degenerate == (0,)

    @pytest.mark.parametrize("structure", ["full", "left-to-right"])
    def test_nan_statistics_rejected(self, structure):
        mask = structure_mask(structure, 3)
        previous = validate_generator(np.full((3, 3), 0.4) * mask, mask)
        pair_counts = np.ones((1, 3, 3))
        pair_counts[0, 0, 1] = np.nan
        stats = _hand_built(
            previous, [1.0],
            pair_counts=pair_counts,
            gamma_initial=np.ones(3),
            emission_counts=np.zeros((3, 2)),
            bin_counts=(2,),
        )
        with pytest.raises(InvariantViolation, match="off-diagonal rates must be finite"):
            m_step_generator(stats)

    @pytest.mark.parametrize("n_states", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("structure", ["full", "left-to-right"])
    def test_update_terms_match_end_conditioned_reference(self, structure, n_states):
        rng = np.random.default_rng(100 + n_states)
        mask = structure_mask(structure, n_states)
        previous = validate_generator(rng.uniform(0.05, 2.0, (n_states, n_states)) * mask, mask)
        gaps = np.unique(np.geomspace(1e-3, 10.0, 40) * rng.uniform(0.9, 1.1, 40))
        stats = _hand_built(
            previous, gaps,
            pair_counts=rng.uniform(0.0, 5.0, (gaps.size, n_states, n_states)),
            gamma_initial=np.ones(n_states),
            emission_counts=np.zeros((n_states, 2)),
            bin_counts=(2,),
        )
        numer = np.zeros((n_states, n_states))
        denom = np.zeros(n_states)
        for gap, counts in zip(gaps, stats.pair_counts):
            cond = end_conditioned_stats(previous, gap)
            numer += np.einsum("cdab,cd->ab", cond.expected_transitions, counts)
            denom += np.einsum("cda,cd->a", cond.expected_sojourn, counts)
        if structure == "left-to-right" and n_states > 1:
            assert np.any(stats.transition_probs < P_FLOOR)

        batched_numer, batched_denom = generator_update_terms(stats)
        scale = max(np.abs(numer).max(), np.abs(denom).max())
        assert np.abs(batched_numer - numer).max() <= 1e-10 * scale
        assert np.abs(batched_denom - denom).max() <= 1e-10 * scale


def _within_ulps(actual, expected, ulps=4):
    actual, expected = np.asarray(actual), np.asarray(expected)
    bound = ulps * np.spacing(np.maximum(np.abs(actual), np.abs(expected)))
    return actual.shape == expected.shape and bool(np.all(np.abs(actual - expected) <= bound))


class TestStackedLayoutOracle:
    """The stacked (K, C) updates against their per-feature references.

    Each case uses every bin count from 2 to 9 (8 and up take numpy's
    unrolled pairwise sum), in a seeded feature order.
    """

    def _case(self, n_states):
        rng = np.random.default_rng(200 + n_states)
        bin_counts = tuple(int(j) for j in rng.permutation(np.arange(2, 10)))
        cohort = [
            Trajectory(f"p{i}", random_times(rng, n), random_observations(rng, n, bin_counts, 0.4))
            for i, n in enumerate(rng.integers(1, 7, size=12))
        ]
        return rng, bin_counts, cohort

    @pytest.mark.parametrize("n_states", range(1, 9))
    @pytest.mark.parametrize("smoothing", [0.0, 1e-3])
    def test_m_step_matches_per_feature_loop(self, n_states, smoothing):
        rng, bin_counts, _ = self._case(n_states)
        counts = rng.uniform(0.0, 50.0, (n_states, sum(bin_counts)))
        blocks = np.split(counts, np.cumsum(bin_counts)[:-1], axis=1)
        for block in blocks:
            block[rng.random(n_states) < 0.3] = 0.0  # views: zero rows in `counts` too
        stats = _no_gaps(n_states, gamma_initial=np.ones(n_states), emission_counts=counts,
                         bin_counts=bin_counts)
        table = m_step_emissions(stats, smoothing)
        expected = oracles.m_step_emissions_by_feature(blocks, smoothing)
        assert len(table.tables) == len(expected)
        for got, want in zip(table.tables, expected):
            assert _within_ulps(got, want)

    @pytest.mark.parametrize("n_states", range(1, 9))
    @pytest.mark.parametrize("smoothing", [0.0, 1e-3])
    def test_frequencies_and_histograms_match_per_feature_counts(self, n_states, smoothing):
        _, bin_counts, cohort = self._case(n_states)
        frequencies = _empirical_bin_frequencies(_Cohort.of(cohort, bin_counts),
                                                 np.arange(len(cohort)), smoothing)
        expected = np.concatenate(oracles.bin_frequencies_by_feature(cohort, bin_counts, smoothing))
        assert _within_ulps(frequencies, expected)
        histograms = _bin_histograms(_Cohort.of(cohort, bin_counts))
        assert np.array_equal(histograms, oracles.bin_histograms_by_feature(cohort, bin_counts))

    @pytest.mark.parametrize("n_states", range(1, 9))
    def test_random_start_draws_like_the_per_feature_loop(self, n_states):
        _, bin_counts, cohort = self._case(n_states)
        base = oracles.bin_frequencies_by_feature(cohort, bin_counts, 1e-3)
        model = _random_start(
            n_states, bin_counts, EmConfig(), np.random.default_rng(n_states), np.concatenate(base),
            1.0,
        )
        rng = np.random.default_rng(n_states)
        rng.dirichlet(np.ones(n_states))  # the initial law and the generator come first
        rng.uniform(0.01, 1.0, size=(n_states, n_states))
        expected = oracles.random_emission_tables(n_states, bin_counts, rng, base)
        assert len(model.emissions.tables) == len(expected)
        for got, want in zip(model.emissions.tables, expected):
            assert np.array_equal(got, want)


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

    def test_gaps_of_years_in_seconds(self):
        # 5e8 and 1e9 s are 16 and 32 years: the kernels there are the
        # stationary law, which once tripped the drift guard.
        a = Trajectory("a", np.array([0.0, 5e8, 1.5e9]), np.array([[0], [1], [2]]))
        b = Trajectory("b", np.array([0.0, 1e9, 2e9]), np.array([[0], [2], [2]]))
        _, diag = fit_disease_model([a, b], 3, EmConfig(restarts=3, max_iterations=20))
        assert np.all(np.isfinite(diag.restart_scores))
        assert np.all(np.diff(diag.trace) >= -1e-9 * np.abs(diag.trace[1:]))

    def test_quantized_gaps_stay_positive(self):
        t = Trajectory("p", np.array([0.0, 0.01, 0.02]), np.full((3, 1), -1))
        (q,) = quantize_gaps([t], 0.5)
        assert np.all(np.diff(q.times) == 0.5)


class TestGapLattice:
    """``quantize_gaps`` puts a cohort's times on one exact lattice."""

    @staticmethod
    def _cohort(seed, n=200, step=0.05):
        mixture = separated_mixture(
            [np.array([[0, 0], [1, 1], [2, 2]]), np.array([[4, 4], [3, 3], [1, 0]])],
            [[0.5, 0.3], [0.25, 0.6]],
        )
        from cthmm_subtyping import ObservationTimeConfig

        cohort = sample_cohort(
            mixture,
            n,
            ObservationTimeConfig(min_observations=15, max_observations=25),
            missing_rate=0.2,
            seed=seed,
        ).trajectories
        return cohort, quantize_gaps(cohort, step)

    @staticmethod
    def _ticks(trajectories, step):
        return np.concatenate([np.maximum(np.rint(np.diff(t.times) / step), 1.0)
                               for t in trajectories])

    def test_equal_ticks_give_bitwise_equal_gaps(self):
        raw, quantized = self._cohort(seed=1)
        ticks = self._ticks(raw, 0.05)
        gaps = np.concatenate([np.diff(t.times) for t in quantized])
        for tick in np.unique(ticks):
            assert np.unique(gaps[ticks == tick]).size == 1
        assert np.unique(gaps).size == np.unique(ticks).size

    def test_one_kernel_per_grid_value(self):
        raw, quantized = self._cohort(seed=0)
        model = random_model(np.random.default_rng(0), 3, (5, 5))
        posteriors = forward_backward_batch(model, quantized)
        assert posteriors.gaps.size == np.unique(self._ticks(raw, 0.05)).size
        assert posteriors.gaps.size < 0.05 * sum(t.length - 1 for t in raw)

    @pytest.mark.parametrize("t0", [0.0, 1.7e9, -1.7e9, -3.0])
    @pytest.mark.parametrize("step", [0.05, 0.3, 1e-20])
    def test_order_offsets_and_gap_bounds(self, t0, step):
        rng = np.random.default_rng(12)
        raw = [
            Trajectory(f"p{i}", t0 + random_times(rng, n), np.full((n, 1), -1))
            for i, n in enumerate([2, 7, 15, 1, 30])
        ]
        quantized = quantize_gaps(raw, step)
        # The time resolution: a few ulps of the largest time bound the lattice unit.
        resolution = 4 * max(np.spacing(np.abs(t.times).max()) for t in raw)
        for before, after in zip(raw, quantized):
            assert after.patient_id == before.patient_id
            assert after.times[0] == pytest.approx(before.times[0], rel=1e-15, abs=0.0)
            gaps = np.diff(after.times)
            assert np.all(gaps > 0)
            # At least one step (snapped to the lattice), at most one step past the raw gap.
            assert np.all(gaps >= step - resolution / 2)
            assert np.all(gaps <= np.diff(before.times) + max(step, resolution))
            # Exact lattice: the gaps sum back to the span without round-off.
            assert after.times[-1] - after.times[0] == gaps.sum()

    def test_tiny_step_keeps_the_times(self):
        t = Trajectory("p", np.array([1.0, 1.25, 2.0, 2.5]), np.full((4, 1), -1))
        (q,) = quantize_gaps([t], 1e-20)
        assert np.array_equal(q.times, t.times)

    def test_empty_and_single_observation_cohorts(self):
        assert quantize_gaps([], 0.05) == []
        single = Trajectory("p", np.array([0.0]), np.full((1, 1), -1))
        (q,) = quantize_gaps([single], 0.05)
        assert np.array_equal(q.times, [0.0])

    @pytest.mark.parametrize("step", [0.0, -0.5, np.nan, np.inf, -np.inf])
    def test_step_must_be_finite_and_positive(self, step):
        t = Trajectory("a", np.array([0.0, 1.0, 2.5]), np.zeros((3, 1), int))
        with pytest.raises(InvariantViolation,
                           match=rf"delta_quantization must be finite and > 0, got {step}"):
            quantize_gaps([t], step)


class TestEmConfig:
    @pytest.mark.parametrize(
        "settings",
        [
            {"smoothing": -1.0},
            {"smoothing": np.nan},
            {"smoothing": np.inf},
            {"tolerance": np.nan},
            {"delta_quantization": np.nan},
            {"delta_quantization": np.inf},
            {"delta_quantization": 0.0},
            {"delta_quantization": -0.5},
            {"mixture_iterations": 0},
            {"seed": -1},
            {"max_iterations": 2.5},
            {"mixture_iterations": 2.5},
            {"restarts": 1.5},
            {"seed": 1.5},
            {"seed": "1"},
            {"terminal_intervention_feature": 0.5},
            {"terminal_intervention_feature": "0"},
            {"smoothing": 0.5, "terminal_intervention_feature": 0},
            {"smoothing": 3.0, "terminal_intervention_feature": 0},
        ],
    )
    def test_invalid_settings_rejected(self, settings):
        with pytest.raises(InvariantViolation):
            EmConfig(**settings)

    def test_boundary_settings_accepted(self):
        assert EmConfig(smoothing=0.0).smoothing == 0.0
        assert EmConfig(delta_quantization=5e-324).delta_quantization == 5e-324

    @pytest.mark.parametrize("step", [np.inf, np.nan])
    def test_unusable_quantization_step_is_named(self, step):
        # An infinite step used to pass and then fail the fit as bad data.
        with pytest.raises(InvariantViolation, match="delta_quantization must be finite and > 0"):
            EmConfig(delta_quantization=step)

    def test_large_smoothing_needs_no_pin(self):
        # Only a pinned table uses the smoothing as its epsilon.
        assert EmConfig(smoothing=3.0).smoothing == 3.0
        assert EmConfig(smoothing=0.49, terminal_intervention_feature=0).smoothing == 0.49

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

    @pytest.mark.parametrize("name", [
        "max_iterations", "restarts", "mixture_iterations", "seed",
        "terminal_intervention_feature",
    ])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bools_are_not_integers(self, name, flag):
        # A bool is an Integral: False used to pin intervention feature 0.
        with pytest.raises(InvariantViolation, match=f"{name} must be an integer, got {flag}"):
            EmConfig(**{name: flag})

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


def _seeded_entry_points():
    """Each public function that takes a seed, as a function of that seed."""
    rng = np.random.default_rng(3)
    model = random_model(rng, 2, (3,))
    mixture = MixtureModel((model,), np.ones(1), np.empty(0, dtype=int), [])
    cohort = [Trajectory(f"p{i}", random_times(rng, 4), random_observations(rng, 4, (3,)))
              for i in range(4)]
    config = EmConfig(restarts=1, max_iterations=2)
    return {
        "split_cohort": lambda seed: split_cohort(cohort, 0.5, seed),
        "grid_evaluate": lambda seed: grid_evaluate(cohort, [1], [1], config, 0.5, split_seed=seed),
        "sample_cohort": lambda seed: sample_cohort(mixture, 3, seed=seed),
        "random_mixture": lambda seed: random_mixture(1, 2, simple_scheme(), seed=seed),
        "sample_hidden_path":
            lambda seed: sample_hidden_path(model.generator, model.initial, 1.0, seed),
        "sample_trajectory": lambda seed: sample_trajectory(model, np.arange(3.0), 0.0, seed),
    }


_SEEDED = _seeded_entry_points()


class TestSeedCheck:
    @pytest.mark.parametrize("entry", sorted(_SEEDED))
    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be >= 0, got -1"),
        (2.5, "seed must be an integer, got 2.5"),
        ("7", "seed must be an integer, got '7'"),
    ], ids=["negative", "fractional", "string"])
    def test_bad_seed_is_an_invariant_violation(self, entry, seed, message):
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            _SEEDED[entry](seed)

    @pytest.mark.parametrize("entry", sorted(_SEEDED))
    def test_numpy_integer_seed_accepted(self, entry):
        _SEEDED[entry](np.uint8(1))

    @pytest.mark.parametrize("entry", sorted(_SEEDED))
    def test_bool_seed_is_an_invariant_violation(self, entry):
        with pytest.raises(InvariantViolation, match="seed must be an integer, got True"):
            _SEEDED[entry](True)



def _count_fits():
    """Each fit entry point as a function of its (subtypes, states) counts."""
    rng = np.random.default_rng(5)
    cohort = [Trajectory(f"p{i}", random_times(rng, 4), random_observations(rng, 4, (3,)))
              for i in range(4)]
    config = EmConfig(restarts=1, max_iterations=2)
    return {
        "fit_disease_model": lambda m, k: fit_disease_model(cohort, k, config),
        "fit_mixture": lambda m, k: fit_mixture(cohort, m, k, config),
        "grid_evaluate": lambda m, k: grid_evaluate(cohort, [m], [k], config, 0.5),
    }


_COUNT_FITS = _count_fits()


class TestCountCheck:
    @pytest.mark.parametrize("entry, counts, message", [
        ("fit_disease_model", (1, 2.0), "n_states must be an integer, got 2.0"),
        ("fit_disease_model", (1, True), "n_states must be an integer, got True"),
        ("fit_mixture", (2.0, 2), "n_subtypes must be an integer, got 2.0"),
        ("fit_mixture", (2, 2.0), "n_states must be an integer, got 2.0"),
        ("grid_evaluate", (1, 2.0), "n_states must be an integer, got 2.0"),
    ], ids=["fit_disease_model-float", "fit_disease_model-bool", "fit_mixture-subtypes",
            "fit_mixture-states", "grid_evaluate-states"])
    def test_non_integer_count_is_an_invariant_violation(self, entry, counts, message):
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            _COUNT_FITS[entry](*counts)

    @pytest.mark.parametrize("entry", sorted(_COUNT_FITS))
    def test_numpy_integer_counts_accepted(self, entry):
        _COUNT_FITS[entry](np.int64(1), np.uint8(2))

class TestStructureMask:
    def test_kinds(self):
        assert np.array_equal(structure_mask("full", 3), full_mask(3))
        assert np.array_equal(structure_mask("left-to-right", 3), left_to_right_mask(3))
