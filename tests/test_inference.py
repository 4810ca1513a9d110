import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cthmm_subtyping import (
    MISSING,
    BinningScheme,
    DimensionMismatch,
    EmissionTable,
    ExpmInaccuracy,
    FeatureBinning,
    ImpossibleTrajectory,
    InvariantViolation,
    NonCausalQuery,
    StructureNotChain,
    SubtypeModel,
    Trajectory,
    e_step,
    forward_backward,
    forward_filter,
    full_mask,
    left_to_right_mask,
    predictive_bin_distributions,
    prefix_split,
    progression_trajectory,
    sojourn_expectation,
    trajectory_log_likelihood,
    transition_matrix,
    validate_generator,
)
from cthmm_subtyping import ctmc
from cthmm_subtyping.ctmc import GeneratorMatrix, TransitionMatrix
from cthmm_subtyping.inference import propagate_filter

from conftest import chain_model, random_model, random_observations, random_times
from oracles import (
    enumerate_posteriors,
    enumerate_predictive,
    forward_backward_batch,
    scaled_forward_backward,
)


def _random_fixture(rng, n_states=None, n_points=None, bin_counts=None, missing=0.25):
    n_states = n_states or int(rng.integers(1, 4))
    n_points = n_points or int(rng.integers(1, 6))
    bin_counts = bin_counts or tuple(rng.integers(2, 4, size=int(rng.integers(1, 3))))
    model = random_model(rng, n_states, bin_counts)
    trajectory = Trajectory(
        patient_id="fixture",
        times=random_times(rng, n_points),
        observations=random_observations(rng, n_points, bin_counts, missing),
    )
    return model, trajectory


class TestTrajectory:
    def test_requires_increasing_times(self):
        with pytest.raises(InvariantViolation):
            Trajectory("p", np.array([0.0, 0.0]), np.zeros((2, 1), dtype=int))

    def test_requires_at_least_one_point(self):
        with pytest.raises(InvariantViolation):
            Trajectory("p", np.array([]), np.zeros((0, 1), dtype=int))

    def test_requires_finite_times(self):
        for times in ([0.0, np.nan, 1.0], [0.0, np.inf], [-np.inf, 0.0], [np.nan]):
            with pytest.raises(InvariantViolation):
                Trajectory("x", np.array(times), np.zeros((len(times), 1), dtype=int))

    def test_requires_a_finite_span(self):
        # Each time is finite, but a gap would overflow to inf.
        for times in ([-1e308, 1e308], [-1e308, 0.0, 1e308]):
            with pytest.raises(InvariantViolation, match="'x': timestamps must span a finite"):
                Trajectory("x", np.array(times), np.zeros((len(times), 1), dtype=int))
        wide = Trajectory("x", np.array([-8e307, 8e307]), np.zeros((2, 1), dtype=int))
        assert np.diff(wide.times)[0] == 1.6e308

    def test_requires_integral_bins(self):
        too_big = np.array([[2**64 - 1]], dtype=np.uint64)  # would wrap to MISSING
        bad = ([[1.5]], [[True]], [[np.nan]], [[np.inf]], [[-np.inf]], [[1e300]], too_big)
        for observations in bad:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvariantViolation, match="'x'"):
                    Trajectory("x", np.array([0.0]), np.array(observations))
        whole = Trajectory("x", np.array([0.0, 1.0]), np.array([[2.0], [-1.0]]))
        assert whole.observations.tolist() == [[2], [-1]]
        assert whole.observations.dtype.kind == "i"
        narrow = Trajectory("x", np.array([0.0]), np.array([[3]], dtype=np.uint8))
        assert narrow.observations.dtype == np.int64

    def test_single_point_is_legal(self):
        t = Trajectory("p", np.array([3.0]), np.array([[MISSING]]))
        assert t.length == 1

    def test_caller_arrays_stay_writable(self):
        times, observations = np.array([0.0, 1.0, 2.5]), np.array([[0], [1], [MISSING]])
        t = Trajectory("p", times, observations)
        assert times.flags.writeable and observations.flags.writeable
        assert not (t.times.flags.writeable or t.observations.flags.writeable)
        times[0], observations[0, 0] = -1.0, 2
        assert t.times[0] == 0.0 and t.observations[0, 0] == 0

    def test_prefix_of_a_trajectory_shares_its_arrays(self):
        t = Trajectory("p", np.array([0.0, 1.0, 2.5, 4.0]), np.array([[0], [1], [1], [2]]))
        prefix, _, _ = prefix_split(t, 0.5)
        assert np.shares_memory(prefix.times, t.times)
        assert np.shares_memory(prefix.observations, t.observations)


class TestFrozenArrays:
    """Every frozen dataclass freezes a copy of a writable input, never the input."""

    @staticmethod
    def _build(rates, initial, table, probs):
        mask = full_mask(2)
        generator = GeneratorMatrix(rates=rates, mask=mask)
        emissions = EmissionTable(tables=(table,))
        model = SubtypeModel(initial=initial, generator=generator, emissions=emissions)
        kernel = TransitionMatrix(probs=probs, interval=1.0)
        return generator.rates, model.initial, emissions.tables[0], kernel.probs

    def test_caller_arrays_stay_writable(self):
        inputs = (np.array([[-1.0, 1.0], [0.5, -0.5]]), np.array([0.25, 0.75]),
                  np.array([[0.5, 0.5], [0.1, 0.9]]), np.array([[0.9, 0.1], [0.2, 0.8]]))
        stored = self._build(*inputs)
        for given, kept in zip(inputs, stored):
            assert given.flags.writeable
            assert not kept.flags.writeable
            assert not np.shares_memory(given, kept)
            given.fill(7.0)
            assert not np.any(kept == 7.0)

    def test_read_only_inputs_are_not_copied(self):
        inputs = (np.array([[-1.0, 1.0], [0.5, -0.5]]), np.array([0.25, 0.75]),
                  np.array([[0.5, 0.5], [0.1, 0.9]]), np.array([[0.9, 0.1], [0.2, 0.8]]))
        for a in inputs:
            a.flags.writeable = False
        stored = self._build(*inputs)
        for given, kept in zip(inputs, stored):
            assert kept is given


class TestSubtypeModel:
    def test_nan_initial_law_rejected(self):
        model = random_model(np.random.default_rng(3), 2, (2,))
        with pytest.raises(InvariantViolation, match="initial"):
            SubtypeModel(np.array([np.nan, 1.0]), model.generator, model.emissions)


class TestForwardBackward:
    def test_single_point_all_missing_returns_prior(self):
        rng = np.random.default_rng(1)
        model = random_model(rng, 3, (2, 3))
        trajectory = Trajectory("p", np.array([0.0]), np.full((1, 2), MISSING))
        summary = forward_backward(model, trajectory)
        assert summary.log_likelihood == pytest.approx(0.0, abs=1e-12)
        assert summary.gamma[0] == pytest.approx(model.initial, abs=1e-12)

    def test_single_state_gamma_is_one_and_ll_sums_emissions(self):
        rng = np.random.default_rng(2)
        model = random_model(rng, 1, (3,))
        trajectory = Trajectory(
            "p", np.array([0.0, 1.0, 2.0]), np.array([[0], [2], [1]])
        )
        summary = forward_backward(model, trajectory)
        assert np.all(summary.gamma == 1.0)
        expected = np.log(model.emissions.tables[0][0, [0, 2, 1]]).sum()
        assert summary.log_likelihood == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            model, trajectory = _random_fixture(rng)
            summary = forward_backward(model, trajectory)
            ll, gamma, xi = enumerate_posteriors(
                model.initial,
                model.generator.rates,
                list(model.emissions.tables),
                trajectory.times,
                trajectory.observations,
            )
            assert summary.log_likelihood == pytest.approx(ll, abs=1e-10)
            assert np.abs(summary.gamma - gamma).max() < 1e-10
            if trajectory.length > 1:
                assert np.abs(summary.xi - xi).max() < 1e-10

    def test_posterior_normalisation_invariants(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            model, trajectory = _random_fixture(rng, n_points=int(rng.integers(2, 7)))
            summary = forward_backward(model, trajectory)
            assert np.abs(summary.gamma.sum(axis=1) - 1.0).max() < 1e-10
            assert np.abs(summary.xi.sum(axis=(1, 2)) - 1.0).max() < 1e-10
            for i in range(trajectory.length - 1):
                assert np.abs(summary.xi[i].sum(axis=1) - summary.gamma[i]).max() < 1e-9
                assert np.abs(summary.xi[i].sum(axis=0) - summary.gamma[i + 1]).max() < 1e-9

    def test_all_missing_timepoint_equals_dropped_emission_factor(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 2, (3,))
        times = np.array([0.0, 1.0, 2.5])
        obs = np.array([[1], [2], [0]])
        masked = obs.copy()
        masked[1, 0] = MISSING
        got = forward_backward(model, Trajectory("p", times, masked))
        ll, gamma, _ = enumerate_posteriors(
            model.initial,
            model.generator.rates,
            list(model.emissions.tables),
            times,
            masked,
        )
        assert got.log_likelihood == pytest.approx(ll, abs=1e-10)
        assert np.abs(got.gamma - gamma).max() < 1e-10

    def test_time_translation_invariance(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 3, (3,))
        # Exactly representable times keep the gaps bit-identical after the
        # shift, so the outputs must match bit for bit: only gaps matter.
        times = np.array([0.0, 1.25, 3.5, 4.0])
        obs = random_observations(rng, 4, (3,))
        a = forward_backward(model, Trajectory("p", times, obs))
        b = forward_backward(model, Trajectory("p", times + 137.5, obs))
        assert a.log_likelihood == b.log_likelihood
        assert np.array_equal(a.gamma, b.gamma)
        assert np.array_equal(a.xi, b.xi)
        # Arbitrary shifts perturb the recomputed gaps by at most one ulp.
        c = forward_backward(model, Trajectory("p", times + np.pi, obs))
        assert c.log_likelihood == pytest.approx(a.log_likelihood, rel=1e-12)
        assert np.abs(c.gamma - a.gamma).max() < 1e-12

    def test_log_likelihood_deterministic(self):
        rng = np.random.default_rng(7)
        model, trajectory = _random_fixture(rng)
        assert trajectory_log_likelihood(model, trajectory) == trajectory_log_likelihood(
            model, trajectory
        )

    def test_long_trajectory_stays_finite(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 3, (4,))
        n = 10_000
        trajectory = Trajectory(
            "long",
            random_times(rng, n),
            random_observations(rng, n, (4,), missing_rate=0.1),
        )
        summary = forward_backward(model, trajectory)
        assert np.isfinite(summary.log_likelihood)
        assert np.abs(summary.gamma.sum(axis=1) - 1.0).max() < 1e-9

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, 2, (3, 3))
        with pytest.raises(DimensionMismatch):
            forward_backward(
                model, Trajectory("p", np.array([0.0]), np.array([[0]]))
            )
        with pytest.raises(DimensionMismatch):
            forward_backward(
                model, Trajectory("p", np.array([0.0]), np.array([[0, 5]]))
            )


def _ragged_cohort(rng, lengths, bin_counts):
    cohort = []
    for i, n in enumerate(lengths):
        obs = random_observations(rng, n, bin_counts, missing_rate=0.3)
        if n > 2:
            obs[1] = MISSING
        cohort.append(Trajectory(f"p{i}", random_times(rng, n), obs))
    return cohort


def _reference(model, trajectory):
    return scaled_forward_backward(
        model.initial,
        model.generator.rates,
        list(model.emissions.tables),
        trajectory.times,
        trajectory.observations,
    )


class TestBatchedPasses:
    @pytest.mark.parametrize("n_states", [1, 2, 4])
    @pytest.mark.parametrize("mask", [full_mask, left_to_right_mask])
    def test_batch_matches_per_trajectory_reference(self, mask, n_states):
        rng = np.random.default_rng(30 + n_states)
        bin_counts = (3, 4)
        model = random_model(rng, n_states, bin_counts, mask=mask(n_states))
        cohort = _ragged_cohort(rng, [1, 5, 2, 9, 1, 4], bin_counts)
        batch = forward_backward_batch(model, cohort)
        assert batch.gamma.shape == (22, n_states)
        assert batch.xi.shape == (16, n_states, n_states)
        for b, trajectory in enumerate(cohort):
            n = trajectory.length
            rows = slice(batch.starts[b], batch.starts[b] + n)
            pairs = slice(batch.starts[b] - b, batch.starts[b] - b + n - 1)
            assert np.array_equal(batch.gaps[batch.gap_index[pairs]], np.diff(trajectory.times))
            ll, gamma, xi = _reference(model, trajectory)
            single = forward_backward(model, trajectory)
            batched = batch.gamma[rows], batch.xi[pairs], batch.log_scale[rows]
            for got in (
                (batch.log_likelihood[b], *batched),
                (single.log_likelihood, single.gamma, single.xi, single.log_scale),
            ):
                assert got[0] == pytest.approx(ll, rel=1e-12)
                np.testing.assert_allclose(got[1], gamma, rtol=1e-12, atol=0)
                np.testing.assert_allclose(got[2], xi, rtol=1e-12, atol=0)
                assert got[3].sum() == pytest.approx(ll, rel=1e-12)
        for gap, kernel in zip(batch.gaps, batch.kernels):
            assert np.array_equal(kernel, transition_matrix(model.generator, gap).probs)

    def test_zero_probability_trajectory_is_minus_infinity(self):
        # State 0 always emits bin 0 and never leaves, so the second
        # observation is impossible; later steps do not revive it.
        model = SubtypeModel(
            initial=np.array([1.0, 0.0]),
            generator=validate_generator(np.zeros((2, 2)), full_mask(2)),
            emissions=EmissionTable(tables=(np.array([[1.0, 0.0], [0.0, 1.0]]),)),
        )
        possible = Trajectory("fine", np.array([0.0, 0.5]), np.array([[0], [0]]))
        impossible = Trajectory(
            "ghost", np.array([0.0, 1.0, 2.0, 3.0]), np.array([[0], [1], [0], [MISSING]])
        )
        assert _reference(model, impossible)[0] == -np.inf
        batch = forward_backward_batch(model, [possible, impossible])
        assert batch.log_likelihood.tolist() == [0.0, -np.inf]
        assert forward_backward(model, impossible).log_likelihood == -np.inf
        assert trajectory_log_likelihood(model, impossible) == -np.inf
        log_likelihood, _ = forward_filter([model], [impossible, possible])
        assert log_likelihood.tolist() == [[-np.inf, 0.0]]
        with pytest.raises(ImpossibleTrajectory, match="ghost"):
            e_step(model, [possible, impossible])

    def test_forward_filter_matches_forward_backward(self):
        rng = np.random.default_rng(40)
        bin_counts = (3, 2)
        models = [random_model(rng, 3, bin_counts) for _ in range(3)]
        cohort = _ragged_cohort(rng, [1, 6, 3, 8], bin_counts)
        log_likelihood, filtered = forward_filter(models, cohort)
        assert log_likelihood.shape == (3, 4)
        assert filtered.shape == (3, 4, 3)
        for m, model in enumerate(models):
            for b, trajectory in enumerate(cohort):
                summary = forward_backward(model, trajectory)
                assert log_likelihood[m, b] == pytest.approx(summary.log_likelihood, rel=1e-12)
                np.testing.assert_allclose(filtered[m, b], summary.gamma[-1], rtol=1e-12, atol=0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        lengths=st.lists(st.integers(1, 5), min_size=1, max_size=6),
        n_states=st.integers(1, 3),
        chain=st.booleans(),
        blank_rows=st.lists(st.integers(0, 29), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_packed_passes_match_enumeration(self, lengths, n_states, chain, blank_rows, seed):
        # Short lengths give ties and single-row trajectories, which stress
        # the prefix-alive packing; blank rows observe nothing at all.
        rng = np.random.default_rng(seed)
        bin_counts = (3, 2)
        mask = (left_to_right_mask if chain else full_mask)(n_states)
        models = [random_model(rng, n_states, bin_counts, mask=mask) for _ in range(2)]
        observations = random_observations(rng, sum(lengths), bin_counts, missing_rate=0.3)
        observations[[i % sum(lengths) for i in blank_rows]] = MISSING
        ends = np.cumsum(lengths)
        cohort = [
            Trajectory(f"p{b}", random_times(rng, n), observations[end - n : end])
            for b, (n, end) in enumerate(zip(lengths, ends))
        ]
        log_likelihood, filtered = forward_filter(models, cohort)
        batch = forward_backward_batch(models[0], cohort)
        for b, trajectory in enumerate(cohort):
            for m, model in enumerate(models):
                ll, gamma, xi = enumerate_posteriors(
                    model.initial,
                    model.generator.rates,
                    list(model.emissions.tables),
                    trajectory.times,
                    trajectory.observations,
                )
                assert abs(log_likelihood[m, b] - ll) < 1e-10
                assert np.abs(filtered[m, b] - gamma[-1]).max() < 1e-10
                if m == 0:
                    rows = slice(batch.starts[b], batch.starts[b] + trajectory.length)
                    pairs = slice(batch.starts[b] - b, batch.starts[b] - b + trajectory.length - 1)
                    assert abs(batch.log_likelihood[b] - ll) < 1e-10
                    assert np.abs(batch.gamma[rows] - gamma).max() < 1e-10
                    if trajectory.length > 1:
                        assert np.abs(batch.xi[pairs] - xi).max() < 1e-10

    def test_forward_filter_needs_one_state_count(self):
        rng = np.random.default_rng(41)
        models = [random_model(rng, 2, (3,)), random_model(rng, 3, (3,))]
        cohort = _ragged_cohort(rng, [3], (3,))
        with pytest.raises(InvariantViolation):
            forward_filter(models, cohort)

    def test_forward_filter_needs_one_bin_layout(self):
        # Same feature count, different bins: the stacked columns differ.
        rng = np.random.default_rng(42)
        models = [random_model(rng, 2, (3, 2)), random_model(rng, 2, (2, 3))]
        cohort = _ragged_cohort(rng, [3, 2], (2, 2))
        with pytest.raises(DimensionMismatch, match="bins"):
            forward_filter(models, cohort)


class TestPredictive:
    def test_single_state_returns_emission_rows(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, 1, (4, 2))
        prefix = Trajectory("p", np.array([0.0, 1.0]), np.array([[1, 0], [3, 1]]))
        predicted = predictive_bin_distributions(model, prefix, np.array([2.0, 3.5]))
        for per_time in predicted:
            assert per_time[0] == pytest.approx(model.emissions.tables[0][0])
            assert per_time[1] == pytest.approx(model.emissions.tables[1][0])

    def test_all_missing_prefix_propagates_prior(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 3, (3,))
        prefix = Trajectory(
            "p", np.array([0.0, 0.8]), np.full((2, 1), MISSING)
        )
        t = 2.9
        predicted = predictive_bin_distributions(model, prefix, np.array([t]))
        from scipy.linalg import expm

        state_dist = model.initial @ expm(model.generator.rates * t)
        expected = state_dist @ model.emissions.tables[0]
        assert predicted[0][0] == pytest.approx(expected, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            model = random_model(rng, 2, (3, 2))
            prefix = Trajectory(
                "p",
                random_times(rng, 3),
                random_observations(rng, 3, (3, 2), missing_rate=0.3),
            )
            t = float(prefix.times[-1] + rng.uniform(0.3, 2.0))
            predicted = predictive_bin_distributions(model, prefix, np.array([t]))
            expected = enumerate_predictive(
                model.initial,
                model.generator.rates,
                list(model.emissions.tables),
                prefix.times,
                prefix.observations,
                t,
            )
            for d in range(2):
                assert np.abs(predicted[0][d] - expected[d]).max() < 1e-10

    def test_distributions_sum_to_one(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 3, (5, 4))
        prefix = Trajectory(
            "p",
            random_times(rng, 5),
            random_observations(rng, 5, (5, 4)),
        )
        predicted = predictive_bin_distributions(
            model, prefix, prefix.times[-1] + np.array([0.5, 1.5, 4.0])
        )
        for per_time in predicted:
            for vector in per_time:
                assert vector.sum() == pytest.approx(1.0, abs=1e-10)

    def test_non_causal_query_rejected(self):
        rng = np.random.default_rng(14)
        model = random_model(rng, 2, (2,))
        prefix = Trajectory("p", np.array([0.0, 2.0]), np.array([[0], [1]]))
        with pytest.raises(NonCausalQuery):
            predictive_bin_distributions(model, prefix, np.array([1.5]))
        with pytest.raises(InvariantViolation):
            predictive_bin_distributions(model, prefix, np.array([3.0, 2.5]))
        with pytest.raises(InvariantViolation, match="strictly increasing"):
            predictive_bin_distributions(model, prefix, np.array([1e308, -1e308]))


class TestProgression:
    def setup_method(self):
        self.scheme = BinningScheme(
            (FeatureBinning(name="heart_rate", lower=40.0, upper=150.0, bins=5),)
        )

    def test_two_state_chain(self):
        model = chain_model([0.5], np.array([[0], [4]]), peak_mass=1.0)
        stages = progression_trajectory(model, self.scheme, start_state=0)
        assert [s.state for s in stages] == [0, 1]
        assert stages[0].expected_duration == pytest.approx(2.0)
        assert np.isinf(stages[1].expected_duration)
        assert stages[0].expected_values[0] == pytest.approx(51.0)
        assert stages[1].expected_values[0] == pytest.approx(139.0)

    def test_start_at_last_state(self):
        model = chain_model([0.5, 0.4], np.array([[0], [2], [4]]))
        stages = progression_trajectory(model, self.scheme, start_state=2)
        assert len(stages) == 1
        assert np.isinf(stages[0].expected_duration)

    def test_full_mask_rejected(self):
        rng = np.random.default_rng(15)
        model = random_model(rng, 3, (5,), mask=full_mask(3))
        with pytest.raises(StructureNotChain):
            progression_trajectory(model, self.scheme)

    def test_durations_come_from_generator(self):
        model = chain_model([0.8, 0.25, 0.4], np.zeros((4, 1), dtype=int))
        stages = progression_trajectory(model, self.scheme)
        durations = [s.expected_duration for s in stages]
        expected = sojourn_expectation(model.generator)
        assert durations[:3] == pytest.approx(list(expected[:3]))
        assert durations == pytest.approx([1.25, 4.0, 2.5, np.inf])


class TestBrokenKernel:
    def test_public_callers_raise_it(self, monkeypatch):
        rng = np.random.default_rng(16)
        # Equal chain rates make a Jordan block, whose kernels come from
        # the ``expm`` fallback; that fallback then drifts past the guard.
        generator = validate_generator(np.diag([0.77, 0.77], 1), left_to_right_mask(3))
        model = replace(random_model(rng, 3, (3, 2)), generator=generator)
        trajectory = Trajectory("p", np.array([0.0, 0.5, 1.25]), random_observations(rng, 3, (3, 2)))
        real_expm = ctmc.expm
        monkeypatch.setattr(ctmc, "expm", lambda a: real_expm(a) * (1.0 + 1e-6))
        calls = [
            lambda: transition_matrix(generator, 0.5),
            lambda: forward_filter([model], [trajectory]),
            lambda: forward_backward(model, trajectory),
            lambda: trajectory_log_likelihood(model, trajectory),
            lambda: propagate_filter(model, model.initial, np.array([0.5, 0.75])),
            lambda: e_step(model, [trajectory]),
        ]
        for call in calls:
            with pytest.raises(ExpmInaccuracy, match="drifted by 1.000e-06 for interval 0.5$"):
                call()
