import math
import sys

import numpy as np
import pytest

from cthmm_subtyping import (
    MISSING,
    EmConfig,
    EmissionTable,
    EmptyCohort,
    ImpossibleTrajectory,
    InvariantViolation,
    MixtureModel,
    NoHeldOutObservations,
    ObservationTimeConfig,
    SubtypeModel,
    Trajectory,
    assign_subtype,
    fit_disease_model,
    forecast_cross_entropy,
    forecast_report,
    full_mask,
    grid_evaluate,
    inference,
    mixture as mixture_module,
    prefix_split,
    sample_cohort,
    split_cohort,
    validate_generator,
)

from conftest import random_model, random_observations, random_times, separated_mixture
from oracles import enumerate_predictive, held_out_loss


def _flat_mixture(n_bins=5, table_rows=None):
    """Single-state mixture whose predictions are a fixed bin distribution."""
    if table_rows is None:
        table_rows = np.full((1, n_bins), 1.0 / n_bins)
    generator = validate_generator(np.zeros((1, 1)), full_mask(1))
    model = SubtypeModel(
        initial=np.array([1.0]),
        generator=generator,
        emissions=EmissionTable(tables=(np.asarray(table_rows),)),
    )
    return MixtureModel(
        models=(model,),
        prior=np.array([1.0]),
        assignments=np.empty(0, dtype=int),
        objective_trace=[],
    )


def _simple_cohort(rng, n, bin_counts=(5,), lengths=(4, 12), missing=0.2):
    out = []
    for i in range(n):
        length = int(rng.integers(*lengths))
        out.append(
            Trajectory(
                f"p{i}",
                random_times(rng, length),
                random_observations(rng, length, bin_counts, missing),
            )
        )
    return out


class TestSplitCohort:
    def test_eighty_twenty_counts(self):
        rng = np.random.default_rng(0)
        cohort = _simple_cohort(rng, 10)
        train, test = split_cohort(cohort, 0.8, seed=1)
        assert len(train) == 8 and len(test) == 2

    def test_ceiling_can_empty_the_test_side(self):
        rng = np.random.default_rng(1)
        cohort = _simple_cohort(rng, 1)
        train, test = split_cohort(cohort, 0.5, seed=1)
        assert len(train) == 1 and len(test) == 0

    def test_deterministic_and_exhaustive(self):
        rng = np.random.default_rng(2)
        cohort = _simple_cohort(rng, 17)
        a_train, a_test = split_cohort(cohort, 0.8, seed=9)
        b_train, b_test = split_cohort(cohort, 0.8, seed=9)
        assert [t.patient_id for t in a_train] == [t.patient_id for t in b_train]
        assert [t.patient_id for t in a_test] == [t.patient_id for t in b_test]
        ids = {t.patient_id for t in a_train} | {t.patient_id for t in a_test}
        assert ids == {t.patient_id for t in cohort}
        assert len(a_train) + len(a_test) == 17

    def test_empty_cohort_rejected(self):
        with pytest.raises(EmptyCohort):
            split_cohort([], 0.8, seed=0)

    def test_tiny_fraction_keeps_one_training_patient(self):
        (t,) = _simple_cohort(np.random.default_rng(13), 1)
        train, test = split_cohort([t, t], 1e-12, seed=0)
        assert len(train) == 1 and len(test) == 1


class TestPrefixSplit:
    def test_seventy_percent_of_ten(self):
        rng = np.random.default_rng(3)
        (t,) = _simple_cohort(rng, 1, lengths=(10, 11))
        prefix, held_times, held_obs = prefix_split(t, 0.7)
        assert prefix.length == 7
        assert held_times.size == 3
        assert held_obs.shape[0] == 3

    def test_single_point_keeps_everything(self):
        t = Trajectory("p", np.array([2.0]), np.array([[1]]))
        prefix, held_times, _ = prefix_split(t, 0.7)
        assert prefix.length == 1
        assert held_times.size == 0

    def test_ceiling_rule_on_three_points(self):
        t = Trajectory("p", np.array([0.0, 1.0, 2.0]), np.array([[0], [1], [2]]))
        prefix, held_times, _ = prefix_split(t, 0.7)
        assert prefix.length == 3
        assert held_times.size == 0

    def test_tiny_fraction_keeps_one_point(self):
        t = Trajectory("p", np.arange(5.0), np.array([[0], [1], [0], [1], [1]]))
        prefix, held_times, held_obs = prefix_split(t, 1e-10)
        assert prefix.length == 1
        assert np.array_equal(held_times, t.times[1:])
        mixture = _flat_mixture(table_rows=np.array([[0.5, 0.5]]))
        assert forecast_cross_entropy(mixture, t, 1e-10) == pytest.approx(math.log(2.0))
        assert forecast_report(mixture, [t], 1e-10).n_scored_observations == 4

    def test_prefix_preserves_content(self):
        rng = np.random.default_rng(4)
        (t,) = _simple_cohort(rng, 1, lengths=(8, 9))
        prefix, held_times, held_obs = prefix_split(t, 0.5)
        assert np.array_equal(prefix.times, t.times[:4])
        assert np.array_equal(held_times, t.times[4:])
        assert np.array_equal(held_obs, t.observations[4:])


class TestForecastCrossEntropy:
    def test_uniform_predictor_scores_ln_bins(self):
        mixture = _flat_mixture(n_bins=5)
        t = Trajectory(
            "p",
            np.arange(10.0),
            np.arange(10, dtype=int).reshape(-1, 1) % 5,
        )
        score = forecast_cross_entropy(mixture, t, 0.7)
        assert score == pytest.approx(math.log(5.0), abs=1e-12)

    def test_point_mass_predictor_scores_zero(self):
        mixture = _flat_mixture(table_rows=np.array([[0.0, 1.0, 0.0]]))
        t = Trajectory("p", np.arange(6.0), np.full((6, 1), 1))
        assert forecast_cross_entropy(mixture, t, 0.7) == 0.0

    def test_matches_enumeration_oracle(self):
        mixture = separated_mixture(
            [np.array([[0], [3]])], [[0.6]], n_bins=4
        )
        model = mixture.models[0]
        t = Trajectory(
            "p",
            np.array([0.0, 1.0, 2.0, 3.5, 4.0]),
            np.array([[0], [0], [3], [1], [3]]),
        )
        prefix, held_times, held_obs = prefix_split(t, 0.7)
        expected = 0.0
        for i, future in enumerate(held_times):
            bins = enumerate_predictive(
                model.initial,
                model.generator.rates,
                list(model.emissions.tables),
                prefix.times,
                prefix.observations,
                float(future),
            )
            expected += -math.log(bins[0][held_obs[i, 0]])
        expected /= held_times.size
        got = forecast_cross_entropy(mixture, t, 0.7)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_missing_heldout_features_are_skipped(self):
        mixture = _flat_mixture(table_rows=np.array([[0.5, 0.5]]))
        obs = np.array([[0], [1], [0], [-1], [1]])
        t = Trajectory("p", np.arange(5.0), obs)
        # held-out points are indices 4 only under 0.7 (ceil(3.5)=4)
        score = forecast_cross_entropy(mixture, t, 0.7)
        assert score == pytest.approx(math.log(2.0), abs=1e-12)

    def test_no_heldout_observations_raises(self):
        mixture = _flat_mixture(table_rows=np.array([[0.5, 0.5]]))
        short = Trajectory("p", np.array([0.0]), np.array([[0]]))
        with pytest.raises(NoHeldOutObservations):
            forecast_cross_entropy(mixture, short, 0.7)
        all_missing_tail = Trajectory(
            "p", np.arange(4.0), np.array([[0], [1], [0], [-1]])
        )
        with pytest.raises(NoHeldOutObservations):
            forecast_cross_entropy(mixture, all_missing_tail, 0.7)

    def test_zero_probability_held_out_bin_is_impossible(self):
        mixture = _flat_mixture(table_rows=np.array([[0.0, 1.0, 0.0]]))
        t = Trajectory("zed", np.arange(6.0), np.array([[1], [1], [1], [1], [1], [0]]))
        with pytest.raises(ImpossibleTrajectory, match=r"'zed'.*feature 0"):
            forecast_cross_entropy(mixture, t, 0.7)
        with pytest.raises(ImpossibleTrajectory, match="zed"):
            forecast_report(mixture, [t], 0.7)

    def test_impossible_prefix_is_impossible(self):
        mixture = _flat_mixture(table_rows=np.array([[0.0, 1.0, 0.0]]))
        t = Trajectory("zed", np.arange(6.0), np.array([[0], [1], [1], [1], [1], [1]]))
        with pytest.raises(ImpossibleTrajectory, match="zed"):
            forecast_cross_entropy(mixture, t, 0.7)


    def test_scoring_patients_diagonalises_each_subtype_once(self, eigensystem_calls):
        mixture = separated_mixture(
            [np.array([[0], [3], [1]]), np.array([[4], [1], [2]]), np.array([[2], [0], [4]])],
            [[0.6, 0.3], [1.1, 0.4], [0.2, 0.9]],
        )
        cohort = _simple_cohort(np.random.default_rng(12), 20, lengths=(6, 12), missing=0.0)
        for n_scored, t in enumerate(cohort, start=1):
            assign_subtype(mixture, t)
            forecast_cross_entropy(mixture, t, 0.7)
            if n_scored in (1, len(cohort)):
                assert eigensystem_calls == [1] * mixture.n_subtypes


class TestForecastReport:
    def test_nothing_to_score_raises(self):
        mixture = _flat_mixture(table_rows=np.array([[0.5, 0.5]]))
        cohort = [
            Trajectory("a", np.array([0.0]), np.array([[0]])),
            Trajectory("b", np.array([2.0]), np.array([[1]])),
        ]
        with pytest.raises(NoHeldOutObservations, match="none of 2 patients"):
            forecast_report(mixture, cohort, 0.7)

    def test_skipped_patients_counted(self):
        mixture = _flat_mixture(table_rows=np.array([[0.25, 0.75]]))
        rng = np.random.default_rng(5)
        cohort = _simple_cohort(rng, 6, bin_counts=(2,), lengths=(4, 8), missing=0.0)
        cohort.append(Trajectory("tiny", np.array([0.0]), np.array([[0]])))
        report = forecast_report(mixture, cohort, 0.7)
        assert report.n_skipped_patients == 1
        assert report.n_patients == 6
        assert report.mean >= 0.0
        assert report.n_scored_observations == sum(
            np.count_nonzero(prefix_split(t, 0.7)[2] != -1) for t in cohort
        )

    def test_standard_error_recomputable(self):
        mixture = _flat_mixture(table_rows=np.array([[0.3, 0.7]]))
        rng = np.random.default_rng(6)
        cohort = _simple_cohort(rng, 8, bin_counts=(2,), lengths=(5, 9), missing=0.1)
        report = forecast_report(mixture, cohort, 0.7)
        scores = np.array([s for _, s in report.per_patient])
        assert report.standard_error == pytest.approx(
            np.std(scores, ddof=1) / math.sqrt(scores.size)
        )
        assert report.mean == pytest.approx(scores.mean())

    def test_patient_order_invariance(self):
        mixture = _flat_mixture(table_rows=np.array([[0.3, 0.7]]))
        rng = np.random.default_rng(7)
        cohort = _simple_cohort(rng, 10, bin_counts=(2,), lengths=(5, 9))
        forward = forecast_report(mixture, cohort, 0.7)
        backward = forecast_report(mixture, cohort[::-1], 0.7)
        assert forward.mean == pytest.approx(backward.mean, abs=1e-14)
        assert forward.standard_error == pytest.approx(backward.standard_error, abs=1e-14)

    def test_time_translation_leaves_scores_unchanged(self):
        mixture = separated_mixture([np.array([[0], [3]])], [[0.5]], n_bins=4)
        times = np.array([0.0, 1.25, 2.5, 3.0, 4.75, 6.0])
        rng = np.random.default_rng(11)
        obs = random_observations(rng, 6, (4,), missing_rate=0.1)
        base = Trajectory("p", times, obs)
        shifted = Trajectory("p", times + 512.5, obs)
        assert forecast_cross_entropy(mixture, base, 0.7) == forecast_cross_entropy(
            mixture, shifted, 0.7
        )

    def test_all_missing_extra_feature_changes_nothing(self):
        rng = np.random.default_rng(8)
        mixture = separated_mixture([np.array([[0], [3]])], [[0.5]], n_bins=4)
        cohort = _simple_cohort(rng, 6, bin_counts=(4,), lengths=(5, 10))
        base = forecast_report(mixture, cohort, 0.7)

        # same models plus a uniform never-observed second feature
        padded_models = []
        for model in mixture.models:
            padded_models.append(
                SubtypeModel(
                    initial=model.initial,
                    generator=model.generator,
                    emissions=EmissionTable(
                        tables=(*model.emissions.tables, np.full((2, 3), 1 / 3))
                    ),
                )
            )
        padded_mixture = MixtureModel(
            models=tuple(padded_models),
            prior=mixture.prior,
            assignments=np.empty(0, dtype=int),
            objective_trace=[],
        )
        padded_cohort = [
            Trajectory(
                t.patient_id,
                t.times,
                np.column_stack([t.observations, np.full(t.length, -1)]),
            )
            for t in cohort
        ]
        padded = forecast_report(padded_mixture, padded_cohort, 0.7)
        assert padded.mean == pytest.approx(base.mean, abs=1e-12)
        assert [s for _, s in padded.per_patient] == pytest.approx(
            [s for _, s in base.per_patient], abs=1e-12
        )


def _random_scoring_case(seed, n_subtypes, whole_gaps):
    """A random mixture and a cohort it can score: ragged lengths, missing
    cells, one one-point patient and one whose held-out rows are all missing."""
    rng = np.random.default_rng(seed)
    bins = (3, 4)
    models = tuple(random_model(rng, 3, bins) for _ in range(n_subtypes))
    mixture = MixtureModel(models, rng.dirichlet(np.ones(n_subtypes)), np.empty(0, int), [])
    cohort = []
    for i in range(40):
        n = int(rng.integers(1, 16))
        if whole_gaps:  # gaps repeat within and across patients
            times = np.cumsum(rng.integers(1, 4, size=n)).astype(float)
        else:
            times = random_times(rng, n)
        cohort.append(Trajectory(f"p{i}", times, random_observations(rng, n, bins, 0.3)))
    blank_tail = random_observations(rng, 10, bins, 0.0)
    blank_tail[7:] = MISSING  # a 0.7 prefix keeps seven points
    cohort.insert(5, Trajectory("blank-tail", np.arange(10.0), blank_tail))
    cohort.insert(9, Trajectory("single", np.array([3.0]), np.array([[1, 2]])))
    return mixture, cohort


# The cohort scorer sums each patient's losses in row order, the oracle
# pairwise, and numpy rounds a one-row matrix product differently from a
# product of several rows: scores agree to a few ulps, far inside this.
SCORE_TOLERANCE = dict(rel=1e-13, abs=1e-14)


def _assert_report_matches_oracle(mixture, cohort, fraction=0.7):
    """Per patient, the report and the one-patient case both score what the
    per-patient oracle scores."""
    expected = {}
    for t in cohort:
        try:
            expected[t.patient_id] = held_out_loss(mixture, t, fraction)
        except NoHeldOutObservations:
            pass
    report = forecast_report(mixture, cohort, fraction)
    assert [pid for pid, _ in report.per_patient] == list(expected)
    assert report.n_skipped_patients == len(cohort) - len(expected)
    assert report.n_scored_observations == sum(k for _, k in expected.values())
    by_id = {t.patient_id: t for t in cohort}
    for pid, score in report.per_patient:
        total, k = expected[pid]
        assert type(score) is float
        assert score == pytest.approx(total / k, **SCORE_TOLERANCE)
        alone = forecast_cross_entropy(mixture, by_id[pid], fraction)
        assert alone == pytest.approx(total / k, **SCORE_TOLERANCE)
    return report


class TestCohortScorer:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_subtypes", [1, 3])
    @pytest.mark.parametrize("whole_gaps", [False, True])
    def test_report_matches_the_per_patient_oracle(self, seed, n_subtypes, whole_gaps):
        mixture, cohort = _random_scoring_case(seed, n_subtypes, whole_gaps)
        report = _assert_report_matches_oracle(mixture, cohort)
        assert report.n_skipped_patients >= 2  # the one-point and blank-tail patients
        chosen = {assign_subtype(mixture, prefix_split(t, 0.7)[0])[0] for t in cohort}
        assert len(chosen) > 1 or n_subtypes == 1

    @pytest.mark.parametrize("fraction", [1e-10, 0.3, 0.7, 0.85])
    def test_fractions_match_the_oracle(self, fraction):
        mixture, cohort = _random_scoring_case(7, 2, False)
        _assert_report_matches_oracle(mixture, cohort, fraction)

    def test_translated_and_padded_cohorts_match_the_oracle(self):
        mixture, cohort = _random_scoring_case(8, 2, True)
        shifted = [Trajectory(t.patient_id, t.times - 700.25, t.observations) for t in cohort]
        base = _assert_report_matches_oracle(mixture, cohort)
        moved = _assert_report_matches_oracle(mixture, shifted)
        assert [s for _, s in moved.per_patient] == pytest.approx(
            [s for _, s in base.per_patient], **SCORE_TOLERANCE)
        padded_mixture = MixtureModel(
            tuple(
                SubtypeModel(model.initial, model.generator, EmissionTable(
                    tables=(*model.emissions.tables, np.full((3, 2), 0.5))))
                for model in mixture.models
            ),
            mixture.prior, np.empty(0, int), [],
        )
        padded = [Trajectory(t.patient_id, t.times,
                             np.column_stack([t.observations, np.full(t.length, MISSING)]))
                  for t in cohort]
        padded_report = _assert_report_matches_oracle(padded_mixture, padded)
        assert [s for _, s in padded_report.per_patient] == pytest.approx(
            [s for _, s in base.per_patient], **SCORE_TOLERANCE)

    def test_the_first_impossible_patient_in_cohort_order_is_named(self):
        # Subtype 1 alone can emit bin 2, so a prefix of 2s chooses it; it
        # cannot emit bin 0.
        tables = [np.array([[0.5, 0.5, 0.0]]), np.array([[0.0, 0.5, 0.5]])]
        mixture = MixtureModel(
            tuple(_flat_mixture(table_rows=table).models[0] for table in tables),
            np.array([0.5, 0.5]), np.empty(0, int), [],
        )
        fine = Trajectory("fine", np.arange(6.0), np.full((6, 1), 1))
        late = Trajectory("late", np.arange(6.0), np.array([[2], [2], [2], [2], [1], [0]]))
        early = Trajectory("early", np.arange(6.0), np.array([[0], [0], [0], [0], [0], [2]]))
        nowhere = Trajectory("nowhere", np.arange(6.0), np.array([[0], [2], [1], [1], [1], [1]]))
        for cohort, named in (([fine, late, early], late), ([fine, early, late], early),
                              ([fine, nowhere, late], nowhere)):
            with pytest.raises(ImpossibleTrajectory) as got:
                forecast_report(mixture, cohort, 0.7)
            with pytest.raises(ImpossibleTrajectory) as want:
                held_out_loss(mixture, named, 0.7)
            assert str(got.value) == str(want.value)

    def test_an_empty_cohort_has_nothing_to_score(self):
        with pytest.raises(NoHeldOutObservations, match="none of 0 patients"):
            forecast_report(_flat_mixture(), [], 0.7)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, math.nan])
    def test_a_fraction_outside_the_unit_interval_is_rejected(self, fraction):
        (t,) = _simple_cohort(np.random.default_rng(14), 1)
        for call in (lambda: forecast_report(_flat_mixture(), [t], fraction),
                     lambda: forecast_cross_entropy(_flat_mixture(), t, fraction)):
            with pytest.raises(InvariantViolation, match="prefix_fraction must lie strictly"):
                call()


@pytest.fixture
def scoring_counts(monkeypatch):
    """Forward-filter passes, and the kernel stacks built for propagation and
    for the forward pass."""
    counts = {"passes": 0, "kernels": {}}
    forward_filter, kernels = mixture_module.forward_filter, inference._generator_kernels

    def counted_filter(*args):
        counts["passes"] += 1
        return forward_filter(*args)

    def counted_kernels(*args):
        caller = sys._getframe(1).f_code.co_name
        use = "propagate" if caller == "propagate_filter" else "forward"
        counts["kernels"][use] = counts["kernels"].get(use, 0) + 1
        return kernels(*args)

    monkeypatch.setattr(mixture_module, "forward_filter", counted_filter)
    monkeypatch.setattr(inference, "_generator_kernels", counted_kernels)
    return counts


def test_a_report_makes_one_pass_and_one_kernel_stack_per_chosen_subtype(scoring_counts):
    mixture = separated_mixture(
        [np.array([[0], [3], [1]]), np.array([[4], [1], [2]]), np.array([[2], [0], [4]])],
        [[0.6, 0.3], [1.1, 0.4], [0.2, 0.9]],
    )
    cohort = _simple_cohort(np.random.default_rng(15), 30, lengths=(1, 14), missing=0.3)
    chosen = {assign_subtype(mixture, prefix_split(t, 0.7)[0])[0]
              for t in cohort if np.any(prefix_split(t, 0.7)[2] != MISSING)}
    assert len(chosen) > 1
    scoring_counts["passes"], scoring_counts["kernels"] = 0, {}
    forecast_report(mixture, cohort, 0.7)
    assert scoring_counts["passes"] == 1
    assert scoring_counts["kernels"] == {"forward": 1, "propagate": len(chosen)}

    scoring_counts["passes"], scoring_counts["kernels"] = 0, {}
    forecast_cross_entropy(mixture, max(cohort, key=lambda t: t.length), 0.7)
    assert scoring_counts["passes"] == 1
    assert scoring_counts["kernels"] == {"forward": 1, "propagate": 1}


class TestGridEvaluate:
    def test_singleton_grid_equals_direct_run(self):
        truth = separated_mixture([np.array([[0], [2], [4]])], [[0.5, 0.4]])
        cohort = sample_cohort(
            truth,
            30,
            ObservationTimeConfig(min_observations=6, max_observations=14),
            missing_rate=0.1,
            seed=41,
        ).trajectories
        config = EmConfig(seed=2, restarts=1, max_iterations=10, delta_quantization=0.1)
        grid = grid_evaluate(
            cohort, [1], [2], config, train_fraction=0.8, prefix_fraction=0.7, split_seed=5
        )
        cell = grid.cells[(1, 2)]

        train, test = split_cohort(cohort, 0.8, seed=5)
        model, _ = fit_disease_model(train, 2, config)
        direct_mixture = MixtureModel(
            models=(model,),
            prior=np.array([1.0]),
            assignments=np.zeros(len(train), dtype=int),
            objective_trace=[],
        )
        direct = forecast_report(direct_mixture, test, 0.7, seed=config.seed)
        assert cell.mean == pytest.approx(direct.mean, abs=1e-12)
        assert cell.per_patient == direct.per_patient

    def test_records_and_rendering(self):
        rng = np.random.default_rng(9)
        cohort = _simple_cohort(rng, 12, bin_counts=(3,), lengths=(4, 9))
        config = EmConfig(seed=1, restarts=1, max_iterations=5)
        grid = grid_evaluate(cohort, [1, 2], [1], config, split_seed=3)
        records = grid.to_records()
        assert len(records) == 2
        assert {r["subtypes"] for r in records} == {1, 2}
        text = grid.render_text()
        assert "Subtypes" in text and "1" in text
        assert len(text.splitlines()) == 3

    def test_reproducible_run_to_run(self):
        rng = np.random.default_rng(10)
        cohort = _simple_cohort(rng, 10, bin_counts=(3,), lengths=(4, 8))
        config = EmConfig(seed=4, restarts=1, max_iterations=5)
        a = grid_evaluate(cohort, [1], [1], config, split_seed=2)
        b = grid_evaluate(cohort, [1], [1], config, split_seed=2)
        assert a.cells[(1, 1)].per_patient == b.cells[(1, 1)].per_patient
