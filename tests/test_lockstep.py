"""Lockstep EM and pair-packed passes against the serial runs they replaced.

Every fit of a lockstep run must reproduce, bit for bit, the run it would
have had on its own: the same models, traces, restart scores and mixture
assignments, and the same errors.
"""

import sys

import numpy as np
import pytest

from cthmm_subtyping import (
    EmConfig,
    EmissionTable,
    ExpmInaccuracy,
    ImpossibleTrajectory,
    InvariantViolation,
    ObservationTimeConfig,
    SubtypeModel,
    Trajectory,
    ctmc,
    e_step,
    emissions,
    fit_disease_model,
    fit_mixture,
    inference,
    learning,
    left_to_right_mask,
    mixture,
    sample_cohort,
    validate_generator,
)
from cthmm_subtyping.inference import _Cohort, _pack
from cthmm_subtyping.learning import (
    _best_restart,
    _e_steps,
    _fit_sets,
    _prepare_cohort,
    _restarts,
    _run_em,
)

from conftest import random_model, random_observations, random_times, separated_mixture
from oracles import (
    forward_backward_batch,
    pack_by_trajectory,
    packed_posteriors,
    quantize_by_trajectory,
    scatter_counts,
    serial_fit_mixture,
    serial_fit_prepared,
    serial_run_em,
)

BINS = (3, 2)  # feature 1 is binary, so it can be a pinned intervention


def _cohort(seed, lengths):
    """Trajectories of the given lengths with raw (all distinct) gaps."""
    rng = np.random.default_rng(seed)
    return [
        Trajectory(f"p{i}", random_times(rng, n), random_observations(rng, n, BINS))
        for i, n in enumerate(lengths)
    ]


def _jordan_start(rng):
    """A 3-state start whose equal chain rates make a Jordan block, so that
    its kernels come from the ``expm`` fallback."""
    model = random_model(rng, 3, BINS)
    generator = validate_generator(np.diag([0.77, 0.77], 1), left_to_right_mask(3))
    return SubtypeModel(initial=model.initial, generator=generator, emissions=model.emissions)


def _drifting_expm(monkeypatch):
    """Fallback exponentials whose row sums drift by 1e-6, past the 1e-8 guard."""
    real_expm = ctmc.expm
    monkeypatch.setattr(ctmc, "expm", lambda a: real_expm(a) * (1.0 + 1e-6))


def _restarts_with_a_broken_kernel():
    """A raw-gap cohort and three restarts on it, the middle one a Jordan start."""
    rng = np.random.default_rng(22)
    cohort = _cohort(7, MIXED_LENGTHS)
    starts = [random_model(rng, 3, BINS), _jordan_start(rng), random_model(rng, 3, BINS)]
    return cohort, starts


def _assert_same_model(model, reference):
    assert np.array_equal(model.initial, reference.initial)
    assert np.array_equal(model.generator.rates, reference.generator.rates)
    for table, expected in zip(model.emissions.tables, reference.emissions.tables, strict=True):
        assert np.array_equal(table, expected)


def _assert_same_fit(outcome, reference):
    (model, diag), (expected_model, expected_diag) = outcome, reference
    _assert_same_model(model, expected_model)
    assert diag == expected_diag


MIXED_LENGTHS = [1, 2, 3, 5, 8, 13, 4, 9, 2, 6, 11, 7, 3, 10]


class TestLockstepMatchesSerial:
    @pytest.mark.parametrize("structure", ["full", "left-to-right"])
    @pytest.mark.parametrize("pinned", [None, 1])
    def test_restarts_and_subtypes_in_one_run(self, structure, pinned):
        config = EmConfig(max_iterations=6, tolerance=3e-3, structure=structure, restarts=3,
                          terminal_intervention_feature=pinned)
        cohort = _cohort(3, MIXED_LENGTHS)
        everyone = np.arange(len(cohort))
        # Three restarts on the whole cohort, then two more models on
        # member sets of unequal size; with raw gaps those sets share no gap.
        fits = _restarts(_Cohort.of(cohort, BINS), everyone, 3, config)
        fits += [(everyone[:4], fits[0][1]), (everyone[4:], fits[1][1])]
        outcomes = _run_em(_Cohort.of(cohort, BINS), fits, config)
        for (members, start), outcome in zip(fits, outcomes, strict=True):
            reference = serial_run_em([cohort[i] for i in members], start, config)
            _assert_same_fit(outcome, reference)
        # Some fits stop by tolerance, others at the iteration cap.
        assert {diag.converged for _, diag in outcomes} == {True, False}

    @pytest.mark.parametrize("quantization", [None, 0.5])
    def test_restart_search(self, quantization):
        config = EmConfig(max_iterations=10, restarts=4, delta_quantization=quantization)
        trajectories = _cohort(8, MIXED_LENGTHS)
        cohort = _prepare_cohort(trajectories, config, BINS)
        fits = _restarts(cohort, np.arange(len(cohort)), 3, config)
        (best,) = _fit_sets(cohort, [fits], config)
        if quantization is not None:
            trajectories = quantize_by_trajectory(trajectories, quantization)
        reference = serial_fit_prepared(trajectories, 3, BINS, config)
        _assert_same_fit(best, reference)
        assert len(best[1].restart_scores) == 4

    @pytest.mark.parametrize(
        "structure, quantization, pinned",
        [("left-to-right", None, None), ("full", 0.25, None), ("left-to-right", 0.25, 1)],
    )
    def test_mixture(self, structure, quantization, pinned):
        truth = separated_mixture(
            [np.array([[0, 0], [1, 1], [2, 1]]), np.array([[2, 1], [1, 0], [0, 0]]),
             np.array([[1, 0], [2, 0], [0, 1]])],
            [[0.5, 0.3], [0.25, 0.6], [0.4, 0.4]],
            n_bins=3,
        )
        cohort = sample_cohort(
            truth, 45, ObservationTimeConfig(min_observations=2, max_observations=14),
            missing_rate=0.2, seed=5,
        ).trajectories
        # Feature 1 only ever shows bins 0 and 1, as a pinned binary needs.
        cohort = [Trajectory(t.patient_id, t.times,
                             np.column_stack([t.observations[:, 0],
                                              np.minimum(t.observations[:, 1], 1)]))
                  for t in cohort]
        config = EmConfig(max_iterations=8, restarts=2, structure=structure, seed=2,
                          delta_quantization=quantization, terminal_intervention_feature=pinned,
                          mixture_iterations=4)
        fitted = fit_mixture(cohort, 3, 3, config)
        reference, _ = serial_fit_mixture(cohort, 3, 3, config)
        assert np.array_equal(fitted.assignments, reference.assignments)
        assert fitted.objective_trace == reference.objective_trace
        for model, expected in zip(fitted.models, reference.models, strict=True):
            _assert_same_model(model, expected)


class TestPairPackedPass:
    def test_posteriors_equal_one_pass_per_model(self):
        rng = np.random.default_rng(11)
        cohort = _cohort(4, MIXED_LENGTHS)
        models = [random_model(rng, 3, BINS) for _ in range(4)]
        members = [np.arange(14), np.array([0, 5, 6]), np.array([1, 2, 3, 4]), np.arange(7, 14)]
        together = packed_posteriors(models, _pack(_Cohort.of(cohort, BINS), members))
        pair, row, step = 0, 0, 0
        for m, (model, group) in enumerate(zip(models, members)):
            alone = forward_backward_batch(model, [cohort[i] for i in group])
            n_pairs, n_rows = len(group), alone.gamma.shape[0]
            own = slice(together.gap_starts[m], together.gap_starts[m + 1])
            assert np.array_equal(together.log_likelihood[pair : pair + n_pairs],
                                  alone.log_likelihood)
            assert np.array_equal(together.gamma[row : row + n_rows], alone.gamma)
            assert np.array_equal(together.log_scale[row : row + n_rows], alone.log_scale)
            assert np.array_equal(together.xi[step : step + n_rows - n_pairs], alone.xi)
            assert np.array_equal(together.gaps[own], alone.gaps)
            assert np.array_equal(together.kernels[own], alone.kernels)
            assert np.array_equal(
                together.gap_index[step : step + n_rows - n_pairs] - own.start, alone.gap_index
            )
            pair, row, step = pair + n_pairs, row + n_rows, step + n_rows - n_pairs

    def test_a_broken_model_leaves_the_others_bitwise_alone(self, monkeypatch):
        rng = np.random.default_rng(13)
        cohort = _cohort(5, MIXED_LENGTHS)
        # The broken model shares its run (one kernel stack) with model 0.
        models = [random_model(rng, 3, BINS), _jordan_start(rng), random_model(rng, 3, BINS)]
        members = [np.arange(9), np.arange(9), np.arange(9, 14)]
        _drifting_expm(monkeypatch)
        results = _e_steps(_pack(_Cohort.of(cohort, BINS), members), models)
        assert isinstance(results[1], ExpmInaccuracy)
        for m in (0, 2):
            (stats, ll), (expected, expected_ll) = results[m], e_step(
                models[m], [cohort[i] for i in members[m]])
            assert ll == expected_ll
            for name in ("gaps", "pair_counts", "gamma_initial", "emission_counts",
                         "transition_probs"):
                assert np.array_equal(getattr(stats, name), getattr(expected, name)), name

    def test_statistics_cover_only_their_own_gaps(self):
        rng = np.random.default_rng(12)
        cohort = _cohort(5, MIXED_LENGTHS)
        models = [random_model(rng, 2, BINS) for _ in range(2)]
        members = [np.arange(6), np.arange(6, 14)]
        results = _e_steps(_pack(_Cohort.of(cohort, BINS), members), models)
        for model, group, (stats, ll) in zip(models, members, results, strict=True):
            own = [cohort[i] for i in group]
            expected, expected_ll = e_step(model, own)
            assert ll == expected_ll
            assert np.array_equal(stats.gaps,
                                  np.unique(np.concatenate([np.diff(t.times) for t in own])))
            for name in ("gaps", "pair_counts", "gamma_initial", "emission_counts",
                         "transition_probs"):
                assert np.array_equal(getattr(stats, name), getattr(expected, name)), name
            assert stats.generator is model.generator


class TestAccumulationOracle:
    @pytest.mark.parametrize("seed", range(24))
    def test_counts_equal_a_scatter_add_bitwise(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_states = int(rng.integers(1, 9))
        bins = tuple(int(j) for j in rng.integers(2, 6, size=rng.integers(1, 9)))
        target = int(rng.integers(50, 4001))
        lengths = []
        while sum(lengths) < target:
            lengths.append(int(rng.integers(1, 40)))
        lengths[-1] -= sum(lengths) - target  # stays positive
        # Whole-number gaps repeat within and across trajectories.
        cohort = [
            Trajectory(f"p{i}", np.cumsum(rng.integers(1, 6, size=n)).astype(float),
                       random_observations(rng, n, bins, missing_rate=rng.uniform(0.0, 0.6)))
            for i, n in enumerate(lengths)
        ]
        # Two restarts on the whole cohort, then two subtypes on its halves.
        everyone = np.arange(len(cohort))
        split = int(rng.integers(1, len(cohort)))
        members = [everyone, everyone, everyone[:split], everyone[split:]]
        models = [random_model(rng, n_states, bins) for _ in members]
        packing = _pack(_Cohort.of(cohort, bins), members)
        _, gamma, xi, _, _, _ = inference._forward_backward(models, packing)
        columns = pack_by_trajectory(cohort, members, bins)["columns"]
        n_first = packing.sizes[0]
        for m, result in enumerate(_e_steps(packing, models)):
            stats, _ = result
            # The fit's own rows and pair-ending rows, in packed order.
            rows = np.nonzero(packing.row_model == m)[0]
            ends = rows[rows >= n_first]
            own = slice(packing.gap_starts[m], packing.gap_starts[m + 1])
            emission_counts, pair_counts = scatter_counts(
                gamma[rows], columns[rows], sum(bins), xi[ends - n_first],
                packing.slot[ends] - own.start, own.stop - own.start,
            )
            assert np.array_equal(stats.emission_counts, emission_counts)
            assert np.array_equal(stats.pair_counts, pair_counts)
            firsts = rows[rows < n_first]
            initial = np.zeros((1, n_states))
            np.add.at(initial, np.zeros(firsts.size, dtype=int), gamma[firsts])
            assert np.array_equal(stats.gamma_initial, initial[0])


def _impossible_model(rng):
    """A model under which bin 0 of feature 0 never shows."""
    model = random_model(rng, 2, BINS)
    table = np.array([[0.0, 0.5, 0.5], [0.0, 0.2, 0.8]])
    emissions = EmissionTable(tables=(table, model.emissions.tables[1]))
    return SubtypeModel(initial=model.initial, generator=model.generator, emissions=emissions)


def _rule_out_bins(monkeypatch, bin_of):
    """Start models that give bin ``bin_of(config, rng)`` of feature 0 no mass.

    ``rng`` has made the start's own draws; a None bin leaves the start as drawn.
    """
    random_start = learning._random_start

    def ruling_out(n_states, bin_counts, config, rng, base_freqs, rate_scale):
        model = random_start(n_states, bin_counts, config, rng, base_freqs, rate_scale)
        ruled_out = bin_of(config, rng)
        if ruled_out is None:
            return model
        table = model.emissions.tables[0].copy()
        table[:, ruled_out] = 0.0
        emissions = EmissionTable((table / table.sum(axis=1, keepdims=True),
                                   *model.emissions.tables[1:]))
        return SubtypeModel(initial=model.initial, generator=model.generator, emissions=emissions)

    monkeypatch.setattr(learning, "_random_start", ruling_out)


class TestFailureIsolation:
    def test_impossible_restart_scores_minus_infinity(self):
        rng = np.random.default_rng(21)
        cohort = _cohort(6, MIXED_LENGTHS)
        assert any(np.any(t.observations[:, 0] == 0) for t in cohort)
        everyone = np.arange(len(cohort))
        starts = [random_model(rng, 2, BINS), _impossible_model(rng), random_model(rng, 2, BINS)]
        config = EmConfig(max_iterations=5)
        outcomes = _run_em(_Cohort.of(cohort, BINS), [(everyone, start) for start in starts],
                           config)
        assert isinstance(outcomes[1], ImpossibleTrajectory)
        for start, outcome in zip(starts[::2], outcomes[::2]):
            _assert_same_fit(outcome, serial_run_em(cohort, start, config))
        _, diag = _best_restart(outcomes)
        assert diag.restart_scores[1] == -np.inf
        assert np.isfinite(diag.restart_scores[0]) and np.isfinite(diag.restart_scores[2])

    def test_kernel_error_of_one_restart_stays_with_it(self, monkeypatch):
        cohort, starts = _restarts_with_a_broken_kernel()
        everyone = np.arange(len(cohort))
        config = EmConfig(max_iterations=4)
        references = [serial_run_em(cohort, start, config) for start in starts[::2]]
        # The restarts share a cohort, so their kernels come from one
        # stacked call; the middle one's fallback exponentials drift past
        # the guard.
        _drifting_expm(monkeypatch)
        with pytest.raises(ExpmInaccuracy) as serial:
            serial_run_em(cohort, starts[1], config)
        outcomes = _run_em(_Cohort.of(cohort, BINS), [(everyone, start) for start in starts],
                           config)
        assert isinstance(outcomes[1], ExpmInaccuracy)
        # Every gap drifts, so the message names the cohort's shortest one.
        assert str(outcomes[1]) == str(serial.value)
        shortest = min(np.diff(t.times).min() for t in cohort if t.length > 1)
        assert str(outcomes[1]).endswith(f"for interval {shortest}")
        for outcome, reference in zip(outcomes[::2], references):
            _assert_same_fit(outcome, reference)

    def test_failing_warm_refit_raises_as_the_serial_loop(self, monkeypatch):
        truth = separated_mixture(
            [np.array([[0, 0], [1, 1]]), np.array([[2, 1], [1, 0]]), np.array([[1, 0], [2, 1]])],
            [[0.5], [0.3], [0.4]],
            n_bins=3,
        )
        cohort = sample_cohort(truth, 30, ObservationTimeConfig(min_observations=3,
                                                                max_observations=9), seed=9).trajectories
        config = EmConfig(max_iterations=4, restarts=2, mixture_iterations=3)
        # After the first round, the warm refits of subtypes 1 and 2 fail at
        # their first M-step, each naming itself.
        first_round: dict[int, int] = {}
        assign_subtypes, m_step_initial = mixture.assign_subtypes, learning.m_step_initial

        def remember(fitted, trajectories):
            if not first_round:
                first_round.update((id(m.generator), i) for i, m in enumerate(fitted.models))
            return assign_subtypes(fitted, trajectories)

        def failing(stats):
            subtype = first_round.get(id(stats.generator), 0)
            if subtype:
                raise InvariantViolation(f"subtype {subtype} cannot be refit")
            return m_step_initial(stats)

        monkeypatch.setattr(mixture, "assign_subtypes", remember)
        monkeypatch.setattr(learning, "m_step_initial", failing)
        with pytest.raises(InvariantViolation) as serial:
            serial_fit_mixture(cohort, 3, 2, config)
        first_round.clear()
        with pytest.raises(InvariantViolation) as lockstep:
            fit_mixture(cohort, 3, 2, config)
        assert str(serial.value) == "subtype 1 cannot be refit"
        assert type(lockstep.value) is type(serial.value)
        assert str(lockstep.value) == str(serial.value)

    def test_every_restart_failing_raises_the_last_ones_error(self, monkeypatch):
        # Patient q<r> alone shows bin r of feature 0, which restart r rules out.
        rng = np.random.default_rng(23)
        cohort = [Trajectory(f"q{r}", random_times(rng, 4),
                             np.column_stack([np.full(4, r), rng.integers(0, 2, 4)]))
                  for r in range(3)]
        restart = iter(range(3))
        _rule_out_bins(monkeypatch, lambda config, rng: next(restart))
        with pytest.raises(ImpossibleTrajectory, match="patient 'q2'"):
            fit_disease_model(cohort, 2, EmConfig(restarts=3, max_iterations=3), BINS)

    def test_first_round_subtype_without_a_restart_raises_as_the_serial_loop(self, monkeypatch):
        truth = separated_mixture(
            [np.array([[0, 0], [1, 1]]), np.array([[2, 1], [1, 0]]), np.array([[1, 0], [2, 1]])],
            [[0.5], [0.3], [0.4]],
            n_bins=3,
        )
        cohort = sample_cohort(truth, 30, ObservationTimeConfig(min_observations=3,
                                                                max_observations=9), seed=9).trajectories
        config = EmConfig(max_iterations=4, restarts=3, mixture_iterations=3)
        # Every restart of subtype 1 (seed 0 + 1) rules out a bin of its own draw.
        ruled_out = []

        def of_subtype_1(config, rng):
            if config.seed != 1:
                return None
            ruled_out.append(int(rng.integers(3)))
            return ruled_out[-1]

        _rule_out_bins(monkeypatch, of_subtype_1)
        with pytest.raises(ImpossibleTrajectory) as serial:
            serial_fit_mixture(cohort, 3, 2, config)
        with pytest.raises(ImpossibleTrajectory) as lockstep:
            fit_mixture(cohort, 3, 2, config)
        assert ruled_out == [2, 1, 0] * 2
        assert type(lockstep.value) is type(serial.value)
        assert str(lockstep.value) == str(serial.value)


@pytest.fixture
def pass_counts(monkeypatch):
    """Calls of ``_pack``, of the forward-backward pass and of ``stacked_columns``.

    ``_pack`` and the pass are counted wherever they are bound;
    ``stacked_columns`` is counted per calling function, on every binding.
    """
    counts = {"pack": 0, "pass": 0, "columns": {}}
    pack, forward_backward = inference._pack, inference._forward_backward
    columns = emissions.stacked_columns

    def counted_pack(*args):
        counts["pack"] += 1
        return pack(*args)

    def counted_pass(*args):
        counts["pass"] += 1
        return forward_backward(*args)

    def counted_columns(*args):
        caller = sys._getframe(1).f_code.co_name
        counts["columns"][caller] = counts["columns"].get(caller, 0) + 1
        return columns(*args)

    for module in (inference, learning):
        monkeypatch.setattr(module, "_pack", counted_pack)
        monkeypatch.setattr(module, "_forward_backward", counted_pass)
    for module in (emissions, inference):
        monkeypatch.setattr(module, "stacked_columns", counted_columns)
    return counts


def test_one_pack_per_active_set_and_one_pass_per_lockstep_iteration(pass_counts, monkeypatch):
    truth = separated_mixture(
        [np.array([[0, 0], [1, 1], [2, 2]]), np.array([[4, 4], [3, 3], [1, 0]])],
        [[0.5, 0.3], [0.25, 0.6]],
    )
    cohort = sample_cohort(truth, 40, ObservationTimeConfig(min_observations=4,
                                                            max_observations=12), seed=3).trajectories
    config = EmConfig(max_iterations=15, tolerance=1e-5, restarts=2, delta_quantization=0.25)
    rounds = []
    run_em = learning._run_em

    def recorded(trajectories, fits, config):
        outcomes = run_em(trajectories, fits, config)
        rounds.append([len(diag.trace) for _, diag in outcomes])
        return outcomes

    monkeypatch.setattr(learning, "_run_em", recorded)
    fitted = fit_mixture(cohort, 2, 3, config)
    assert len(rounds[0]) == 4  # two subtypes x two restarts in one lockstep
    assert all(len(e_steps) == 2 for e_steps in rounds[1:])
    assignment_passes = len(fitted.objective_trace) // 2
    assert len(rounds) == assignment_passes
    # Each distinct stopping point leaves a smaller active set to pack.
    assert pass_counts["pack"] == sum(len(set(e)) for e in rounds) + assignment_passes
    assert pass_counts["pass"] == sum(max(e) for e in rounds)
    assert pass_counts["pass"] < sum(sum(e) for e in rounds)
    # The cohort is binned once, however many packings, passes, start
    # histograms and restart sets read it.
    assert pass_counts["columns"] == {"of": 1}


def test_a_broken_kernel_ends_its_fit_within_the_shared_pass(pass_counts, monkeypatch):
    cohort, starts = _restarts_with_a_broken_kernel()
    everyone = np.arange(len(cohort))
    config = EmConfig(max_iterations=4, tolerance=1e-12)
    _drifting_expm(monkeypatch)
    outcomes = _run_em(_Cohort.of(cohort, BINS), [(everyone, start) for start in starts],
                       config)
    assert isinstance(outcomes[1], ExpmInaccuracy)
    assert not outcomes[0][1].converged and not outcomes[2][1].converged
    # One pass over all three fits, then four over the two sound ones,
    # which stop together: no fit is passed alone.
    assert (pass_counts["pass"], pass_counts["pack"]) == (5, 2)


def test_benchmark_mixture_job_bins_its_cohort_once(pass_counts, workloads, tmp_path):
    workload = workloads.WORKLOADS["mixture_cli"]
    out = workload.run(workload.setup(workloads.DEFAULT_SEED, tmp_path))
    assert out.failures == {}
    # Fifteen passes over five packings: three active sets of the lockstep
    # fits, two assignment passes; all of them read one binned cohort.
    assert (pass_counts["pass"], pass_counts["pack"]) == (15, 5)
    assert pass_counts["columns"] == {"of": 1}
