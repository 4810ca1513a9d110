"""The concatenated cohort layout against the per-trajectory code it replaced.

Packings, quantized times, binned columns, start histograms and restart
frequencies built from one :class:`_Cohort` must equal, bit for bit, what
``tests/oracles.py`` builds one trajectory at a time.
"""

import numpy as np
import pytest

from cthmm_subtyping import (
    DimensionMismatch,
    EmConfig,
    InvariantViolation,
    MixtureModel,
    Trajectory,
    assign_subtypes,
    e_step,
    fit_disease_model,
    fit_mixture,
    forecast_report,
    forward_filter,
)
from cthmm_subtyping.inference import _Cohort, _pack
from cthmm_subtyping.learning import (
    _e_steps,
    _empirical_bin_frequencies,
    _prepare_cohort,
    _quantized,
    _restarts,
)
from cthmm_subtyping.mixture import _bin_histograms

from conftest import random_model, random_observations
from oracles import (
    bin_frequencies_by_trajectory,
    bin_histograms_by_trajectory,
    pack_by_trajectory,
    quantize_by_trajectory,
    quantize_gaps,
)


def _random_cohort(rng, bins, whole_gaps):
    """Trajectories of 1 to 12 observations, a fifth of them a single one.

    Whole-number gaps repeat within and across patients; raw ones never do.
    """
    trajectories = []
    for i in range(int(rng.integers(1, 30))):
        n = 1 if rng.random() < 0.2 else int(rng.integers(2, 13))
        gaps = rng.integers(1, 4, size=n - 1) if whole_gaps else rng.uniform(0.1, 3.0, n - 1)
        times = rng.uniform(-50.0, 50.0) + np.concatenate([[0.0], np.cumsum(gaps)])
        trajectories.append(Trajectory(f"p{i}", times, random_observations(rng, n, bins)))
    return trajectories


def _member_lists(rng, n):
    """Three restarts on everyone (two sharing one array, one a copy), then
    subtypes on a random partition."""
    everyone = np.arange(n)
    labels = rng.integers(0, 3, size=n)
    subtypes = [np.nonzero(labels == m)[0] for m in range(3)]
    return [everyone, everyone, everyone.copy()] + [group for group in subtypes if group.size]


CASES = [(seed, whole, step) for seed in range(8) for whole in (False, True)
         for step in (None, 0.25)]


@pytest.mark.parametrize("seed, whole_gaps, step", CASES)
def test_layout_equals_the_per_trajectory_oracles(seed, whole_gaps, step):
    rng = np.random.default_rng(300 + seed)
    bins = tuple(int(j) for j in rng.integers(2, 5, size=rng.integers(1, 4)))
    raw = _random_cohort(rng, bins, whole_gaps)
    trajectories, cohort = raw, _Cohort.of(raw, bins)
    if step is not None:
        trajectories, cohort = quantize_by_trajectory(raw, step), _quantized(cohort, step)
        for got, want in zip(quantize_gaps(raw, step), trajectories, strict=True):
            assert np.array_equal(got.times, want.times)
    times = np.split(cohort.times, cohort.starts[1:])
    for got, want in zip(times, trajectories, strict=True):
        assert np.array_equal(got, want.times)
    assert np.array_equal(cohort.gaps, np.concatenate([np.diff(t.times) for t in trajectories]))

    members = _member_lists(rng, len(trajectories))
    packing = _pack(cohort, members)
    expected = pack_by_trajectory(trajectories, members, bins)
    for name, want in expected.items():
        got = getattr(packing, name)
        assert np.array_equal(got, want), name
        assert np.asarray(got).dtype == np.asarray(want).dtype, name

    assert np.array_equal(_bin_histograms(cohort),
                          bin_histograms_by_trajectory(trajectories, bins))
    for group in members:
        own = [trajectories[i] for i in group]
        assert np.array_equal(_empirical_bin_frequencies(cohort, group, 1e-3),
                              bin_frequencies_by_trajectory(own, bins, 1e-3))



NEAR_MAX = [Trajectory("a", np.array([0.0, 1e308]), np.zeros((2, 1), int)),
            Trajectory("b", np.array([-1e308, 0.0]), np.zeros((2, 1), int))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gaps_never_subtract_across_trajectories():
    # From the end of a to the start of b is -2e308, which overflows.
    assert np.array_equal(_Cohort.of(NEAR_MAX).gaps, [1e308, 1e308])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_near_max_gaps_take_their_mean_without_overflow():
    # The gaps sum to 2e308; their mean sets the start rates.
    config = EmConfig(restarts=2)
    for _, start in _restarts(_prepare_cohort(NEAR_MAX, config), np.arange(2), 2, config):
        assert np.all(np.isfinite(start.generator.rates))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cohort", [NEAR_MAX, NEAR_MAX[:1]])
def test_times_past_half_the_float_range_have_no_lattice(cohort):
    # |first time| + span is 2e308 for b, and 1e308 for a, whose lattice
    # needs twice that.
    with pytest.raises(InvariantViolation, match=r"quantized times reach 2 \* \d"):
        fit_disease_model(cohort, 2, EmConfig(delta_quantization=0.5))


def test_wrapping_tick_sums_stay_exact():
    # Each trajectory's ticks sum to about 2**52 lattice units, so the
    # cohort-wide running sum passes 2**63.
    rng = np.random.default_rng(7)
    trajectories = [
        Trajectory(f"p{i}", np.array([0.0, rng.uniform(1.0, 98.0), rng.uniform(99.0, 100.0)]),
                   np.zeros((3, 1), int))
        for i in range(4096)
    ]
    expected = quantize_by_trajectory(trajectories, 1e-20)
    unit = np.spacing(200.0)  # the lattice of times below 100
    assert sum(t.times[-1] for t in expected) / unit > 2.0**63
    for got, want in zip(quantize_gaps(trajectories, 1e-20), expected, strict=True):
        assert np.array_equal(got.times, want.times)


def test_reach_on_a_binade_edge_keeps_the_oracle_lattice():
    for times in [
        # |t0| + t_last - t0 + 2 step reaches 64 while |t0| + (t_last - t0)
        # + 2 step stays below it, so the lattice unit depends on the order
        # of that sum.
        [13.60447292660472, 38.702236463302356, 63.8],
        # A reach of 6e307, just below half the largest float.
        [-2e307, 0.0, 2e307],
    ]:
        t = Trajectory("edge", np.array(times), np.zeros((3, 1), int))
        (got,), (want,) = quantize_gaps([t], 0.1), quantize_by_trajectory([t], 0.1)
        assert np.array_equal(got.times, want.times)


class TestMixedFeatureCounts:
    one = Trajectory("one", np.array([0.0, 1.0]), np.array([[0], [1]]))
    two = Trajectory("two", np.array([0.0, 2.0]), np.array([[0, 1], [1, 0]]))

    def test_the_cohort_names_the_odd_patient(self):
        with pytest.raises(DimensionMismatch, match="patient 'two' has 2 features"):
            _Cohort.of([self.one, self.two])

    def test_every_entry_point_raises_a_dimension_mismatch(self):
        model = random_model(np.random.default_rng(0), 2, (2,))
        config = EmConfig(restarts=1, max_iterations=2)
        calls = [
            lambda: forward_filter([model], [self.one, self.two]),
            lambda: e_step(model, [self.one, self.two]),
            lambda: quantize_gaps([self.one, self.two], 0.5),
            lambda: fit_disease_model([self.one, self.two], 2, config),
            lambda: fit_mixture([self.one, self.two], 2, 2, config),
        ]
        for call in calls:
            with pytest.raises(DimensionMismatch):
                call()

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_scoring_names_the_patient_the_models_do_not_fit(self, bad_first):
        model = random_model(np.random.default_rng(0), 2, (2,))
        mixture = MixtureModel((model,), np.ones(1), np.empty(0, int), [])
        bad = Trajectory("bad", np.arange(4.0), np.zeros((4, 2), int))
        ok = Trajectory("ok", np.arange(4.0), np.zeros((4, 1), int))
        cohort = [bad, ok] if bad_first else [ok, bad]
        for call in (lambda: assign_subtypes(mixture, cohort),
                     lambda: forecast_report(mixture, cohort, 0.7)):
            with pytest.raises(DimensionMismatch,
                               match=r"^patient 'bad' has 2 features, model expects 1$"):
                call()

    def test_models_that_disagree_on_features_are_rejected(self):
        rng = np.random.default_rng(0)
        models = [random_model(rng, 2, (2,)), random_model(rng, 2, (2, 2))]
        with pytest.raises(InvariantViolation, match="disagree on state or feature count"):
            forward_filter(models, [self.one])

    def test_a_pass_under_another_bin_layout_is_refused(self):
        # The cohort's columns would be read as (3,)-bin ones, silently.
        model = random_model(np.random.default_rng(0), 2, (3,))
        cohort = _Cohort.of([self.one], (2,))
        with pytest.raises(DimensionMismatch, match=r"\(3,\) bins, .* binned under \(2,\)"):
            forward_filter([model], cohort)
        with pytest.raises(DimensionMismatch, match="binned under"):
            _e_steps(_pack(cohort, [np.arange(1)]), [model])

    def test_a_model_mismatch_names_the_patient(self):
        model = random_model(np.random.default_rng(0), 2, (2, 2))
        with pytest.raises(DimensionMismatch, match="patient 'one' has 1 features, model expects 2"):
            forward_filter([model], [self.one])
