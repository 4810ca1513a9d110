import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cthmm_subtyping import (
    MISSING,
    BinningScheme,
    DimensionMismatch,
    EmissionTable,
    FeatureBinning,
    InvariantViolation,
    SubtypeModel,
    Trajectory,
    UnknownFeature,
    discretize,
    expected_feature_value,
    forward_filter,
    full_mask,
    validate_generator,
)
from cthmm_subtyping.emissions import log_emission_matrix, stacked_columns

from oracles import discretize_value, emission_log_likelihood

HEART_RATE = FeatureBinning(name="heart_rate", lower=40.0, upper=150.0, bins=5)
SCHEME = BinningScheme((HEART_RATE,))


class TestDiscretize:
    def test_lower_boundary_lands_in_first_bin(self):
        assert discretize(40.0, "heart_rate", SCHEME) == 0

    def test_out_of_range_is_missing(self):
        assert discretize(151.0, "heart_rate", SCHEME) == MISSING
        assert discretize(39.9, "heart_rate", SCHEME) == MISSING

    def test_interior_value(self):
        # width 22, so 95 sits in bin floor((95-40)/22) = 2
        assert discretize(95.0, "heart_rate", SCHEME) == 2

    def test_upper_boundary_lands_in_last_bin(self):
        assert discretize(150.0, "heart_rate", SCHEME) == 4

    def test_nan_is_missing(self):
        assert discretize(float("nan"), "heart_rate", SCHEME) == MISSING

    def test_unknown_feature(self):
        with pytest.raises(UnknownFeature):
            discretize(80.0, "respiration", SCHEME)
        with pytest.raises(UnknownFeature):
            discretize(80.0, 3, SCHEME)

    @given(
        a=st.floats(min_value=40.0, max_value=150.0),
        b=st.floats(min_value=40.0, max_value=150.0),
    )
    def test_monotone_in_value(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert discretize(lo, 0, SCHEME) <= discretize(hi, 0, SCHEME)

    @given(value=st.floats(min_value=40.0, max_value=150.0))
    def test_assigned_center_within_half_width(self, value):
        j = discretize(value, 0, SCHEME)
        center = HEART_RATE.centers[j]
        assert abs(value - center) <= HEART_RATE.width / 2 + 1e-9

    @pytest.mark.parametrize(
        "binning",
        [
            HEART_RATE,
            FeatureBinning(name="unit", lower=0.0, upper=1.0, bins=10),
            FeatureBinning(name="signed", lower=-1.0, upper=2.0, bins=3),
            FeatureBinning(name="tiny", lower=1e-300, upper=3e-300, bins=7),
        ],
    )
    def test_array_matches_scalar_rule_on_every_edge(self, binning):
        scheme = BinningScheme((binning,))
        edges = np.concatenate(
            [binning.edges, binning.lower + np.arange(binning.bins) * binning.width]
        )
        values = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [0.0, -0.0, np.nan, np.inf, -np.inf, 1e308, -1e308, 5e-324],
            ]
        )
        binned = discretize(values, 0, scheme)
        assert binned.dtype == np.dtype(int) and binned.shape == values.shape
        assert binned.tolist() == [discretize_value(v, 0, scheme) for v in values]

    @settings(max_examples=200, derandomize=True)
    @given(
        values=st.lists(
            st.floats(allow_nan=True, allow_infinity=True) | st.floats(-1.0, 2.0), max_size=40
        )
    )
    def test_array_matches_scalar_rule(self, values):
        scheme = BinningScheme((FeatureBinning(name="unit", lower=0.0, upper=1.0, bins=10),))
        expected = [discretize_value(v, 0, scheme) for v in values]
        assert discretize(np.array(values, dtype=float), 0, scheme).tolist() == expected
        assert [discretize(v, "unit", scheme).item() for v in values] == expected

    def test_scalar_gives_zero_dimensional_array(self):
        binned = discretize(95.0, "heart_rate", SCHEME)
        assert binned.shape == () and binned == 2

    def test_bad_binning_rejected(self):
        with pytest.raises(InvariantViolation):
            FeatureBinning(name="x", lower=10.0, upper=10.0, bins=5)
        with pytest.raises(InvariantViolation):
            FeatureBinning(name="x", lower=0.0, upper=1.0, bins=1)
        for lower, upper in ((-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)):
            with pytest.raises(InvariantViolation):
                FeatureBinning(name="x", lower=lower, upper=upper, bins=5)

    @pytest.mark.parametrize("bins", [2.7, 3.0, "5", True, None])
    def test_non_integer_bins_rejected(self, bins):
        # 2.7 used to truncate to two bins.
        with pytest.raises(InvariantViolation, match="feature 'x': bins .* is not an integer"):
            FeatureBinning(name="x", lower=0.0, upper=1.0, bins=bins)

    def test_numpy_integer_bins_become_ints(self):
        binning = FeatureBinning(name="x", lower=0.0, upper=1.0, bins=np.int64(3))
        assert type(binning.bins) is int and binning.bins == 3


class TestEmissionTable:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(InvariantViolation):
            EmissionTable(tables=(np.array([[0.5, 0.3]]),))

    def test_negative_probability_rejected(self):
        with pytest.raises(InvariantViolation):
            EmissionTable(tables=(np.array([[1.2, -0.2]]),))

    def test_nan_probability_rejected(self):
        with pytest.raises(InvariantViolation, match="NaN"):
            EmissionTable(tables=(np.array([[np.nan, 1.0]]),))

    def test_feature_state_counts_must_agree(self):
        with pytest.raises(InvariantViolation):
            EmissionTable(
                tables=(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5], [0.5, 0.5]]))
            )
        for tables in ((np.zeros((0, 2)),), (np.zeros((1, 0)),)):
            with pytest.raises(InvariantViolation):
                EmissionTable(tables=tables)

    def test_stacked_is_built_once_and_read_only(self):
        table = EmissionTable(tables=(np.array([[0.2, 0.8], [0.5, 0.5]]), np.eye(2)))
        assert table.stacked is table.stacked
        assert np.array_equal(
            table.stacked, [[0.2, 0.8, 1.0, 0.0, 1.0], [0.5, 0.5, 0.0, 1.0, 1.0]]
        )
        with pytest.raises(ValueError):
            table.stacked[0, 0] = 1.0


class TestEmissionLogLikelihood:
    def setup_method(self):
        self.table = EmissionTable(
            tables=(
                np.array([[0.2, 0.8], [0.6, 0.4]]),
                np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]]),
            )
        )

    def test_all_missing_scores_zero(self):
        assert emission_log_likelihood(self.table, 0, np.array([MISSING, MISSING])) == 0.0

    def test_single_observed_feature(self):
        value = emission_log_likelihood(self.table, 0, np.array([0, MISSING]))
        assert value == pytest.approx(math.log(0.2), abs=1e-15)

    def test_two_features_multiply(self):
        value = emission_log_likelihood(self.table, 0, np.array([0, 1]))
        assert value == pytest.approx(math.log(0.2 * 0.25), abs=1e-12)

    def test_masking_one_feature_removes_exactly_its_term(self):
        both = emission_log_likelihood(self.table, 1, np.array([1, 2]))
        masked = emission_log_likelihood(self.table, 1, np.array([1, MISSING]))
        assert both - masked == pytest.approx(math.log(0.8), abs=1e-12)

    def test_matrix_helper_agrees_with_scalar(self):
        rng = np.random.default_rng(5)
        obs = np.column_stack(
            [rng.integers(-1, 2, size=12), rng.integers(-1, 3, size=12)]
        )
        columns = stacked_columns(obs, self.table.bin_counts)
        matrix = log_emission_matrix([self.table], columns, np.zeros(12, dtype=int))
        for i in range(obs.shape[0]):
            for k in range(2):
                assert matrix[i, k] == pytest.approx(
                    emission_log_likelihood(self.table, k, obs[i]), abs=1e-12
                )


    def test_matrix_helper_rejects_out_of_range_bins(self):
        # Feature 0 has 2 bins and feature 1 has 3; none may spill over.  The
        # helper's columns come from stacked_columns, which checks every bin,
        # and so does each pass that reads them.
        model = SubtypeModel(initial=np.array([0.5, 0.5]),
                             generator=validate_generator(np.ones((2, 2)), full_mask(2)),
                             emissions=self.table)
        for row in ([2, 0], [0, 3], [-2, 0]):
            obs = np.array([[0, 0], row])
            with pytest.raises(DimensionMismatch, match="bin index out of range"):
                stacked_columns(obs, self.table.bin_counts)
            if min(row) >= MISSING:  # a Trajectory holds no other negative index
                with pytest.raises(DimensionMismatch, match="bin index out of range"):
                    forward_filter([model], [Trajectory("p", np.array([0.0, 1.0]), obs)])

    def test_matrix_helper_rejects_mixed_bins(self):
        # Same feature count, different bins per feature.
        other = EmissionTable(tables=(np.full((2, 3), 1 / 3), np.full((2, 2), 0.5)))
        with pytest.raises(DimensionMismatch, match="bins"):
            log_emission_matrix([self.table, other], np.array([[0, 0]]), np.array([0]))

    def test_matrix_helper_takes_each_rows_table(self):
        other = EmissionTable(tables=(np.array([[0.9, 0.1], [0.3, 0.7]]), np.full((2, 3), 1 / 3)))
        obs = np.array([[0, 2], [MISSING, 1], [1, MISSING]])
        owner = np.array([1, 0, 1])
        columns = stacked_columns(obs, self.table.bin_counts)
        mixed = log_emission_matrix([self.table, other], columns, owner)
        assert mixed.shape == (3, 2)
        for m, table in enumerate((self.table, other)):
            alone = log_emission_matrix([table], columns, np.zeros(3, dtype=int))
            assert np.array_equal(mixed[owner == m], alone[owner == m])


class TestExpectedFeatureValue:
    def test_point_mass_on_first_bin(self):
        table = EmissionTable(tables=(np.array([[1.0, 0.0, 0.0, 0.0, 0.0]]),))
        assert expected_feature_value(table, 0, 0, SCHEME) == pytest.approx(51.0)

    def test_uniform_gives_midrange(self):
        table = EmissionTable(tables=(np.full((1, 5), 0.2),))
        assert expected_feature_value(table, 0, 0, SCHEME) == pytest.approx(95.0)

    def test_symmetric_mass_gives_midrange(self):
        table = EmissionTable(tables=(np.array([[0.5, 0.0, 0.0, 0.0, 0.5]]),))
        assert expected_feature_value(table, 0, 0, SCHEME) == pytest.approx(95.0)
