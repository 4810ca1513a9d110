import csv
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cthmm_subtyping import (
    BinningScheme,
    DuplicateTimestamp,
    EmptyCohort,
    FeatureBinning,
    InvariantViolation,
    MixtureModel,
    ParseError,
    SubtypingError,
    UnknownColumn,
    VersionMismatch,
    load_cohort,
    load_config,
    load_model,
    restrict_features,
    save_cohort,
    save_model,
)
from cthmm_subtyping import cohort_io
from cthmm_subtyping.cohort_io import MODEL_VERSION, RunConfig, config_from_dict

from conftest import random_model, simple_scheme
from oracles import load_cohort_by_cell


def _random_mixture(rng, n_subtypes=2, n_states=2, bin_counts=(3, 2), scheme=None):
    models = tuple(random_model(rng, n_states, bin_counts) for _ in range(n_subtypes))
    prior = rng.dirichlet(np.ones(n_subtypes))
    return MixtureModel(
        models=models,
        prior=prior,
        assignments=rng.integers(0, n_subtypes, size=7),
        objective_trace=[-12.5, -10.25],
        scheme=scheme,
    )


def _assert_mixture_equal(a, b):
    assert np.array_equal(a.prior, b.prior)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.objective_trace == b.objective_trace
    assert len(a.models) == len(b.models)
    for ma, mb in zip(a.models, b.models):
        assert np.array_equal(ma.initial, mb.initial)
        assert np.array_equal(ma.generator.rates, mb.generator.rates)
        assert np.array_equal(ma.generator.mask, mb.generator.mask)
        for ta, tb in zip(ma.emissions.tables, mb.emissions.tables):
            assert np.array_equal(ta, tb)
    if a.scheme is None:
        assert b.scheme is None
    else:
        assert a.scheme.features == b.scheme.features


class TestModelRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        scheme = BinningScheme(
            (
                FeatureBinning(name="a", lower=0.0, upper=1.0, bins=3),
                FeatureBinning(name="b", lower=-5.0, upper=5.0, bins=2),
            )
        )
        mixture = _random_mixture(rng, scheme=scheme)
        path = tmp_path / "model.json"
        save_model(mixture, path)
        _assert_mixture_equal(mixture, load_model(path))

    def test_many_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "model.json"
        for i in range(50):
            mixture = _random_mixture(
                rng,
                n_subtypes=int(rng.integers(1, 4)),
                n_states=int(rng.integers(1, 4)),
                bin_counts=tuple(rng.integers(2, 5, size=int(rng.integers(1, 3)))),
            )
            save_model(mixture, path)
            _assert_mixture_equal(mixture, load_model(path))

    def test_version_mismatch_names_both_versions(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "model.json"
        save_model(_random_mixture(rng), path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(VersionMismatch) as excinfo:
            load_model(path)
        assert "99" in str(excinfo.value)
        assert str(MODEL_VERSION) in str(excinfo.value)

    @pytest.mark.parametrize(
        "corruption",
        [
            lambda p: p["models"][0]["emissions"][0][0].__setitem__(0, 0.0),
            lambda p: p["models"][0]["rates"][0].__setitem__(1, -0.4),
            lambda p: p["models"][0]["rates"][0].__setitem__(0, 5.0),
            lambda p: p["prior"].__setitem__(0, 0.9),
            lambda p: p["assignments"].__setitem__(0, 77),
            lambda p: p["models"][0].pop("initial"),
            lambda p: p.pop("models"),
            lambda p: p["models"][0]["initial"].__setitem__(0, -0.2),
            lambda p: p["models"][0]["mask"][0].__setitem__(1, False),
            lambda p: p["models"][0]["rates"][0].__setitem__(1, float("nan")),
        ],
    )
    def test_corrupted_files_raise_invariant_violation(self, tmp_path, corruption):
        rng = np.random.default_rng(3)
        mixture = _random_mixture(rng)
        path = tmp_path / "model.json"
        save_model(mixture, path)
        payload = json.loads(path.read_text())
        corruption(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(InvariantViolation):
            load_model(path)

    def test_unparseable_file_raises_invariant_violation(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(InvariantViolation):
            load_model(path)

    def test_emission_row_sum_violation(self, tmp_path):
        rng = np.random.default_rng(4)
        mixture = _random_mixture(rng)
        path = tmp_path / "model.json"
        save_model(mixture, path)
        payload = json.loads(path.read_text())
        payload["models"][0]["emissions"][0][0] = [0.5, 0.2, 0.1]
        path.write_text(json.dumps(payload))
        with pytest.raises(InvariantViolation):
            load_model(path)


COHORT_CSV = """patient_id,time,heart_rate,systolic_bp
alice,0.0,72,120
alice,1.5,155,118
alice,3.0,,95
bob,0.5,60,
bob,2.0,88,199
"""


class TestLoadCohort:
    def test_basic_ingestion(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(COHORT_CSV)
        cohort = load_cohort(path, simple_scheme())
        assert [t.patient_id for t in cohort] == ["alice", "bob"]
        alice = cohort[0]
        assert alice.times.tolist() == [0.0, 1.5, 3.0]
        # 72 bpm in [40, 150) with width 22 -> bin 1
        assert alice.observations[0, 0] == 1
        # out-of-range heart rate 155 ingests as missing
        assert alice.observations[1, 0] == -1
        # empty field is missing
        assert alice.observations[2, 0] == -1

    def test_rows_sorted_by_time(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(
            "patient_id,time,heart_rate,systolic_bp\np,2.0,70,100\np,1.0,80,110\n"
        )
        cohort = load_cohort(path, simple_scheme())
        assert cohort[0].times.tolist() == [1.0, 2.0]
        assert cohort[0].observations[0, 0] == discretize_hr(80)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(
            "patient_id,time,heart_rate,systolic_bp\np,1.0,70,100\np,1.0,80,110\n"
        )
        with pytest.raises(DuplicateTimestamp):
            load_cohort(path, simple_scheme())

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "Infinity"])
    def test_non_finite_time_rejected_with_line(self, tmp_path, bad):
        path = tmp_path / "cohort.csv"
        path.write_text(
            f"patient_id,time,heart_rate,systolic_bp\np,1.0,70,100\np,{bad},80,110\n"
        )
        with pytest.raises(ParseError, match=":3:"):
            load_cohort(path, simple_scheme())

    def test_repeated_infinite_times_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(
            "patient_id,time,heart_rate,systolic_bp\np,0.0,70,100\np,inf,80,110\np,inf,90,120\n"
        )
        with pytest.raises(ParseError, match=":3:"):
            load_cohort(path, simple_scheme())

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("patient_id,time,heart_rate,systolic_bp\n")
        with pytest.raises(EmptyCohort):
            load_cohort(path, simple_scheme())

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text("patient_id,time,heart_rate\np,1.0,70\n")
        with pytest.raises(UnknownColumn):
            load_cohort(path, simple_scheme())

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(
            "patient_id,time,heart_rate,systolic_bp\np,1.0,70,100\np,oops,80,110\n"
        )
        with pytest.raises(ParseError) as excinfo:
            load_cohort(path, simple_scheme())
        assert ":3:" in str(excinfo.value)

    def test_line_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(
            "patient_id,time,heart_rate,systolic_bp\np,1.0,70,100\n\np,oops,80,110\n"
        )
        with pytest.raises(ParseError, match=":4: time 'oops'"):
            load_cohort(path, simple_scheme())

    def test_all_missing_rows_retained(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(
            "patient_id,time,heart_rate,systolic_bp\np,1.0,,\np,2.0,70,100\n"
        )
        cohort = load_cohort(path, simple_scheme())
        assert cohort[0].length == 2
        assert np.all(cohort[0].observations[0] == -1)

    def test_save_load_idempotent(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(COHORT_CSV)
        scheme = simple_scheme()
        first = load_cohort(path, scheme)
        out = tmp_path / "resaved.csv"
        save_cohort(first, out, scheme)
        second = load_cohort(out, scheme)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.patient_id == b.patient_id
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.observations, b.observations)


# Width 1 (exact edges), width 0.1 (inexact edges: 0.5 // 0.1 == 4.0 but
# int(0.5 / 0.1) == 5) and width 22 over a typical vital-sign range.
_INGEST_SCHEME = BinningScheme(
    (
        FeatureBinning(name="a", lower=-1.0, upper=2.0, bins=3),
        FeatureBinning(name="b", lower=0.0, upper=1.0, bins=10),
        FeatureBinning(name="c", lower=40.0, upper=150.0, bins=5),
    )
)


def _edge_cells(binning):
    cells = []
    for edge in (*binning.edges, *(binning.lower + k * binning.width for k in range(binning.bins))):
        for value in (edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)):
            cells.append(repr(float(value)))
    return cells


_SPECIAL_CELLS = ["", " ", "0", "-0", "0.0", "-0.0", "+0", "nan", "NaN", "-nan", "inf",
                  "-inf", "Infinity", " 1.5 ", "\t0.3", "1e-320", "1e309"]


def _cells(binning):
    return st.one_of(
        st.sampled_from(sorted(set(_edge_cells(binning)))),
        st.sampled_from(_SPECIAL_CELLS),
        st.floats(binning.lower - 1.0, binning.upper + 1.0).map(repr),
    )


_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["p1", "p2", " p3 ", "p1 "]),  # "p1 " is patient p1 again
        st.one_of(st.floats(-5.0, 5.0).map(repr), st.sampled_from([" 3 ", "-0.0", "1e-9"])),
        st.tuples(*(_cells(f) for f in _INGEST_SCHEME.features)),
    ),
    min_size=1,
    max_size=12,
)
# Each edit spoils one row: a bad id, time or cell, or a row cut short
# after its first ``n`` fields (losing only feature fields is still valid).
_EDITS = st.one_of(
    st.just([]),
    st.lists(
        st.one_of(
            st.tuples(st.just("patient_id"), st.integers(0, 11), st.sampled_from(["", " "])),
            st.tuples(st.just("time"), st.integers(0, 11),
                      st.sampled_from(["nan", "inf", "-Infinity", "x", "", "1.0"])),
            st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 11),
                      st.sampled_from(["abc", "1,5", "0x1p3"])),
            st.tuples(st.just("short"), st.integers(0, 11), st.integers(1, 4)),
        ),
        min_size=1,
        max_size=2,
    ),
)


def _ingest(loader, path):
    try:
        return loader(path, _INGEST_SCHEME)
    except SubtypingError as err:
        return type(err), str(err)


def _trajectory_bytes(trajectory):
    return (
        trajectory.patient_id,
        trajectory.times.dtype.str,
        trajectory.times.tobytes(),
        trajectory.observations.dtype.str,
        trajectory.observations.shape,
        trajectory.observations.tobytes(),
    )


class TestColumnIngest:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=_ROWS, edits=_EDITS, columns=st.permutations(["patient_id", "time", "a", "b", "c"]))
    def test_matches_cell_by_cell_ingest_bitwise(self, rows, edits, columns):
        records = [dict(zip(("patient_id", "time", "a", "b", "c"), (pid, t, *cells)))
                   for pid, t, cells in rows]
        kept = [len(columns)] * len(records)
        for field, row, value in edits:
            row %= len(records)
            if field == "short":
                kept[row] = value
            else:
                records[row][field] = value
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "cohort.csv"
            with path.open("w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle)
                writer.writerow(columns)
                for record, n in zip(records, kept):
                    writer.writerow([record[name] for name in columns][:n])
            expected = _ingest(load_cohort_by_cell, path)
            actual = _ingest(load_cohort, path)
        if isinstance(expected, tuple):
            assert actual == expected
        else:
            assert [_trajectory_bytes(t) for t in actual] == [
                _trajectory_bytes(t) for t in expected
            ]

    def test_discretizes_once_per_feature_column(self, tmp_path, monkeypatch):
        calls = []

        def counting(values, feature, scheme):
            calls.append(np.shape(values))
            return binning(values, feature, scheme)

        binning = cohort_io.discretize
        monkeypatch.setattr(cohort_io, "discretize", counting)
        path = tmp_path / "cohort.csv"
        rows = [f"p{i % 7},{i},{i % 3 - 1},{i / 50},{40 + i}" for i in range(60)]
        path.write_text("patient_id,time,a,b,c\n" + "\n".join(rows) + "\n")
        cohort = load_cohort(path, _INGEST_SCHEME)
        assert calls == [(60,)] * 3
        assert [_trajectory_bytes(t) for t in cohort] == [
            _trajectory_bytes(t) for t in load_cohort_by_cell(path, _INGEST_SCHEME)
        ]


def discretize_hr(value):
    from cthmm_subtyping import discretize

    return discretize(value, "heart_rate", simple_scheme())


_WITH_INTERVENTION = {
    "features": [
        {"name": "heart_rate", "lower": 40, "upper": 150, "bins": 5},
        {"name": "flag", "lower": 0, "upper": 1, "bins": 2},
        {"name": "intervention", "lower": 0, "upper": 1, "bins": 2},
    ],
    "intervention_feature": "intervention",
    "eval_features": ["heart_rate", "flag"],
    "terminal_intervention": True,
    "left_to_right": True,
}


class TestRestrictFeatures:
    def test_projection(self, tmp_path):
        path = tmp_path / "cohort.csv"
        path.write_text(COHORT_CSV)
        config = RunConfig(scheme=simple_scheme(), eval_features=("heart_rate",))
        cohort = load_cohort(path, config.scheme)
        projected, sub = restrict_features(cohort, config, ("systolic_bp",))
        assert sub.scheme.names == ("systolic_bp",)
        assert sub.eval_features is None
        assert projected[0].observations.shape[1] == 1
        assert np.array_equal(
            projected[0].observations[:, 0], cohort[0].observations[:, 1]
        )

    def test_intervention_is_indexed_in_the_subset(self):
        config = config_from_dict(_WITH_INTERVENTION)
        assert config.em_config().terminal_intervention_feature == 2
        _, sub = restrict_features([], config, ("intervention", "heart_rate"))
        assert sub.intervention_feature == "intervention"
        assert sub.em_config().terminal_intervention_feature == 0
        assert sub.em_config().structure == "left-to-right"

    def test_subset_without_intervention_pins_nothing(self):
        config = config_from_dict(_WITH_INTERVENTION)
        _, sub = restrict_features([], config, ("heart_rate", "flag"))
        assert sub.intervention_feature is None
        assert not sub.terminal_intervention
        assert sub.em_config().terminal_intervention_feature is None


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.scheme.names == ("heart_rate", "systolic_bp")
        assert config.train_fraction == 0.8
        assert config.prefix_fraction == 0.7
        assert config.em.smoothing == 1e-3

    def test_empty_file_gives_the_dataclass_defaults(self):
        assert config_from_dict({}) == RunConfig()

    def test_left_to_right_key_sets_the_em_structure(self):
        config = config_from_dict({"left_to_right": True, "em": {"structure": "full"}})
        assert config.em.structure == "left-to-right"
        assert config.em_config() == config.em

    def test_from_json(self, tmp_path):
        payload = {
            "features": [
                {"name": "hr", "lower": 40, "upper": 150, "bins": 5},
                {"name": "bp", "lower": 40, "upper": 200, "bins": 5},
                {"name": "intervention", "lower": 0, "upper": 1, "bins": 2},
            ],
            "intervention_feature": "intervention",
            "eval_features": ["hr", "bp"],
            "subtypes": [2, 3],
            "states": 4,
            "left_to_right": True,
            "terminal_intervention": True,
            "seed": 11,
            "em": {"max_iterations": 77, "smoothing": 0.01},
            # Unknown top-level keys, such as the retired time_unit, are ignored.
            "time_unit": "hours",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        config = load_config(path)
        assert not hasattr(config, "time_unit")
        assert config.subtypes == [2, 3]
        assert config.states == [4]
        assert config.em.max_iterations == 77
        assert config.em.seed == 11
        em = config.em_config()
        assert em.structure == "left-to-right"
        assert em.terminal_intervention_feature == 2

    def test_bad_fraction_rejected(self):
        with pytest.raises(InvariantViolation):
            RunConfig(train_fraction=1.5)

    @pytest.mark.parametrize(
        "settings",
        [
            {"subtypes": []},
            {"states": []},
            {"subtypes": [0]},
            {"states": [2, 0]},
            {"subtypes": [-1]},
            {"seed": -1},
            {"train_fraction": float("nan")},
        ],
    )
    def test_invalid_settings_rejected(self, settings):
        with pytest.raises(InvariantViolation):
            RunConfig(**settings)

    def test_negative_em_seed_in_file_rejected(self):
        with pytest.raises(InvariantViolation, match="seed"):
            config_from_dict({"seed": -3})
        with pytest.raises(InvariantViolation, match="seed"):
            config_from_dict({"em": {"seed": -3}})

    def test_retired_em_setting_is_parse_error(self):
        with pytest.raises(ParseError, match="reestimate_prior"):
            config_from_dict({"em": {"reestimate_prior": True}})

    def test_unknown_eval_feature_rejected(self):
        with pytest.raises(InvariantViolation):
            config_from_dict({"eval_features": ["nope"]})

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{")
        with pytest.raises(ParseError):
            load_config(path)
