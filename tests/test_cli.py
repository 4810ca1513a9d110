import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import cthmm_subtyping
from cthmm_subtyping import (
    EmissionTable,
    ObservationTimeConfig,
    SubtypeModel,
    assign_subtype,
    forecast_report,
    load_cohort,
    load_model,
    sample_cohort,
    save_cohort,
    save_model,
)
from cthmm_subtyping.cli import _best_matching, _label_accuracy, main

from conftest import best_permutation_accuracy, separated_mixture, simple_scheme


@pytest.fixture()
def workdir(tmp_path):
    config = {
        "features": [
            {"name": "heart_rate", "lower": 40, "upper": 150, "bins": 5},
            {"name": "systolic_bp", "lower": 40, "upper": 200, "bins": 5},
        ],
        "subtypes": 2,
        "states": 2,
        "seed": 7,
        "em": {
            "max_iterations": 8,
            "restarts": 1,
            "delta_quantization": 0.1,
            "mixture_iterations": 6,
        },
        "simulate": {"patients": 24, "missing_rate": 0.1, "max_observations": 16},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, str(config_path)


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestPipeline:
    def test_simulate_fit_assign_forecast(self, workdir, capsys):
        tmp, config = workdir
        cohort = tmp / "cohort.csv"
        model = tmp / "model.json"

        assert main(["simulate", "--config", config, "--out", str(cohort)]) == 0
        truth = tmp / "cohort.truth.csv"
        assert cohort.exists() and truth.exists()
        truth_rows = _read_rows(truth)
        assert {"patient_id", "subtype", "time", "hidden_state"} <= set(truth_rows[0])

        assert (
            main(
                [
                    "fit",
                    "--config",
                    config,
                    "--data",
                    str(cohort),
                    "--out",
                    str(model),
                    "--truth",
                    str(truth),
                ]
            )
            == 0
        )
        fit_output = capsys.readouterr().out
        assert "label accuracy" in fit_output
        persisted = load_model(model)
        assert persisted.n_subtypes == 2

        assignments = tmp / "assignments.csv"
        assert (
            main(
                [
                    "assign",
                    "--model",
                    str(model),
                    "--data",
                    str(cohort),
                    "--out",
                    str(assignments),
                ]
            )
            == 0
        )
        rows = _read_rows(assignments)
        assert len(rows) == 24
        by_id = {row["patient_id"]: int(row["subtype"]) for row in rows}
        # fitting stores training assignments; re-assigning the training
        # data must reproduce them exactly
        ordered = [by_id[f"p{i:05d}"] for i in range(24)]
        assert ordered == persisted.assignments.tolist()

        forecasts = tmp / "forecast.csv"
        assert (
            main(
                [
                    "forecast",
                    "--model",
                    str(model),
                    "--data",
                    str(cohort),
                    "--out",
                    str(forecasts),
                    "--config",
                    config,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "forecast cross-entropy" in out
        assert len(_read_rows(forecasts)) > 0

    def test_report_rows_per_subtype(self, tmp_path, capsys):
        scheme = simple_scheme()
        mixture = separated_mixture(
            [
                np.array([[0, 0], [1, 1], [2, 2], [3, 3]]),
                np.array([[4, 4], [3, 2], [2, 1], [0, 0]]),
            ],
            [[0.5, 0.4, 0.3], [0.6, 0.2, 0.7]],
            scheme=scheme,
        )
        model_path = tmp_path / "model.json"
        save_model(mixture, model_path)
        out = tmp_path / "report.csv"
        assert main(["report", "--model", str(model_path), "--out", str(out)]) == 0
        rows = _read_rows(out)
        assert len(rows) == 8
        per_subtype = {}
        for row in rows:
            per_subtype.setdefault(row["subtype"], []).append(row["state"])
        assert per_subtype == {"0": ["0", "1", "2", "3"], "1": ["0", "1", "2", "3"]}
        final = [r for r in rows if r["state"] == "3"]
        assert all(r["expected_duration"] == "inf" for r in final)

    def test_grid_outputs_and_byte_reproducibility(self, workdir, capsys):
        tmp, config = workdir
        cohort = tmp / "cohort.csv"
        main(["simulate", "--config", config, "--out", str(cohort)])
        capsys.readouterr()

        out_a = tmp / "grid_a.csv"
        out_b = tmp / "grid_b.csv"
        args = [
            "grid",
            "--config",
            config,
            "--data",
            str(cohort),
            "--subtypes",
            "1",
            "--states",
            "1,2",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        text_a = capsys.readouterr().out
        assert "Subtypes" in text_a
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = _read_rows(out_a)
        assert len(rows) == 2
        assert {row["states"] for row in rows} == {"1", "2"}


class TestErrorSurface:
    def test_missing_file_gives_single_error_line(self, capsys):
        code = main(["assign", "--model", "/nonexistent/model.json", "--data", "x", "--out", "y"])
        assert code == 1
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error ")
        assert ":" in lines[0]

    def test_bad_model_file_names_error_class(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("{}")
        code = main(["report", "--model", str(bad), "--out", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error VersionMismatch")

    def test_fit_rejects_grid_values(self, workdir, capsys):
        tmp, config = workdir
        cohort = tmp / "cohort.csv"
        main(["simulate", "--config", config, "--out", str(cohort)])
        capsys.readouterr()
        code = main(
            [
                "fit",
                "--config",
                config,
                "--data",
                str(cohort),
                "--out",
                str(tmp / "m.json"),
                "--subtypes",
                "1,2",
            ]
        )
        assert code == 1
        assert "error SubtypingError" in capsys.readouterr().err

    def test_fit_zero_subtypes_gives_single_error_line(self, workdir, capsys):
        tmp, config = workdir
        cohort = tmp / "cohort.csv"
        main(["simulate", "--config", config, "--out", str(cohort)])
        capsys.readouterr()
        argv = ["fit", "--config", config, "--data", str(cohort), "--out", str(tmp / "m.json")]
        assert main(argv + ["--subtypes", "0"]) == 1
        lines = [line for line in capsys.readouterr().err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error InvariantViolation: ")

    @pytest.mark.parametrize(
        "sidecar, error, detail",
        [
            ("patient_id,subtype\np00000,0\n", "ParseError", "'p00001'"),
            ("patient_id,hidden_state\np00000,0\n", "UnknownColumn", "'subtype'"),
            ("patient_id,subtype\np00000,0\np00001,one\n", "ParseError", ":3:"),
            ("patient_id,subtype\np00000,0\n\np00001,one\n", "ParseError", ":4:"),
            ("patient_id,subtype\np00000,99999999999999999999999\n", "ParseError", ":2:"),
            ("", "UnknownColumn", "'patient_id'"),
        ],
    )
    def test_bad_truth_sidecar_fails_before_fitting(self, workdir, sidecar, error, detail):
        tmp, config = workdir
        cohort = tmp / "cohort.csv"
        assert _run_cli(["simulate", "--config", config, "--out", str(cohort)])[0] == 0
        truth, model = tmp / "bad.truth.csv", tmp / "m.json"
        truth.write_text(sidecar)
        code, err = _run_cli(["fit", "--config", config, "--data", str(cohort),
                              "--out", str(model), "--truth", str(truth)])
        assert code == 1
        assert len(err) == 1
        assert err[0].startswith(f"error {error}: ") and detail in err[0]
        assert not model.exists()

    def test_retired_rate_bounds_key_gives_single_parse_error(self, workdir):
        tmp, config = workdir
        payload = json.loads(Path(config).read_text())
        payload["em"]["rate_bounds"] = [1e-6, 1e3]
        path = tmp / "bounds.json"
        path.write_text(json.dumps(payload))
        code, err = _run_cli(["simulate", "--config", str(path), "--out", str(tmp / "c.csv")])
        assert code == 1
        assert len(err) == 1
        assert err[0].startswith("error ParseError: ") and "rate_bounds" in err[0]

    @pytest.mark.parametrize("quantization", [None, 0.5])
    def test_infinite_span_gives_single_error_line(self, workdir, quantization):
        tmp, config = workdir
        payload = json.loads(Path(config).read_text())
        payload["em"]["delta_quantization"] = quantization
        settings_path = tmp / "settings.json"
        settings_path.write_text(json.dumps(payload))
        cohort, model = tmp / "cohort.csv", tmp / "m.json"
        cohort.write_text("patient_id,time,heart_rate,systolic_bp\n"
                          "a,0.0,70,100\na,1.0,80,110\nb,-1e308,70,100\nb,1e308,80,110\n")
        code, err = _run_cli(["fit", "--config", str(settings_path), "--data", str(cohort),
                              "--out", str(model)])
        assert code == 1
        assert err == ["error InvariantViolation: patient 'b': "
                       "timestamps must span a finite interval"]
        assert not model.exists()


def _model_and_cohort(directory):
    """A saved two-subtype model and the rows of a small cohort CSV it scores."""
    scheme = simple_scheme()
    mixture = separated_mixture(
        [np.array([[0, 0], [2, 2], [4, 4]]), np.array([[4, 4], [2, 3], [0, 1]])],
        [[0.5, 0.4], [0.3, 0.6]],
        scheme=scheme,
    )
    model = directory / "model.json"
    save_model(mixture, model)
    cohort = sample_cohort(
        mixture,
        5,
        ObservationTimeConfig(min_observations=2, max_observations=6),
        missing_rate=0.2,
        seed=3,
    )
    data = directory / "cohort.csv"
    save_cohort(cohort.trajectories, data, scheme)
    with data.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return mixture, model, rows


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, [line for line in err.getvalue().splitlines() if line]


_FUZZ_CELLS = ["abc", "inf", "-inf", "nan", "NaN", "", " ", "1e309", "-0", "1e-320"]
_FUZZ_EDITS = st.one_of(
    st.tuples(st.just("drop_column"), st.integers(0, 3)),
    st.tuples(st.just("duplicate_row"), st.integers(1, 200)),
    st.tuples(
        st.just("set_cell"),
        st.integers(1, 200),
        st.integers(0, 3),
        st.sampled_from(_FUZZ_CELLS),
    ),
)


class TestAssignAndForecastSurface:
    def test_assign_table_matches_per_patient_scores(self, tmp_path):
        mixture, model, rows = _model_and_cohort(tmp_path)
        data = tmp_path / "cohort.csv"
        out = tmp_path / "assignments.csv"
        assert _run_cli(["assign", "--model", str(model), "--data", str(data),
                         "--out", str(out)]) == (0, [])
        table = _read_rows(out)
        cohort = load_cohort(data, mixture.scheme)
        assert [row["patient_id"] for row in table] == [t.patient_id for t in cohort]
        for row, trajectory in zip(table, cohort):
            subtype, scores = assign_subtype(mixture, trajectory)
            assert int(row["subtype"]) == subtype
            # repr round-trips, so equal floats mean bitwise-equal scores
            assert [float(row[f"score_{m}"]) for m in range(2)] == scores.tolist()

    def test_forecast_table_holds_the_report_scores(self, tmp_path):
        mixture, model, _ = _model_and_cohort(tmp_path)
        data = tmp_path / "cohort.csv"
        out = tmp_path / "forecast.csv"
        assert _run_cli(["forecast", "--model", str(model), "--data", str(data),
                         "--prefix-fraction", "0.3", "--out", str(out)]) == (0, [])
        report = forecast_report(mixture, load_cohort(data, mixture.scheme), 0.3)
        assert report.n_patients > 1
        # Each cell is a plain float repr, and repr round-trips bitwise.
        assert [(row["patient_id"], float(row["mean_cross_entropy"]))
                for row in _read_rows(out)] == report.per_patient

    def test_forecast_zero_probability_bin_gives_single_error_line(self, tmp_path):
        scheme = simple_scheme()
        mixture = separated_mixture(
            [np.array([[0, 0], [2, 2], [4, 4]])], [[0.5, 0.4]], scheme=scheme
        )
        (model,) = mixture.models
        table = model.emissions.tables[0].copy()
        table[:, 0] = 0.0
        table /= table.sum(axis=1, keepdims=True)
        zeroed = SubtypeModel(
            initial=model.initial,
            generator=model.generator,
            emissions=EmissionTable(tables=(table, model.emissions.tables[1])),
        )
        save_model(replace(mixture, models=(zeroed,)), tmp_path / "model.json")
        # heart rate 95 falls in bin 2, 45 in bin 0; the last row is held out.
        lines = ["patient_id,time,heart_rate,systolic_bp"]
        lines += [f"zed,{t}.0,95,120" for t in range(4)] + ["zed,4.0,45,120"]
        (tmp_path / "cohort.csv").write_text("\n".join(lines) + "\n")
        code, err = _run_cli(["forecast", "--model", str(tmp_path / "model.json"),
                              "--data", str(tmp_path / "cohort.csv"),
                              "--out", str(tmp_path / "forecast.csv")])
        assert code == 1
        assert len(err) == 1
        assert err[0].startswith("error ImpossibleTrajectory: ")
        assert "'zed'" in err[0] and "feature 0" in err[0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["assign", "forecast"]),
        edits=st.lists(_FUZZ_EDITS, min_size=1, max_size=4),
    )
    def test_fuzzed_cohort_files_fail_cleanly(self, command, edits):
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch)
            _, model, rows = _model_and_cohort(directory)
            for edit in edits:
                if edit[0] == "drop_column":
                    rows = [row[: edit[1]] + row[edit[1] + 1 :] for row in rows]
                elif edit[0] == "duplicate_row":
                    i = 1 + edit[1] % (len(rows) - 1)
                    rows.insert(i, list(rows[i]))
                else:
                    i = 1 + edit[1] % (len(rows) - 1)
                    if edit[2] < len(rows[i]):
                        rows[i][edit[2]] = edit[3]
            data = directory / "mutated.csv"
            with data.open("w", newline="") as handle:
                csv.writer(handle).writerows(rows)
            code, err = _run_cli([command, "--model", str(model), "--data", str(data),
                                  "--out", str(directory / "out.csv")])
        assert code in (0, 1)
        if code == 0:
            assert err == []
        else:
            assert len(err) == 1
            assert re.match(r"error [A-Za-z]+: ", err[0])


    def test_forecast_with_nothing_to_score_gives_single_error_line(self, tmp_path):
        _, model, _ = _model_and_cohort(tmp_path)
        data = tmp_path / "short.csv"
        data.write_text("patient_id,time,heart_rate,systolic_bp\na,0.0,95,120\nb,1.0,60,100\n")
        out = tmp_path / "forecast.csv"
        code, err = _run_cli(["forecast", "--model", str(model), "--data", str(data),
                              "--out", str(out)])
        assert code == 1
        assert len(err) == 1
        assert err[0].startswith("error NoHeldOutObservations: ")
        assert not out.exists()


def _readme_config():
    """The JSON block under the README's run-configuration heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Run configuration", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


# heart_rate, then a binary flag that is not the intervention, then the
# intervention indicator; restricting to a subset moves or drops the latter.
_INTERVENTION_CONFIG = {
    "features": [
        {"name": "heart_rate", "lower": 40, "upper": 150, "bins": 5},
        {"name": "intervention", "lower": 0, "upper": 1, "bins": 2},
        {"name": "flag", "lower": 0, "upper": 1, "bins": 2},
    ],
    "intervention_feature": "intervention",
    "subtypes": 1,
    "states": 2,
    "left_to_right": True,
    "terminal_intervention": True,
    "seed": 5,
    "em": {"max_iterations": 4, "restarts": 1, "mixture_iterations": 2},
    "simulate": {"patients": 24, "missing_rate": 0.1, "max_observations": 10},
}


def _pinned(n_states, epsilon=1e-3):
    table = np.tile([1.0 - epsilon, epsilon], (n_states, 1))
    table[-1] = [epsilon, 1.0 - epsilon]
    return table


class TestRunSettings:
    def test_readme_config_runs_end_to_end(self, tmp_path):
        config = _readme_config()
        config["em"].update(max_iterations=3, restarts=1, mixture_iterations=2)
        config["simulate"].update(patients=30, max_observations=10)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        cohort, model = str(tmp_path / "cohort.csv"), str(tmp_path / "model.json")
        common = ["--config", str(path)]
        for argv in (
            ["simulate", *common, "--out", cohort],
            ["fit", *common, "--data", cohort, "--out", model],
            ["grid", *common, "--data", cohort, "--out", str(tmp_path / "grid.csv")],
            ["forecast", *common, "--model", model, "--data", cohort,
             "--out", str(tmp_path / "forecast.csv")],
        ):
            assert _run_cli(argv) == (0, []), argv
        (row,) = _read_rows(tmp_path / "grid.csv")
        assert np.isfinite(float(row["mean_cross_entropy"]))

    @pytest.mark.parametrize(
        "features, pinned",
        [("intervention,flag", 0), ("flag,heart_rate,intervention", 2), ("heart_rate,flag", None)],
    )
    def test_grid_features_pin_the_intervention_only(self, tmp_path, monkeypatch,
                                                     features, pinned):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_INTERVENTION_CONFIG))
        cohort = str(tmp_path / "cohort.csv")
        assert _run_cli(["simulate", "--config", str(path), "--out", cohort])[0] == 0
        fitted = []

        def recording_fit(*args, **kwargs):
            fitted.append(evaluation_fit(*args, **kwargs))
            return fitted[-1]

        evaluation_fit = cthmm_subtyping.evaluation.fit_mixture
        monkeypatch.setattr(cthmm_subtyping.evaluation, "fit_mixture", recording_fit)
        argv = ["grid", "--config", str(path), "--data", cohort, "--features", features,
                "--out", str(tmp_path / "grid.csv")]
        assert _run_cli(argv) == (0, [])
        (mixture,) = fitted
        names = features.split(",")
        for d, table in enumerate(mixture.models[0].emissions.tables):
            is_pinned = table.shape == (2, 2) and np.array_equal(table, _pinned(2))
            assert is_pinned == (d == pinned), names[d]

    def test_fit_features_pin_the_intervention_at_its_new_index(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_INTERVENTION_CONFIG))
        cohort, model = str(tmp_path / "cohort.csv"), tmp_path / "model.json"
        assert _run_cli(["simulate", "--config", str(path), "--out", cohort])[0] == 0
        argv = ["fit", "--config", str(path), "--data", cohort, "--features",
                "flag,intervention", "--out", str(model)]
        assert _run_cli(argv) == (0, [])
        flag, intervention = load_model(model).models[0].emissions.tables
        assert np.array_equal(intervention, _pinned(2))
        assert not np.array_equal(flag, _pinned(2))

    def test_simulate_follows_the_em_structure(self, tmp_path):
        config = {"subtypes": 1, "states": 3, "seed": 2,
                  "em": {"structure": "left-to-right"},
                  "simulate": {"patients": 20, "mean_gap": 2.0}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        cohort = tmp_path / "cohort.csv"
        assert _run_cli(["simulate", "--config", str(path), "--out", str(cohort)])[0] == 0
        states: dict[str, list[int]] = {}
        for row in _read_rows(tmp_path / "cohort.truth.csv"):
            states.setdefault(row["patient_id"], []).append(int(row["hidden_state"]))
        assert len(states) == 20
        assert any(path[-1] > path[0] for path in states.values())
        assert all(np.all(np.diff(path) >= 0) for path in states.values())

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("simulate", ["--states", "0"]),
            ("simulate", ["--subtypes", "0"]),
            ("simulate", ["--seed", "-1"]),
            ("fit", ["--seed", "-1"]),
            ("grid", ["--states", ","]),
            ("grid", ["--subtypes", "0,2"]),
        ],
    )
    def test_bad_settings_give_single_error_line(self, workdir, command, flags):
        tmp, config = workdir
        cohort = str(tmp / "cohort.csv")
        assert _run_cli(["simulate", "--config", config, "--out", cohort])[0] == 0
        argv = [command, "--config", config, "--out", str(tmp / "out.csv"), *flags]
        if command != "simulate":
            argv += ["--data", cohort]
        code, err = _run_cli(argv)
        assert code == 1
        assert len(err) == 1
        assert err[0].startswith("error InvariantViolation: ")

    @pytest.mark.parametrize(
        "em, features",
        [({"terminal_intervention_feature": 1}, "heart_rate,flag"), ({"smoothing": 1e308}, None)],
    )
    def test_bad_em_setting_fails_fit_before_writing(self, tmp_path, em, features):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_INTERVENTION_CONFIG))
        cohort = str(tmp_path / "cohort.csv")
        assert _run_cli(["simulate", "--config", str(good), "--out", cohort])[0] == 0
        config = dict(_INTERVENTION_CONFIG, terminal_intervention=False)
        config["em"] = {**config["em"], **em}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        model = tmp_path / "model.json"
        argv = ["fit", "--config", str(bad), "--data", cohort, "--out", str(model)]
        if features:
            argv += ["--features", features]
        code, err = _run_cli(argv)
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error InvariantViolation: ")
        assert not model.exists()

    @pytest.mark.parametrize("command", ["fit", "grid"])
    def test_infinite_quantization_step_fails_at_load(self, tmp_path, command):
        path = tmp_path / "config.json"
        # json writes the infinite step as the bare token Infinity, which it also reads.
        config = dict(_INTERVENTION_CONFIG, em={**_INTERVENTION_CONFIG["em"],
                                                 "delta_quantization": float("inf")})
        path.write_text(json.dumps(config))
        assert "Infinity" in path.read_text()
        # The data file does not exist: only a load-time check can fire first.
        argv = [command, "--config", str(path), "--data", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path / "out.csv")]
        code, err = _run_cli(argv)
        assert code == 1
        assert err == ["error InvariantViolation: delta_quantization must be finite and > 0, "
                       "got inf"]
        assert not (tmp_path / "out.csv").exists()

    def test_smoothing_that_inverts_the_pin_fails_fit_before_writing(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_INTERVENTION_CONFIG))
        cohort = str(tmp_path / "cohort.csv")
        assert _run_cli(["simulate", "--config", str(good), "--out", cohort])[0] == 0
        config = dict(_INTERVENTION_CONFIG, em={**_INTERVENTION_CONFIG["em"], "smoothing": 0.7})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        model = tmp_path / "model.json"
        code, err = _run_cli(["fit", "--config", str(bad), "--data", cohort, "--out", str(model)])
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error InvariantViolation: ")
        assert "smoothing" in err[0]
        assert not model.exists()

    @pytest.mark.parametrize("command", ["simulate", "fit", "grid", "forecast"])
    @pytest.mark.parametrize(
        "simulate", [{"missing_rate": 7}, {"missing_rate": float("nan")}, {"patients": 0}],
        ids=["rate_7", "rate_nan", "no_patients"],
    )
    def test_bad_simulate_rate_or_size_fails_at_load(self, tmp_path, command, simulate):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(_INTERVENTION_CONFIG, simulate=simulate)))
        # The data and model files do not exist: only a load-time check can fire first.
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out.csv")]
        if command != "simulate":
            argv += ["--data", str(tmp_path / "absent.csv")]
        if command == "forecast":
            argv += ["--model", str(tmp_path / "absent.json")]
        code, err = _run_cli(argv)
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error InvariantViolation: simulate")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "fit", "grid", "forecast"])
    def test_bad_simulate_section_fails_at_load(self, tmp_path, command):
        config = dict(_INTERVENTION_CONFIG, simulate={"min_observations": 9,
                                                      "max_observations": 4})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        # The data and model files do not exist: only a load-time check can fire first.
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out.csv")]
        if command != "simulate":
            argv += ["--data", str(tmp_path / "absent.csv")]
        if command == "forecast":
            argv += ["--model", str(tmp_path / "absent.json")]
        code, err = _run_cli(argv)
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error InvariantViolation: ")


    @pytest.mark.parametrize("command", ["simulate", "fit"])
    def test_infinite_mean_gap_fails_at_load(self, tmp_path, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(_INTERVENTION_CONFIG, simulate={"mean_gap": float("inf")})))
        assert "Infinity" in path.read_text()
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out.csv")]
        if command != "simulate":
            argv += ["--data", str(tmp_path / "absent.csv")]
        # A child interpreter with a deadline: an accepted infinite gap sampled forever.
        package_root = os.path.dirname(os.path.dirname(cthmm_subtyping.__file__))
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited]))}
        result = subprocess.run([sys.executable, "-m", "cthmm_subtyping", *argv],
                                capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            "error InvariantViolation: mean gap must be finite and > 0, got inf"
        ]
        assert not (tmp_path / "out.csv").exists()

@pytest.mark.parametrize("source", ["config", "model"])
def test_fractional_bins_fail_at_load(fuzz_dir, tmp_path, source):
    name = "config.json" if source == "config" else "model.json"
    payload = json.loads((fuzz_dir / name).read_text())
    features = payload["features"] if source == "config" else payload["scheme"]
    features[0]["bins"] = 3.9
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    out = tmp_path / "out.csv"
    if source == "config":
        argv = ["simulate", "--config", str(path), "--out", str(out)]
    else:
        argv = ["report", "--model", str(path), "--out", str(out)]
    code, err = _run_cli(argv)
    assert code == 1
    # A model file's errors name the file first.
    assert len(err) == 1 and err[0].startswith("error InvariantViolation: ")
    assert err[0].endswith("feature 'heart_rate': bins 3.9 is not an integer")
    assert not out.exists()


def _assert_clean_exit(code, err):
    assert code in (0, 1)
    if code == 0:
        assert err == []
    else:
        assert len(err) == 1
        assert re.match(r"error [A-Za-z]+: ", err[0])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A config with an intervention feature, a cohort it simulates, a model."""
    directory = tmp_path_factory.mktemp("fuzz")
    config = dict(_INTERVENTION_CONFIG, terminal_intervention=False, left_to_right=False,
                  em={"max_iterations": 3, "restarts": 1, "mixture_iterations": 2})
    config["simulate"] = {"patients": 12, "missing_rate": 0.2, "max_observations": 8}
    (directory / "config.json").write_text(json.dumps(config))
    _, model, _ = _model_and_cohort(directory)
    argv = ["simulate", "--config", str(directory / "config.json"),
            "--out", str(directory / "sim.csv")]
    assert _run_cli(argv)[0] == 0
    return directory


_COUNTS = st.sampled_from(["", ",", "0", "-1", "1", "2", "3", "0,2", "1,2", "2,,1"])
_FRACTIONS = st.sampled_from(["nan", "inf", "-inf", "0", "1", "-0.5", "0.3", "0.7", "1e-300"])
_SEEDS = st.one_of(st.integers(-3, 3), st.integers(2**62, 2**80)).map(str)
_FEATURE_SETS = st.sampled_from(
    ["heart_rate", "intervention", "flag,intervention", "intervention,heart_rate",
     "heart_rate,flag", ",", "nope", "flag,flag"]
)
_OPTIONS = {
    "simulate": {"--subtypes": _COUNTS, "--states": _COUNTS, "--seed": _SEEDS,
                 "--patients": st.integers(-1, 12).map(str)},
    "fit": {"--subtypes": _COUNTS, "--states": _COUNTS, "--seed": _SEEDS,
            "--features": _FEATURE_SETS},
    "grid": {"--subtypes": _COUNTS, "--states": _COUNTS, "--seed": _SEEDS,
             "--features": _FEATURE_SETS, "--train-fraction": _FRACTIONS,
             "--prefix-fraction": _FRACTIONS},
    "forecast": {"--seed": _SEEDS, "--prefix-fraction": _FRACTIONS},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True)):
        argv.append(f"{flag}={draw(options[flag])}")  # "=" keeps "-inf" a value
    if command != "forecast":
        argv += [flag for flag in ("--left-to-right", "--terminal-intervention")
                 if draw(st.booleans())]
    return argv


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in items for leaf in _leaf_paths(child, (*path, key))]


def _resolve(node, path):
    for key in path:
        node = node[key]
    return node


_LEAF_VALUES = [float("nan"), float("inf"), -float("inf"), -1, 0, 1e308, "x", None, [], {}, True]
_EM_KEYS = ["max_iterations", "tolerance", "smoothing", "structure", "seed", "restarts",
            "delta_quantization", "terminal_intervention_feature", "mixture_iterations",
            "rate_bounds"]
# Counts stay small so that every accepted setting fits in well under a second.
_EM_VALUES = st.one_of(
    st.integers(-2, 3),
    st.sampled_from([2.5, 1.5, 0.0, -1.0, 1e-3, 0.5, 1e308, float("nan"), float("inf"),
                     True, None, "x", "full", "left-to-right", [1e-6, 1e3], {}]),
)
_MODEL_EDITS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("set_leaf"), st.integers(0, 10**6), st.sampled_from(_LEAF_VALUES)),
    st.tuples(st.just("drop_item"), st.integers(0, 10**6)),
    st.tuples(st.just("version"), st.sampled_from([0, 2, "1", None, 1.5])),
)


class TestSettingsAndModelFuzz:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(argv=_argv())
    def test_fuzzed_arguments_fail_cleanly(self, fuzz_dir, argv):
        argv = argv + ["--config", str(fuzz_dir / "config.json"),
                       "--out", str(fuzz_dir / "out.csv")]
        if argv[0] in ("fit", "grid", "forecast"):
            argv += ["--data", str(fuzz_dir / ("cohort.csv" if argv[0] == "forecast"
                                               else "sim.csv"))]
        if argv[0] == "forecast":
            argv += ["--model", str(fuzz_dir / "model.json")]
        _assert_clean_exit(*_run_cli(argv))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(em=st.dictionaries(st.sampled_from(_EM_KEYS), _EM_VALUES, max_size=4))
    def test_fuzzed_em_settings_fail_cleanly(self, fuzz_dir, em):
        config = json.loads((fuzz_dir / "config.json").read_text())
        config["em"].update(em)
        path = fuzz_dir / "em.json"
        path.write_text(json.dumps(config))
        argv = ["fit", "--config", str(path), "--data", str(fuzz_dir / "sim.csv"),
                "--out", str(fuzz_dir / "em-model.json")]
        _assert_clean_exit(*_run_cli(argv))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        command=st.sampled_from(["assign", "forecast", "report", "simulate"]),
        edits=st.lists(_MODEL_EDITS, min_size=1, max_size=3),
    )
    def test_fuzzed_model_files_fail_cleanly(self, fuzz_dir, command, edits):
        payload = json.loads((fuzz_dir / "model.json").read_text())
        text = None
        for edit in edits:
            leaves = _leaf_paths(payload)
            if edit[0] == "set_leaf":
                *parent, key = leaves[edit[1] % len(leaves)]
                _resolve(payload, parent)[key] = edit[2]
            elif edit[0] == "drop_item":
                items = [path for path in leaves if isinstance(path[-1], int)]
                if items:
                    *parent, index = items[edit[1] % len(items)]
                    del _resolve(payload, parent)[index]
            elif edit[0] == "version":
                payload["version"] = edit[1]
            elif edit[0] == "truncate":
                full = json.dumps(payload)
                text = full[: int(edit[1] * len(full))]
                break
        model = fuzz_dir / "mutated.json"
        model.write_text(json.dumps(payload) if text is None else text)
        argv = [command, "--model", str(model), "--out", str(fuzz_dir / "out.csv")]
        if command in ("assign", "forecast"):
            argv += ["--data", str(fuzz_dir / "cohort.csv")]
        if command == "simulate":
            argv += ["--patients", "3"]
        _assert_clean_exit(*_run_cli(argv))


def test_label_accuracy_matches_permutation_search():
    rng = np.random.default_rng(5)
    for n_subtypes in (1, 2, 3, 4):
        for _ in range(20):
            assigned = rng.integers(0, n_subtypes, size=30)
            # Some truth labels lie outside the fitted range and never match.
            truth = rng.integers(0, n_subtypes + 1, size=30)
            expected, _ = best_permutation_accuracy(assigned, truth, n_subtypes)
            assert _label_accuracy(assigned, truth, n_subtypes) == pytest.approx(expected)
    assigned = rng.integers(0, 9, size=500)
    start = time.perf_counter()
    assert _label_accuracy(assigned, (assigned + 4) % 9, 9) == 1.0
    assert time.perf_counter() - start < 0.5


def test_best_matching_is_optimal():
    rng = np.random.default_rng(17)
    for n in range(1, 13):
        for trial in range(25):
            if trial % 2:
                weights = rng.integers(0, 4, size=(n, n)).astype(float)  # counts with ties
            else:
                weights = rng.normal(scale=10.0, size=(n, n))
            cols = _best_matching(weights)
            assert sorted(cols.tolist()) == list(range(n))
            rows, expected = linear_sum_assignment(weights, maximize=True)
            assert weights[np.arange(n), cols].sum() == pytest.approx(
                weights[rows, expected].sum(), rel=1e-12, abs=1e-9
            )


def test_console_entry_point_runs():
    # The child interpreter must find the package wherever this one did.
    package_root = os.path.dirname(os.path.dirname(cthmm_subtyping.__file__))
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited]))}
    result = subprocess.run(
        [sys.executable, "-m", "cthmm_subtyping", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "fit" in result.stdout and "simulate" in result.stdout
