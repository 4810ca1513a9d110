"""Command-line surface: fit, assign, forecast, grid, simulate, report.

Every command reads plain-text inputs, writes plain-text outputs, and is
byte-reproducible given the same seeds.  Failures exit nonzero with a
single machine-parseable line: ``error <ErrorClass>: <detail>``.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import cohort_io
from .errors import ParseError, SubtypingError, UnknownColumn
from .evaluation import forecast_report, grid_evaluate
from .inference import progression_trajectory
from .mixture import assign_subtypes, fit_mixture
from .synthesis import random_mixture, sample_cohort


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(","))


def _single(values: list[int], flag: str) -> int:
    if len(values) != 1:
        raise SubtypingError(f"{flag} takes a single value here, got {values}")
    return values[0]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the configured seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cthmm-subtype",
        description=(
            "Subtype irregularly sampled categorical time series with a "
            "mixture of continuous-time hidden Markov models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a mixture model on a cohort")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--subtypes", type=_int_list)
    p.add_argument("--states", type=_int_list)
    p.add_argument("--features", help="comma-separated subset of features to model")
    p.add_argument("--left-to-right", action="store_true", default=None)
    p.add_argument("--terminal-intervention", action="store_true", default=None)
    p.add_argument("--truth", help="ground-truth sidecar; prints label accuracy")

    p = sub.add_parser("assign", help="assign subtypes to a cohort")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("forecast", help="prefix-conditioned forecast scoring")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--prefix-fraction", type=float)

    p = sub.add_parser("grid", help="evaluate a grid of subtype/state counts")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subtypes", type=_int_list)
    p.add_argument("--states", type=_int_list)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--prefix-fraction", type=float)
    p.add_argument("--features", help="comma-separated subset of features to evaluate")
    p.add_argument("--left-to-right", action="store_true", default=None)
    p.add_argument("--terminal-intervention", action="store_true", default=None)

    p = sub.add_parser("simulate", help="sample a synthetic cohort with ground truth")
    _add_common(p)
    p.add_argument("--out", required=True, help="cohort CSV to write")
    p.add_argument("--model", help="sample from this model instead of a seeded one")
    p.add_argument("--subtypes", type=_int_list)
    p.add_argument("--states", type=_int_list)
    p.add_argument("--patients", type=int)
    p.add_argument("--left-to-right", action="store_true", default=None)
    p.add_argument("--terminal-intervention", action="store_true", default=None)

    p = sub.add_parser("report", help="progression summary per subtype")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    return parser


def _load_config(args: argparse.Namespace) -> cohort_io.RunConfig:
    """The configured run settings with this command's flags applied."""
    config = (
        cohort_io.load_config(args.config) if args.config else cohort_io.RunConfig()
    )
    updates = {
        name: getattr(args, name)
        for name in ("subtypes", "states", "train_fraction", "prefix_fraction", "seed",
                     "terminal_intervention")
        if getattr(args, name, None) is not None
    }
    em_updates = {"seed": updates["seed"]} if "seed" in updates else {}
    if getattr(args, "left_to_right", None):
        em_updates["structure"] = "left-to-right"
    return replace(config, **updates, em=replace(config.em, **em_updates))


def _model_scheme(mixture) -> cohort_io.BinningScheme:
    if mixture.scheme is None:
        raise SubtypingError("model file carries no binning scheme; cannot ingest data")
    return mixture.scheme


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _label_accuracy(assigned: np.ndarray, truth: np.ndarray, n_subtypes: int) -> float:
    """Accuracy under the subtype relabelling that best matches ``truth``.

    Truth labels outside ``range(n_subtypes)`` can never be matched.
    """
    valid = (truth >= 0) & (truth < n_subtypes)
    cells = assigned[valid] * n_subtypes + truth[valid]
    confusion = np.bincount(cells, minlength=n_subtypes**2).reshape(n_subtypes, n_subtypes)
    cols = _best_matching(confusion)
    return float(confusion[np.arange(n_subtypes), cols].sum() / len(assigned))


def _best_matching(weights: np.ndarray) -> np.ndarray:
    """The column matched to each row by a maximum-weight assignment.

    Kuhn-Munkres with row and column potentials on a square matrix, in
    O(M^3): each row joins through a shortest augmenting path over the
    reduced costs.  Rows and columns below count from 1; column 0 is the
    root each search starts from.
    """
    cost = (-np.asarray(weights, dtype=float)).tolist()
    n = len(cost)
    row_pot, col_pot = [0.0] * (n + 1), [0.0] * (n + 1)
    owner = [0] * (n + 1)  # row holding each column, 0 for none
    for row in range(1, n + 1):
        owner[0], col = row, 0
        slack, back, done = [math.inf] * (n + 1), [0] * (n + 1), [False] * (n + 1)
        while owner[col]:
            done[col] = True
            i, delta, nearest = owner[col], math.inf, 0
            for j in range(1, n + 1):
                if not done[j]:
                    reduced = cost[i - 1][j - 1] - row_pot[i] - col_pot[j]
                    if reduced < slack[j]:
                        slack[j], back[j] = reduced, col
                    if slack[j] < delta:
                        delta, nearest = slack[j], j
            for j in range(n + 1):
                if done[j]:
                    row_pot[owner[j]] += delta
                    col_pot[j] -= delta
                else:
                    slack[j] -= delta
            col = nearest
        while col:
            owner[col] = owner[back[col]]
            col = back[col]
    matched = np.empty(n, dtype=int)
    matched[np.array(owner[1:]) - 1] = np.arange(n)
    return matched


def _read_truth(path: str | Path, patient_ids: list[str]) -> np.ndarray:
    """Each patient's subtype from a ``simulate`` ground-truth sidecar."""
    labels = {}
    with Path(path).open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for column in ("patient_id", "subtype"):
            if column not in (reader.fieldnames or ()):
                raise UnknownColumn(f"{path}: missing required column {column!r}")
        for row in reader:
            try:
                labels[row["patient_id"]] = np.int64(int(row["subtype"]))
            except (TypeError, ValueError, OverflowError):
                raise ParseError(f"{path}:{reader.line_num}: subtype {row['subtype']!r} "
                                 "is not a 64-bit integer") from None
    missing = [pid for pid in patient_ids if pid not in labels]
    if missing:
        raise ParseError(f"{path}: no subtype for patient {missing[0]!r}")
    return np.array([labels[pid] for pid in patient_ids])


def _cmd_fit(args: argparse.Namespace) -> int:
    config = _load_config(args)
    cohort = cohort_io.load_cohort(args.data, config.scheme)
    if args.features:
        cohort, config = cohort_io.restrict_features(cohort, config, _names(args.features))
    if args.truth:
        truth = _read_truth(args.truth, [t.patient_id for t in cohort])
    mixture = fit_mixture(
        cohort,
        _single(config.subtypes, "--subtypes"),
        _single(config.states, "--states"),
        config.em_config(),
        scheme=config.scheme,
    )
    cohort_io.save_model(mixture, args.out)
    sizes = np.bincount(mixture.assignments, minlength=mixture.n_subtypes)
    print(f"fitted {mixture.n_subtypes} subtypes x {mixture.n_states} states "
          f"on {len(cohort)} patients")
    print(f"subtype sizes: {sizes.tolist()}")
    print(f"objective: {mixture.objective_trace[-1]:.6f} "
          f"({len(mixture.objective_trace)} tracked steps)")
    print(f"model written to {args.out}")
    if args.truth:
        accuracy = _label_accuracy(mixture.assignments, truth, mixture.n_subtypes)
        print(f"label accuracy vs ground truth (best permutation): {accuracy:.4f}")
    return 0


def _cmd_assign(args: argparse.Namespace) -> int:
    mixture = cohort_io.load_model(args.model)
    cohort = cohort_io.load_cohort(args.data, _model_scheme(mixture))
    header = ["patient_id", "subtype"] + [
        f"score_{m}" for m in range(mixture.n_subtypes)
    ]
    best, scores, _ = assign_subtypes(mixture, cohort)
    rows = [[t.patient_id, int(m), *map(repr, s.tolist())] for t, m, s in zip(cohort, best, scores)]
    _write_csv(args.out, header, rows)
    print(f"assigned {len(rows)} patients; table written to {args.out}")
    return 0


def _cmd_forecast(args: argparse.Namespace) -> int:
    config = _load_config(args)
    mixture = cohort_io.load_model(args.model)
    cohort = cohort_io.load_cohort(args.data, _model_scheme(mixture))
    report = forecast_report(
        mixture, cohort, config.prefix_fraction, seed=config.seed
    )
    _write_csv(
        args.out,
        ["patient_id", "mean_cross_entropy"],
        [[pid, repr(score)] for pid, score in report.per_patient],
    )
    print(f"forecast cross-entropy: {report.mean:.6f} +/- {report.standard_error:.6f} "
          f"({report.n_patients} patients, {report.n_scored_observations} observations, "
          f"{report.n_skipped_patients} skipped)")
    print(f"per-patient scores written to {args.out}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    config = _load_config(args)
    cohort = cohort_io.load_cohort(args.data, config.scheme)
    subset = _names(args.features) if args.features else config.eval_features
    if subset:
        cohort, config = cohort_io.restrict_features(cohort, config, subset)
    result = grid_evaluate(
        cohort,
        config.subtypes,
        config.states,
        config.em_config(),
        train_fraction=config.train_fraction,
        prefix_fraction=config.prefix_fraction,
        split_seed=config.seed,
        scheme=config.scheme,
    )
    records = result.to_records()
    _write_csv(
        args.out,
        list(records[0].keys()),
        [[repr(v) if isinstance(v, float) else v for v in r.values()] for r in records],
    )
    print(f"grid over subtypes {config.subtypes} x states {config.states} "
          f"({result.n_train} train / {result.n_test} test patients)")
    print(result.render_text())
    print(f"records written to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.model:
        mixture = cohort_io.load_model(args.model)
        scheme = _model_scheme(mixture)
    else:
        scheme = config.scheme
        em = config.em_config()
        mixture = random_mixture(
            _single(config.subtypes, "--subtypes"),
            _single(config.states, "--states"),
            scheme,
            seed=config.seed,
            structure=em.structure,
            terminal_intervention_feature=em.terminal_intervention_feature,
            smoothing=em.smoothing,
        )
    n_patients = args.patients if args.patients is not None else config.sim_patients
    cohort = sample_cohort(
        mixture,
        n_patients,
        config.sim_times,
        missing_rate=config.sim_missing_rate,
        seed=config.seed,
    )
    cohort_io.save_cohort(cohort.trajectories, args.out, scheme)
    truth_path = Path(args.out).with_suffix(".truth.csv")
    rows = []
    for trajectory, label, hidden in zip(
        cohort.trajectories, cohort.labels, cohort.hidden_states
    ):
        for t, state in zip(trajectory.times, hidden):
            rows.append([trajectory.patient_id, int(label), repr(float(t)), int(state)])
    _write_csv(truth_path, ["patient_id", "subtype", "time", "hidden_state"], rows)
    print(f"simulated {n_patients} patients from {mixture.n_subtypes} subtypes "
          f"x {mixture.n_states} states (seed {config.seed})")
    print(f"cohort written to {args.out}")
    print(f"ground truth written to {truth_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    mixture = cohort_io.load_model(args.model)
    scheme = _model_scheme(mixture)
    header = ["subtype", "state", "expected_duration", *scheme.names]
    rows = []
    for m, model in enumerate(mixture.models):
        for stage in progression_trajectory(model, scheme, start_state=0):
            rows.append(
                [
                    m,
                    stage.state,
                    repr(stage.expected_duration),
                    *[repr(float(v)) for v in stage.expected_values],
                ]
            )
    _write_csv(args.out, header, rows)
    print(f"progression report for {mixture.n_subtypes} subtypes written to {args.out}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "assign": _cmd_assign,
    "forecast": _cmd_forecast,
    "grid": _cmd_grid,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SubtypingError, OSError) as err:
        detail = str(err).replace("\n", " ")
        print(f"error {type(err).__name__}: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
