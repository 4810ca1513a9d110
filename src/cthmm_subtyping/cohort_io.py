"""File formats: cohort CSV ingestion, run configuration, model persistence.

All on-disk formats are plain text.  Cohort files are long-format CSV
(one row per patient per timestamp, empty fields meaning missing); the
run configuration is JSON mirroring :class:`RunConfig`; models are
versioned JSON whose floats round-trip exactly at double precision.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ctmc import GeneratorMatrix
from .emissions import MISSING, BinningScheme, FeatureBinning, EmissionTable, discretize
from .errors import (
    DuplicateTimestamp,
    EmptyCohort,
    InvariantViolation,
    ParseError,
    SubtypingError,
    UnknownColumn,
    VersionMismatch,
)
from .inference import SubtypeModel, Trajectory
from .learning import EmConfig
from .mixture import MixtureModel

MODEL_FORMAT = "cthmm-subtyping-mixture"
MODEL_VERSION = 1

DEFAULT_FEATURES = (
    FeatureBinning(name="heart_rate", lower=40.0, upper=150.0, bins=5),
    FeatureBinning(name="systolic_bp", lower=40.0, upper=200.0, bins=5),
)


@dataclass
class RunConfig:
    """Everything a command-line run needs, loadable from one JSON file."""

    scheme: BinningScheme = field(default_factory=lambda: BinningScheme(DEFAULT_FEATURES))
    eval_features: tuple[str, ...] | None = None
    intervention_feature: str | None = None
    subtypes: list[int] = field(default_factory=lambda: [1])
    states: list[int] = field(default_factory=lambda: [1])
    left_to_right: bool = False
    terminal_intervention: bool = False
    train_fraction: float = 0.8
    prefix_fraction: float = 0.7
    seed: int = 0
    em: EmConfig = field(default_factory=EmConfig)
    sim_patients: int = 100
    sim_missing_rate: float = 0.2
    sim_mean_gap: float = 1.0
    sim_min_observations: int = 5
    sim_max_observations: int = 40

    def __post_init__(self) -> None:
        if not 0 < self.train_fraction < 1 or not 0 < self.prefix_fraction < 1:
            raise InvariantViolation("split fractions must lie strictly between 0 and 1")
        for flag, counts in (("subtypes", self.subtypes), ("states", self.states)):
            if not counts or min(counts) < 1:
                raise InvariantViolation(f"need {flag} counts, each >= 1, got {counts}")
        if self.seed < 0:
            raise InvariantViolation(f"seed must be >= 0, got {self.seed}")
        names = self.scheme.names
        if self.intervention_feature is not None and self.intervention_feature not in names:
            raise InvariantViolation(
                f"intervention feature {self.intervention_feature!r} is not configured"
            )
        if self.eval_features is not None:
            for name in self.eval_features:
                if name not in names:
                    raise InvariantViolation(f"evaluation feature {name!r} is not configured")
        if self.terminal_intervention and self.intervention_feature is None:
            raise InvariantViolation(
                "terminal intervention requires an intervention feature"
            )

    def em_config(self) -> EmConfig:
        """EM settings with the structural flags folded in.

        The only place that turns ``left_to_right``, ``terminal_intervention``
        and ``intervention_feature`` into :class:`EmConfig` fields; the
        intervention index is taken against this config's own scheme.
        """
        updates: dict = {}
        if self.left_to_right:
            updates["structure"] = "left-to-right"
        if self.terminal_intervention:
            updates["terminal_intervention_feature"] = self.scheme.index(
                self.intervention_feature
            )
        if updates:
            return replace(self.em, **updates)
        return self.em


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON run configuration."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
    return config_from_dict(payload)


def config_from_dict(payload: dict) -> RunConfig:
    try:
        features = tuple(
            FeatureBinning(
                name=f["name"],
                lower=float(f["lower"]),
                upper=float(f["upper"]),
                bins=int(f.get("bins", 5)),
            )
            for f in payload.get("features", [])
        )
        scheme = BinningScheme(features) if features else BinningScheme(DEFAULT_FEATURES)
        em_payload = dict(payload.get("em", {}))
        if "seed" not in em_payload and "seed" in payload:
            em_payload["seed"] = int(payload["seed"])
        em = EmConfig(**em_payload)

        def int_list(value) -> list[int]:
            if isinstance(value, (int, float)):
                return [int(value)]
            return [int(v) for v in value]

        return RunConfig(
            scheme=scheme,
            eval_features=(
                tuple(payload["eval_features"]) if payload.get("eval_features") else None
            ),
            intervention_feature=payload.get("intervention_feature"),
            subtypes=int_list(payload.get("subtypes", 1)),
            states=int_list(payload.get("states", 1)),
            left_to_right=bool(payload.get("left_to_right", False)),
            terminal_intervention=bool(payload.get("terminal_intervention", False)),
            train_fraction=float(payload.get("train_fraction", 0.8)),
            prefix_fraction=float(payload.get("prefix_fraction", 0.7)),
            seed=int(payload.get("seed", 0)),
            em=em,
            sim_patients=int(payload.get("simulate", {}).get("patients", 100)),
            sim_missing_rate=float(payload.get("simulate", {}).get("missing_rate", 0.2)),
            sim_mean_gap=float(payload.get("simulate", {}).get("mean_gap", 1.0)),
            sim_min_observations=int(payload.get("simulate", {}).get("min_observations", 5)),
            sim_max_observations=int(payload.get("simulate", {}).get("max_observations", 40)),
        )
    except SubtypingError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ParseError(f"bad configuration: {err}") from err


def load_cohort(path: str | Path, scheme: BinningScheme) -> list[Trajectory]:
    """Read a long-format cohort CSV and discretize it.

    Required columns: ``patient_id``, ``time``, plus one column per
    configured feature.  Empty feature fields and out-of-range values both
    ingest as missing; each feature column is binned in one call.  Rows
    are grouped by patient (order of first appearance) and sorted by time;
    duplicate (patient, time) rows are rejected.
    """
    path = Path(path)
    rows = array("d")  # row-major (patient index, time, *features); empty cells are NaN
    patients: dict[str, int] = {}
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyCohort(f"{path}: no header row")
        for column in ("patient_id", "time", *scheme.names):
            if column not in reader.fieldnames:
                raise UnknownColumn(f"{path}: missing required column {column!r}")

        for line_no, row in enumerate(reader, start=2):
            pid = (row.get("patient_id") or "").strip()
            if not pid:
                raise ParseError(f"{path}:{line_no}: empty patient_id")
            try:
                t = float(row["time"])
            except (TypeError, ValueError):
                raise ParseError(
                    f"{path}:{line_no}: time {row.get('time')!r} is not a number"
                ) from None
            if not math.isfinite(t):
                raise ParseError(f"{path}:{line_no}: time {t} is not finite")
            rows.extend((patients.setdefault(pid, len(patients)), t))
            for feature in scheme.features:
                raw = (row.get(feature.name) or "").strip()
                try:
                    rows.append(float(raw) if raw else math.nan)
                except ValueError:
                    raise ParseError(
                        f"{path}:{line_no}: feature {feature.name!r} value {raw!r} is not a number"
                    ) from None

    if not patients:
        raise EmptyCohort(f"{path}: no data rows")

    table = np.frombuffer(rows).reshape(-1, 2 + scheme.n_features)
    table = table[np.lexsort((table[:, 1], table[:, 0]))]
    patient, times = table[:, 0], table[:, 1]
    repeated = (np.diff(times) <= 0) & (np.diff(patient) == 0)
    if np.any(repeated):
        pid = list(patients)[int(patient[np.argmax(repeated)])]
        raise DuplicateTimestamp(f"{path}: duplicate timestamp for patient {pid!r}")
    observations = np.empty((len(table), scheme.n_features), dtype=int)
    for d in range(scheme.n_features):
        observations[:, d] = discretize(table[:, 2 + d], d, scheme)
    cuts = np.flatnonzero(np.diff(patient)) + 1
    pieces = zip(patients, np.split(times, cuts), np.split(observations, cuts))
    return [Trajectory(patient_id=pid, times=t, observations=obs) for pid, t, obs in pieces]


def save_cohort(cohort: list[Trajectory], path: str | Path, scheme: BinningScheme) -> None:
    """Write a cohort back to CSV, encoding each bin as its center value."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["patient_id", "time", *scheme.names])
        for trajectory in cohort:
            for i, t in enumerate(trajectory.times):
                cells = [trajectory.patient_id, repr(float(t))]
                for d, feature in enumerate(scheme.features):
                    j = trajectory.observations[i, d]
                    cells.append("" if j == MISSING else repr(float(feature.centers[j])))
                writer.writerow(cells)


def restrict_features(
    cohort: list[Trajectory], config: RunConfig, names: tuple[str, ...]
) -> tuple[list[Trajectory], RunConfig]:
    """Project a cohort and its run configuration onto a subset of features.

    The returned config carries the projected scheme and no
    ``eval_features``.  The intervention feature, and with it the terminal
    pinning, survives only when it is in ``names``.
    """
    idx = [config.scheme.index(name) for name in names]
    keep = config.intervention_feature in names
    config = replace(
        config,
        scheme=BinningScheme(tuple(config.scheme.features[i] for i in idx)),
        eval_features=None,
        intervention_feature=config.intervention_feature if keep else None,
        terminal_intervention=config.terminal_intervention and keep,
    )
    projected = [
        Trajectory(
            patient_id=t.patient_id,
            times=t.times,
            observations=t.observations[:, idx],
        )
        for t in cohort
    ]
    return projected, config


def _model_payload(mixture: MixtureModel) -> dict:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "prior": mixture.prior.tolist(),
        "assignments": mixture.assignments.tolist(),
        "objective_trace": list(mixture.objective_trace),
        "scheme": None,
        "models": [
            {
                "initial": model.initial.tolist(),
                "rates": model.generator.rates.tolist(),
                "mask": model.generator.mask.tolist(),
                "emissions": [t.tolist() for t in model.emissions.tables],
            }
            for model in mixture.models
        ],
    }
    if mixture.scheme is not None:
        payload["scheme"] = [
            {"name": f.name, "lower": f.lower, "upper": f.upper, "bins": f.bins}
            for f in mixture.scheme.features
        ]
    return payload


def save_model(mixture: MixtureModel, path: str | Path) -> None:
    """Persist a mixture as versioned JSON; floats survive exactly."""
    Path(path).write_text(
        json.dumps(_model_payload(mixture), indent=1) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path) -> MixtureModel:
    """Load a persisted mixture, validating every structural invariant.

    Raises :class:`VersionMismatch` for a foreign version tag and
    :class:`InvariantViolation` for anything else wrong with the file.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvariantViolation(f"{path}: not parseable as JSON: {err.msg}") from err
    if not isinstance(payload, dict):
        raise InvariantViolation(f"{path}: expected a JSON object")
    version = payload.get("version")
    if version != MODEL_VERSION:
        raise VersionMismatch(
            f"{path}: file version {version!r}, this build reads version {MODEL_VERSION}"
        )
    try:
        scheme = None
        if payload.get("scheme") is not None:
            scheme = BinningScheme(
                tuple(
                    FeatureBinning(
                        name=f["name"],
                        lower=float(f["lower"]),
                        upper=float(f["upper"]),
                        bins=int(f["bins"]),
                    )
                    for f in payload["scheme"]
                )
            )
        models = []
        for entry in payload["models"]:
            generator = GeneratorMatrix(
                rates=np.array(entry["rates"], dtype=float),
                mask=np.array(entry["mask"], dtype=bool),
            )
            emissions = EmissionTable(
                tables=tuple(np.array(t, dtype=float) for t in entry["emissions"])
            )
            models.append(
                SubtypeModel(
                    initial=np.array(entry["initial"], dtype=float),
                    generator=generator,
                    emissions=emissions,
                )
            )
        mixture = MixtureModel(
            models=tuple(models),
            prior=np.array(payload["prior"], dtype=float),
            assignments=np.array(payload["assignments"], dtype=int),
            objective_trace=[float(v) for v in payload["objective_trace"]],
            scheme=scheme,
        )
    except SubtypingError as err:
        raise InvariantViolation(f"{path}: {err}") from err
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as err:
        raise InvariantViolation(f"{path}: malformed model file: {err}") from err
    if scheme is not None and scheme.bin_counts != mixture.models[0].emissions.bin_counts:
        raise InvariantViolation(f"{path}: scheme bins disagree with emission tables")
    return mixture
