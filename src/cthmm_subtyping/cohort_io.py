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
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from numbers import Integral
from pathlib import Path

import numpy as np

from .ctmc import GeneratorMatrix
from .emissions import BinningScheme, FeatureBinning, EmissionTable, discretize
from .errors import (
    DimensionMismatch,
    DuplicateTimestamp,
    EmptyCohort,
    InvariantViolation,
    ParseError,
    SubtypingError,
    UnknownColumn,
    VersionMismatch,
)
from .inference import SubtypeModel, Trajectory
from .learning import EmConfig, _checked_seed
from .mixture import MixtureModel
from .synthesis import ObservationTimeConfig

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
    terminal_intervention: bool = False
    train_fraction: float = 0.8
    prefix_fraction: float = 0.7
    seed: int = 0
    em: EmConfig = field(default_factory=EmConfig)
    sim_patients: int = 100
    sim_missing_rate: float = 0.2
    sim_times: ObservationTimeConfig = field(default_factory=ObservationTimeConfig)

    def __post_init__(self) -> None:
        if not 0 < self.train_fraction < 1 or not 0 < self.prefix_fraction < 1:
            raise InvariantViolation("split fractions must lie strictly between 0 and 1")
        for flag, counts in (("subtypes", self.subtypes), ("states", self.states)):
            if not counts or min(counts) < 1:
                raise InvariantViolation(f"need {flag} counts, each >= 1, got {counts}")
        _checked_seed(self.seed)
        if self.sim_patients < 1:
            raise InvariantViolation(f"simulate.patients must be >= 1, got {self.sim_patients}")
        if not 0 <= self.sim_missing_rate <= 1:
            raise InvariantViolation(
                f"simulate.missing_rate must lie in [0, 1], got {self.sim_missing_rate}"
            )
        if self.em.terminal_intervention_feature is not None:
            raise InvariantViolation("em.terminal_intervention_feature is not a run setting;"
                                     " pin a feature by its intervention_feature name")
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
        """EM settings with the pinned feature's index in this config's scheme.

        The only place that sets ``EmConfig.terminal_intervention_feature``.
        """
        if not self.terminal_intervention:
            return self.em
        return replace(
            self.em, terminal_intervention_feature=self.scheme.index(self.intervention_feature)
        )


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON run configuration."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: invalid JSON at line {err.lineno}: {err.msg}") from err
    return config_from_dict(payload)


def _integer(key: str):
    """Parser of an integer setting; anything else, a bool too, is a ParseError naming ``key``."""
    def parse(value):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ParseError(f"bad configuration: {key} must be an integer, got {value!r}")
        return value
    return parse


def _boolean(key: str):
    """Parser of a switch: only JSON true or false; anything else is a ParseError naming ``key``."""
    def parse(value):
        if not isinstance(value, bool):
            raise ParseError(f"bad configuration: {key} must be true or false, got {value!r}")
        return value
    return parse


def _counts(key: str):
    """Parser of a count setting: one integer or a list of them."""
    one = _integer(key)
    return lambda value: [one(v) for v in (value if isinstance(value, list) else [value])]


def _present(section: dict, parsers: dict) -> dict:
    """Each key of ``parsers`` that ``section`` sets, parsed."""
    return {key: parse(section[key]) for key, parse in parsers.items() if key in section}


def _scheme(records: list[dict]) -> BinningScheme:
    """A binning scheme from its JSON feature records (config or model file)."""
    return BinningScheme(tuple(
        FeatureBinning(f["name"], f["lower"], f["upper"], f.get("bins", 5)) for f in records
    ))


def config_from_dict(payload: dict) -> RunConfig:
    """A :class:`RunConfig` from parsed JSON; absent keys keep its defaults."""
    try:
        settings = _present(payload, {
            "intervention_feature": lambda name: name, "subtypes": _counts("subtypes"),
            "states": _counts("states"), "terminal_intervention": _boolean("terminal_intervention"),
            "train_fraction": float, "prefix_fraction": float, "seed": _integer("seed"),
        })
        if payload.get("features"):
            settings["scheme"] = _scheme(payload["features"])
        if payload.get("eval_features"):
            settings["eval_features"] = tuple(payload["eval_features"])
        em = dict(payload.get("em", {}))
        if "seed" in settings:
            em.setdefault("seed", settings["seed"])
        if _boolean("left_to_right")(payload.get("left_to_right", False)):
            em["structure"] = "left-to-right"
        simulate = payload.get("simulate", {})
        sim = _present(simulate, {"patients": _integer("simulate.patients"),
                                  "missing_rate": float})
        times = _present(simulate, {
            "mean_gap": float, "min_observations": _integer("simulate.min_observations"),
            "max_observations": _integer("simulate.max_observations"),
        })
        return RunConfig(**settings, em=EmConfig(**em), sim_times=ObservationTimeConfig(**times),
                         **{f"sim_{key}": value for key, value in sim.items()})
    except SubtypingError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as err:
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
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyCohort(f"{path}: no header row")
        # A repeated column name reads its last field, as a dict of the row would.
        index = {name: i for i, name in enumerate(header)}
        names = scheme.names
        for column in ("patient_id", "time", *names):
            if column not in index:
                raise UnknownColumn(f"{path}: missing required column {column!r}")
        at = [index[column] for column in ("patient_id", "time", *names)]

        for row in reader:
            if not row:  # a blank line
                continue
            # The cells a short row leaves out are absent; extra cells are ignored.
            pid, cell, *cells = [row[i] if i < len(row) else None for i in at]
            pid = (pid or "").strip()
            if not pid:
                raise ParseError(f"{path}:{reader.line_num}: empty patient_id")
            try:
                t = float(cell)
            except (TypeError, ValueError):
                raise ParseError(
                    f"{path}:{reader.line_num}: time {cell!r} is not a number"
                ) from None
            if not math.isfinite(t):
                raise ParseError(f"{path}:{reader.line_num}: time {t} is not finite")
            rows.extend((patients.setdefault(pid, len(patients)), t))
            for name, raw in zip(names, cells):
                raw = (raw or "").strip()
                try:
                    rows.append(float(raw) if raw else math.nan)
                except ValueError:
                    raise ParseError(f"{path}:{reader.line_num}: feature {name!r} "
                                     f"value {raw!r} is not a number") from None

    if not patients:
        raise EmptyCohort(f"{path}: no data rows")

    table = np.frombuffer(rows).reshape(-1, 2 + scheme.n_features)
    table = table[np.lexsort((table[:, 1], table[:, 0]))]
    patient, times = table[:, 0], table[:, 1]
    # Compared, not subtracted: a difference of two huge times overflows.
    repeated = (times[1:] <= times[:-1]) & (patient[1:] == patient[:-1])
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
    """Write a cohort back to CSV, encoding each bin as its center value.

    Raises :class:`DimensionMismatch`, before the file is opened, for a
    patient whose feature count or bin index the scheme does not have.
    """
    bins = np.array(scheme.bin_counts)
    for trajectory in cohort:
        obs = trajectory.observations
        if obs.shape[1] != scheme.n_features:
            raise DimensionMismatch(f"patient {trajectory.patient_id!r} has {obs.shape[1]} "
                                    f"features, the scheme {scheme.n_features}")
        if (obs >= bins).any():
            i, d = np.argwhere(obs >= bins)[0]
            raise DimensionMismatch(
                f"patient {trajectory.patient_id!r}: feature {scheme.names[d]!r} bin "
                f"{obs[i, d]} is out of range for {bins[d]} bins"
            )
    # Each bin's cell text once per feature; the trailing "" is indexed by MISSING (-1).
    cells = [[repr(float(c)) for c in feature.centers] + [""] for feature in scheme.features]
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["patient_id", "time", *scheme.names])
        for trajectory in cohort:
            columns = [[text[j] for j in column]
                       for text, column in zip(cells, trajectory.observations.T.tolist())]
            times = map(repr, trajectory.times.tolist())
            writer.writerows(zip(repeat(trajectory.patient_id), times, *columns))


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
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "prior": mixture.prior.tolist(),
        "assignments": mixture.assignments.tolist(),
        "objective_trace": list(mixture.objective_trace),
        "scheme": None if mixture.scheme is None else [asdict(f) for f in mixture.scheme.features],
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
        scheme = None if payload.get("scheme") is None else _scheme(payload["scheme"])
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
