"""Categorical observation model over equal-width feature bins.

Raw feature values are discretised into per-feature bins; out-of-range
values count as missing, and missing features are marginalised out of the
likelihood (their factor is simply dropped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .ctmc import _read_only
from .errors import DimensionMismatch, InvariantViolation, UnknownFeature

#: Bin index marking a missing observation.
MISSING = -1


@dataclass(frozen=True)
class FeatureBinning:
    """Equal-width binning of one feature over [lower, upper]."""

    name: str
    lower: float
    upper: float
    bins: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if isinstance(self.bins, bool) or not isinstance(self.bins, Integral):
            raise InvariantViolation(f"feature {self.name!r}: bins {self.bins!r} is not an integer")
        object.__setattr__(self, "bins", int(self.bins))
        # A finite width also rules out infinite bounds and overflow.
        if not (self.lower < self.upper and math.isfinite(self.upper - self.lower)):
            raise InvariantViolation(f"feature {self.name!r}: need finite lower < upper")
        if self.bins < 2:
            raise InvariantViolation(f"feature {self.name!r}: need at least 2 bins")

    @property
    def width(self) -> float:
        return (self.upper - self.lower) / self.bins

    @cached_property
    def edges(self) -> np.ndarray:
        e = np.linspace(self.lower, self.upper, self.bins + 1)
        e.flags.writeable = False
        return e

    @cached_property
    def centers(self) -> np.ndarray:
        c = (self.edges[:-1] + self.edges[1:]) / 2.0
        c.flags.writeable = False
        return c


@dataclass(frozen=True)
class BinningScheme:
    """Per-feature binning configuration for a cohort."""

    features: tuple[FeatureBinning, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise InvariantViolation("duplicate feature names in binning scheme")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def bin_counts(self) -> tuple[int, ...]:
        return tuple(f.bins for f in self.features)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index(self, feature: int | str) -> int:
        if isinstance(feature, str):
            for i, f in enumerate(self.features):
                if f.name == feature:
                    return i
            raise UnknownFeature(f"no feature named {feature!r}")
        if not 0 <= feature < len(self.features):
            raise UnknownFeature(f"feature index {feature} out of range")
        return feature


def discretize(values, feature: int | str, scheme: BinningScheme) -> np.ndarray:
    """Map raw values to bin indices, MISSING where outside the range.

    Bins are half-open except the last, so the upper boundary itself lands
    in the final bin.  NaN counts as missing.  Returns an integer array of
    the input's shape (0-d for a scalar).
    """
    binning = scheme.features[scheme.index(feature)]
    values = np.asarray(values, dtype=float)
    inside = (values >= binning.lower) & (values <= binning.upper)
    offset = np.where(inside, values, binning.lower) - binning.lower
    index = np.minimum(np.floor(offset / binning.width), binning.bins - 1)
    return np.where(inside, index, MISSING).astype(int)


def _feature_starts(bin_counts: tuple[int, ...]) -> np.ndarray:
    """First stacked column of each feature: ``sum(bin_counts[:d])``."""
    return np.cumsum((0, *bin_counts[:-1]))


def stacked_columns(observations: np.ndarray, bin_counts: tuple[int, ...]) -> np.ndarray:
    """Column of each cell of an (n, D) bin-index array in the stacked layout.

    Bin j of feature d goes to column ``sum(bin_counts[:d]) + j`` and
    MISSING to the final one; a bin outside its feature's range raises
    :class:`DimensionMismatch`.
    """
    observations = np.asarray(observations)
    bad = np.any((observations >= np.array(bin_counts)) | (observations < MISSING), axis=0)
    if np.any(bad):
        d = int(np.argmax(bad))
        raise DimensionMismatch(
            f"feature {d}: bin index out of range for {bin_counts[d]} bins of {tuple(bin_counts)}")
    offsets = _feature_starts(bin_counts)
    return np.where(observations == MISSING, sum(bin_counts), observations + offsets)


def feature_totals(stacked: np.ndarray, bin_counts: tuple[int, ...]) -> np.ndarray:
    """Each feature's total over a stacked (..., C) array, C = sum(bin_counts).

    Returns the same shape: every column holds the sum of its own
    feature's columns, so ``stacked / feature_totals(stacked, bin_counts)``
    normalises each feature separately.
    """
    starts = _feature_starts(bin_counts)
    # A zero ahead of each feature makes reduceat add a feature's columns
    # in the order ``.sum(axis=-1)`` adds them alone, bit for bit.
    led = np.insert(stacked, starts, 0.0, axis=-1)
    totals = np.add.reduceat(led, starts + np.arange(len(bin_counts)), axis=-1)
    return np.repeat(totals, bin_counts, axis=-1)


def split_features(stacked: np.ndarray, bin_counts: tuple[int, ...]) -> list[np.ndarray]:
    """Per-feature blocks (..., bin_counts[d]) of a stacked array.

    Columns past the features, such as the MISSING column, are dropped.
    """
    return np.split(stacked, np.cumsum(bin_counts), axis=-1)[:-1]


@dataclass(frozen=True)
class EmissionTable:
    """Per-state categorical bin distributions, one table per feature.

    ``tables[d]`` has shape (n_states, bins_d); every row is a probability
    vector.  Bin counts may differ across features.
    """

    tables: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.tables:
            raise InvariantViolation("emission table needs at least one feature")
        frozen = []
        n_states = None
        for d, table in enumerate(self.tables):
            table = np.asarray(table, dtype=float)
            if table.ndim != 2:
                raise InvariantViolation(f"feature {d}: emission table must be 2-d")
            if n_states is None:
                n_states = table.shape[0]
            elif table.shape[0] != n_states:
                raise InvariantViolation("emission tables disagree on state count")
            if table.shape[0] < 1 or table.shape[1] < 1:
                raise InvariantViolation(f"feature {d}: emission table needs states and bins")
            if not np.all(table >= 0):
                raise InvariantViolation(f"feature {d}: negative or NaN emission probability")
            if np.abs(table.sum(axis=1) - 1.0).max() > 1e-12:
                raise InvariantViolation(f"feature {d}: emission rows must sum to 1")
            frozen.append(_read_only(table))
        object.__setattr__(self, "tables", tuple(frozen))

    @property
    def n_states(self) -> int:
        return self.tables[0].shape[0]

    @property
    def n_features(self) -> int:
        return len(self.tables)

    @cached_property
    def bin_counts(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tables)

    @cached_property
    def stacked(self) -> np.ndarray:
        """Every feature's table side by side, in the layout of
        :func:`stacked_columns`; the final (MISSING) column is all ones.
        Built once per table and read-only."""
        stacked = np.concatenate([*self.tables, np.ones((self.n_states, 1))], axis=1)
        stacked.flags.writeable = False
        return stacked

    @cached_property
    def _log_stacked(self) -> np.ndarray:
        """Log of :attr:`stacked`, transposed to one row per column."""
        with np.errstate(divide="ignore"):
            rows = np.ascontiguousarray(np.log(self.stacked).T)
        rows.flags.writeable = False
        return rows


def log_emission_matrix(
    tables: list[EmissionTable], columns: np.ndarray, owner: np.ndarray
) -> np.ndarray:
    """Log emission likelihoods of every timepoint under its own table.

    ``tables`` are M emission tables with the same bin counts, ``columns``
    the (n, D) :func:`stacked_columns` of the timepoints under those
    counts and ``owner`` the (n,) index of each row's table; returns an
    (n, K) array of summed per-feature log-probabilities, so no row is
    evaluated under a table it does not use.  Raises
    :class:`DimensionMismatch` when the tables disagree on bin counts.
    """
    bin_counts = tables[0].bin_counts
    if any(table.bin_counts != bin_counts for table in tables):
        raise DimensionMismatch("emission tables disagree on feature bins")
    logs = np.stack([table._log_stacked for table in tables])
    return logs[owner, columns.T].sum(axis=0)


def expected_feature_value(
    table: EmissionTable, state: int, feature: int | str, scheme: BinningScheme
) -> float:
    """Mean of the bin-center distribution for one feature in one state."""
    d = scheme.index(feature)
    return float(table.tables[d][state] @ scheme.features[d].centers)
