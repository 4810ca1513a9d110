"""Shared fixture builders for the test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from cthmm_subtyping import (
    BinningScheme,
    EmissionTable,
    FeatureBinning,
    MixtureModel,
    SubtypeModel,
    full_mask,
    left_to_right_mask,
    validate_generator,
)
from cthmm_subtyping import ctmc


def random_generator(rng, n_states, lo=0.2, hi=1.5, mask=None):
    if mask is None:
        mask = full_mask(n_states)
    raw = rng.uniform(lo, hi, size=(n_states, n_states)) * mask
    return validate_generator(raw, mask)


def random_emissions(rng, n_states, bin_counts):
    return EmissionTable(
        tables=tuple(rng.dirichlet(np.ones(j), size=n_states) for j in bin_counts)
    )


def random_model(rng, n_states, bin_counts, mask=None, rate_lo=0.2, rate_hi=1.5):
    return SubtypeModel(
        initial=rng.dirichlet(np.ones(n_states)),
        generator=random_generator(rng, n_states, lo=rate_lo, hi=rate_hi, mask=mask),
        emissions=random_emissions(rng, n_states, bin_counts),
    )


def random_observations(rng, n, bin_counts, missing_rate=0.2):
    obs = np.column_stack([rng.integers(0, j, size=n) for j in bin_counts])
    obs[rng.random(obs.shape) < missing_rate] = -1
    return obs


def random_times(rng, n, mean_gap=1.0):
    gaps = rng.uniform(0.2, 2.0 * mean_gap, size=n - 1)
    return np.concatenate([[0.0], np.cumsum(gaps)])


def simple_scheme(bins=5):
    return BinningScheme(
        (
            FeatureBinning(name="heart_rate", lower=40.0, upper=150.0, bins=bins),
            FeatureBinning(name="systolic_bp", lower=40.0, upper=200.0, bins=bins),
        )
    )


def chain_model(rates, peak_bins, n_bins=5, peak_mass=0.85, initial=None):
    """Left-to-right subtype with one emission peak per (state, feature).

    ``rates`` gives the superdiagonal of the generator (length K-1);
    ``peak_bins`` is a (K, D) array of peak bin indices.
    """
    peak_bins = np.atleast_2d(np.asarray(peak_bins, dtype=int))
    n_states = peak_bins.shape[0]
    mask = left_to_right_mask(n_states)
    raw = np.zeros((n_states, n_states))
    for k, rate in enumerate(rates):
        raw[k, k + 1] = rate
    generator = validate_generator(raw, mask)

    tables = []
    for d in range(peak_bins.shape[1]):
        table = np.full((n_states, n_bins), (1.0 - peak_mass) / (n_bins - 1))
        for k in range(n_states):
            table[k, peak_bins[k, d]] = peak_mass
        tables.append(table / table.sum(axis=1, keepdims=True))
    if initial is None:
        initial = np.zeros(n_states)
        initial[0] = 1.0
    return SubtypeModel(
        initial=np.asarray(initial, dtype=float),
        generator=generator,
        emissions=EmissionTable(tables=tuple(tables)),
    )


def separated_mixture(subtype_peaks, rates_per_subtype, n_bins=5, scheme=None):
    """Mixture of chain subtypes with hand-placed emission peaks."""
    models = tuple(
        chain_model(rates, peaks, n_bins=n_bins)
        for rates, peaks in zip(rates_per_subtype, subtype_peaks)
    )
    n_subtypes = len(models)
    return MixtureModel(
        models=models,
        prior=np.full(n_subtypes, 1.0 / n_subtypes),
        assignments=np.empty(0, dtype=int),
        objective_trace=[],
        scheme=scheme,
    )


def emission_total_variation(model_a, model_b):
    """Smallest total-variation distance across all (state, feature) rows."""
    gaps = []
    for ta, tb in zip(model_a.emissions.tables, model_b.emissions.tables):
        gaps.append(0.5 * np.abs(ta - tb).sum(axis=1).min())
    return min(gaps)


def best_permutation_accuracy(assigned, truth, n_subtypes):
    import itertools

    best = 0.0
    best_perm = None
    for perm in itertools.permutations(range(n_subtypes)):
        mapped = np.array([perm[a] for a in assigned])
        acc = float(np.mean(mapped == truth))
        if acc > best:
            best, best_perm = acc, perm
    return best, best_perm


@pytest.fixture
def eigensystem_calls(monkeypatch):
    """List that grows by one entry (the stack size) per ``ctmc._eigensystem`` call."""
    calls = []
    eigensystem = ctmc._eigensystem

    def spy(rates):
        calls.append(len(rates))
        return eigensystem(rates)

    monkeypatch.setattr(ctmc, "_eigensystem", spy)
    return calls


def _perfbench_module(name: str):
    """``perfbench/<name>.py`` as module ``perfbench_<name>``, imported without
    touching ``perfbench/``; it stays in ``sys.modules`` while the fixture lives."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``."""
    yield from _perfbench_module("workloads")


@pytest.fixture(scope="module")
def tracer():
    """``perfbench/tracer.py``."""
    yield from _perfbench_module("tracer")


@pytest.fixture(scope="module")
def perfbench_run():
    """``perfbench/run.py``."""
    yield from _perfbench_module("run")
