"""Continuous-time Markov chain core.

Generator matrices, interval transition probabilities via the matrix
exponential, and end-conditioned expectations of transition counts and
state sojourn times over an interval.  These are the quantities the EM
learner consumes.  Every result is a function of its inputs alone; the
one thing kept between calls is a generator's eigensystem, built at
first use and cached on its frozen :class:`GeneratorMatrix`.

Kernels (a real product with the eigenprojectors) and interval integrals
(summed over their gaps inside the eigenbasis) come in closed form from
that one eigendecomposition per generator (Liu et al. 2015; Hobolth &
Jensen 2011).  A generator whose eigenvector basis is singular or
ill-conditioned, as a defective (Jordan-block) one is, goes through
scipy's scaling-and-squaring Pade ``expm`` instead.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .errors import (
    ExpmInaccuracy,
    InvariantViolation,
    NegativeOffDiagonal,
    NonPositiveInterval,
    NonSquareInput,
)

# Bounds applied to nonzero off-diagonal rates, per unit time.
RATE_MIN = 1e-6
RATE_MAX = 1e3

# Conditioning probabilities below this floor are treated as unreachable.
P_FLOOR = 1e-12

# An eigenvector basis V serves as a closed form only while its 1-norm
# condition number ||V|| ||V^-1|| stays at or below this bound.
EIGEN_COND_MAX = 100.0

_ROW_SUM_TOL = 1e-12
_ROW_SUM_MAX = 1e-8


def full_mask(n_states: int) -> np.ndarray:
    """Structure mask allowing every off-diagonal transition."""
    return ~np.eye(n_states, dtype=bool)


def left_to_right_mask(n_states: int) -> np.ndarray:
    """Chain mask: each state may only jump to the next, last is absorbing."""
    mask = np.zeros((n_states, n_states), dtype=bool)
    for k in range(n_states - 1):
        mask[k, k + 1] = True
    return mask


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` frozen and C-contiguous, never freezing the caller's own array.

    Every frozen dataclass stores its arrays through this.  A writable
    array may be the caller's, so it is copied first; an already
    read-only contiguous one, such as a slice of another frozen object's
    arrays, is kept without a copy.
    """
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GeneratorMatrix:
    """Rate matrix of a CTMC together with its structure mask.

    Off-diagonal entries are nonnegative transition rates (events per time
    unit), the diagonal is the negative row sum, masked-off entries are
    exactly zero, and nonzero rates lie within [RATE_MIN, RATE_MAX].
    """

    rates: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise InvariantViolation("generator rates must be square")
        if rates.shape[0] < 1:
            raise InvariantViolation("generator needs at least one state")
        if mask.shape != rates.shape:
            raise InvariantViolation("structure mask shape differs from rates")
        if not np.all(np.isfinite(rates)):
            raise InvariantViolation("generator rates must be finite")
        mask = mask & ~np.eye(rates.shape[0], dtype=bool)
        off = rates[~np.eye(rates.shape[0], dtype=bool)]
        if np.any(off < 0):
            raise InvariantViolation("negative off-diagonal rate")
        if np.any(np.diag(rates) > 0):
            raise InvariantViolation("positive diagonal entry")
        if np.abs(rates.sum(axis=1)).max() > _ROW_SUM_TOL:
            raise InvariantViolation("generator rows must sum to zero")
        if np.any(rates[~mask & ~np.eye(rates.shape[0], dtype=bool)] != 0.0):
            raise InvariantViolation("masked-off entry is nonzero")
        nz = rates[mask][rates[mask] > 0]
        if nz.size and (nz.min() < RATE_MIN * (1 - 1e-12) or nz.max() > RATE_MAX * (1 + 1e-12)):
            raise InvariantViolation("off-diagonal rate outside allowed bounds")
        object.__setattr__(self, "rates", _read_only(rates))
        object.__setattr__(self, "mask", _read_only(mask))

    @property
    def size(self) -> int:
        return self.rates.shape[0]

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """This generator's :func:`_eigensystem`, read-only, with a leading axis of one.

        Built at first use and kept for the object's lifetime, so every
        kernel and interval integral of one generator shares one
        eigendecomposition; a new generator (each M-step makes one) gets
        its own.
        """
        return tuple(_read_only(a) for a in _eigensystem(self.rates[None]))


@dataclass(frozen=True)
class TransitionMatrix:
    """Interval transition probabilities P(delta) = expm(delta * Q)."""

    probs: np.ndarray
    interval: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _read_only(np.asarray(self.probs, dtype=float)))

    @property
    def size(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class EndConditionedStats:
    """Expected path statistics over an interval, conditioned on both ends.

    ``expected_transitions[a, b, c, d]`` is the expected number of c -> d
    jumps in (0, delta) given the chain starts in ``a`` and ends in ``b``;
    ``expected_sojourn[a, b, c]`` is the expected time spent in state ``c``
    under the same conditioning.  Entries for endpoint pairs whose
    transition probability falls below ``P_FLOOR`` are zero.
    """

    interval: float
    expected_transitions: np.ndarray
    expected_sojourn: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "expected_transitions", _read_only(self.expected_transitions)
        )
        object.__setattr__(self, "expected_sojourn", _read_only(self.expected_sojourn))


def validate_generator(raw: np.ndarray, mask: np.ndarray) -> GeneratorMatrix:
    """Build a valid generator from raw off-diagonal rates.

    The diagonal of ``raw`` is ignored and recomputed as the negative row
    sum.  Masked-off entries are zeroed, and nonzero rates are clamped into
    [RATE_MIN, RATE_MAX].  Zero rates on masked-in entries are left at zero
    (the transition simply never fires).

    Raises
    ------
    NonSquareInput
        if ``raw`` is not a square matrix.
    InvariantViolation
        if any off-diagonal entry is NaN or infinite.
    NegativeOffDiagonal
        if any off-diagonal entry is negative; rejected rather than fixed
        so that sign errors in upstream code surface immediately.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise NonSquareInput(f"expected a square matrix, got shape {raw.shape}")
    n = raw.shape[0]
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != raw.shape:
        raise NonSquareInput("mask shape differs from rate matrix shape")
    mask = mask & ~np.eye(n, dtype=bool)
    off_diag = ~np.eye(n, dtype=bool)
    if not np.all(np.isfinite(raw[off_diag])):
        raise InvariantViolation("off-diagonal rates must be finite")
    if np.any(raw[off_diag] < 0):
        raise NegativeOffDiagonal("off-diagonal rates must be nonnegative")

    rates = np.where(mask, raw, 0.0)
    nonzero = mask & (rates > 0)
    rates[nonzero] = np.clip(rates[nonzero], RATE_MIN, RATE_MAX)
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return GeneratorMatrix(rates=rates, mask=mask)


def _eigensystem(
    rates: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and their inverse for a (M, K, K) stack.

    One batched ``eig`` and one batched ``inv``; returns complex ``values``
    (M, K), ``vectors`` V and ``inverse`` V^-1 (M, K, K), and ``usable``
    (M,): V and V^-1 are finite and ||V||_1 ||V^-1||_1 <= EIGEN_COND_MAX.
    A singular V (or a non-finite generator) marks its generator unusable
    and never raises.  ``eig`` returns real arrays when every eigenvalue
    is real; casting them keeps one arithmetic, and so one cost, for every
    spectrum.  ``eig`` returns a generator's zero eigenvalue as about
    +-eps, and exp(eps * gap) would move a kernel's row sums by eps * gap
    over a long gap, so every |value| <= 64 eps max|Q| is set to exactly 0.
    """
    finite = np.isfinite(rates).all(axis=(1, 2))
    rates = np.where(finite[:, None, None], rates, 0.0)
    values, vectors = np.linalg.eig(rates)
    tiny = np.abs(values) <= 64 * np.finfo(float).eps * np.abs(rates).max(axis=(1, 2))[:, None]
    values, vectors = np.where(tiny, 0.0, values).astype(complex), vectors.astype(complex)
    try:
        inverse = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:  # some basis is exactly singular
        inverse = np.full_like(vectors, np.nan)
        for m, basis in enumerate(vectors):
            with contextlib.suppress(np.linalg.LinAlgError):
                inverse[m] = np.linalg.inv(basis)
    cond = np.abs(vectors).sum(axis=1).max(axis=1) * np.abs(inverse).sum(axis=1).max(axis=1)
    usable = finite & np.isfinite(inverse).all(axis=(1, 2)) & (cond <= EIGEN_COND_MAX)
    return values, vectors, inverse, usable


def _reduce_columns(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)`` one column at a time, which numpy does
    about ten times faster on a short last axis.  A maximum is the same in
    any order; a sum is bitwise numpy's (left to right) below 8 columns,
    save that signed zeros sum to -0.0, while from 8 numpy sums pairwise."""
    out = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        ufunc(out, a[..., k], out=out)
    return out


def _generator_kernels(generators: Sequence[GeneratorMatrix], gaps: np.ndarray) -> tuple:
    """:func:`_kernels` of M generator objects, from their cached spectra."""
    if len(generators) == 1:
        return _kernels(generators[0].rates[None], generators[0].spectrum, gaps)
    spectra = zip(*(generator.spectrum for generator in generators))
    return _kernels(np.stack([generator.rates for generator in generators]),
                    tuple(np.concatenate(parts) for parts in spectra), gaps)


def _kernels(rates: np.ndarray, spectrum: tuple, gaps: np.ndarray) -> tuple:
    """Interval transition probabilities ``expm(gap * Q)`` for every pair.

    ``rates`` holds M generator matrices, shape (M, K, K), ``spectrum``
    their :func:`_eigensystem`, and ``gaps`` G intervals; the result has
    shape (M, G, K, K).  A generator with a usable eigensystem gets the
    sum over j of exp(gap values_j) R_j, R_j = V[:, j] V^-1[j, :], as one
    real product per gap, so no kernel depends on its stack; the others
    share one stacked ``expm`` call.  A zero gap gives exactly the
    identity.  Rows are renormalised when a row sum drifts from one by
    more than 1e-12 but less than 1e-8; larger drift (or NaN) signals an
    ill-conditioned ``gap * Q`` product and breaks that generator alone:
    its kernels are all NaN, and its entry of the returned list of
    failures, None for a sound one, is an :class:`ExpmInaccuracy` naming
    its first broken gap.
    """
    gaps = np.asarray(gaps, dtype=float)
    bad = ~((gaps >= 0) & (gaps < np.inf))
    if bad.any():
        raise NonPositiveInterval(f"interval must be finite and >= 0, got {gaps[bad][0]}")
    values, vectors, inverse, usable = spectrum
    eigen = bool(usable.all())
    if not eigen:
        values, vectors, inverse = values[usable], vectors[usable], inverse[usable]
    n = rates.shape[-1]
    # conj(R_j)[a, b] at [m, a, b, j]: as reals, rows Re R_j, -Im R_j.
    projectors = np.multiply(vectors[:, :, None, :], inverse.swapaxes(1, 2)[:, None], order="C")
    np.conjugate(projectors, out=projectors)
    projectors = projectors.view(float).reshape(len(values), 1, n * n, 2 * n).swapaxes(2, 3)
    growth = np.exp(values[:, None, :] * gaps[:, None])
    probs = (growth.view(float)[:, :, None, :] @ projectors).reshape(growth.shape[:2] + (n, n))
    if not eigen:
        probs, closed = np.empty(rates.shape[:1] + gaps.shape + rates.shape[1:]), probs
        probs[usable] = closed
        probs[~usable] = expm(rates[~usable][:, None] * gaps[:, None, None])
    probs[:, gaps == 0] = np.eye(n)
    drift = _reduce_columns(np.maximum, np.abs(_reduce_columns(np.add, probs) - 1.0))
    broken = ~(drift <= _ROW_SUM_MAX)
    if not probs.min(initial=0.0) >= -_ROW_SUM_MAX:  # NaN lands here too
        broken |= probs.min(axis=(-2, -1)) < -_ROW_SUM_MAX
    failures = [None] * len(probs)
    if broken.any():
        for m in np.flatnonzero(broken.any(axis=1)):
            g = broken[m].argmax()
            failures[m] = ExpmInaccuracy(f"matrix exponential row sums drifted by "
                                         f"{drift[m, g]:.3e} for interval {gaps[g]}")
            probs[m] = np.nan
    np.clip(probs, 0.0, 1.0, out=probs)
    renormalise = drift > _ROW_SUM_TOL
    if renormalise.any():
        probs[renormalise] /= probs[renormalise].sum(axis=-1, keepdims=True)
    return probs, failures


def _checked(result, failures: list):
    """``result``, unless its :func:`_kernels` ``failures`` hold one: the first is raised."""
    if any(failures):
        raise next(filter(None, failures))
    return result


def transition_matrix(generator: GeneratorMatrix, interval: float) -> TransitionMatrix:
    """Interval transition probabilities for one generator and one gap.

    The single-matrix case of :func:`_kernels`, with the same
    renormalisation; past the drift guard it raises :class:`ExpmInaccuracy`.
    """
    interval = float(interval)
    probs = _checked(*_generator_kernels([generator], np.array([interval])))[0, 0]
    return TransitionMatrix(probs=probs, interval=interval)


def _interval_integral(
    rates: np.ndarray, spectrum: tuple, blocks: np.ndarray, intervals: np.ndarray
) -> np.ndarray:
    """(n, n) sum over i of the integral over (0, delta_i) of expm(s Q) B_i expm((delta_i - s) Q).

    ``rates`` is one generator Q, ``spectrum`` its ``_eigensystem(rates[None])``
    (a generator's cached :attr:`GeneratorMatrix.spectrum`), ``blocks``
    has shape (B, n, n) and ``intervals`` shape (B,).  With a usable
    eigensystem Q = V diag(values) V^-1 the sum is
    V [sum_i (V^-1 B_i V) * Phi_i] V^-1, where Phi_i[j, k] integrates
    exp(s values_j + (delta_i - s) values_k) over (0, delta_i).  Otherwise
    it sums the upper-right blocks of the exponentials of the augmented
    matrices [[Q, B_i], [0, Q]] * delta_i, which need no diagonalisability,
    all B in one stacked ``expm`` call.
    """
    values, vectors, inverse, usable = spectrum
    n = rates.shape[0]
    if usable[0]:
        values, vectors, inverse = values[0], vectors[0], inverse[0]
        # For j != k, Phi_jk is the divided difference (E_j - E_k) /
        # (values_j - values_k) of E = exp(values delta), which is also
        # delta E_k expm1(z) / z with z = (values_j - values_k) delta.  Where
        # |z| < 0.1 the difference would cancel, so Phi_jk takes the Taylor
        # series of expm1(z) / z there (eleven terms, error below 1e-18);
        # the diagonal is delta E_j.  Only E needs a complex exp: numpy's
        # complex exp and expm1 are scalar loops that run faster on real
        # arguments, so the fewer of them, the less a fit's cost depends on
        # its spectrum.  Phi is symmetric.
        growth = np.exp(np.multiply.outer(intervals, values))
        j, k = np.triu_indices(n, 1)
        split = values[j] - values[k]
        z = np.multiply.outer(intervals, split)
        near = np.abs(z) < 0.1
        z = np.where(near, z, 0.0)  # the series is kept only there
        series = np.full_like(z, 1 / math.factorial(11))
        for m in range(10, 0, -1):
            series *= z
            series += 1 / math.factorial(m)
        reciprocal = np.divide(1.0, split, out=np.zeros_like(split), where=split != 0)
        pairs = np.where(near, intervals[:, None] * growth[:, k] * series,
                         (growth[:, j] - growth[:, k]) * reciprocal)
        phi = np.empty((len(intervals), n, n), dtype=complex)
        phi[:, j, k] = phi[:, k, j] = pairs
        phi[:, range(n), range(n)] = intervals[:, None] * growth
        # C[a, b, j, k] = sum_i B_i[a, b] Phi_i[j, k], as one real product.
        sums = (blocks.reshape(-1, n * n).T @ phi.reshape(-1, n * n).view(float)).view(complex)
        summed = np.einsum("ja,bk,abjk->jk", inverse, vectors, sums.reshape((n,) * 4))
        return (vectors @ summed @ inverse).real
    # The integral is linear in B_i.  Scaling each block to unit size keeps
    # a huge block from forcing extra squarings, which would cost the Q
    # blocks their relative accuracy.
    scale = np.abs(blocks).max(axis=(1, 2), initial=0.0)
    scale = np.where(scale > 0, scale, 1.0)[:, None, None]
    aug = np.zeros((blocks.shape[0], 2 * n, 2 * n))
    aug[:, :n, :n] = aug[:, n:, n:] = rates
    aug[:, :n, n:] = blocks / scale
    return (expm(aug * intervals[:, None, None])[:, :n, n:] * scale).sum(axis=0)


def end_conditioned_stats(generator: GeneratorMatrix, interval: float) -> EndConditionedStats:
    """Expected jump counts and sojourn times conditioned on both endpoints.

    For every endpoint pair (a, b) with P_ab(interval) >= P_FLOOR this
    divides the joint expectations (one :func:`_interval_integral` per
    unit block) by the endpoint probability; pairs below the floor are
    reported as zero rather than dividing by a vanishing number.  This is
    the per-endpoint-pair reference; the EM generator update aggregates
    the same quantities over all gaps without forming these tensors.
    """
    interval = float(interval)
    if not 0 < interval < np.inf:
        raise NonPositiveInterval(f"interval must be finite and > 0, got {interval}")

    n = generator.size
    rates = generator.rates
    probs = transition_matrix(generator, interval).probs

    # joint[a, b, c, d] integrates P_ac(s) P_db(interval - s): one unit
    # block E_cd per (c, d).  Its c == d slices are the sojourn integrands,
    # and scaled by q_cd the others are the jump integrands.
    units = np.eye(n * n).reshape(n * n, n, n)
    joint = np.stack([_interval_integral(rates, generator.spectrum, unit, np.array([interval]))
                      for unit in units[:, None]]).reshape(n, n, n, n).transpose(2, 3, 0, 1)
    joint_sojourn = np.einsum("abcc->abc", joint)
    joint_transitions = joint * np.where(np.eye(n, dtype=bool), 0.0, rates)

    reachable = probs >= P_FLOOR
    denom = np.where(reachable, probs, 1.0)
    sojourn = np.where(reachable[:, :, None], joint_sojourn / denom[:, :, None], 0.0)
    transitions = np.where(
        reachable[:, :, None, None],
        joint_transitions / denom[:, :, None, None],
        0.0,
    )
    # The integrands are nonnegative, so clip away sub-epsilon noise.
    return EndConditionedStats(
        interval=interval,
        expected_transitions=np.clip(transitions, 0.0, None),
        expected_sojourn=np.clip(sojourn, 0.0, None),
    )


def sojourn_expectation(generator: GeneratorMatrix) -> np.ndarray:
    """Mean holding time per state: 1/|Q_kk|, infinity for absorbing states."""
    exit_rates = -np.diag(generator.rates)
    out = np.full(generator.size, np.inf)
    leaving = exit_rates > 0
    out[leaving] = 1.0 / exit_rates[leaving]
    return out
