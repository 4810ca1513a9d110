import math

import numpy as np
import pytest
from scipy.linalg import expm

from cthmm_subtyping import (
    ExpmInaccuracy,
    GeneratorMatrix,
    InvariantViolation,
    NegativeOffDiagonal,
    NonPositiveInterval,
    NonSquareInput,
    RATE_MAX,
    RATE_MIN,
    end_conditioned_stats,
    full_mask,
    left_to_right_mask,
    sojourn_expectation,
    transition_matrix,
    validate_generator,
)
from cthmm_subtyping import ctmc

from conftest import random_generator
from oracles import (
    basis_product_kernels,
    conditioned_moments,
    interval_integrals_by_block,
    mc_end_conditioned,
    mp_kernel_and_integral,
    taylor_expm,
    transition_kernels,
)


class TestValidateGenerator:
    def test_all_zero_rates_give_zero_generator(self):
        q = validate_generator(np.zeros((3, 3)), full_mask(3))
        assert np.array_equal(q.rates, np.zeros((3, 3)))

    def test_diagonal_is_negative_row_sum(self):
        raw = np.array([[0.0, 0.5], [0.0, 0.0]])
        q = validate_generator(raw, full_mask(2))
        assert q.rates[0, 0] == -0.5
        assert q.rates[1, 1] == 0.0

    def test_negative_off_diagonal_rejected(self):
        raw = np.zeros((3, 3))
        raw[0, 2] = -0.1
        with pytest.raises(NegativeOffDiagonal):
            validate_generator(raw, full_mask(3))

    def test_non_finite_rates_rejected(self):
        for bad in (np.inf, np.nan):
            raw = np.array([[0.0, bad], [0.5, 0.0]])
            with pytest.raises(InvariantViolation):
                validate_generator(raw, full_mask(2))
            with pytest.raises(InvariantViolation):
                GeneratorMatrix(rates=[[bad, bad], [0.5, -0.5]], mask=full_mask(2))
        # No states at all: nothing to reduce over, still a typed error.
        empty = np.zeros((0, 0))
        with pytest.raises(InvariantViolation, match="one state"):
            validate_generator(empty, empty.astype(bool))
        with pytest.raises(InvariantViolation, match="one state"):
            GeneratorMatrix(rates=empty, mask=empty.astype(bool))

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareInput):
            validate_generator(np.zeros((2, 3)), np.ones((2, 3), dtype=bool))

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(NonSquareInput):
            validate_generator(np.zeros((2, 2)), np.ones((2, 3), dtype=bool))

    def test_masked_entries_zeroed(self):
        raw = np.full((3, 3), 0.4)
        q = validate_generator(raw, left_to_right_mask(3))
        assert q.rates[0, 2] == 0.0
        assert q.rates[1, 0] == 0.0
        assert q.rates[2].tolist() == [0.0, 0.0, 0.0]

    def test_rates_clamped_into_bounds(self):
        raw = np.array([[0.0, 5e3], [1e-9, 0.0]])
        q = validate_generator(raw, full_mask(2))
        assert q.rates[0, 1] == RATE_MAX
        assert q.rates[1, 0] == RATE_MIN

    def test_zero_rate_on_allowed_entry_stays_zero(self):
        raw = np.array([[0.0, 0.0], [0.3, 0.0]])
        q = validate_generator(raw, full_mask(2))
        assert q.rates[0, 1] == 0.0

    def test_random_generators_satisfy_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            q = random_generator(rng, k)
            assert np.abs(q.rates.sum(axis=1)).max() <= 1e-12
            assert np.all(np.diag(q.rates) <= 0)
            off = q.rates[~np.eye(k, dtype=bool)]
            assert np.all(off >= 0)


class TestTransitionMatrix:
    def test_zero_interval_is_identity(self):
        rng = np.random.default_rng(0)
        q = random_generator(rng, 4)
        assert np.array_equal(transition_matrix(q, 0.0).probs, np.eye(4))

    def test_single_exit_chain_analytic(self):
        q = validate_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), full_mask(2))
        p = transition_matrix(q, np.log(2.0)).probs
        assert p == pytest.approx(np.array([[0.5, 0.5], [0.0, 1.0]]), abs=1e-12)

    def test_matches_taylor_series_oracle(self):
        rng = np.random.default_rng(11)
        q = random_generator(rng, 3, lo=0.1, hi=1.0)
        expected = taylor_expm(q.rates * 0.7)
        assert np.abs(transition_matrix(q, 0.7).probs - expected).max() < 1e-10

    def test_taylor_match_across_random_generators(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            q = random_generator(rng, k, lo=0.05, hi=0.4)
            delta = float(rng.uniform(0.05, 1.25))
            expected = taylor_expm(q.rates * delta)
            assert np.abs(transition_matrix(q, delta).probs - expected).max() < 1e-10

    def test_chapman_kolmogorov(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            q = random_generator(rng, k, lo=0.05, hi=0.5)
            d1, d2 = rng.uniform(0.01, 10.0, size=2)
            combined = transition_matrix(q, d1).probs @ transition_matrix(q, d2).probs
            direct = transition_matrix(q, d1 + d2).probs
            assert np.abs(combined - direct).max() < 1e-9

    def test_rows_are_stochastic(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            q = random_generator(rng, 5)
            p = transition_matrix(q, float(rng.uniform(0.1, 5.0))).probs
            assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
            assert p.min() >= 0.0

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(15)
        q = random_generator(rng, 3)
        a = transition_matrix(q, 0.83).probs
        b = transition_matrix(q, 0.83).probs
        assert np.array_equal(a, b)

    def test_negative_interval_rejected(self):
        q = validate_generator(np.zeros((2, 2)), full_mask(2))
        for delta in (-0.5, np.inf, np.nan):
            with pytest.raises(NonPositiveInterval):
                transition_matrix(q, delta)

    def test_expm_drift_raises(self, monkeypatch):
        # Equal exit rates make a Jordan block: the eigensystem is unusable,
        # so every kernel comes from the stacked ``expm`` fallback.
        q = validate_generator(
            np.array([[0.0, 0.77, 0.0], [0.0, 0.0, 0.77], [0.0, 0.0, 0.0]]),
            left_to_right_mask(3),
        )
        rates = np.stack([q.rates, 2.0 * q.rates])
        gaps = np.array([0.5, 1.0, 2.0])
        for bad in (
            np.array([[0.9, 0.2, 0.0], [0.1, 0.7, 0.0], [0.0, 0.0, 1.0]]),  # row sums far from 1
            np.full((3, 3), np.nan),  # e.g. an overflowed exponential
        ):
            monkeypatch.setattr(ctmc, "expm", lambda a: np.broadcast_to(bad, a.shape).copy())
            with pytest.raises(ExpmInaccuracy):
                transition_matrix(q, 1.0)
            with pytest.raises(ExpmInaccuracy):
                transition_kernels(rates, gaps)

            def one_drifts(a):
                out = expm(a)
                out.reshape(-1, 3, 3)[4] = bad
                return out

            # One drifting matrix in the middle of the stack fails the call.
            monkeypatch.setattr(ctmc, "expm", one_drifts)
            with pytest.raises(ExpmInaccuracy, match="interval 1.0"):
                transition_kernels(rates, gaps)

    def test_eigen_drift_raises(self, monkeypatch):
        gaps = np.array([0.0, 1.0, 2.0])
        eigensystem = ctmc._eigensystem
        for bad in (
            np.array([[0.9, 0.2], [0.1, 0.7]]),  # row sums far from 1
            np.full((2, 2), np.nan),  # e.g. an overflowed exponential
        ):
            # A fresh generator each time: its cached spectrum is this fake's.
            q = validate_generator(np.array([[0.0, 0.77], [0.0, 0.0]]), full_mask(2))
            rates = np.stack([q.rates, 2.0 * q.rates])

            def drifting(which):
                # V = bad, V^-1 = I and zero eigenvalues give ``bad`` for
                # every nonzero gap of the chosen generators.
                def fake(stack):
                    values, vectors, inverse, usable = eigensystem(stack)
                    assert usable.all()
                    values[which], vectors[which], inverse[which] = 0.0, bad, np.eye(2)
                    return values, vectors, inverse, usable
                return fake

            monkeypatch.setattr(ctmc, "_eigensystem", drifting(slice(None)))
            with pytest.raises(ExpmInaccuracy):
                transition_matrix(q, 1.0)
            with pytest.raises(ExpmInaccuracy):
                transition_kernels(rates, gaps)
            # One drifting generator fails the call at its first nonzero gap.
            monkeypatch.setattr(ctmc, "_eigensystem", drifting(1))
            with pytest.raises(ExpmInaccuracy, match="interval 1.0"):
                transition_kernels(rates, gaps)

    def test_kernels_stack_matches_single_matrices(self):
        rng = np.random.default_rng(16)
        generators = [random_generator(rng, 3) for _ in range(3)]
        gaps = np.array([0.0, 0.25, 1.7, 6.0])
        kernels = transition_kernels(np.stack([g.rates for g in generators]), gaps)
        assert kernels.shape == (3, 4, 3, 3)
        for m, generator in enumerate(generators):
            for g, gap in enumerate(gaps):
                single = transition_matrix(generator, gap).probs
                assert np.array_equal(kernels[m, g], single)
        assert np.array_equal(kernels[:, 0], np.broadcast_to(np.eye(3), (3, 3, 3)))

    def test_kernels_reject_non_finite_gaps(self):
        q = validate_generator(np.zeros((2, 2)), full_mask(2))
        for gaps in ([0.5, np.nan], [np.inf], [1.0, -1e-3]):
            with pytest.raises(NonPositiveInterval):
                transition_kernels(q.rates[None], np.array(gaps))

    def test_drift_breaks_only_its_own_generator(self, monkeypatch):
        rng = np.random.default_rng(27)
        generators = [random_generator(rng, 4), _jordan(), random_generator(rng, 4)]
        gaps = np.array([0.0, 0.3, 2.0])
        alone = [ctmc._generator_kernels([g], gaps)[0] for g in generators[::2]]
        # Only the Jordan generator takes the fallback, whose rows now drift.
        real_expm = ctmc.expm
        monkeypatch.setattr(ctmc, "expm", lambda a: real_expm(a) * (1.0 + 1e-6))
        probs, failures = ctmc._generator_kernels(generators, gaps)
        assert failures[0] is None and failures[2] is None
        assert isinstance(failures[1], ExpmInaccuracy)
        # The broken generator's kernels are all NaN, its zero gap too.
        assert np.isnan(probs[1]).all()
        assert np.array_equal(probs[::2], np.concatenate(alone))
        with pytest.raises(ExpmInaccuracy) as single:
            transition_matrix(generators[1], 0.3)
        assert str(failures[1]) == str(single.value)
        assert str(single.value).endswith("for interval 0.3")


class TestExponentialPath:
    """Which route builds a kernel: the eigensystem or the ``expm`` fallback."""

    def test_equal_rate_chain_falls_back_and_matches_erlang(self, monkeypatch):
        calls = []

        def counted(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(ctmc, "expm", counted)
        r, k = 0.77, 5
        q = validate_generator(np.diag(np.full(k - 1, r), 1), left_to_right_mask(k))
        gaps = np.array([0.3, 1.0, 4.0, 12.0])
        kernels = transition_kernels(q.rates[None], gaps)[0]
        assert len(calls) == 1
        # P_0j(t) = exp(-r t) (r t)^j / j! for every transient state j.
        j = np.arange(k - 1)
        factorials = np.array([math.factorial(i) for i in j], dtype=float)
        for t, p in zip(gaps, kernels):
            erlang = np.exp(-r * t) * (r * t) ** j / factorials
            assert np.abs(p[0, :-1] - erlang).max() <= 1e-12
        ctmc._interval_integral(q.rates, q.spectrum, np.eye(k)[None], np.array([1.0]))
        assert len(calls) == 2

    def test_well_conditioned_generator_never_calls_expm(self, monkeypatch):
        def refuse(a):
            raise AssertionError("expm fallback used")

        monkeypatch.setattr(ctmc, "expm", refuse)
        rng = np.random.default_rng(17)
        q = random_generator(rng, 4)
        transition_kernels(q.rates[None], np.array([0.0, 0.4, 3.0]))
        end_conditioned_stats(q, 1.3)

    def test_singular_basis_is_unusable_not_an_error(self, monkeypatch):
        rng = np.random.default_rng(19)
        rates = np.stack([random_generator(rng, 3).rates for _ in range(2)])
        gaps = np.array([0.5, 2.0])
        eig = np.linalg.eig

        def singular_first(stack):
            values, vectors = eig(stack)
            vectors[0] = 1.0  # rank one: LU meets an exact zero pivot
            return values, vectors

        monkeypatch.setattr(np.linalg, "eig", singular_first)
        assert ctmc._eigensystem(rates)[3].tolist() == [False, True]
        kernels = transition_kernels(rates, gaps)
        monkeypatch.undo()
        for m, g in np.ndindex(2, 2):
            assert np.abs(kernels[m, g] - expm(rates[m] * gaps[g])).max() <= 1e-12

    def test_real_spectrum_gets_a_complex_eigensystem(self):
        # One arithmetic for every spectrum: a fit then costs the same
        # whether or not its generators have complex eigenvalues.
        rng = np.random.default_rng(20)
        q = random_generator(rng, 4, mask=left_to_right_mask(4))
        values, vectors, inverse, usable = ctmc._eigensystem(q.rates[None])
        assert usable[0] and np.all(values.imag == 0)
        assert values.dtype == vectors.dtype == inverse.dtype == np.complex128

    def test_non_finite_rates_fail_the_drift_guard(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ExpmInaccuracy):
                transition_kernels(np.array([[[-1.0, 1.0], [bad, 0.0]]]), np.array([1.0]))

    def test_left_to_right_kernels_zero_below_diagonal(self):
        rng = np.random.default_rng(18)
        gaps = np.array([0.0, 1e-3, 0.7, 25.0, 1e4])
        for k in range(2, 9):
            q = random_generator(rng, k, mask=left_to_right_mask(k))
            kernels = transition_kernels(q.rates[None], gaps)
            assert np.all(np.tril(kernels, -1) == 0.0)


class TestCachedSpectrum:
    """A generator's eigensystem is built once, on the object, and read-only."""

    @staticmethod
    def _generators():
        rng = np.random.default_rng(24)
        usable = random_generator(rng, 4)
        # Equal rates make a Jordan block: the ``expm`` fallback.
        jordan = validate_generator(np.diag(np.full(3, 0.77), 1), left_to_right_mask(4))
        return usable, jordan

    def test_routes_are_bitwise_equal(self):
        usable, jordan = self._generators()
        assert usable.spectrum[3].tolist() == [True]
        assert jordan.spectrum[3].tolist() == [False]
        gaps = np.array([0.0, 0.3, 1.0, 7.5])
        for generators in ([usable], [jordan], [usable, jordan]):
            raw = transition_kernels(np.stack([g.rates for g in generators]), gaps)
            assert np.array_equal(ctmc._generator_kernels(generators, gaps)[0], raw)
        rng = np.random.default_rng(25)
        blocks, intervals = rng.uniform(size=(3, 4, 4)), np.array([0.2, 1.0, 4.0])
        for q in (usable, jordan):
            fresh = ctmc._eigensystem(q.rates[None])
            assert np.array_equal(
                ctmc._interval_integral(q.rates, q.spectrum, blocks, intervals),
                ctmc._interval_integral(q.rates, fresh, blocks, intervals),
            )

    def test_spectrum_is_read_only(self):
        for q in self._generators():
            assert len(q.spectrum) == 4
            for array in q.spectrum:
                with pytest.raises(ValueError):
                    array[...] = 0

    def test_one_eigensystem_per_generator(self, eigensystem_calls):
        usable, jordan = self._generators()
        end_conditioned_stats(usable, 1.3)
        assert eigensystem_calls == [1]
        transition_matrix(usable, 0.4)
        ctmc._generator_kernels([usable, jordan], np.array([0.5, 2.0]))
        end_conditioned_stats(jordan, 0.8)
        assert eigensystem_calls == [1, 1]


def _mpmath_cases(count=300, seed=2024):
    """Seeded generators (K 2..8, full and left-to-right, every fifth with
    equal rates) with log-uniform rates in [1e-6, 1e3], gaps in [1e-6, 1e4]
    and a nonnegative block for the interval integral."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(2, 9))
        mask = full_mask(k) if i % 2 else left_to_right_mask(k)
        raw = 10.0 ** rng.uniform(-6, 3, size=(k, k))
        if i % 5 == 0:
            raw = np.full((k, k), raw[0, 1])
        yield (
            validate_generator(raw * mask, mask),
            10.0 ** rng.uniform(-6, 4),
            rng.uniform(0.0, 1.0, size=(k, k)),
        )


@pytest.fixture(scope="module")
def mpmath_errors():
    """Per case: ||Q gap||_1, whether the eigensystem is usable, the
    kernel's absolute error and the integral's error relative to its
    largest entry, both against the 40-digit reference."""
    rows = []
    for q, gap, block in _mpmath_cases():
        kernel, integral = mp_kernel_and_integral(q.rates, block, gap)
        ours = transition_kernels(q.rates[None], np.array([gap]))[0, 0]
        ours_integral = ctmc._interval_integral(
            q.rates, q.spectrum, block[None], np.array([gap]))
        rows.append((
            np.abs(q.rates * gap).sum(axis=0).max(),
            ctmc._eigensystem(q.rates[None])[3][0],
            np.abs(ours - kernel).max(),
            np.abs(ours_integral - integral).max() / np.abs(integral).max(),
        ))
    return np.array(rows)


class TestMpmathOracle:
    """Both exponential routes against a 40-digit ``mpmath.expm``; the
    tolerance grows with ||Q gap||_1, since eigenvalue and squaring errors
    scale with it."""

    @staticmethod
    def _tolerance(norms):
        return np.where(norms < 1e3, 1e-12, 5e-9)

    def test_cases_cover_both_routes(self, mpmath_errors):
        norms, usable = mpmath_errors[:, 0], mpmath_errors[:, 1].astype(bool)
        for side in (norms < 1e3, norms >= 1e3):
            assert usable[side].any() and not usable[side].all()

    def test_kernels_match(self, mpmath_errors):
        norms, errors = mpmath_errors[:, 0], mpmath_errors[:, 2]
        assert np.all(errors <= self._tolerance(norms))

    def test_interval_integrals_match(self, mpmath_errors):
        norms, errors = mpmath_errors[:, 0], mpmath_errors[:, 3]
        assert np.all(errors <= self._tolerance(norms))


class TestLongGaps:
    """At gaps of 1e6 to 1e9 a kernel is the stationary law; ``eig``'s
    +-eps zero eigenvalue must not push its row sums past the drift guard."""

    def test_kernels_match_mpmath(self):
        rng = np.random.default_rng(0)
        for i in range(16):
            k = int(rng.integers(2, 7))
            mask = full_mask(k) if i % 2 == 0 else left_to_right_mask(k)
            # Dyadic rates make every row sum exactly zero, so the reference
            # is the exponential of a true generator.
            q = validate_generator(rng.integers(8, 1025, (k, k)) / 1024 * mask, mask)
            assert np.all(q.rates.sum(axis=1) == 0.0)
            for gap in (1e6, 1e8, 1e9):
                kernel, _ = mp_kernel_and_integral(q.rates, np.zeros((k, k)), gap)
                ours = ctmc._generator_kernels([q], np.array([gap]))[0][0, 0]
                assert np.abs(ours - kernel).max() <= 1e-14, (i, gap)


def _jordan(n_states=4):
    """Equal rates make a Jordan block: the ``expm`` fallback."""
    return validate_generator(np.diag(np.full(n_states - 1, 0.77), 1), left_to_right_mask(n_states))


class TestReplacedClosedForms:
    """The eigenprojector kernels and the interval integral summed in the
    eigenbasis against the complex basis products they replaced, one per
    gap, on seeded generators: K 2..8, full and left-to-right masks,
    log-uniform rates in [1e-6, 1e3] and gaps in [1e-6, 1e4].  Kernels
    differ by at most 4.8e-15 and summed integrals by 3.7e-14 of their
    largest entry; the bounds leave about a factor of two."""

    @staticmethod
    def _cases(count=300, seed=2025):
        rng = np.random.default_rng(seed)
        for i in range(count):
            k = int(rng.integers(2, 9))
            mask = full_mask(k) if i % 2 else left_to_right_mask(k)
            q = validate_generator(10.0 ** rng.uniform(-6, 3, size=(k, k)) * mask, mask)
            gaps = np.sort(10.0 ** rng.uniform(-6, 4, size=40))
            yield q, gaps, rng.uniform(0.0, 1.0, size=(40, k, k))

    def test_kernels_match_basis_products(self):
        for q, gaps, _ in self._cases():
            ours = ctmc._generator_kernels([q], gaps)[0]
            reference = basis_product_kernels(q.rates[None], q.spectrum, gaps)
            assert np.abs(ours - reference).max() <= 1e-14

    def test_summed_integrals_match_per_block_sums(self):
        usable = 0
        for q, gaps, blocks in self._cases():
            if not q.spectrum[3][0]:
                continue
            usable += 1
            ours = ctmc._interval_integral(q.rates, q.spectrum, blocks, gaps)
            reference = interval_integrals_by_block(q.spectrum, blocks, gaps).sum(axis=0)
            assert np.abs(ours - reference).max() <= 1e-13 * np.abs(reference).max()
        assert usable > 250

    def test_kernels_are_independent_of_their_stack(self):
        # Usable and fallback generators in one stack: every kernel is
        # bitwise the one of its generator and gap alone.
        rng = np.random.default_rng(26)
        generators = [random_generator(rng, 4), _jordan(), random_generator(rng, 4)]
        gaps = np.array([0.0, 1e-6, 0.3, 2.0, 50.0])
        stacked, _ = ctmc._generator_kernels(generators, gaps)
        for m, g in np.ndindex(stacked.shape[:2]):
            alone = ctmc._generator_kernels([generators[m]], gaps[g : g + 1])[0][0, 0]
            assert np.array_equal(stacked[m, g], alone)


class TestSummedIntegral:
    """``_interval_integral`` returns the sum over its blocks, on both routes."""

    def test_stack_is_the_sum_of_one_block_calls(self):
        rng = np.random.default_rng(27)
        blocks = rng.uniform(0.0, 1.0, size=(25, 4, 4))
        intervals = 10.0 ** rng.uniform(-3, 2, size=25)
        usable, jordan = random_generator(rng, 4), _jordan()
        assert usable.spectrum[3][0] and not jordan.spectrum[3][0]
        for q in (usable, jordan):
            whole = ctmc._interval_integral(q.rates, q.spectrum, blocks, intervals)
            parts = sum(ctmc._interval_integral(q.rates, q.spectrum, block[None], interval[None])
                        for block, interval in zip(blocks, intervals))
            assert whole.shape == (4, 4)
            assert np.abs(whole - parts).max() <= 1e-13 * np.abs(parts).max()

    def test_no_blocks_sum_to_zero(self):
        rng = np.random.default_rng(28)
        for q in (random_generator(rng, 3), _jordan(3)):
            empty = ctmc._interval_integral(q.rates, q.spectrum, np.zeros((0, 3, 3)), np.zeros(0))
            assert np.array_equal(empty, np.zeros((3, 3)))

    def test_end_conditioned_stats_match_per_block_oracle(self):
        rng = np.random.default_rng(29)
        for k, interval in ((2, 0.4), (3, 1.3), (4, 7.0)):
            q = random_generator(rng, k)
            units = np.eye(k * k).reshape(k * k, k, k)
            joint = interval_integrals_by_block(q.spectrum, units, np.full(k * k, interval))
            joint = joint.reshape(k, k, k, k).transpose(2, 3, 0, 1)
            probs = transition_matrix(q, interval).probs
            assert probs.min() >= ctmc.P_FLOOR
            sojourn = np.einsum("abcc->abc", joint) / probs[:, :, None]
            jumps = joint * np.where(np.eye(k, dtype=bool), 0.0, q.rates) / probs[..., None, None]
            stats = end_conditioned_stats(q, interval)
            for ours, reference in ((stats.expected_sojourn, sojourn),
                                    (stats.expected_transitions, jumps)):
                reference = np.clip(reference, 0.0, None)
                assert np.abs(ours - reference).max() <= 1e-13 * np.abs(reference).max()


class TestReduceColumns:
    """The column-at-a-time reduction is numpy's ``reduce(axis=-1)``, bitwise."""

    @staticmethod
    def _rows(k, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((3, 40, k)) * 10.0 ** rng.uniform(-8, 8, size=(3, 40, k))

    @pytest.mark.parametrize("k", range(1, 10))
    def test_maximum_at_any_width(self, k):
        a = self._rows(k, 30 + k)
        a[0, 0] = np.nan
        a[0, 1, 0] = np.nan
        a[1, 2] = -np.inf
        a[2, 3, -1] = np.inf
        assert np.array_equal(ctmc._reduce_columns(np.maximum, a),
                              np.maximum.reduce(a, axis=-1), equal_nan=True)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_sum_below_eight_columns(self, k):
        # From eight columns on numpy sums pairwise, so only these widths are pinned.
        a = self._rows(k, 40 + k)
        assert np.array_equal(ctmc._reduce_columns(np.add, a), np.add.reduce(a, axis=-1))


class TestEndConditionedStats:
    def test_single_possible_jump_counts_exactly_one(self):
        q = validate_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), full_mask(2))
        for delta in (0.3, 1.0, 4.2):
            stats = end_conditioned_stats(q, delta)
            assert stats.expected_transitions[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_two_state_analytic_sojourn(self):
        q = validate_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), full_mask(2))
        delta = 1.7
        stats = end_conditioned_stats(q, delta)
        # Conditioned on staying, the whole interval is spent in state 0.
        assert stats.expected_sojourn[0, 0, 0] == pytest.approx(delta, abs=1e-9)
        expected = 1.0 - delta * np.exp(-delta) / (1.0 - np.exp(-delta))
        assert stats.expected_sojourn[0, 1, 0] == pytest.approx(expected, abs=1e-9)

    def test_sojourn_conservation(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            k = int(rng.integers(2, 4))
            q = random_generator(rng, k, lo=0.2, hi=1.2)
            delta = float(rng.uniform(0.4, 2.5))
            stats = end_conditioned_stats(q, delta)
            probs = transition_matrix(q, delta).probs
            totals = stats.expected_sojourn.sum(axis=2)
            reachable = probs >= ctmc.P_FLOOR
            assert np.abs(totals[reachable] - delta).max() < 1e-9

    def test_unreachable_pairs_are_zero(self):
        q = validate_generator(
            np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]),
            left_to_right_mask(3),
        )
        stats = end_conditioned_stats(q, 1.0)
        assert np.all(stats.expected_sojourn[2, 0] == 0.0)
        assert np.all(stats.expected_transitions[1, 0] == 0.0)

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(22)
        q = random_generator(rng, 3)
        stats = end_conditioned_stats(q, 1.3)
        assert stats.expected_transitions.min() >= 0.0
        assert stats.expected_sojourn.min() >= 0.0

    def test_non_positive_interval_rejected(self):
        q = validate_generator(np.zeros((2, 2)), full_mask(2))
        for delta in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(NonPositiveInterval):
                end_conditioned_stats(q, delta)

    def test_matches_monte_carlo_oracle(self):
        raw = np.array(
            [[0.0, 0.8, 0.3], [0.4, 0.0, 0.9], [0.7, 0.2, 0.0]]
        )
        q = validate_generator(raw, full_mask(3))
        delta = 1.0
        stats = end_conditioned_stats(q, delta)
        rng = np.random.default_rng(100)
        for start in range(3):
            sample = mc_end_conditioned(q.rates, delta, start, 60_000, rng)
            for end in range(3):
                moments = conditioned_moments(sample, end)
                assert moments is not None
                gap_n = np.abs(
                    stats.expected_transitions[start, end] - moments["mean_counts"]
                )
                assert np.all(gap_n <= 3.0 * moments["se_counts"] + 1e-9)
                gap_r = np.abs(
                    stats.expected_sojourn[start, end] - moments["mean_sojourn"]
                )
                assert np.all(gap_r <= 3.0 * moments["se_sojourn"] + 1e-9)

    def test_unconditioning_identity(self):
        raw = np.array([[0.0, 0.9, 0.2], [0.3, 0.0, 0.6], [0.5, 0.4, 0.0]])
        q = validate_generator(raw, full_mask(3))
        delta = 1.2
        stats = end_conditioned_stats(q, delta)
        probs = transition_matrix(q, delta).probs
        rng = np.random.default_rng(200)
        start = 0
        sample = mc_end_conditioned(q.rates, delta, start, 60_000, rng)
        marginal = np.einsum("b,bcd->cd", probs[start], stats.expected_transitions[start])
        mc_mean = sample["counts"].mean(axis=0)
        mc_se = sample["counts"].std(axis=0, ddof=1) / np.sqrt(sample["counts"].shape[0])
        assert np.all(np.abs(marginal - mc_mean) <= 3.0 * mc_se + 1e-9)

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(23)
        q = random_generator(rng, 3)
        first = end_conditioned_stats(q, 0.9)
        second = end_conditioned_stats(q, 0.9)
        assert np.array_equal(first.expected_transitions, second.expected_transitions)
        assert np.array_equal(first.expected_sojourn, second.expected_sojourn)


class TestSojournExpectation:
    def test_rate_half_gives_two_time_units(self):
        q = validate_generator(np.array([[0.0, 0.5], [0.0, 0.0]]), full_mask(2))
        assert sojourn_expectation(q)[0] == 2.0

    def test_absorbing_state_is_infinite(self):
        q = validate_generator(np.zeros((2, 2)), full_mask(2))
        assert np.all(np.isinf(sojourn_expectation(q)))

    def test_per_row_application(self):
        q = validate_generator(np.array([[0.0, 2.0], [0.0, 0.0]]), full_mask(2))
        expected = sojourn_expectation(q)
        assert expected[0] == 0.5
        assert np.isinf(expected[1])
