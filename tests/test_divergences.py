import math

import numpy as np
import pytest

from conftest import (classical_chi2, classical_kl, diagonal_state, haar_unitary, kron,
                      pinching, positive_projector, random_probs)
import cqcovert.divergences as divergences_mod
from cqcovert.divergences import (
    NEG_CLIP,
    SUPPORT_TOL,
    chi_squared,
    helstrom_error,
    holevo_information,
    psi_functional,
    relative_entropy,
    support_leak,
    trace_distance,
)
from cqcovert.errors import DimensionMismatch, SupportViolation
from cqcovert.operators import (
    RANK_TOL,
    ginibre_state,
    matrix_log,
    matrix_power,
    DensityOperator,
    hermitian_part,
)

RHO = diagonal_state([0.6, 0.4])
SIGMA = diagonal_state([0.9, 0.1])
PURE0 = diagonal_state([1.0, 0.0])
PURE1 = diagonal_state([0.0, 1.0])


class TestRelativeEntropy:
    def test_self_divergence_is_zero(self, rng):
        rho = ginibre_state(3, rng)
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_commuting_matches_classical_kl(self):
        assert relative_entropy(RHO, SIGMA) == pytest.approx(
            classical_kl([0.6, 0.4], [0.9, 0.1]), abs=1e-12)
        assert relative_entropy(RHO, SIGMA) == pytest.approx(0.311239, abs=1e-6)

    def test_disjoint_supports_infinite(self):
        assert math.isinf(relative_entropy(PURE0, PURE1))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            relative_entropy(ginibre_state(2, rng), ginibre_state(3, rng))

    def test_additivity_on_products(self, rng):
        rho = ginibre_state(2, rng)
        sigma = ginibre_state(2, rng)
        d1 = relative_entropy(rho, sigma)
        d2 = relative_entropy(DensityOperator(kron(rho.matrix, rho.matrix)),
                              DensityOperator(kron(sigma.matrix, sigma.matrix)))
        assert d2 == pytest.approx(2 * d1, abs=1e-9)

    def test_pinching_is_data_processing(self, rng):
        for _ in range(25):
            rho = ginibre_state(3, rng)
            sigma = ginibre_state(3, rng)
            pinched = DensityOperator(hermitian_part(pinching(sigma.matrix, rho.matrix)))
            assert (relative_entropy(pinched, sigma)
                    <= relative_entropy(rho, sigma) + 1e-9)


class TestChiSquared:
    def test_self_is_zero(self, rng):
        rho = ginibre_state(4, rng)
        assert chi_squared(rho, rho) == pytest.approx(0.0, abs=1e-9)

    def test_commuting_scalar_oracle(self):
        assert chi_squared(RHO, SIGMA) == pytest.approx(
            classical_chi2([0.6, 0.4], [0.9, 0.1]), abs=1e-12)
        assert chi_squared(RHO, SIGMA) == pytest.approx(1.0, abs=1e-9)
        assert chi_squared(diagonal_state([0.75, 0.25]), diagonal_state([0.5, 0.5])) \
            == pytest.approx(0.25, abs=1e-9)

    def test_support_violation_infinite(self):
        assert math.isinf(chi_squared(PURE0, PURE1))

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(50):
            assert chi_squared(ginibre_state(3, rng), ginibre_state(3, rng)) >= 0.0


class TestTraceDistance:
    def test_identical(self, rng):
        rho = ginibre_state(3, rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states_maximal(self):
        assert trace_distance(PURE0, PURE1) == pytest.approx(2.0, abs=1e-12)

    def test_diagonal_oracle(self):
        assert trace_distance(RHO, SIGMA) == pytest.approx(0.6, abs=1e-12)


class TestHelstrom:
    def test_indistinguishable(self, rng):
        rho = ginibre_state(2, rng)
        assert helstrom_error(rho, rho) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal(self):
        assert helstrom_error(PURE0, PURE1) == pytest.approx(0.0, abs=1e-12)

    def test_trace_distance_oracle(self):
        assert helstrom_error(RHO, SIGMA) == pytest.approx(0.35, abs=1e-12)

    def test_matches_optimal_two_outcome_povm(self, rng):
        # the optimal test measures the sign of the weighted difference
        for _ in range(30):
            rho = ginibre_state(3, rng)
            sigma = ginibre_state(3, rng)
            q = positive_projector(rho.matrix - sigma.matrix, strict=False)
            pe_projector = 0.5 * (np.trace(q @ sigma.matrix).real
                                  + 1.0 - np.trace(q @ rho.matrix).real)
            assert helstrom_error(rho, sigma) == pytest.approx(pe_projector, abs=1e-10)

    def test_no_projector_beats_it(self, rng):
        rho = ginibre_state(3, rng)
        sigma = ginibre_state(3, rng)
        best = helstrom_error(rho, sigma)
        for _ in range(100):
            u = haar_unitary(3, rng)
            k = rng.integers(0, 4)
            q = u[:, :k] @ u[:, :k].conj().T
            pe = 0.5 * (np.trace(q @ sigma.matrix).real
                        + 1.0 - np.trace(q @ rho.matrix).real)
            assert pe >= best - 1e-10


def _pinsker_gap(rho, sigma):
    """Slack D(rho||sigma) - ||rho - sigma||_1^2 / 2 of Pinsker's inequality."""
    return relative_entropy(rho, sigma) - trace_distance(rho, sigma) ** 2 / 2.0


class TestPinsker:
    def test_identical_gap_zero(self, rng):
        rho = ginibre_state(2, rng)
        assert _pinsker_gap(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_value(self):
        expected = classical_kl([0.6, 0.4], [0.9, 0.1]) - 0.6 ** 2 / 2
        assert _pinsker_gap(RHO, SIGMA) == pytest.approx(expected, abs=1e-12)
        assert _pinsker_gap(RHO, SIGMA) == pytest.approx(0.131239, abs=1e-6)

    def test_random_qubit_sweep_nonnegative(self, rng):
        for _ in range(200):
            gap = _pinsker_gap(ginibre_state(2, rng), ginibre_state(2, rng))
            assert gap >= -1e-9

    def test_infinite_gap_propagates(self):
        assert math.isinf(_pinsker_gap(PURE0, PURE1))


class TestHolevo:
    def test_identical_states_zero(self, rng):
        rho = ginibre_state(2, rng)
        assert holevo_information([0.3, 0.7], [rho, rho]) == pytest.approx(0.0, abs=1e-10)

    def test_perfectly_distinguishable(self):
        assert holevo_information([0.5, 0.5], [PURE0, PURE1]) \
            == pytest.approx(math.log(2), abs=1e-12)

    def test_commuting_entropy_oracle(self):
        def h(p):
            p = np.asarray(p)
            return -float(np.sum(p[p > 0] * np.log(p[p > 0])))
        expected = h([0.75, 0.25]) - 0.5 * h([0.9, 0.1]) - 0.5 * h([0.6, 0.4])
        assert holevo_information([0.5, 0.5], [SIGMA, RHO]) \
            == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_log_dim(self, rng):
        for _ in range(20):
            states = [ginibre_state(3, rng) for _ in range(4)]
            chi = holevo_information(random_probs(4, rng), states)
            assert 0.0 <= chi <= math.log(3) + 1e-12


class TestPsiFunctional:
    def test_zero_at_equal_states(self, rng):
        rho = ginibre_state(2, rng)
        for r in (0.0, 0.4, 1.0):
            value, _ = psi_functional(rho, rho, r)
            assert value == pytest.approx(0.0, abs=1e-10)

    def test_derivative_at_zero_is_relative_entropy(self, rng):
        for _ in range(10):
            r1 = ginibre_state(3, rng)
            r0 = ginibre_state(3, rng)
            _, deriv = psi_functional(r1, r0, 0.0)
            assert deriv == pytest.approx(relative_entropy(r1, r0), abs=1e-6)

    def test_commuting_scalar_oracle(self):
        p = np.array([0.6, 0.4])
        q = np.array([0.9, 0.1])
        for r in (0.1, 0.5, 0.9):
            expected = math.log(float(np.sum(p ** (1 + r) * q ** (-r))))
            value, _ = psi_functional(RHO, SIGMA, r)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_support_violation(self):
        with pytest.raises(SupportViolation):
            psi_functional(PURE0, PURE1, 0.5)


class TestRuskaiSandwich:
    def test_power_trace_bounds_hold(self, rng):
        # (1/c) Tr{A - A^{1-c} B^c} <= D(A||B) <= (1/c) Tr{A^{1+c} B^{-c} - A}
        for _ in range(60):
            dim = int(rng.integers(2, 5))
            a = ginibre_state(dim, rng)
            b = ginibre_state(dim, rng)
            d = relative_entropy(a, b)
            for c in (0.1, 0.5, 1.0):
                lower = np.trace(a.matrix - matrix_power(a.matrix, 1 - c)
                                 @ matrix_power(b.matrix, c)).real / c
                upper = np.trace(matrix_power(a.matrix, 1 + c)
                                 @ matrix_power(b.matrix, -c) - a.matrix).real / c
                assert lower - 1e-8 <= d <= upper + 1e-8


def test_entropy_does_not_depend_on_whether_the_spectrum_was_read():
    # eigh and eigvalsh eigenvalues can differ in their last bits; the
    # entropy term of the relative entropy reads eigvalsh's, whatever was
    # computed before it
    rng = np.random.default_rng(7)
    for dim in range(2, 7):
        for _ in range(40):
            rho, sigma = ginibre_state(dim, rng), ginibre_state(dim, rng)
            before = (rho.eigenvalues_only.tobytes(), _bytes(relative_entropy(rho, sigma)))
            rho.spectrum
            assert (rho.eigenvalues_only.tobytes(),
                    _bytes(relative_entropy(rho, sigma))) == before
            fresh = DensityOperator(rho.matrix)
            fresh.spectrum
            assert (fresh.eigenvalues_only.tobytes(),
                    _bytes(relative_entropy(fresh, sigma))) == before


def test_support_containment_is_directional():
    small = diagonal_state([1.0, 0.0])
    big = diagonal_state([0.5, 0.5])
    assert support_leak(small, big) <= SUPPORT_TOL
    assert support_leak(big, small) > SUPPORT_TOL
    assert math.isfinite(relative_entropy(small, big))
    assert math.isinf(relative_entropy(big, small))


@pytest.mark.parametrize("t, finite", [(2e-9, False), (5e-10, True)])
def test_relative_entropy_containment_threshold(t, finite):
    # rank-2 qutrit sigma in a Haar-random basis; rho leaks mass t onto its kernel
    u = haar_unitary(3, np.random.default_rng(31))
    sigma = DensityOperator(hermitian_part(u @ np.diag([0.7, 0.3, 0.0]) @ u.conj().T))
    kernel = u[:, 2]
    rho = DensityOperator(hermitian_part(
        (1 - t) * sigma.matrix + t * np.outer(kernel, kernel.conj())))
    d = relative_entropy(rho, sigma)
    assert math.isfinite(d) == finite == (support_leak(rho, sigma) <= SUPPORT_TOL)


@pytest.mark.parametrize("t, rank", [(RANK_TOL, 1), (np.nextafter(RANK_TOL, 1.0), 2)])
def test_support_cutoff_boundary(t, rank):
    # an eigenvalue exactly at the cutoff is off the support, the next float above is on it
    sigma = diagonal_state([1.0 - t, t])
    assert sigma.spectrum.eigenvalues[1] == t
    assert sigma.rank == rank
    probe = diagonal_state([0.5, 0.5])
    contained = rank == 2
    assert support_leak(probe, sigma) == pytest.approx(0.0 if contained else 0.5, abs=1e-12)
    assert math.isfinite(relative_entropy(probe, sigma)) == contained


def _relative_entropy_formula(rho, sigma):
    """D(rho||sigma) from the pair's support sums: the weights over the
    support eigenvectors of sigma, the cross term and the entropy, each a
    one-dimensional sum over the support entries alone."""
    spec = sigma.spectrum
    on = spec.eigenvalues > RANK_TOL
    v = spec.eigenvectors[:, on]
    weights = np.einsum("ij,ij->j", v.conj(), rho.matrix @ v).real
    if 1.0 - float(weights.sum()) > divergences_mod.SUPPORT_TOL:
        return math.inf
    cross = float((weights * np.log(spec.eigenvalues[on])).sum())
    w = rho.eigenvalues_only[rho.eigenvalues_only > RANK_TOL]
    value = float((w * np.log(w)).sum()) - cross
    return 0.0 if -NEG_CLIP < value < 0.0 else value


def _bytes(values):
    return np.asarray(values, dtype=float).tobytes()


def _psi_formula(r1, r0, r):
    pow1, pow0 = matrix_power(r1.spectrum, 1.0 + r), matrix_power(r0.spectrum, -r)
    t = float(np.trace(pow1 @ pow0).real)
    num = float(np.trace(pow0 @ pow1 @ (matrix_log(r1.spectrum) - matrix_log(r0.spectrum))).real)
    return math.log(t), num / t


class TestFunctionalsAreTheirFormulas:
    """Each functional equals, bit for bit, its formula written out for the
    pair: dimensions 2-6, full-rank and rank-deficient states (so support
    violations), and self-pairs whose raw divergence lands in the
    ``NEG_CLIP`` window."""

    @staticmethod
    def _pairs(dim):
        rng = np.random.default_rng(700 + dim)
        full = [ginibre_state(dim, rng) for _ in range(5)]
        low = [ginibre_state(dim, rng, rank=k) for k in range(1, dim)]
        contained = [(full[0], full[1]), (full[2], full[3]), (full[4], full[4])]
        contained += [(x, full[k % 5]) for k, x in enumerate(low)] + [(low[-1], low[-1])]
        # rank-deficient references: x^2 / Tr x^2 has the support of x
        contained += [(DensityOperator(hermitian_part(x.matrix @ x.matrix
                                                      / np.trace(x.matrix @ x.matrix).real)), x)
                      for x in low]
        leaking = [(full[k % 5], x) for k, x in enumerate(low)]
        leaking += [(low[0], low[-1])] if dim > 2 else []
        return contained, leaking

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_divergences_equal_their_formulas(self, dim):
        contained, leaking = self._pairs(dim)
        for r, s in contained + leaking:
            assert _bytes(relative_entropy(r, s)) == _bytes(_relative_entropy_formula(r, s))
            assert _bytes(trace_distance(r, s)) == _bytes(
                np.abs(np.linalg.eigvalsh(r.matrix - s.matrix)).sum())
        assert all(math.isinf(relative_entropy(r, s)) for r, s in leaking)

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_exponent_functionals_equal_their_formulas(self, dim):
        contained, leaking = self._pairs(dim)
        for a, b in contained:
            for r in (0.0, 0.1, 0.5 + 1e-5, 0.9):
                assert _bytes(psi_functional(a, b, r)) == _bytes(_psi_formula(a, b, r))
        with pytest.raises(SupportViolation):
            psi_functional(*leaking[0], 0.5)

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_matrix_functions_equal_their_formulas(self, dim):
        # f on the eigenvalues above RANK_TOL, zero on the kernel, read from a
        # state's cached spectrum or from its matrix with the same bits
        contained, _ = self._pairs(dim)
        for a in {id(x): x for pair in contained for x in pair}.values():
            spec = a.spectrum
            w, v = spec.eigenvalues, spec.eigenvectors
            on_support = w > RANK_TOL
            for c in (0.5, -0.5, 1.3, -1.0, 2.0, None):
                fw = np.zeros_like(w)
                fw[on_support] = np.log(w[on_support]) if c is None else w[on_support] ** c
                formula = hermitian_part((v * fw) @ v.conj().T)
                for operand in (spec, a.matrix):
                    value = matrix_log(operand) if c is None else matrix_power(operand, c)
                    assert value.tobytes() == formula.tobytes()

    def test_self_pairs_land_in_the_clipping_window(self, monkeypatch):
        # the raw self-divergence of a state is a rounding-size number, here
        # negative for some, which the clip sets to exactly zero
        in_window = 0
        for dim in range(2, 7):
            for rho in [r for r, s in self._pairs(dim)[0] if r is s]:
                with monkeypatch.context() as patch:
                    patch.setattr(divergences_mod, "_clip", lambda value: value)
                    raw = relative_entropy(rho, rho)
                clipped = relative_entropy(rho, rho)
                assert clipped == (0.0 if raw < 0.0 else raw)
                in_window += -NEG_CLIP < raw < 0.0
        assert in_window > 0
