import itertools
import math
import warnings

import numpy as np
import pytest

from conftest import (chi_squared_expansion, classical_kl, commuting_pair, dense_mixture,
                      diagonal_state, diluted_ginibre_channel, expansion_radius,
                      haar_unitary, kubo_mori_curvature, optimize_ptilde_per_face)
from cqcovert.channel import (
    CqChannelPair,
    Povm,
    ScenarioClass,
    classify_scenario,
)
from cqcovert.divergences import chi_squared, holevo_information, relative_entropy
from cqcovert.errors import (
    DimensionMismatch,
    ResourceError,
    WrongRegime,
)
from cqcovert.operators import (
    DensityOperator,
    ginibre_state,
    hermitian_part,
)
from cqcovert.scaling import (
    MAX_OPTIMIZE_SYMBOLS,
    OBJECTIVES,
    ScalingReport,
    admissible_symbols,
    converse_bounds,
    optimize_ptilde,
    product_measurement_coefficients,
    scaling_report,
    sqrtnlogn_coefficient,
)


def _diag_channel(bob_probs, willie_probs):
    return CqChannelPair(
        bob_states=tuple(diagonal_state(p) for p in bob_probs),
        willie_states=tuple(diagonal_state(p) for p in willie_probs))


class TestCoefficients:
    def test_canonical_message_coefficient(self, canonical_channel):
        coeff = scaling_report(canonical_channel, [1.0]).message_coeff
        expected = classical_kl([0.6, 0.4], [0.9, 0.1]) / math.sqrt(0.5)
        assert coeff == pytest.approx(expected, abs=1e-12)
        assert coeff == pytest.approx(0.440159, abs=1e-5)

    def test_identical_sides_need_no_key(self, canonical_channel):
        assert scaling_report(canonical_channel, [1.0]).key_coeff == 0.0

    def test_bob_copy_of_willie_has_zero_key(self):
        # per-symbol cancellation inside the clamp
        ch = _diag_channel([[0.9, 0.1], [0.6, 0.4], [0.5, 0.5]],
                           [[0.9, 0.1], [0.6, 0.4], [0.5, 0.5]])
        assert scaling_report(ch, [0.3, 0.7]).key_coeff == 0.0

    def test_stronger_adversary_needs_key(self):
        # Willie's divergence exceeds Bob's symbol-wise
        ch = _diag_channel(bob_probs=[[0.9, 0.1], [0.8, 0.2]],
                           willie_probs=[[0.9, 0.1], [0.6, 0.4]])
        d_bob = classical_kl([0.8, 0.2], [0.9, 0.1])
        d_willie = classical_kl([0.6, 0.4], [0.9, 0.1])
        chi2 = 0.09 / 0.9 + 0.09 / 0.1
        coeff = scaling_report(ch, [1.0]).key_coeff
        assert coeff == pytest.approx((d_willie - d_bob) / math.sqrt(chi2 / 2), abs=1e-12)
        assert coeff > 0

    def test_key_clamps_to_zero_when_bob_is_better(self):
        ch = _diag_channel(bob_probs=[[0.9, 0.1], [0.3, 0.7]],
                           willie_probs=[[0.9, 0.1], [0.8, 0.2]])
        assert scaling_report(ch, [1.0]).key_coeff == 0.0

    def test_zero_weight_leaking_symbol_adds_nothing(self, willie_leak_channel):
        # symbol 2's infinite divergence must not turn the weighted sums into
        # 0 * inf = NaN when ptilde leaves it out
        report = scaling_report(willie_leak_channel, [1.0, 0.0])
        d_bob = classical_kl([0.8, 0.2], [0.9, 0.1])
        d_willie = classical_kl([0.6, 0.4], [0.9, 0.1])
        chi2 = 0.09 / 0.9 + 0.09 / 0.1
        assert report.key_coeff == pytest.approx((d_willie - d_bob) / math.sqrt(chi2 / 2),
                                                 abs=1e-12)
        assert report.message_coeff == pytest.approx(d_bob / math.sqrt(chi2 / 2), abs=1e-12)

    def test_wrong_length_ptilde(self):
        ch = _diag_channel(bob_probs=[[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.5, 0.5]],
                           willie_probs=[[0.9, 0.1], [0.6, 0.4], [0.35, 0.65], [0.5, 0.5]])
        with pytest.raises(DimensionMismatch):
            scaling_report(ch, [0.5, 0.5])

    def test_wrong_regime_rejected(self):
        ch = _diag_channel(
            bob_probs=[[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]],
            willie_probs=[[0.5, 0.5], [0.7, 0.3], [0.3, 0.7]])
        with pytest.raises(WrongRegime, match="ConstantRate"):
            scaling_report(ch, [0.5, 0.5])

    def test_base_change_scales_both_coefficients(self):
        ch = _diag_channel(bob_probs=[[0.9, 0.1], [0.8, 0.2]],
                           willie_probs=[[0.9, 0.1], [0.6, 0.4]])
        report = scaling_report(ch, [1.0])
        doc_nats = report.to_json("nats")
        doc_bits = report.to_json("bits")
        factor = math.log(2.0)
        assert doc_bits["message_coeff"] * factor == pytest.approx(
            doc_nats["message_coeff"], rel=1e-12)
        assert doc_bits["key_coeff"] * factor == pytest.approx(
            doc_nats["key_coeff"], rel=1e-12)
        # the message/key ratio is base-invariant
        assert (doc_bits["message_coeff"] / doc_bits["key_coeff"]
                == pytest.approx(doc_nats["message_coeff"] / doc_nats["key_coeff"],
                                 rel=1e-12))


class TestProductMeasurement:
    def test_computational_basis_is_lossless_on_commuting_channel(self, canonical_channel):
        povm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        report = product_measurement_coefficients(canonical_channel, povm, [1.0])
        assert report.message_coeff == pytest.approx(
            scaling_report(canonical_channel, [1.0]).message_coeff, abs=1e-12)
        assert report.key_coeff == pytest.approx(
            scaling_report(canonical_channel, [1.0]).key_coeff, abs=1e-12)

    def test_trivial_measurement_conveys_nothing(self, canonical_channel):
        povm = Povm(elements=(np.eye(2),))
        report = product_measurement_coefficients(canonical_channel, povm, [1.0])
        assert report.message_coeff == 0.0
        # all of the adversary's divergence must now be keyed away
        d_willie = relative_entropy(canonical_channel.willie_states[1],
                                    canonical_channel.willie_states[0])
        assert report.key_coeff == pytest.approx(d_willie / math.sqrt(0.5), abs=1e-12)

    def test_random_projective_measurements_never_beat_joint(self, rng):
        # non-commuting channel: rotate the signal state off the innocent basis
        u = haar_unitary(2, rng)
        sig = DensityOperator(hermitian_part(u @ np.diag([0.6, 0.4]) @ u.conj().T))
        ch = CqChannelPair(
            bob_states=(diagonal_state([0.9, 0.1]), sig),
            willie_states=(diagonal_state([0.9, 0.1]), diagonal_state([0.6, 0.4])))
        joint = scaling_report(ch, [1.0]).message_coeff
        for _ in range(25):
            v = haar_unitary(2, rng)
            povm = Povm(elements=tuple(np.outer(v[:, i], v[:, i].conj())
                                       for i in range(2)))
            restricted = product_measurement_coefficients(ch, povm, [1.0])
            assert restricted.message_coeff <= joint + 1e-9


class TestSqrtnLogn:
    def test_fully_escaping_symbol(self):
        ch = _diag_channel(bob_probs=[[1, 0], [0, 1]],
                           willie_probs=[[0.9, 0.1], [0.6, 0.4]])
        report = sqrtnlogn_coefficient(ch, [1.0])
        assert report.kappa == pytest.approx(1.0, abs=1e-10)
        chi2 = 0.09 / 0.9 + 0.09 / 0.1
        assert report.leading_constant == pytest.approx(
            1.0 / (2 * math.sqrt(chi2 / 2)), abs=1e-10)

    def test_half_escaping_symbol(self):
        ch = _diag_channel(bob_probs=[[1, 0], [0.5, 0.5]],
                           willie_probs=[[0.9, 0.1], [0.6, 0.4]])
        report = sqrtnlogn_coefficient(ch, [1.0])
        assert report.kappa == pytest.approx(0.5, abs=1e-10)

    def test_kappa_continuous_in_mixing_weight(self):
        for w in np.linspace(0.05, 0.95, 19):
            ch = _diag_channel(bob_probs=[[1, 0], [1 - w, w]],
                               willie_probs=[[0.9, 0.1], [0.6, 0.4]])
            report = sqrtnlogn_coefficient(ch, [1.0])
            assert report.kappa == pytest.approx(w, abs=1e-10)

    def test_wrong_regime(self, canonical_channel):
        with pytest.raises(WrongRegime):
            sqrtnlogn_coefficient(canonical_channel, [1.0])


class TestOptimizePtilde:
    def test_single_symbol_simplex_is_a_point(self, canonical_channel):
        ptilde, report = optimize_ptilde(canonical_channel, "max-message")
        assert ptilde == pytest.approx([1.0])
        assert report.message_coeff == pytest.approx(
            scaling_report(canonical_channel, [1.0]).message_coeff, abs=1e-12)

    def test_identical_symbols_make_objective_flat(self):
        ch = _diag_channel(bob_probs=[[0.9, 0.1], [0.6, 0.4], [0.6, 0.4]],
                           willie_probs=[[0.9, 0.1], [0.6, 0.4], [0.6, 0.4]])
        _, report = optimize_ptilde(ch, "max-message")
        for p in ([1.0, 0.0], [0.0, 1.0], [0.37, 0.63]):
            assert scaling_report(ch, p).message_coeff == pytest.approx(
                report.message_coeff, abs=1e-9)

    def test_dominating_symbol_takes_all_mass(self):
        # symbol 2 has larger Bob divergence and smaller chi-squared footprint
        ch = _diag_channel(bob_probs=[[0.9, 0.1], [0.85, 0.15], [0.3, 0.7]],
                           willie_probs=[[0.9, 0.1], [0.6, 0.4], [0.8, 0.2]])
        ptilde, report = optimize_ptilde(ch, "max-message")
        # independent 1e-3 grid search oracle
        best_val, best_p = -1.0, None
        for t in np.linspace(0.0, 1.0, 1001):
            val = scaling_report(ch, [t, 1 - t]).message_coeff
            if val > best_val:
                best_val, best_p = val, (t, 1 - t)
        assert report.message_coeff == pytest.approx(best_val, abs=1e-5)
        assert ptilde == pytest.approx(best_p, abs=1e-3)

    def test_min_key_objective(self):
        ch = _diag_channel(bob_probs=[[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]],
                           willie_probs=[[0.9, 0.1], [0.6, 0.4], [0.35, 0.65]])
        ptilde, report = optimize_ptilde(ch, "min-key")
        grid_best = min(scaling_report(ch, [t, 1 - t]).key_coeff
                        for t in np.linspace(0.0, 1.0, 1001))
        assert report.key_coeff == pytest.approx(grid_best, abs=1e-5)

    def test_unknown_objective(self, canonical_channel):
        ch = _diag_channel(bob_probs=[[0.9, 0.1], [0.6, 0.4], [0.3, 0.7]],
                           willie_probs=[[0.9, 0.1], [0.6, 0.4], [0.3, 0.7]])
        with pytest.raises(ValueError):
            optimize_ptilde(ch, "maximize-everything")

    def test_negative_tradeoff_weight(self, canonical_channel):
        with pytest.raises(ValueError):
            optimize_ptilde(canonical_channel, "tradeoff", -1.0)

    def test_too_many_symbols_is_a_resource_error(self, monkeypatch):
        # 17 admissible diagonal symbols: refused before any face is enumerated
        probs = [[0.9, 0.1]] + [[0.3 + 0.02 * x, 0.7 - 0.02 * x] for x in range(17)]
        ch = _diag_channel(bob_probs=probs, willie_probs=probs)
        assert len(admissible_symbols(ch)) == MAX_OPTIMIZE_SYMBOLS + 1 == 17

        def no_enumeration(*args):
            raise AssertionError("faces enumerated")

        monkeypatch.setattr(itertools, "combinations", no_enumeration)
        with pytest.raises(ResourceError):
            optimize_ptilde(ch, "max-message")


# Seeded channels for the exact optimizer: (seed, dim, k, willie_stronger, leak).
# qubit k=5 has a rank-deficient Gram matrix (rank 3); the "leak" channels
# insert a symbol 2 that leaks at Willie.  With willie_stronger every w_x > 0,
# so min-key is positive; the mixed variants of qubit-k3 and qutrit-k6 put the
# tradeoff optimum on the cut w.p = 0.
OPTIMIZER_CHANNELS = {
    "qubit-k3": (13, 2, 3, False, False),
    "qubit-k3-willie-stronger": (13, 2, 3, True, False),
    "qubit-k5": (11, 2, 5, False, False),
    "qubit-k5-willie-stronger": (11, 2, 5, True, False),
    "qutrit-k6": (16, 3, 6, False, False),
    "qutrit-k6-willie-stronger": (11, 3, 6, True, False),
    "leak": (11, 3, 4, False, True),
    "leak-willie-stronger": (11, 3, 4, True, True),
}


@pytest.fixture(params=sorted(OPTIMIZER_CHANNELS))
def optimizer_case(request):
    """A channel with its admissible slots, d_bob, w = d_willie - d_bob and the
    chi-squared Gram matrix, all from the direct functions (Q by polarization)."""
    ch = diluted_ginibre_channel(*OPTIMIZER_CHANNELS[request.param])
    assert classify_scenario(ch).scenario is ScenarioClass.SQUARE_ROOT_LAW
    adm = [x - 1 for x in admissible_symbols(ch)]
    b0, w0 = ch.bob_states[0], ch.willie_states[0]
    d = np.array([relative_entropy(ch.bob_states[i + 1], b0) for i in adm])
    w = np.array([relative_entropy(ch.willie_states[i + 1], w0) for i in adm]) - d

    def chi2(p_adm):
        p = np.zeros(ch.alphabet_size - 1)
        p[adm] = p_adm
        return chi_squared(dense_mixture(p, ch.willie_states[1:]), w0)

    e = np.eye(len(adm))
    q = np.array([[2 * chi2((e[i] + e[j]) / 2) - (chi2(e[i]) + chi2(e[j])) / 2
                   for j in range(len(adm))] for i in range(len(adm))])
    return ch, adm, d, w, q


class TestExactOptimizer:
    def test_max_message_matches_qp_oracle_and_kkt(self, optimizer_case):
        ch, adm, d, w, q = optimizer_case
        ptilde, report = optimize_ptilde(ch, "max-message")
        # min p^T Q p s.t. d.p = 1, p >= 0: on its support S the optimum is
        # z = Q_SS^-1 d_S with coefficient sqrt(2 d_S.z)
        oracle = 0.0
        for size in range(1, len(adm) + 1):
            for support in itertools.combinations(range(len(adm)), size):
                s = list(support)
                if np.linalg.matrix_rank(q[np.ix_(s, s)]) < size:
                    continue
                z = np.linalg.solve(q[np.ix_(s, s)], d[s])
                if np.all(z >= 0):
                    oracle = max(oracle, math.sqrt(2.0 * float(d[s] @ z)))
        assert report.message_coeff == pytest.approx(oracle, rel=1e-9)
        assert np.all(np.delete(ptilde, adm) == 0.0)
        p = ptilde[adm]
        chi2 = p @ q @ p
        g = d * chi2 - (d @ p) * (q @ p)
        scale = np.abs(d).max() * chi2 + abs(d @ p) * np.abs(q @ p).max()
        on = p > 0
        assert np.abs(g[on]).max() <= 1e-9 * scale
        assert np.all(g[~on] <= 1e-9 * scale)

    def test_min_key_is_the_vertex_formula(self, optimizer_case):
        ch, adm, d, w, q = optimizer_case
        _, report = optimize_ptilde(ch, "min-key")
        want = float(np.min(np.maximum(w, 0.0) / np.sqrt(np.diag(q) / 2.0)))
        assert report.key_coeff == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 5.0])
    def test_tradeoff_beats_samples_and_vertices(self, optimizer_case, lam):
        ch, adm, d, w, q = optimizer_case
        _, report = optimize_ptilde(ch, "tradeoff", lam)
        best = report.message_coeff - lam * report.key_coeff
        gen = np.random.default_rng(5)
        points = np.vstack([np.eye(len(adm)), gen.dirichlet(np.ones(len(adm)), size=100_000)])
        denom = np.sqrt(np.einsum("ij,jk,ik->i", points, q, points) / 2.0)
        values = (points @ d - lam * np.maximum(points @ w, 0.0)) / denom
        assert values.max() <= best + 1e-12 * max(1.0, abs(best))


class TestStackedFaceSolves:
    """``optimize_ptilde`` solves all faces of one size in one stacked call,
    screening singular systems by ``slogdet``, and keeps the candidates in
    the per-face order, so it returns the per-face search's point bit for
    bit."""

    def test_matches_the_per_face_oracle_bit_for_bit(self):
        singular, channels = 0, 0
        for seed in itertools.count():
            if channels == 100:
                break
            gen = np.random.default_rng(seed)
            dim, k = (2, 6 + seed % 2) if seed % 4 == 0 else (int(gen.integers(2, 4)),
                                                               int(gen.integers(2, 6)))
            ch = diluted_ginibre_channel(seed, dim, k, bool(seed % 3))
            if classify_scenario(ch).scenario is not ScenarioClass.SQUARE_ROOT_LAW:
                continue
            channels += 1
            adm = [x - 1 for x in admissible_symbols(ch)]
            q = ch.summary.gram[np.ix_(adm, adm)]
            faces = [list(f) for size in range(1, len(adm) + 1)
                     for f in itertools.combinations(range(len(adm)), size)]
            singular += any(np.linalg.slogdet(q[np.ix_(f, f)])[0] == 0 for f in faces)
            for objective in OBJECTIVES:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    mine, _ = optimize_ptilde(ch, objective)
                assert np.array_equal(mine, optimize_ptilde_per_face(ch, objective))
        # qubit channels of six or more symbols: Q has rank at most 3
        assert singular >= 20


class TestConverseBounds:
    def test_no_signaling_limit(self, canonical_channel):
        bounds = converse_bounds(canonical_channel, [1.0], mu=0.0, n=100,
                                 delta=0.2, epsilon=0.05)
        assert bounds.chi_bob == pytest.approx(0.0, abs=1e-10)
        assert bounds.log_m_upper == pytest.approx(1.0 / 0.8, abs=1e-9)

    def test_holevo_expansion_identity(self, rng):
        for _ in range(25):
            states = tuple(ginibre_state(3, rng) for _ in range(3))
            ch = CqChannelPair(bob_states=states, willie_states=states)
            ptilde = rng.dirichlet(np.ones(2))
            for mu in (0.01, 0.1):
                bounds = converse_bounds(ch, ptilde, mu=mu, n=10, delta=0.1,
                                         epsilon=0.01)
                assert bounds.chi_willie == pytest.approx(
                    bounds.linear_willie - bounds.d_mix_willie, abs=1e-8)
                assert bounds.chi_bob == pytest.approx(
                    bounds.linear_bob - bounds.d_mix_bob, abs=1e-8)
                assert bounds.chi_bob <= bounds.linear_bob + 1e-12

    def test_lower_bound_is_below_achievable_total(self, canonical_channel):
        # cross-module consistency: the converse floor sits below the
        # achievability's message-plus-key budget at matched parameters
        from cqcovert.coding import code_sizes
        gamma, n = 0.4, 16
        mu = gamma / math.sqrt(n)
        m, k, log_m_raw, log_k_raw = code_sizes(canonical_channel, [1.0], n,
                                                gamma, varsigma=0.1)
        bounds = converse_bounds(canonical_channel, [1.0], mu=mu, n=n,
                                 delta=0.0, epsilon=0.0)
        assert bounds.log_mk_lower <= log_m_raw + log_k_raw + 1e-9


class TestChiSquaredExpansion:
    """``D(alpha c + (1 - alpha) b || b)`` against its chi-squared prediction
    ``alpha^2 chi2(c||b) / 2``: the residual is cubic where chi-squared is
    the curvature (commuting pairs), quadratic where it is not."""

    def test_commuting_cubic_oracle(self):
        b = diagonal_state([0.9, 0.1])
        c = diagonal_state([0.6, 0.4])
        alpha = 0.01
        divergences, predictions, _ = chi_squared_expansion(b, c, [alpha])
        residual = abs(divergences[0] - predictions[0])
        # classical Taylor oracle for the cubic term
        p, q = np.array([0.6, 0.4]), np.array([0.9, 0.1])
        cubic = float(np.sum((p - q) ** 3 / q ** 2)) / 6
        assert residual <= 10 * alpha ** 3
        assert residual == pytest.approx(abs(cubic) * alpha ** 3, rel=0.2)

    def test_slope_is_cubic_for_commuting_pairs(self):
        gen = np.random.default_rng(8)
        grid = np.logspace(-3, -1, 9)
        done = 0
        while done < 10:
            b, c, wb, wc = commuting_pair(3, gen)
            cubic = float(np.sum((wc - wb) ** 3 / wb ** 2))
            if abs(cubic) < 0.05 * float(np.sum((wc - wb) ** 2 / wb)):
                continue
            expansion = chi_squared_expansion(b, c, grid)
            if expansion is None:
                continue
            assert 2.7 <= expansion[2] <= 3.3
            done += 1

    def test_noncommuting_curvature_is_the_kubo_mori_form(self, rng):
        # For generic pairs the chi-squared form strictly overestimates the
        # curvature of the relative entropy: the true quadratic coefficient
        # is the Kubo-Mori (logarithmic-mean) quadratic form, so the
        # residual against the chi-squared prediction is quadratic, not cubic.
        def floored_state(gen):
            u = haar_unitary(3, gen)
            w = gen.dirichlet(np.ones(3)) + 0.2
            w = w / w.sum()
            return DensityOperator(hermitian_part((u * w) @ u.conj().T))

        b = floored_state(rng)
        c = floored_state(rng)
        assert expansion_radius(b, c) > 0.1
        curvature = kubo_mori_curvature(b, c)
        assert curvature < chi_squared(c, b) - 1e-6  # strict gap for a generic pair
        alpha = 1e-5
        mixed = DensityOperator(hermitian_part(
            alpha * c.matrix + (1 - alpha) * b.matrix))
        d = relative_entropy(mixed, b)
        assert d / alpha ** 2 == pytest.approx(curvature / 2, rel=5e-3)
        _, _, slope = chi_squared_expansion(b, c, np.logspace(-3, -1, 9))
        assert slope < 2.3  # quadratic residual, not cubic
