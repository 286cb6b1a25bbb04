"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values come from independent scalar oracles (classical
divergences of eigenvalue vectors, direct finite differences, explicit grid
searches), never from the code paths they check.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import (chi_squared_expansion, classical_chi2, classical_kl, codeword,
                      commuting_pair, diagonal_state, expansion_radius, haar_unitary,
                      kubo_mori_curvature, matrix_to_json)
from cqcovert.channel import (
    CqChannelPair,
    ScenarioClass,
    classify_scenario,
    mixture_feasibility,
)
from cqcovert.cli import main
from cqcovert.coding import (
    Codebook,
    ExperimentConfig,
    build_srm_decoder,
    exact_pe_bob,
    nogo_experiment,
    run_experiment,
    sample_codebook,
    select_best,
)
from cqcovert.divergences import (
    chi_squared,
    helstrom_error,
    holevo_information,
    psi_functional,
    relative_entropy,
    trace_distance,
)
from cqcovert.operators import (
    DensityOperator,
    ginibre_state,
    hermitian_part,
    make_density,
)


def _report(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}")


def _random_diag_probs(dim, rng, floor=1e-3):
    w = rng.dirichlet(np.ones(dim)) + floor
    return w / w.sum()


def test_acceptance_01_commuting_divergences_match_scalar_oracles(rng):
    t0 = time.monotonic()
    worst = 0.0
    for dim in range(2, 7):
        for _ in range(500):
            p = _random_diag_probs(dim, rng)
            q = _random_diag_probs(dim, rng)
            rho, sigma = diagonal_state(p), diagonal_state(q)
            worst = max(worst, abs(relative_entropy(rho, sigma) - classical_kl(p, q)))
            worst = max(worst, abs(chi_squared(rho, sigma) - classical_chi2(p, q)))
            worst = max(worst, abs(trace_distance(rho, sigma)
                                   - float(np.sum(np.abs(p - q)))))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed < 10.0
    _report(1, f"2500 commuting pairs, worst oracle deviation {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_acceptance_02_pinsker_inequality_sweep(rng):
    t0 = time.monotonic()
    violations = 0
    worst = math.inf
    for dim in range(2, 7):
        for _ in range(1000):
            rho, sigma = ginibre_state(dim, rng), ginibre_state(dim, rng)
            gap = relative_entropy(rho, sigma) - trace_distance(rho, sigma) ** 2 / 2.0
            worst = min(worst, gap)
            if gap < -1e-9:
                violations += 1
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 30.0
    _report(2, f"5000 pairs, zero violations, smallest gap {worst:.2e}, "
               f"{elapsed:.1f}s")


def test_acceptance_03_power_trace_sandwich(rng):
    from cqcovert.operators import matrix_power
    t0 = time.monotonic()
    worst = math.inf
    for i in range(500):
        dim = 2 + (i % 4)
        a = ginibre_state(dim, rng)
        b = ginibre_state(dim, rng)
        d = relative_entropy(a, b)
        for c in (0.1, 0.5, 1.0):
            lower = np.trace(a.matrix - matrix_power(a.matrix, 1 - c)
                             @ matrix_power(b.matrix, c)).real / c
            upper = np.trace(matrix_power(a.matrix, 1 + c)
                             @ matrix_power(b.matrix, -c) - a.matrix).real / c
            worst = min(worst, d - lower, upper - d)
    elapsed = time.monotonic() - t0
    assert worst >= -1e-8
    assert elapsed < 30.0
    _report(3, f"500 pairs x 3 exponents, worst slack {worst:.2e}, {elapsed:.1f}s")


def test_acceptance_04_exponent_derivative_anchors(rng):
    h = 1e-5
    worst_fd, worst_anchor = 0.0, 0.0
    for i in range(100):
        dim = 2 + (i % 3)
        s1 = ginibre_state(dim, rng)
        s0 = ginibre_state(dim, rng)
        d = relative_entropy(s1, s0)
        _, at_zero = psi_functional(s1, s0, 0.0)
        worst_anchor = max(worst_anchor, abs(at_zero - d))
        for r in (0.0, 0.1, 0.5, 0.9):
            _, analytic = psi_functional(s1, s0, r)

            def central(step):
                up, _ = psi_functional(s1, s0, r + step)
                down, _ = psi_functional(s1, s0, r - step)
                return (up - down) / (2 * step)

            refined = (4 * central(h / 2) - central(h)) / 3  # one Richardson step
            worst_fd = max(worst_fd, abs(analytic - refined))
    assert worst_fd <= 1e-6
    assert worst_anchor <= 1e-8
    _report(4, f"100 pairs, worst FD deviation {worst_fd:.2e}, "
               f"worst r=0 anchor {worst_anchor:.2e}")


def test_acceptance_05_quadratic_expansion_slope_and_prediction():
    # The chi-squared divergence is exactly the curvature of the relative
    # entropy on commuting pairs, which is where a cubic residual slope is
    # the correct expectation; draws with a near-vanishing cubic Taylor
    # coefficient are skipped because their residual is even smaller than
    # cubic and a slope fit cannot certify them.  The non-commuting
    # deviation (quadratic residual) is pinned by the companion test below.
    gen = np.random.default_rng(2024)
    grid = np.logspace(-3, -1, 9)
    slopes, rel_errors = [], []
    for dim in (2, 3, 4):
        done = 0
        while done < 50:
            b, c, wb, wc = commuting_pair(dim, gen)
            chi2 = float(np.sum((wc - wb) ** 2 / wb))
            cubic = float(np.sum((wc - wb) ** 3 / wb ** 2))
            if abs(cubic) < 0.05 * chi2:
                continue
            expansion = chi_squared_expansion(b, c, grid)
            if expansion is None:
                continue  # the grid reaches past the validity radius
            divergences, predictions, slope = expansion
            slopes.append(slope)
            at = int(np.argmin(np.abs(grid - 1e-2)))
            assert grid[at] == pytest.approx(1e-2, rel=1e-12)
            rel_errors.append(abs(divergences[at] - predictions[at]) / divergences[at])
            done += 1
    slopes = np.array(slopes)
    rel_errors = np.array(rel_errors)
    assert np.all((slopes >= 2.7) & (slopes <= 3.3))
    assert np.all(rel_errors <= 0.05)
    _report(5, f"150 commuting pairs, slopes in [{slopes.min():.2f}, "
               f"{slopes.max():.2f}], max relative error at 1e-2: "
               f"{rel_errors.max():.3f}")


def test_acceptance_05b_noncommuting_residual_is_quadratic():
    # Documented deviation: for generic non-commuting pairs the quadratic
    # coefficient of the relative entropy is the Kubo-Mori (divided-
    # difference) form, strictly below the chi-squared value, so the
    # residual against the chi-squared prediction scales as alpha^2.  This
    # test fails if the cubic claim were to hold generically.
    gen = np.random.default_rng(7)
    checked = 0
    while checked < 10:
        u1, u2 = haar_unitary(3, gen), haar_unitary(3, gen)
        w1 = gen.dirichlet(np.ones(3)) + 0.2
        w2 = gen.dirichlet(np.ones(3)) + 0.2
        b = DensityOperator(hermitian_part((u1 * (w1 / w1.sum())) @ u1.conj().T))
        c = DensityOperator(hermitian_part((u2 * (w2 / w2.sum())) @ u2.conj().T))
        if expansion_radius(b, c) <= 0.1:
            continue
        chi2 = chi_squared(c, b)
        if chi2 - kubo_mori_curvature(b, c) < 0.1 * chi2:
            continue  # nearly commuting draw: the gap term is negligible
        _, _, slope = chi_squared_expansion(b, c, np.logspace(-3, -1, 9))
        assert slope < 2.3, "expected quadratic residual for a pair " \
                            "with a non-negligible curvature gap"
        checked += 1
    _report("5b", "10 genuinely non-commuting pairs all show a quadratic "
                  "residual against the chi-squared prediction")


def test_acceptance_06_iid_mixture_covertness_bound(canonical_channel):
    rho0 = canonical_channel.willie_states[0]
    rho1 = canonical_channel.willie_states[1]
    chi2 = chi_squared(rho1, rho0)
    worst_slack = math.inf
    for gamma in (0.1, 0.2, 0.3):
        for n in range(4, 13):
            alpha = gamma / math.sqrt(n)
            mix = DensityOperator(hermitian_part(
                (1 - alpha) * rho0.matrix + alpha * rho1.matrix))
            value = n * relative_entropy(mix, rho0)
            worst_slack = min(worst_slack, gamma ** 2 * chi2 - value)
            if gamma == 0.1:
                target = gamma ** 2 * chi2 / 2
                assert abs(value - target) <= 0.1 * target
    assert worst_slack >= -1e-10
    _report(6, f"quadratic bound holds with worst slack {worst_slack:.2e}; "
               "gamma=0.1 values within 10% of the half-quadratic prediction")


def test_acceptance_07_srl_trend_at_desk_scale(canonical_channel):
    t0 = time.monotonic()
    gamma, varsigma = 0.5, 0.3
    chi2 = chi_squared(canonical_channel.willie_states[1],
                       canonical_channel.willie_states[0])
    epsilon_target = gamma ** 2 * chi2 / 2
    config = ExperimentConfig(
        channel=canonical_channel, n_list=(4, 6, 8, 10), gamma=gamma,
        varsigma=varsigma, trials=50, seed=0, ptilde=np.array([1.0]),
        k_override=1)
    reports = run_experiment(config)
    best_pe, best_d = [], []
    for n in config.n_list:
        group = [r for r in reports if r.n == n]
        assert len(group) == 50
        best = select_best(group, 0.5, epsilon_target)
        best_pe.append(best.pe_bob)
        best_d.append(best.covert_d)
    elapsed = time.monotonic() - t0
    assert all(best_pe[i] >= best_pe[i + 1] - 1e-12 for i in range(len(best_pe) - 1))
    assert all(d <= 2 * epsilon_target for d in best_d)
    assert elapsed < 300.0
    _report(7, f"best-code pe {['%.3f' % p for p in best_pe]} non-increasing, "
               f"covertness {['%.3f' % d for d in best_d]} all below "
               f"{2 * epsilon_target:.3f}, {elapsed:.0f}s")


def test_acceptance_08_srm_never_beats_helstrom(canonical_channel, rng):
    violations = 0
    channels = [canonical_channel,
                CqChannelPair(
                    bob_states=(ginibre_state(2, rng), ginibre_state(2, rng)),
                    willie_states=(ginibre_state(2, rng), ginibre_state(2, rng)))]
    count = 0
    for channel in channels:
        for seed in range(100):
            cb = sample_codebook(channel, n=3, m_count=2, k_count=1,
                                 gamma=0.8, ptilde=[1.0], seed=seed)
            decoder = build_srm_decoder(cb, channel, a=0.2)
            decoder.validate()
            pe = exact_pe_bob(cb, channel, decoder)
            blocks = []
            for m in range(2):
                block = np.ones((1, 1), dtype=complex)
                for x in codeword(cb, m, 0):
                    block = np.kron(block, channel.bob_states[x].matrix)
                blocks.append(DensityOperator(block))
            if pe < helstrom_error(blocks[0], blocks[1]) - 1e-12:
                violations += 1
            count += 1
    assert violations == 0
    _report(8, f"{count} random two-message codebooks, zero Helstrom violations, "
               "all decoders valid sub-POVMs")


def _fixture_channels():
    def diag(bob, willie):
        return CqChannelPair(
            bob_states=tuple(diagonal_state(p) for p in bob),
            willie_states=tuple(diagonal_state(p) for p in willie))

    fixtures = []
    # 1. square root law: both sides contained, not a mixture
    fixtures.append((diag([[0.9, 0.1], [0.6, 0.4]], [[0.9, 0.1], [0.6, 0.4]]),
                     ScenarioClass.SQUARE_ROOT_LAW, ()))
    # 2. constant rate: innocent adversary state is a mixture of the signals
    fixtures.append((diag([[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]],
                          [[0.5, 0.5], [0.7, 0.3], [0.3, 0.7]]),
                     ScenarioClass.CONSTANT_RATE, ()))
    # 3. sqrt(n) log n with an overlapping receiver leak
    fixtures.append((diag([[1, 0], [0.5, 0.5]], [[0.9, 0.1], [0.6, 0.4]]),
                     ScenarioClass.SQRT_N_LOG_N, ()))
    # 4. sqrt(n) log n with a receiver state disjoint from the innocent one
    fixtures.append((diag([[1, 0], [0, 1]], [[0.9, 0.1], [0.6, 0.4]]),
                     ScenarioClass.SQRT_N_LOG_N, ()))
    # 5. no-go, no refinement: adversary leaks, receiver fully contained
    fixtures.append((diag([[0.9, 0.1], [0.6, 0.4]], [[1, 0], [0.5, 0.5]]),
                     ScenarioClass.NO_GO, ()))
    # 6. no-go with the constant-bits weak-covert refinement
    fixtures.append((diag([[0.4, 0.3, 0.3], [1, 0, 0], [0, 1, 0]],
                          [[1, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5]]),
                     ScenarioClass.NO_GO, ("ConstantBits",)))
    # 7. no-go with the logarithmic-law weak-covert refinement
    fixtures.append((diag([[1, 0], [0, 1]], [[1, 0], [0.5, 0.5]]),
                     ScenarioClass.NO_GO, ("LogLaw",)))
    # 8. no-go, leaking receiver, weak-covert scaling not settled
    fixtures.append((diag([[1, 0], [0.5, 0.5]], [[1, 0], [0.5, 0.5]]),
                     ScenarioClass.NO_GO, ("weak-covert-unsettled",)))
    return fixtures


def test_acceptance_09_classifier_matches_fixtures_and_grid():
    checked_grid = 0
    for idx, (channel, expected, refinements) in enumerate(_fixture_channels(), 1):
        report = classify_scenario(channel)
        assert report.scenario is expected, f"fixture {idx}"
        for r in refinements:
            assert r in report.refinements, f"fixture {idx} missing {r}"
        # cross-check the mixture decision by dense simplex grid (dim-2 only)
        non_innocent = [channel.willie_states[x] for x in channel.non_innocent]
        if channel.willie_states[0].dim == 2 and len(non_innocent) <= 3:
            feasible, _ = mixture_feasibility(channel.willie_states[0], non_innocent)
            grid_feasible = _grid_mixture(channel.willie_states[0], non_innocent)
            assert feasible == grid_feasible, f"fixture {idx} grid disagreement"
            checked_grid += 1
    _report(9, f"8 fixtures classified as intended; mixture decisions match "
               f"1e-3 grid search on {checked_grid} dim-2 fixtures")


def _grid_mixture(rho0, states, step=1e-3, tol=1e-9):
    vecs = np.stack([np.concatenate([s.matrix.real.ravel(), s.matrix.imag.ravel()])
                     for s in states])
    target = np.concatenate([rho0.matrix.real.ravel(), rho0.matrix.imag.ravel()])
    ts = np.arange(0.0, 1.0 + step / 2, step)
    if len(states) == 1:
        weights = np.array([[1.0]])
    elif len(states) == 2:
        weights = np.stack([ts, 1.0 - ts], axis=1)
    else:
        weights = np.array([[a, b, 1.0 - a - b]
                            for a in ts for b in np.arange(0.0, 1.0 - a + step / 2, step)])
    for chunk in np.array_split(weights, max(1, len(weights) // 20000)):
        residuals = np.linalg.norm(chunk @ vecs - target, axis=1)
        if residuals.min() <= tol:
            return True
    return False


def test_acceptance_10_nogo_bound_on_fully_leaking_channel():
    overlap = 0.8
    bob0 = make_density(np.diag([1.0, 0.0]))
    v = np.array([math.sqrt(overlap), math.sqrt(1 - overlap)])
    bob1 = make_density(np.outer(v, v))
    channel = CqChannelPair(
        bob_states=(bob0, bob1),
        willie_states=(diagonal_state([1.0, 0.0]), diagonal_state([0.0, 1.0])))
    symbols = np.array([[1, 0], [0, 1]])
    codebook = Codebook(n=2, m_count=2, k_count=1, symbols=symbols)

    probe = nogo_experiment(channel, codebook, [1e-3])[0]
    # both codewords are fully leaked: detection is perfect
    assert probe.pe_willie == pytest.approx(0.0, abs=1e-12)
    # leakage constant per the decomposition: (1 - 0) / (1 - overlap)
    assert probe.c_min == pytest.approx(1.0 / (1.0 - overlap), abs=1e-12)

    below = nogo_experiment(channel, codebook, [probe.c_min / 64])[0]
    boundary = nogo_experiment(channel, codebook, [probe.c_min / 16])[0]
    assert below.bob_bound == pytest.approx(0.25 - math.sqrt(1 / 64), abs=1e-12)
    assert below.bob_bound > 0
    assert boundary.bob_bound == pytest.approx(0.0, abs=1e-12)
    _report(10, f"fully-leaking channel: exact detector error 0, c_min = "
                f"{probe.c_min:.1f}, bound positive at c_min/64 and zero at c_min/16")


def test_acceptance_11_holevo_expansion_identities(rng):
    worst = 0.0
    for i in range(100):
        dim = 2 + (i % 2)
        n_symbols = 2 + (i % 3)
        bob = tuple(ginibre_state(dim, rng) for _ in range(n_symbols + 1))
        willie = tuple(ginibre_state(dim, rng) for _ in range(n_symbols + 1))
        ptilde = rng.dirichlet(np.ones(n_symbols))
        for mu in (0.01, 0.1):
            p_bar = np.concatenate([[1.0 - mu], mu * ptilde])
            for states in (bob, willie):
                chi = holevo_information(p_bar, list(states))
                linear = mu * sum(
                    w * relative_entropy(states[x], states[0])
                    for w, x in zip(ptilde, range(1, n_symbols + 1)))
                mix = DensityOperator(hermitian_part(
                    sum(w * s.matrix for w, s in zip(p_bar, states))))
                identity_value = linear - relative_entropy(mix, states[0])
                worst = max(worst, abs(chi - identity_value))
    assert worst <= 1e-8
    _report(11, f"100 channels x 2 weights x 2 sides, worst identity "
                f"deviation {worst:.2e}")


def test_acceptance_12_simulate_determinism(tmp_path, monkeypatch):
    states = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]
    doc = {"bob": [matrix_to_json(np.asarray(m, dtype=complex)) for m in states],
           "willie": [matrix_to_json(np.asarray(m, dtype=complex)) for m in states]}
    channel_path = tmp_path / "chan.json"
    channel_path.write_text(json.dumps(doc))

    outputs = []
    for run, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"run_{run}.csv"
        monkeypatch.setenv("CQCOVERT_WORKERS", workers)
        code = main(["simulate", "--channel", str(channel_path),
                     "--n", "2,4", "--gamma", "0.5", "--trials", "5",
                     "--seed", "42", "--format", "csv", "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "same seed, same workers differ"
    assert outputs[0] == outputs[2], "worker count changed the output"
    _report(12, "byte-identical CSV across reruns and worker counts {1, 4}")
