import json
import math

import numpy as np
import pytest

from conftest import (channel_to_json, dense_mixture, diagonal_state, diluted_ginibre_channel,
                      haar_unitary, matrix_to_json)
from cqcovert.channel import (
    CqChannelPair,
    Povm,
    ScenarioClass,
    SupportRelation,
    channel_from_json,
    classify_scenario,
    farthest_adversary_symbol,
    induce_dmc,
    load_channel,
    mixture_feasibility,
    support_relations,
)
from cqcovert.divergences import chi_squared, relative_entropy
from cqcovert.errors import (
    DimensionMismatch,
    InvalidPovm,
    ParseError,
    ValidationError,
)
from cqcovert.operators import (
    DensityOperator,
    ginibre_state,
    hermitian_part,
    make_density,
)


def _channel_doc(bob, willie):
    return {"bob": [matrix_to_json(np.asarray(m, dtype=complex)) for m in bob],
            "willie": [matrix_to_json(np.asarray(m, dtype=complex)) for m in willie]}


def _diag_channel(bob_probs, willie_probs):
    return CqChannelPair(
        bob_states=tuple(diagonal_state(p) for p in bob_probs),
        willie_states=tuple(diagonal_state(p) for p in willie_probs))


class TestLoadChannel:
    def test_valid_qubit_spec(self, tmp_path):
        doc = _channel_doc([np.diag([0.9, 0.1]), np.diag([0.6, 0.4])],
                           [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])])
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(doc))
        channel = load_channel(str(path))
        assert channel.alphabet_size == 2
        assert channel.bob_states[0].dim == channel.willie_states[0].dim == 2

    def test_missing_side_is_parse_error(self):
        with pytest.raises(ParseError):
            channel_from_json({"bob": [matrix_to_json(np.eye(2) / 2)]})

    def test_empty_side_is_parse_error(self):
        with pytest.raises(ParseError):
            channel_from_json({"bob": [], "willie": []})

    def test_non_psd_names_symbol(self):
        doc = _channel_doc([np.diag([0.9, 0.1]), np.diag([1.5, -0.5])],
                           [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])])
        with pytest.raises(ValidationError, match=r"bob\[1\]"):
            channel_from_json(doc)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_channel(str(path))

    def test_mixed_dimensions_rejected(self):
        doc = {"bob": [matrix_to_json(np.eye(2) / 2), matrix_to_json(np.eye(3) / 3)],
               "willie": [matrix_to_json(np.eye(2) / 2), matrix_to_json(np.eye(2) / 2)]}
        with pytest.raises(ValidationError):
            channel_from_json(doc)

    def test_json_roundtrip(self, canonical_channel):
        doc = channel_to_json(canonical_channel)
        again = channel_from_json(doc)
        assert np.allclose(again.bob_states[1].matrix,
                           canonical_channel.bob_states[1].matrix)


class TestSupportRelations:
    def test_contained(self, canonical_channel):
        rels = support_relations(canonical_channel)
        assert rels == [(SupportRelation.CONTAINED, SupportRelation.CONTAINED)]

    def test_disjoint(self):
        ch = _diag_channel([[1, 0], [0, 1]], [[1, 0], [0, 1]])
        rels = support_relations(ch)
        assert rels == [(SupportRelation.DISJOINT, SupportRelation.DISJOINT)]

    def test_overlapping_leakage(self):
        # half the signal mass escapes the innocent support
        ch = _diag_channel([[1, 0, 0], [0.5, 0.5, 0]], [[1, 0, 0], [0.5, 0.5, 0]])
        rels = support_relations(ch)
        assert rels == [(SupportRelation.OVERLAPPING, SupportRelation.OVERLAPPING)]


def _summary_channels():
    """Seeded Ginibre channels: qubit k=3 and k=5, qutrit k=6, one whose
    symbol 2 leaks at Willie, and the same with the sides swapped (so Bob's
    innocent state is rank-deficient and Bob's symbol 2 leaks)."""
    leak = diluted_ginibre_channel(11, 3, 4, False, leak=True)
    return [diluted_ginibre_channel(13, 2, 3, False), diluted_ginibre_channel(11, 2, 5, False),
            diluted_ginibre_channel(16, 3, 6, False), leak,
            CqChannelPair(bob_states=leak.willie_states, willie_states=leak.bob_states)]


class TestChannelSummary:
    @pytest.mark.parametrize("index", range(5))
    def test_divergences_equal_relative_entropy(self, index):
        ch = _summary_channels()[index]
        for side, states in ((ch.summary.bob, ch.bob_states),
                             (ch.summary.willie, ch.willie_states)):
            direct = [relative_entropy(s, states[0]) for s in states[1:]]
            assert side.divergences.tolist() == direct

    @pytest.mark.parametrize("index", range(5))
    def test_chi2_matches_chi_squared_of_the_mixture(self, index):
        ch = _summary_channels()[index]
        k = ch.alphabet_size - 1
        gen = np.random.default_rng(index)
        points = list(np.eye(k)) + list(gen.dirichlet(np.ones(k), size=20))
        leaky = np.eye(k)[:2].mean(axis=0)   # weight on symbol 2
        for p in points + [leaky]:
            direct = chi_squared(dense_mixture(p, ch.willie_states[1:]), ch.willie_states[0])
            got = ch.summary.chi2(p)
            if math.isinf(direct):
                assert math.isinf(got)
            else:
                assert abs(got - direct) <= 1e-12 * direct

    def test_wrong_length_ptilde(self):
        ch = _summary_channels()[0]
        with pytest.raises(DimensionMismatch):
            ch.summary.chi2(np.array([0.5, 0.5]))

    def test_cached_once_per_channel(self, canonical_channel):
        assert canonical_channel.summary is canonical_channel.summary


class TestMixtureFeasibility:
    def test_constructed_mixture_recovers_witness(self, rng):
        r1 = ginibre_state(2, rng)
        r2 = ginibre_state(2, rng)
        mix = DensityOperator(hermitian_part(0.5 * r1.matrix + 0.5 * r2.matrix))
        feasible, pi = mixture_feasibility(mix, [r1, r2])
        assert feasible
        assert pi == pytest.approx([0.5, 0.5], abs=1e-6)
        rebuilt = pi[0] * r1.matrix + pi[1] * r2.matrix
        assert np.linalg.norm(rebuilt - mix.matrix) <= 1e-8

    def test_single_distinct_state_infeasible(self):
        feasible, pi = mixture_feasibility(diagonal_state([0.9, 0.1]),
                                           [diagonal_state([0.6, 0.4])])
        assert not feasible and pi is None

    def test_outside_convex_hull_matches_grid_search(self, rng):
        rho0 = diagonal_state([0.9, 0.1])
        states = [ginibre_state(2, rng), ginibre_state(2, rng)]
        feasible, _ = mixture_feasibility(rho0, states)
        # dense simplex grid as independent oracle
        ts = np.linspace(0.0, 1.0, 1001)
        residuals = [np.linalg.norm(t * states[0].matrix
                                    + (1 - t) * states[1].matrix - rho0.matrix)
                     for t in ts]
        assert feasible == (min(residuals) <= 1e-8)
        if not feasible:
            assert min(residuals) > 1e-9


class TestClassify:
    def test_square_root_law(self, canonical_channel):
        report = classify_scenario(canonical_channel)
        assert report.scenario is ScenarioClass.SQUARE_ROOT_LAW
        assert report.refinements == ()

    def test_constant_rate_with_witness(self):
        # innocent adversary state is the average of the two signal states
        ch = _diag_channel(
            bob_probs=[[0.5, 0.5], [0.9, 0.1], [0.2, 0.8]],
            willie_probs=[[0.5, 0.5], [0.7, 0.3], [0.3, 0.7]])
        report = classify_scenario(ch)
        assert report.scenario is ScenarioClass.CONSTANT_RATE
        assert report.mixture_pi == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_sqrt_n_log_n(self):
        # Bob leaks outside its innocent support, Willie stays contained
        ch = _diag_channel(
            bob_probs=[[1, 0], [0.5, 0.5]],
            willie_probs=[[0.9, 0.1], [0.6, 0.4]])
        report = classify_scenario(ch)
        assert report.scenario is ScenarioClass.SQRT_N_LOG_N
        assert report.sqrtnlogn_symbols == (1,)

    def test_nogo_plain(self):
        # Willie sees leakage, Bob cannot distinguish anything for free
        ch = _diag_channel(
            bob_probs=[[0.9, 0.1], [0.6, 0.4]],
            willie_probs=[[1, 0], [0.5, 0.5]])
        report = classify_scenario(ch)
        assert report.scenario is ScenarioClass.NO_GO
        assert report.refinements == ()

    def test_nogo_with_constant_bits_refinement(self):
        # two non-innocent Bob states orthogonal to each other but overlapping 0
        bob = [[0.4, 0.3, 0.3], [1, 0, 0], [0, 1, 0]]
        willie = [[1, 0, 0], [0.5, 0.5, 0], [0.5, 0, 0.5]]
        ch = _diag_channel(bob, willie)
        report = classify_scenario(ch)
        assert report.scenario is ScenarioClass.NO_GO
        assert ScenarioClass.CONSTANT_BITS.value in report.refinements

    def test_nogo_with_log_law_refinement(self):
        bob = [[1, 0], [0, 1]]
        willie = [[1, 0], [0.5, 0.5]]
        ch = _diag_channel(bob, willie)
        report = classify_scenario(ch)
        assert report.scenario is ScenarioClass.NO_GO
        assert ScenarioClass.LOG_LAW.value in report.refinements

    def test_nogo_unresolved_subcase(self):
        # Bob leaks but no orthogonal pair and no disjoint-from-innocent symbol
        bob = [[1, 0], [0.5, 0.5]]
        willie = [[1, 0], [0.5, 0.5]]
        ch = _diag_channel(bob, willie)
        report = classify_scenario(ch)
        assert report.scenario is ScenarioClass.NO_GO
        assert report.refinements == ("weak-covert-unsettled",)

    def test_unitary_conjugation_invariance(self, rng):
        base = _diag_channel(
            bob_probs=[[1, 0], [0.5, 0.5]],
            willie_probs=[[0.9, 0.1], [0.6, 0.4]])
        expected = classify_scenario(base).scenario
        for _ in range(50):
            u_bob = haar_unitary(2, rng)
            u_willie = haar_unitary(2, rng)
            rotated = CqChannelPair(
                bob_states=tuple(
                    DensityOperator(hermitian_part(u_bob @ s.matrix @ u_bob.conj().T))
                    for s in base.bob_states),
                willie_states=tuple(
                    DensityOperator(hermitian_part(u_willie @ s.matrix @ u_willie.conj().T))
                    for s in base.willie_states))
            assert classify_scenario(rotated).scenario is expected

    def test_srl_channel_has_positive_chi_squared_on_simplex(self):
        ch = _diag_channel(
            bob_probs=[[0.9, 0.1], [0.6, 0.4], [0.3, 0.7]],
            willie_probs=[[0.9, 0.1], [0.6, 0.4], [0.3, 0.7]])
        assert classify_scenario(ch).scenario is ScenarioClass.SQUARE_ROOT_LAW
        rho0 = ch.willie_states[0]
        for t in np.linspace(0.01, 0.99, 99):
            avg = DensityOperator(hermitian_part(
                t * ch.willie_states[1].matrix + (1 - t) * ch.willie_states[2].matrix))
            assert chi_squared(avg, rho0) > 0.0


class TestPovmAndDmc:
    def test_computational_basis_rows_are_eigenvalues(self):
        povm = Povm(elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        rows = induce_dmc([diagonal_state([0.9, 0.1]), diagonal_state([0.6, 0.4])], povm)
        assert np.allclose(rows, [[0.9, 0.1], [0.6, 0.4]], atol=1e-12)

    def test_trivial_povm_single_outcome(self):
        povm = Povm(elements=(np.eye(2),))
        rows = induce_dmc([diagonal_state([0.9, 0.1]), diagonal_state([0.6, 0.4])], povm)
        assert np.allclose(rows, [[1.0], [1.0]], atol=1e-12)

    def test_support_projector_measurement_row(self):
        # projector onto the innocent support against a leaking state
        p0 = np.diag([1.0, 0.0])
        povm = Povm(elements=(p0, np.eye(2) - p0))
        leaking = diagonal_state([0.5, 0.5])
        rows = induce_dmc([diagonal_state([1.0, 0.0]), leaking], povm)
        assert np.allclose(rows[1], [0.5, 0.5], atol=1e-12)

    def test_rows_stochastic_for_random_projective_povm(self, rng):
        u = haar_unitary(3, rng)
        povm = Povm(elements=tuple(np.outer(u[:, i], u[:, i].conj()) for i in range(3)))
        states = [ginibre_state(3, rng) for _ in range(4)]
        rows = induce_dmc(states, povm)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert rows.min() >= 0.0

    def test_povm_validation(self):
        with pytest.raises(InvalidPovm):
            Povm(elements=(np.diag([1.0, 0.0]),))  # does not sum to identity
        with pytest.raises(InvalidPovm):
            Povm(elements=(np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))

    def test_dmc_dimension_mismatch(self, rng):
        povm = Povm(elements=(np.eye(2),))
        with pytest.raises(DimensionMismatch):
            induce_dmc([ginibre_state(3, rng)], povm)


class TestFarthestAdversarySymbol:
    def test_argmax_symbol(self):
        ch = _diag_channel(
            bob_probs=[[0.9, 0.1], [0.6, 0.4], [0.5, 0.5]],
            willie_probs=[[0.9, 0.1], [0.6, 0.4], [0.5, 0.5]])
        distance, symbol = farthest_adversary_symbol(ch)
        assert distance == pytest.approx(0.8, abs=1e-12)
        assert symbol == 2  # trace distance 0.8 beats 0.6

    def test_tie_goes_to_the_largest_symbol(self):
        probs = [[0.9, 0.1], [0.6, 0.4], [0.8, 0.2], [0.6, 0.4]]
        distance, symbol = farthest_adversary_symbol(_diag_channel(probs, probs))
        assert distance == pytest.approx(0.6, abs=1e-12)
        assert symbol == 3  # symbols 1 and 3 are both 0.6 away, symbol 2 only 0.2

    def test_needs_a_non_innocent_symbol(self):
        with pytest.raises(ValidationError):
            farthest_adversary_symbol(_diag_channel([[0.9, 0.1]], [[0.9, 0.1]]))
