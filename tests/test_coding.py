import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (codeword, dense_average, dense_pe, diagonal_state, haar_unitary, kron,
                      pinching, positive_projector)
from cqcovert import coding
from cqcovert.channel import CqChannelPair
from cqcovert.coding import (
    Codebook,
    ExperimentConfig,
    ProductBasis,
    TrialReport,
    build_srm_decoder,
    code_sizes,
    covertness_report,
    default_epsilon_target,
    exact_pe_bob,
    nogo_experiment,
    run_experiment,
    sample_codebook,
    select_best,
    willie_average_state,
)
from cqcovert.divergences import (
    chi_squared,
    helstrom_error,
    relative_entropy,
    trace_distance,
)
from cqcovert.errors import (
    AlphaOutOfRange,
    DimensionCapExceeded,
    IndexMismatch,
    InputError,
    InvalidParameter,
    ValidationError,
    WrongRegime,
)
from cqcovert.operators import (
    DensityOperator,
    Partition,
    hermitian_part,
    kron_chain,
    make_density,
)


def _pure(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return make_density(np.outer(v, v.conj()))


class TestSampleCodebook:
    def test_gamma_zero_is_all_innocent(self, canonical_channel):
        cb = sample_codebook(canonical_channel, n=6, m_count=3, k_count=2,
                             gamma=0.0, ptilde=[1.0], seed=11)
        assert np.all(cb.symbols == 0)

    def test_determinism(self, canonical_channel):
        kwargs = dict(n=4, m_count=2, k_count=1, gamma=0.5, ptilde=[1.0], seed=99)
        a = sample_codebook(canonical_channel, **kwargs)
        b = sample_codebook(canonical_channel, **kwargs)
        assert np.array_equal(a.symbols, b.symbols)

    def test_alpha_out_of_range(self, canonical_channel):
        with pytest.raises(AlphaOutOfRange):
            sample_codebook(canonical_channel, n=4, m_count=1, k_count=1,
                            gamma=2.5, ptilde=[1.0], seed=0)

    def test_empirical_fraction_within_three_sigma(self, canonical_channel):
        n, rows = 100, 1000  # 1e5 symbols
        gamma, seed = 1.0, 7
        cb = sample_codebook(canonical_channel, n=n, m_count=rows, k_count=1,
                             gamma=gamma, ptilde=[1.0], seed=seed)
        alpha = gamma / math.sqrt(n)
        count = int(np.sum(cb.symbols != 0))
        total = n * rows
        sigma = math.sqrt(total * alpha * (1 - alpha))
        assert abs(count - total * alpha) <= 3 * sigma

    def test_ptilde_split_matches_binomial_oracle(self):
        three = CqChannelPair(
            bob_states=(diagonal_state([0.9, 0.1]), diagonal_state([0.6, 0.4]),
                        diagonal_state([0.3, 0.7])),
            willie_states=(diagonal_state([0.9, 0.1]), diagonal_state([0.6, 0.4]),
                           diagonal_state([0.3, 0.7])))
        cb = sample_codebook(three, n=100, m_count=1000, k_count=1,
                             gamma=1.0, ptilde=[0.25, 0.75], seed=3)
        total = cb.symbols.size
        alpha = 0.1
        for x, weight in ((1, 0.25), (2, 0.75)):
            count = int(np.sum(cb.symbols == x))
            p = alpha * weight
            sigma = math.sqrt(total * p * (1 - p))
            assert abs(count - total * p) <= 3 * sigma


class TestSrmDecoder:
    def test_single_message_element_is_projector(self, canonical_channel):
        cb = sample_codebook(canonical_channel, n=3, m_count=1, k_count=1,
                             gamma=0.5, ptilde=[1.0], seed=5)
        decoder = build_srm_decoder(cb, canonical_channel, a=0.2)
        sig = codeword(cb, 0, 0)
        block = canonical_channel.bob_states[sig[0]].matrix
        for x in sig[1:]:
            block = np.kron(block, canonical_channel.bob_states[x].matrix)
        innocent = kron(*[canonical_channel.bob_states[0].matrix] * 3)
        projector = positive_projector(pinching(innocent, block) - math.exp(0.2) * innocent)
        assert np.linalg.norm(decoder.elements[0] - projector) <= 1e-9

    def test_diagonal_channel_gives_diagonal_decoder(self, canonical_channel):
        cb = sample_codebook(canonical_channel, n=4, m_count=3, k_count=1,
                             gamma=0.6, ptilde=[1.0], seed=2)
        decoder = build_srm_decoder(cb, canonical_channel, a=0.3)
        for e in decoder.elements:
            off_diag = e - np.diag(np.diag(e))
            assert np.linalg.norm(off_diag) <= 1e-10

    def test_diagonal_index_set_oracle(self, canonical_channel):
        # commuting channel: the whole decoder reduces to index sets
        def oracle_pe(cb, a, key):
            diags = [np.diag(s.matrix).real for s in canonical_channel.bob_states]
            def block(symbols):
                out = np.ones(1)
                for x in symbols:
                    out = np.kron(out, diags[x])
                return out
            innocent = block([0] * cb.n)
            projs = [(block(codeword(cb, m, key)) - math.exp(a) * innocent > 0).astype(float)
                     for m in range(cb.m_count)]
            total = sum(projs)
            inv_sqrt = np.where(total > 1e-10, total, np.inf) ** -0.5
            pe = sum(1.0 - float(np.sum(inv_sqrt * proj * inv_sqrt * block(codeword(cb, m, key))))
                     for m, proj in enumerate(projs))
            return pe / cb.m_count

        for seed in range(10):
            cb = sample_codebook(canonical_channel, n=4, m_count=3, k_count=2,
                                 gamma=0.7, ptilde=[1.0], seed=seed)
            for key in range(2):
                decoder = build_srm_decoder(cb, canonical_channel, a=0.25, key=key)
                mine = exact_pe_bob(cb, canonical_channel, decoder, key=key)
                assert mine == pytest.approx(oracle_pe(cb, 0.25, key), abs=1e-10)

    def test_povm_validity_on_random_codebooks(self, canonical_channel):
        for seed in range(25):
            cb = sample_codebook(canonical_channel, n=3, m_count=4, k_count=1,
                                 gamma=0.8, ptilde=[1.0], seed=seed)
            decoder = build_srm_decoder(cb, canonical_channel, a=0.1)
            decoder.validate()

    def test_non_commuting_channel_povm_validity(self, rng):
        from cqcovert.operators import ginibre_state
        ch = CqChannelPair(
            bob_states=(ginibre_state(2, rng), ginibre_state(2, rng)),
            willie_states=(ginibre_state(2, rng), ginibre_state(2, rng)))
        basis = ProductBasis(ch.bob_states, 3)
        for seed in range(20):
            cb = sample_codebook(ch, n=3, m_count=3, k_count=1,
                                 gamma=0.8, ptilde=[1.0], seed=seed)
            decoder = build_srm_decoder(cb, ch, a=0.15, basis=basis)
            decoder.validate()

    def test_key_index_checked(self, canonical_channel):
        cb = sample_codebook(canonical_channel, n=2, m_count=2, k_count=1,
                             gamma=0.5, ptilde=[1.0], seed=0)
        with pytest.raises(IndexMismatch):
            build_srm_decoder(cb, canonical_channel, a=0.1, key=1)


class TestDecoderBasis:
    """Decoders live in the innocent state's product eigenbasis; mapped back
    to the computational basis they match a dense construction."""

    @staticmethod
    def _channel():
        from cqcovert.operators import ginibre_state
        gen = np.random.default_rng(2024)
        return CqChannelPair(
            bob_states=(ginibre_state(2, gen), ginibre_state(2, gen)),
            willie_states=(ginibre_state(2, gen), ginibre_state(2, gen)))

    @staticmethod
    def _dense_srm(cb, ch, a):
        from cqcovert.operators import matrix_power
        innocent = kron(*[ch.bob_states[0].matrix] * cb.n)
        projectors = []
        for m in range(cb.m_count):
            block = np.ones((1, 1), dtype=complex)
            for x in codeword(cb, m, 0):
                block = np.kron(block, ch.bob_states[x].matrix)
            projectors.append(positive_projector(pinching(innocent, block)
                                                 - math.exp(a) * innocent))
        if cb.m_count == 1:
            return projectors
        norm = matrix_power(sum(projectors), -0.5)
        return [norm @ proj @ norm for proj in projectors]

    @pytest.mark.parametrize("m_count", [1, 3])
    def test_original_basis_elements_match_dense_oracle(self, m_count):
        ch = self._channel()
        assert np.linalg.norm(ch.bob_states[0].matrix @ ch.bob_states[1].matrix
                              - ch.bob_states[1].matrix @ ch.bob_states[0].matrix) > 1e-3
        for seed in range(5):
            cb = sample_codebook(ch, n=3, m_count=m_count, k_count=1,
                                 gamma=0.9, ptilde=[1.0], seed=seed)
            decoder = build_srm_decoder(cb, ch, a=0.15)
            assert isinstance(decoder.basis, ProductBasis)
            for mine, oracle in zip(decoder.elements, self._dense_srm(cb, ch, 0.15)):
                assert np.linalg.norm(mine - oracle) <= 1e-9

    def test_pe_is_the_same_in_either_basis(self):
        ch = self._channel()
        for seed in range(5):
            cb = sample_codebook(ch, n=3, m_count=3, k_count=2,
                                 gamma=0.9, ptilde=[1.0], seed=seed)
            for key in range(2):
                decoder = build_srm_decoder(cb, ch, a=0.15, key=key)
                assert exact_pe_bob(cb, ch, decoder, key=key) == pytest.approx(
                    dense_pe(decoder.elements, ch.bob_states, cb.codewords(key)), abs=1e-12)


class TestExactPeBob:
    def test_orthogonal_codewords_decode_perfectly(self):
        ch = CqChannelPair(
            bob_states=(_pure([1, 0]), _pure([0, 1])),
            willie_states=(diagonal_state([0.9, 0.1]), diagonal_state([0.6, 0.4])))
        symbols = np.array([[1, 0], [0, 1]])
        cb = Codebook(n=2, m_count=2, k_count=1, symbols=symbols)
        # the codewords' states are orthogonal rank-1 projectors, so they
        # decode themselves perfectly, and so does the SRM built from them
        matched = [kron(*(ch.bob_states[x].matrix for x in row)) for row in symbols]
        assert dense_pe(matched, ch.bob_states, symbols) <= 1e-10
        decoder = build_srm_decoder(cb, ch, a=0.1)
        decoder.validate()
        assert exact_pe_bob(cb, ch, decoder) <= 1e-10
        for mine, oracle in zip(decoder.elements, matched):
            assert np.max(np.abs(mine - oracle)) <= 1e-12

    def test_identical_codewords_cannot_beat_half(self, canonical_channel):
        symbols = np.array([[1, 1, 0], [1, 1, 0]])
        cb = Codebook(n=3, m_count=2, k_count=1, symbols=symbols)
        decoder = build_srm_decoder(cb, canonical_channel, a=0.05)
        assert exact_pe_bob(cb, canonical_channel, decoder) >= 0.5

    def test_srm_never_beats_helstrom_for_two_messages(self, canonical_channel):
        for seed in range(30):
            cb = sample_codebook(canonical_channel, n=4, m_count=2, k_count=1,
                                 gamma=0.7, ptilde=[1.0], seed=seed)
            decoder = build_srm_decoder(cb, canonical_channel, a=0.2)
            pe = exact_pe_bob(cb, canonical_channel, decoder)
            states = []
            for m in range(2):
                block = np.ones((1, 1), dtype=complex)
                for x in codeword(cb, m, 0):
                    block = np.kron(block, canonical_channel.bob_states[x].matrix)
                states.append(DensityOperator(block))
            assert pe >= helstrom_error(states[0], states[1]) - 1e-10

    def test_codeword_blocks_are_product_states(self, monkeypatch):
        ch = CqChannelPair(bob_states=(_pure([1, 1j]), diagonal_state([0.7, 0.3])),
                           willie_states=(diagonal_state([0.9, 0.1]),
                                          diagonal_state([0.6, 0.4])))
        cb = sample_codebook(ch, n=3, m_count=4, k_count=1, gamma=0.9, ptilde=[1.0], seed=3)
        basis = ProductBasis(ch.bob_states, 3)
        assert basis.strings.count == 1
        for row in cb.symbols:
            block = basis.strings.assemble(basis.rotated_block(row))
            assert np.max(np.abs(basis.to_original_basis(block)
                                 - kron(*(ch.bob_states[x].matrix for x in row)))) <= 1e-12
        monkeypatch.setenv("CQCOVERT_DIM_CAP", "4")
        with pytest.raises(DimensionCapExceeded):
            build_srm_decoder(cb, ch, a=0.1)

    @pytest.mark.parametrize("case", ["another-key", "another-codebook", "fewer-messages",
                                      "stacked-pair", "another-channel"])
    def test_decoder_scores_only_what_it_was_built_for(self, case):
        ch = _ginibre_pair(2, 3)
        cb = sample_codebook(ch, n=3, m_count=3, k_count=2, gamma=1.0, ptilde=[1.0], seed=1)
        decoder = build_srm_decoder(cb, ch, a=0.2, key=0)
        codebook, channel, decoders, key = cb, ch, decoder, 0
        if case == "another-key":
            key = 1
            assert not np.array_equal(cb.codewords(1), cb.codewords(0))
        elif case == "another-codebook":
            # same shape, other codewords
            codebook = sample_codebook(ch, n=3, m_count=3, k_count=2, gamma=1.0,
                                       ptilde=[1.0], seed=2)
            assert not np.array_equal(codebook.codewords(0), cb.codewords(0))
        elif case == "fewer-messages":
            codebook = Codebook(n=3, m_count=2, k_count=1, symbols=cb.codewords(0)[:2])
        elif case == "stacked-pair":
            # the second decoder was built for key 0, not key 1
            decoders, key = [decoder, decoder], [0, 1]
        else:
            # Bob's signal state differs
            channel = CqChannelPair(
                bob_states=(ch.bob_states[0], _ginibre_pair(2, 4).bob_states[1]),
                willie_states=ch.willie_states)
        with pytest.raises(IndexMismatch):
            exact_pe_bob(codebook, channel, decoders, key=key)

    def test_equal_states_from_other_objects_are_the_same_channel(self):
        ch = _ginibre_pair(2, 3)
        cb = sample_codebook(ch, n=3, m_count=3, k_count=2, gamma=1.0, ptilde=[1.0], seed=1)
        decoder = build_srm_decoder(cb, ch, a=0.2, key=0)
        twin = CqChannelPair(
            bob_states=tuple(DensityOperator(np.array(s.matrix)) for s in ch.bob_states),
            willie_states=ch.willie_states)
        assert exact_pe_bob(cb, twin, decoder) == exact_pe_bob(cb, ch, decoder)


def _average_matrix(cb, ch):
    """Willie's average state in the computational basis, mapped back from
    its product eigenbasis."""
    basis = ProductBasis(ch.willie_states, cb.n)
    return basis.to_original_basis(willie_average_state(cb, ch, basis).matrix)


class TestWillieAverageState:
    def test_all_innocent_is_innocent_block(self, canonical_channel):
        cb = sample_codebook(canonical_channel, n=4, m_count=2, k_count=2,
                             gamma=0.0, ptilde=[1.0], seed=0)
        expected = kron(*[canonical_channel.willie_states[0].matrix] * 4)
        assert np.linalg.norm(_average_matrix(cb, canonical_channel) - expected) <= 1e-12

    def test_single_codeword_is_its_block_state(self, canonical_channel):
        symbols = np.array([[1, 0, 1]])
        cb = Codebook(n=3, m_count=1, k_count=1, symbols=symbols)
        block = np.ones((1, 1), dtype=complex)
        for x in symbols[0]:
            block = np.kron(block, canonical_channel.willie_states[x].matrix)
        assert np.linalg.norm(_average_matrix(cb, canonical_channel) - block) <= 1e-12

    def test_ensemble_mean_approaches_iid_average(self, canonical_channel):
        # law of large numbers against the exact i.i.d. product state
        n, gamma, codebooks, mk = 3, 0.6, 200, 4
        alpha = gamma / math.sqrt(n)
        single = DensityOperator(hermitian_part(
            (1 - alpha) * canonical_channel.willie_states[0].matrix
            + alpha * canonical_channel.willie_states[1].matrix))
        target = DensityOperator(kron(*[single.matrix] * n))
        acc = np.zeros((2 ** n, 2 ** n), dtype=complex)
        for seed in range(codebooks):
            cb = sample_codebook(canonical_channel, n=n, m_count=mk, k_count=1,
                                 gamma=gamma, ptilde=[1.0], seed=seed)
            acc += _average_matrix(cb, canonical_channel)
        acc /= codebooks
        assert np.linalg.norm(acc - target.matrix) <= 5.0 / math.sqrt(codebooks * mk)

    def test_dimension_cap(self, canonical_channel, monkeypatch):
        monkeypatch.setenv("CQCOVERT_DIM_CAP", "4")
        cb = Codebook(n=3, m_count=1, k_count=1, symbols=np.zeros((1, 3), dtype=int))
        with pytest.raises(DimensionCapExceeded):
            covertness_report(cb, canonical_channel)


class TestCovertness:
    def test_all_innocent_codebook(self, canonical_channel):
        cb = sample_codebook(canonical_channel, n=3, m_count=2, k_count=1,
                             gamma=0.0, ptilde=[1.0], seed=0)
        d, pe = covertness_report(cb, canonical_channel)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert pe == pytest.approx(0.5, abs=1e-12)

    def test_single_use_single_codeword_reduces_to_state_divergence(self, canonical_channel):
        symbols = np.array([[1]])
        cb = Codebook(n=1, m_count=1, k_count=1, symbols=symbols)
        d, _ = covertness_report(cb, canonical_channel)
        expected = relative_entropy(canonical_channel.willie_states[1],
                                    canonical_channel.willie_states[0])
        assert d == pytest.approx(expected, abs=1e-12)

    def test_helstrom_consistent_with_trace_distance(self, canonical_channel):
        cb = sample_codebook(canonical_channel, n=4, m_count=2, k_count=2,
                             gamma=0.7, ptilde=[1.0], seed=13)
        _, pe = covertness_report(cb, canonical_channel)
        rho_bar = DensityOperator(hermitian_part(_average_matrix(cb, canonical_channel)))
        block = DensityOperator(kron(*[canonical_channel.willie_states[0].matrix] * 4))
        expected = 0.5 * (1.0 - 0.5 * trace_distance(rho_bar, block))
        assert pe == pytest.approx(expected, abs=1e-10)


class TestWillieProductBasis:
    """Covertness scored in the product eigenbasis of Willie's innocent state
    agrees with a dense computational-basis oracle against the n-fold
    ``np.kron`` power of the innocent state."""

    @staticmethod
    def _dense(cb, ch):
        rho_bar = DensityOperator(dense_average(ch.willie_states, cb.symbols))
        block = DensityOperator(kron(*[ch.willie_states[0].matrix] * cb.n))
        return relative_entropy(rho_bar, block), helstrom_error(rho_bar, block)

    def _assert_agrees(self, cb, ch, finite=True):
        d, pe = covertness_report(cb, ch)
        d_dense, pe_dense = self._dense(cb, ch)
        assert math.isfinite(d_dense) is finite
        if finite:
            assert d == pytest.approx(d_dense, rel=1e-10)
        else:
            assert d == math.inf
        assert pe == pytest.approx(pe_dense, abs=1e-12)

    @pytest.mark.parametrize("dim, n_values", [(2, range(2, 7)), (3, range(2, 5))])
    def test_noncommuting_ginibre_pairs(self, dim, n_values):
        from cqcovert.operators import ginibre_state
        for seed in range(3):
            gen = np.random.default_rng(100 + seed)
            ch = CqChannelPair(
                bob_states=(ginibre_state(dim, gen), ginibre_state(dim, gen)),
                willie_states=(ginibre_state(dim, gen), ginibre_state(dim, gen)))
            w0, w1 = (s.matrix for s in ch.willie_states)
            assert np.linalg.norm(w0 @ w1 - w1 @ w0) > 1e-3
            for n in n_values:
                cb = sample_codebook(ch, n=n, m_count=3, k_count=2, gamma=0.9,
                                     ptilde=[1.0], seed=seed)
                self._assert_agrees(cb, ch)

    def test_rank_deficient_innocent_state_with_leaking_symbol(self):
        from cqcovert.operators import ginibre_state
        gen = np.random.default_rng(7)
        innocent = ginibre_state(3, gen, rank=2)
        ch = CqChannelPair(bob_states=(diagonal_state([0.9, 0.1]), diagonal_state([0.5, 0.5])),
                           willie_states=(innocent, ginibre_state(3, gen)))
        assert ProductBasis(ch.willie_states, 3).eigenvalues.min() == 0.0
        cb = Codebook(n=3, m_count=2, k_count=1, symbols=np.array([[0, 0, 0], [0, 1, 0]]))
        self._assert_agrees(cb, ch, finite=False)

    def test_product_eigenvalues_below_rank_tolerance(self):
        # lambda_min = 0.05: 0.05^8 is below the 1e-10 rank tolerance, 0.05^6 is not
        u = haar_unitary(2, np.random.default_rng(3))
        innocent = DensityOperator(hermitian_part((u * [0.95, 0.05]) @ u.conj().T))
        signal = DensityOperator(hermitian_part(u @ np.array([[0.1, 0.2], [0.2, 0.9]])
                                                @ u.conj().T))
        ch = CqChannelPair(bob_states=(innocent, signal), willie_states=(innocent, signal))
        for n, finite in ((6, True), (8, False)):
            symbols = np.array([[1] * n, [0] * (n - 1) + [1], [0] * n])
            cb = Codebook(n=n, m_count=3, k_count=1, symbols=symbols)
            self._assert_agrees(cb, ch, finite=finite)

    def test_state_is_the_diagonal_innocent_block(self, monkeypatch):
        from cqcovert import operators
        from cqcovert.operators import ginibre_state
        single = ginibre_state(2, np.random.default_rng(5))
        basis = ProductBasis([single], 4)
        monkeypatch.setattr(operators, "spectral_decomposition",
                            lambda a: pytest.fail("ProductBasis.state ran an eigensolve"))
        state = basis.state
        assert state is basis.state
        spec = state.spectrum
        assert np.all(np.diff(spec.eigenvalues) <= 0)
        v = spec.eigenvectors
        assert np.linalg.norm((v * spec.eigenvalues) @ v.conj().T
                              - np.diag(basis.eigenvalues)) <= 1e-15
        assert np.linalg.norm(basis.to_original_basis(state.matrix)
                              - kron(*[single.matrix] * 4)) <= 1e-12


class TestIidCovertnessBound:
    def test_quadratic_bound_is_exact_inequality(self, canonical_channel):
        # n D(mixture^n) = n D(single mixture) <= gamma^2 chi^2 with no slack
        rho0 = canonical_channel.willie_states[0]
        rho1 = canonical_channel.willie_states[1]
        chi2 = chi_squared(rho1, rho0)
        for gamma in (0.1, 0.2, 0.3):
            for n in range(4, 13):
                alpha = gamma / math.sqrt(n)
                mix = DensityOperator(hermitian_part(
                    (1 - alpha) * rho0.matrix + alpha * rho1.matrix))
                value = n * relative_entropy(mix, rho0)
                assert value <= gamma ** 2 * chi2 + 1e-10


class TestCodeSizes:
    def test_achievable_size_formulas(self, canonical_channel):
        d = relative_entropy(canonical_channel.bob_states[1],
                             canonical_channel.bob_states[0])
        m, k, log_m_raw, log_k_raw = code_sizes(canonical_channel, [1.0],
                                                n=9, gamma=0.5, varsigma=0.3)
        assert log_m_raw == pytest.approx(0.7 * 0.5 * 3 * d, abs=1e-12)
        # identical Bob/Willie states: the key exponent is 2 varsigma gamma sqrt(n) D
        assert log_k_raw == pytest.approx(0.6 * 0.5 * 3 * d, abs=1e-12)
        assert m == math.ceil(math.exp(log_m_raw) - 1e-12)
        assert k >= 1

    def test_zero_weight_leaking_symbol_is_ignored(self, willie_leak_channel):
        # symbol 2 leaks at Willie (infinite divergence) but carries no weight
        ch = willie_leak_channel
        d_bob = relative_entropy(ch.bob_states[1], ch.bob_states[0])
        d_willie = relative_entropy(ch.willie_states[1], ch.willie_states[0])
        m, k, log_m_raw, log_k_raw = code_sizes(ch, [1.0, 0.0], n=9, gamma=0.5, varsigma=0.3)
        assert log_m_raw == pytest.approx(0.7 * 0.5 * 3 * d_bob, abs=1e-12)
        assert log_k_raw == pytest.approx(0.5 * 3 * (1.3 * d_willie - 0.7 * d_bob), abs=1e-12)
        assert k == math.ceil(math.exp(log_k_raw) - 1e-12)

    def test_weight_on_a_leaking_symbol_raises_before_any_basis(self, willie_leak_channel,
                                                                  monkeypatch):
        # contained at both receivers is exactly where both divergences are finite
        monkeypatch.setattr(coding, "ProductBasis", lambda *args: pytest.fail(
            "a product basis was built"))
        ch = willie_leak_channel
        for call in (lambda: ExperimentConfig(channel=ch, n_list=(4,), gamma=0.5,
                                              ptilde=[0.5, 0.5]),
                     lambda: code_sizes(ch, [0.5, 0.5], n=4, gamma=0.5, varsigma=0.1)):
            with pytest.raises(WrongRegime, match="weight on symbol 2"):
                call()

    def test_default_weights_the_admissible_symbols(self, willie_leak_channel):
        config = ExperimentConfig(channel=willie_leak_channel, n_list=(4,), gamma=0.5)
        assert config.ptilde.tolist() == [1.0, 0.0]

    def test_gamma_zero(self, canonical_channel):
        m, k, log_m_raw, log_k_raw = code_sizes(canonical_channel, [1.0],
                                                n=4, gamma=0.0, varsigma=0.3)
        assert (m, k) == (1, 1)
        assert log_m_raw == 0.0 and log_k_raw == 0.0

    def test_sqrtnlogn_channel_is_a_wrong_regime(self):
        ch = CqChannelPair(bob_states=(diagonal_state([1.0, 0.0]), diagonal_state([0.5, 0.5])),
                           willie_states=(diagonal_state([0.9, 0.1]),
                                          diagonal_state([0.6, 0.4])))
        with pytest.raises(WrongRegime, match="SqrtNLogN"):
            code_sizes(ch, [1.0], n=4, gamma=0.5, varsigma=0.1)
        with pytest.raises(WrongRegime, match="SqrtNLogN"):
            run_experiment(ExperimentConfig(channel=ch, n_list=(4,), gamma=0.5))


class TestRunExperiment:
    def test_reproducible_reports(self, canonical_channel):
        cfg = ExperimentConfig(channel=canonical_channel, n_list=(3, 4), gamma=0.5,
                               trials=3, seed=21, ptilde=np.array([1.0]),
                               k_override=1)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_worker_count_does_not_change_results(self, canonical_channel):
        base = dict(channel=canonical_channel, n_list=(3, 4), gamma=0.5,
                    trials=4, seed=5, ptilde=np.array([1.0]), k_override=1)
        serial = run_experiment(ExperimentConfig(**base, workers=1))
        threaded = run_experiment(ExperimentConfig(**base, workers=4))
        assert [r.to_json() for r in serial] == [r.to_json() for r in threaded]

    @pytest.mark.parametrize("trials", [0, -2])
    def test_nonpositive_trials_rejected(self, canonical_channel, trials):
        # an empty sweep would return [] as if it had run
        with pytest.raises(InvalidParameter):
            run_experiment(ExperimentConfig(channel=canonical_channel, n_list=(3,),
                                            gamma=0.5, trials=trials))

    # each bad count is caught on construction, before run_experiment builds
    # a product basis or samples a codebook
    @pytest.mark.parametrize("field", ["n_list", "trials", "workers", "m_override",
                                       "k_override"])
    @pytest.mark.parametrize("value", [0, -3, 2.0, 2.5, np.float64(3.0), True, np.bool_(True),
                                       "3"])
    def test_counts_must_be_integers(self, canonical_channel, field, value):
        # one rule for every count: an int or NumPy integer >= 1, not a bool
        def config(value):
            fields = {"n_list": (value,)} if field == "n_list" else {"n_list": (3,), field: value}
            return ExperimentConfig(channel=canonical_channel, gamma=0.5, **fields)

        with pytest.raises(InvalidParameter, match="blocklength" if field == "n_list" else field):
            config(value)
        config(np.int64(3))

    @pytest.mark.parametrize("value", [-1, -3, 2.0, 1.5, True, np.bool_(False), "3", None])
    def test_seed_must_be_a_nonnegative_integer(self, canonical_channel, value):
        # a negative seed would reach the random streams, whose error names no field
        def config(seed):
            return ExperimentConfig(channel=canonical_channel, n_list=(3,), gamma=0.5,
                                    seed=seed)

        with pytest.raises(InvalidParameter, match="seed"):
            config(value)
        config(0)
        config(np.int64(3))
        config(2 ** 70)

    @pytest.mark.parametrize("ptilde, match", [([0.5, 0.5], "2 entries for 1"),
                                               ([], "probability vector"),
                                               ([1.5], "sum to 1.5"),
                                               ([float("nan")], "non-finite")])
    def test_ptilde_is_checked_on_construction(self, canonical_channel, ptilde, match):
        with pytest.raises(InputError, match=match):
            ExperimentConfig(channel=canonical_channel, n_list=(3,), gamma=0.5,
                             ptilde=np.asarray(ptilde, dtype=float))
        config = ExperimentConfig(channel=canonical_channel, n_list=(3,), gamma=0.5,
                                  ptilde=[1])
        assert isinstance(config.ptilde, np.ndarray) and config.ptilde.tolist() == [1.0]

    def test_repeated_blocklength_rejected(self, canonical_channel):
        # trial seeds derive from (seed, n, trial), so a repeated n reruns its trials
        with pytest.raises(InvalidParameter, match="repeat"):
            ExperimentConfig(channel=canonical_channel, n_list=(4, 3, 4), gamma=0.5)
        with pytest.raises(InvalidParameter, match="repeat"):
            ExperimentConfig(channel=canonical_channel, n_list=(4, np.int64(4)), gamma=0.5)

    @pytest.mark.parametrize("gamma", [math.inf, 1e6, math.nan, -1.0, 2.0])
    def test_gamma_outside_the_root_of_every_blocklength_rejected(self, canonical_channel,
                                                                  gamma):
        # 2.0 = sqrt(4) would give the innocent symbol weight 0 at n = 4
        with pytest.raises(AlphaOutOfRange):
            ExperimentConfig(channel=canonical_channel, n_list=(9, 4), gamma=gamma)
        ExperimentConfig(channel=canonical_channel, n_list=(9, 4), gamma=1.99)

    @pytest.mark.parametrize("knob", ["varsigma", "mu", "nu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 1.0, 2.0, -5.0])
    def test_knobs_outside_unit_interval_rejected(self, canonical_channel, knob, value):
        with pytest.raises(InvalidParameter):
            ExperimentConfig(channel=canonical_channel, n_list=(4,), gamma=0.5,
                             **{knob: value})
        ExperimentConfig(channel=canonical_channel, n_list=(4,), gamma=0.5, **{knob: 0.0})

    def test_gamma_zero_flags_no_signaling(self, canonical_channel):
        cfg = ExperimentConfig(channel=canonical_channel, n_list=(3,), gamma=0.0,
                               trials=1, seed=0, ptilde=np.array([1.0]),
                               m_override=2, k_override=1)
        (report,) = run_experiment(cfg)
        assert report.covert_d == pytest.approx(0.0, abs=1e-12)
        assert report.pe_bob >= (report.m_count - 1) / report.m_count - 1e-12
        assert "gamma=0" in report.note

    def test_covertness_tracks_quadratic_budget_as_n_grows(self, canonical_channel):
        # the i.i.d. average state meets the quadratic budget at every n
        gamma = 0.3
        chi2 = chi_squared(canonical_channel.willie_states[1],
                           canonical_channel.willie_states[0])
        for n in (4, 9, 16):
            alpha = gamma / math.sqrt(n)
            mix = DensityOperator(hermitian_part(
                (1 - alpha) * canonical_channel.willie_states[0].matrix
                + alpha * canonical_channel.willie_states[1].matrix))
            assert n * relative_entropy(mix, canonical_channel.willie_states[0]) \
                <= 1.5 * gamma ** 2 * chi2

    def test_select_best_normalized_max(self, canonical_channel):
        cfg = ExperimentConfig(channel=canonical_channel, n_list=(4,), gamma=0.5,
                               trials=6, seed=17, ptilde=np.array([1.0]),
                               k_override=1)
        reports = run_experiment(cfg)
        best = select_best(reports, delta_target=0.5, epsilon_target=0.125)
        scores = [max(r.pe_bob / 0.5, r.covert_d / 0.125) for r in reports]
        assert max(best.pe_bob / 0.5, best.covert_d / 0.125) == pytest.approx(
            min(scores), abs=1e-12)

    def test_select_best_against_zero_targets(self):
        def report(pe_bob, covert_d):
            return TrialReport(n=2, gamma=0.0, seed=0, m_count=1, k_count=1,
                               log_m_raw=0.0, log_k_raw=0.0, pe_bob=pe_bob,
                               covert_d=covert_d, pe_willie=0.5)
        reports = [report(0.2, 0.1), report(0.3, 0.0), report(0.1, 0.0)]
        assert select_best(reports, delta_target=0.5, epsilon_target=0.0) is reports[2]
        assert select_best(reports, delta_target=0.0, epsilon_target=0.0) is reports[0]

    def test_default_epsilon_target(self, canonical_channel):
        assert default_epsilon_target(canonical_channel, [1.0], 0.5) \
            == pytest.approx(0.125, abs=1e-9)


class TestNogoExperiment:
    def _leaking_channel(self, overlap=0.8):
        # pure Bob states with given overlap; fully disjoint Willie states
        bob0 = _pure([1, 0])
        bob1 = _pure([math.sqrt(overlap), math.sqrt(1 - overlap)])
        willie0 = diagonal_state([1.0, 0.0])
        willie1 = diagonal_state([0.0, 1.0])
        return CqChannelPair(bob_states=(bob0, bob1),
                             willie_states=(willie0, willie1))

    def test_innocent_codeword_contributes_half(self):
        ch = self._leaking_channel()
        symbols = np.array([[0, 0], [1, 0]])
        cb = Codebook(n=2, m_count=2, k_count=1, symbols=symbols)
        report = nogo_experiment(ch, cb, [0.01])[0]
        # innocent codeword detected never (term 1/2M), leaked codeword never missed
        assert report.pe_willie == pytest.approx(0.25, abs=1e-12)

    def test_fully_leaked_codeword_has_zero_overlap(self):
        ch = self._leaking_channel()
        symbols = np.array([[1, 1], [1, 0]])
        cb = Codebook(n=2, m_count=2, k_count=1, symbols=symbols)
        report = nogo_experiment(ch, cb, [0.01])[0]
        assert report.pe_willie == pytest.approx(0.0, abs=1e-12)

    def test_bound_boundary_behavior(self):
        ch = self._leaking_channel()
        symbols = np.array([[1, 0], [0, 1]])
        cb = Codebook(n=2, m_count=2, k_count=1, symbols=symbols)
        probe = nogo_experiment(ch, cb, [1e-6])[0]
        c_min = probe.c_min
        at_boundary = nogo_experiment(ch, cb, [c_min / 16])[0]
        below = nogo_experiment(ch, cb, [c_min / 64])[0]
        above = nogo_experiment(ch, cb, [c_min / 4])[0]
        assert at_boundary.bob_bound == pytest.approx(0.0, abs=1e-12)
        assert below.bob_bound == pytest.approx(0.125, abs=1e-12)
        assert above.bob_bound == 0.0

    def test_requires_leakage(self, canonical_channel):
        cb = sample_codebook(canonical_channel, n=2, m_count=2, k_count=1,
                             gamma=0.5, ptilde=[1.0], seed=0)
        with pytest.raises(WrongRegime, match="requires NoGo"):
            nogo_experiment(canonical_channel, cb, [0.01])[0]

    def test_levels_share_one_computation(self):
        ch = self._leaking_channel()
        cb = Codebook(n=2, m_count=2, k_count=1, symbols=np.array([[1, 0], [0, 1]]))
        grid = nogo_experiment(ch, cb)
        c_min = grid[0].c_min
        assert [r.epsilon for r in grid] == [c_min / f for f in coding.NOGO_GRID]
        levels = [r.epsilon for r in grid] + [0.01]
        together = nogo_experiment(ch, cb, np.array(levels))
        assert [r.to_json() for r in together] == [
            nogo_experiment(ch, cb, [e])[0].to_json() for e in levels]
        assert [r.to_json() for r in together[:4]] == [r.to_json() for r in grid]

    @pytest.mark.parametrize("levels", [[0.01, math.nan], [math.inf], [-1.0]])
    def test_every_level_is_checked_before_any_work(self, canonical_channel, levels):
        cb = Codebook(n=2, m_count=1, k_count=1, symbols=np.array([[1, 0]]))
        with pytest.raises(ValidationError, match="epsilon"):
            nogo_experiment(canonical_channel, cb, levels)  # not a NoGo channel either

    def test_requires_pure_receiver_states(self):
        ch = CqChannelPair(
            bob_states=(diagonal_state([0.9, 0.1]), diagonal_state([0.6, 0.4])),
            willie_states=(diagonal_state([1.0, 0.0]), diagonal_state([0.0, 1.0])))
        symbols = np.array([[1, 0]])
        cb = Codebook(n=2, m_count=1, k_count=1, symbols=symbols)
        with pytest.raises(ValidationError):
            nogo_experiment(ch, cb, [0.01])[0]

    def test_all_innocent_codebook_rejected(self):
        ch = self._leaking_channel()
        symbols = np.zeros((2, 2), dtype=int)
        cb = Codebook(n=2, m_count=2, k_count=1, symbols=symbols)
        with pytest.raises(ValidationError):
            nogo_experiment(ch, cb, [0.01])[0]


def _ginibre_pair(dim, seed):
    """Seeded Ginibre channel pair whose innocent and signal states do not
    commute at either receiver."""
    from cqcovert.operators import ginibre_state
    gen = np.random.default_rng(seed)
    ch = CqChannelPair(
        bob_states=(ginibre_state(dim, gen), ginibre_state(dim, gen)),
        willie_states=(ginibre_state(dim, gen), ginibre_state(dim, gen)))
    for s0, s1 in (ch.bob_states, ch.willie_states):
        assert np.linalg.norm(s0.matrix @ s1.matrix - s1.matrix @ s0.matrix) > 1e-6
    return ch


def _dense_pinched_srm(cb, ch, a, key):
    """Pinched square-root measurement built densely in the computational
    basis.  The pinching is over the exact tie sets of the product
    eigenvalues, read from the digits of each index: with distinct
    single-use eigenvalues, two product eigenvectors share an eigenvalue iff
    their indices have the same digits up to order."""
    from cqcovert.operators import matrix_power
    innocent = kron(*[ch.bob_states[0].matrix] * cb.n)
    u = kron_chain([ch.bob_states[0].spectrum.eigenvectors] * cb.n)
    digits = np.array(list(itertools.product(range(ch.bob_states[0].dim), repeat=cb.n)))
    tie = np.unique(np.sort(digits, axis=1), axis=0, return_inverse=True)[1].ravel()
    same = tie[:, None] == tie[None, :]
    projectors = []
    for m in range(cb.m_count):
        block = np.ones((1, 1), dtype=complex)
        for x in codeword(cb, m, key):
            block = np.kron(block, ch.bob_states[x].matrix)
        pinched = u @ ((u.conj().T @ block @ u) * same) @ u.conj().T
        projectors.append(positive_projector(pinched - math.exp(a) * innocent))
    norm = matrix_power(sum(projectors), -0.5)
    return [norm @ proj @ norm for proj in projectors]


ginibre_cases = given(dim=st.sampled_from([2, 3]), n=st.integers(2, 5),
                      seed=st.integers(0, 2 ** 31 - 1))
seeded = settings(max_examples=12, deadline=None, derandomize=True)


class TestNonCommutingInvariants:
    """Block decoders and Willie's scoring on seeded non-commuting Ginibre
    qubit and qutrit pairs (n <= 5), whose product bases have several
    pinching clusters."""

    @staticmethod
    def _codebook(ch, n, m_count, k_count, seed):
        if ch.bob_states[0].dim == 3 and n > 4:
            m_count = 2  # keeps the dense qutrit oracle at D = 243 quick
        return sample_codebook(ch, n=n, m_count=m_count, k_count=k_count, gamma=0.9,
                               ptilde=[1.0], seed=seed)

    @seeded
    @ginibre_cases
    def test_block_decoder_matches_dense_pinched_srm(self, dim, n, seed):
        ch = _ginibre_pair(dim, seed)
        cb = self._codebook(ch, n, 3, 2, seed)
        basis = ProductBasis(ch.bob_states, n)
        assert len(basis.clusters) > 1
        for key in range(cb.k_count):
            decoder = build_srm_decoder(cb, ch, a=0.15, key=key, basis=basis)
            decoder.validate()
            for mine, oracle in zip(decoder.elements, _dense_pinched_srm(cb, ch, 0.15, key)):
                assert np.max(np.abs(mine - oracle)) <= 1e-9

    @pytest.mark.parametrize("dim, n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
    def test_elements_commute_with_the_innocent_product_state(self, dim, n):
        # each E_m = N P_m N is a function of the pinched states and the
        # innocent product state, so it commutes with that state
        ch = _ginibre_pair(dim, 40 + 10 * dim + n)
        cb = self._codebook(ch, n, 3, 2, n)
        innocent = kron(*[ch.bob_states[0].matrix] * n)
        largest = 0.0  # some element is not empty, so the check is not vacuous
        for key in range(cb.k_count):
            decoder = build_srm_decoder(cb, ch, a=0.1, key=key)
            for e in decoder.elements:
                largest = max(largest, np.abs(e).max())
                assert np.abs(e @ innocent - innocent @ e).max() <= 1e-12
        assert largest > 0.1

    @seeded
    @ginibre_cases
    def test_blockwise_pe_equals_dense_pe(self, dim, n, seed):
        ch = _ginibre_pair(dim, seed)
        cb = self._codebook(ch, n, 3, 2, seed)
        for key in range(cb.k_count):
            decoder = build_srm_decoder(cb, ch, a=0.1, key=key)
            pe = exact_pe_bob(cb, ch, decoder, key=key)
            assert 0.0 <= pe <= 1.0
            assert pe == pytest.approx(
                dense_pe(decoder.elements, ch.bob_states, cb.codewords(key)), abs=1e-12)

    @seeded
    @ginibre_cases
    def test_srm_never_beats_helstrom_for_two_messages(self, dim, n, seed):
        ch = _ginibre_pair(dim, seed)
        cb = self._codebook(ch, n, 2, 1, seed)
        pe = exact_pe_bob(cb, ch, build_srm_decoder(cb, ch, a=0.1))
        states = []
        for m in range(2):
            block = np.ones((1, 1), dtype=complex)
            for x in codeword(cb, m, 0):
                block = np.kron(block, ch.bob_states[x].matrix)
            states.append(DensityOperator(block))
        assert pe >= helstrom_error(states[0], states[1]) - 1e-10

    @seeded
    @ginibre_cases
    def test_repeated_rows_collapse_exactly(self, dim, n, seed):
        ch = _ginibre_pair(dim, seed)
        gen = np.random.default_rng(seed)
        distinct = gen.integers(0, 2, size=(3, n))
        symbols = distinct[gen.integers(0, 3, size=8)]
        symbols[:3] = distinct  # every distinct row occurs, most of them repeatedly
        cb = Codebook(n=n, m_count=4, k_count=2, symbols=symbols)
        basis = ProductBasis(ch.willie_states, n)
        by_row = sum(basis.strings.assemble(basis.rotated_block(row))
                     for row in symbols) / 8
        collapsed = willie_average_state(cb, ch, basis).matrix
        assert np.max(np.abs(collapsed - hermitian_part(by_row))) <= 1e-14

    @seeded
    @ginibre_cases
    def test_joint_convexity_and_pinsker(self, dim, n, seed):
        ch = _ginibre_pair(dim, seed)
        cb = self._codebook(ch, n, 3, 2, seed)
        d, pe_willie = covertness_report(cb, ch)
        per_symbol = [relative_entropy(s, ch.willie_states[0]) for s in ch.willie_states]
        bound = np.mean([sum(per_symbol[x] for x in row) for row in cb.symbols])
        assert 0.0 <= d <= bound + 1e-10
        assert 0.5 - pe_willie <= math.sqrt(d / 2.0) / 2.0 + 1e-12

    def test_worker_count_does_not_change_results(self):
        ch = _ginibre_pair(2, 11)
        base = dict(channel=ch, n_list=(3, 4), gamma=0.8, trials=3, seed=4,
                    ptilde=np.array([1.0]), m_override=3, k_override=3)
        serial = run_experiment(ExperimentConfig(**base, workers=1))
        threaded = run_experiment(ExperimentConfig(**base, workers=4))
        assert [r.to_json() for r in serial] == [r.to_json() for r in threaded]


class TestBasisOfTheWrongParty:
    """A product basis keeps its party's states and blocklength, and every
    entry point that takes one checks both (``ProductBasis.require``)."""

    @pytest.mark.parametrize("case", ["other-party", "other-n", "twin-channel", "equal-copy"])
    def test_basis_must_be_the_party_s_at_the_codebook_s_blocklength(self, case):
        ch, other = _ginibre_pair(2, 3), _ginibre_pair(2, 4)
        cb = sample_codebook(ch, n=4, m_count=3, k_count=2, gamma=1.0, ptilde=[1.0], seed=3)
        # the channel whose states the bases are built from, at blocklength n
        carrier, n = {
            "other-party": (CqChannelPair(bob_states=ch.willie_states,
                                          willie_states=ch.bob_states), 4),
            "other-n": (ch, 3),
            # same innocent states, other signal states
            "twin-channel": (CqChannelPair(
                bob_states=(ch.bob_states[0], other.bob_states[1]),
                willie_states=(ch.willie_states[0], other.willie_states[1])), 4),
            "equal-copy": (CqChannelPair(
                bob_states=tuple(DensityOperator(np.array(s.matrix)) for s in ch.bob_states),
                willie_states=tuple(DensityOperator(np.array(s.matrix))
                                    for s in ch.willie_states)), 4),
        }[case]
        bob, willie = ProductBasis(carrier.bob_states, n), ProductBasis(carrier.willie_states, n)
        own = cb if n == cb.n else sample_codebook(carrier, n=n, m_count=3, k_count=2,
                                                   gamma=1.0, ptilde=[1.0], seed=3)
        # a decoder built on the carrier's basis, then scored on ch
        decoder = build_srm_decoder(own, carrier, a=0.2, basis=bob)
        calls = [lambda: build_srm_decoder(cb, ch, a=0.2, basis=bob).hits,
                 lambda: covertness_report(cb, ch, willie),
                 lambda: exact_pe_bob(cb, ch, decoder)]
        if case != "equal-copy":
            for call in calls:
                with pytest.raises(IndexMismatch, match="product eigenbasis"):
                    call()
            return
        reference = [build_srm_decoder(cb, ch, a=0.2).hits, covertness_report(cb, ch),
                     exact_pe_bob(cb, ch, build_srm_decoder(cb, ch, a=0.2))]
        for call, expected in zip(calls, reference):
            assert np.array_equal(call(), expected)

    def test_single_entries_are_built_once_per_basis(self):
        ch = _direct_sum_pair(31)[0]
        basis = ProductBasis(ch.willie_states, 3)
        entries = basis.single_entries
        u = basis.single_vectors
        rotated = np.stack([u.conj().T @ state.matrix @ u for state in ch.willie_states])
        # a 2 x 2 and a 1 x 1 component block, each read row by row, blocks in
        # eigenbasis order
        pairs = np.argwhere(np.any(rotated != 0, axis=0))
        assert len(pairs) == 2 ** 2 + 1
        assert entries.shape == (ch.alphabet_size, len(pairs), 1, 1)
        for x in range(ch.alphabet_size):
            assert np.max(np.abs(entries[x, :, 0, 0] - rotated[x][pairs[:, 0], pairs[:, 1]])) \
                <= 1e-15
        cb = sample_codebook(ch, n=3, m_count=3, k_count=2, gamma=1.0, ptilde=[1.0], seed=2)
        willie_average_state(cb, ch, basis)
        basis.rotated_block([1, 0, 1])
        assert basis.single_entries is entries


class TestComponents:
    """A party's block structure comes from the exact zeros of all its
    single-use states, with no tolerance."""

    def test_tiny_coupling_keeps_one_component(self):
        innocent = DensityOperator(np.array([[0.7, 1e-300], [1e-300, 0.3]]))
        assert ProductBasis([innocent], 3).strings.count == 1
        assert ProductBasis([diagonal_state([0.7, 0.3])], 3).strings.count == 8

    def test_components_come_from_every_state_of_the_party(self):
        innocent = diagonal_state([0.5, 0.3, 0.2])
        signal = DensityOperator(np.array([[0.4, 0.1, 0.0], [0.1, 0.4, 0.0],
                                           [0.0, 0.0, 0.2]]))
        states = (innocent, signal)
        # levels 0 and 1 form one component, level 2 another: strings of 2 letters
        basis = ProductBasis(states, 3)
        assert basis.strings.count == 2 ** 3
        assert [idx.shape[1] for idx in basis.strings.groups] == [1, 2, 4, 8]
        qubit = (diagonal_state([0.9, 0.1]),
                 DensityOperator(np.array([[0.6, 0.2], [0.2, 0.4]])))
        assert ProductBasis(qubit, 4).strings.count == 1
        assert ProductBasis(qubit[:1], 4).strings.count == 2 ** 4


def _direct_sum_pair(seed):
    """A qubit block plus a classical flag at both receivers, with the three
    levels in a random order, the same channel turned by a global Haar
    unitary u (one component), and u."""
    from cqcovert.operators import ginibre_state
    gen = np.random.default_rng(seed)
    order = gen.permutation(3)
    u = haar_unitary(3, gen)

    def states():
        out = []
        for _ in range(2):
            flag = gen.uniform(0.2, 0.5)
            block = np.zeros((3, 3), dtype=complex)
            block[:2, :2] = (1 - flag) * (0.8 * ginibre_state(2, gen).matrix + 0.1 * np.eye(2))
            block[2, 2] = flag
            out.append(block[np.ix_(order, order)])
        return out

    bob, willie = states(), states()
    split = CqChannelPair(bob_states=tuple(DensityOperator(m) for m in bob),
                          willie_states=tuple(DensityOperator(m) for m in willie))
    turned = CqChannelPair(
        bob_states=tuple(DensityOperator(hermitian_part(u @ m @ u.conj().T)) for m in bob),
        willie_states=tuple(DensityOperator(hermitian_part(u @ m @ u.conj().T))
                            for m in willie))
    return split, turned, u


def _willie_party(kind):
    """A channel whose Willie has the named block structure: diagonal qubit
    (two 1 x 1 components), Ginibre qubit (one component), 2+1 qutrit,
    qubit plus flag (2+1, levels in a random order) or 2+1+1 ququart."""
    from pathlib import Path
    from cqcovert.channel import load_channel
    root = Path(__file__).resolve().parents[1]
    if kind == "flag":
        return _direct_sum_pair(8)[0]
    return load_channel(str({"diagonal": root / "perfbench" / "channels" / "diag_qubit.json",
                             "qubit": root / "perfbench" / "channels" / "ginibre_qubit.json",
                             "qutrit": root / "tests" / "data" / "block_qutrit.json",
                             "ququart": root / "tests" / "data" / "block_ququart.json"}[kind]))


class TestComponentStrings:
    """Willie's blocks are the component strings, ordered by block size and
    then by component string, and his average state summed over entry
    vectors is the dense mixture."""

    @pytest.mark.parametrize("kind", ["diagonal", "qubit", "qutrit", "flag", "ququart"])
    def test_strings_are_the_component_strings_in_order(self, kind):
        from cqcovert.channel import uniform_nontrivial_ptilde
        ch = _willie_party(kind)
        d = ch.willie_states[0].dim
        for n in range(1, 6):
            basis = ProductBasis(ch.willie_states, n)
            # each eigenbasis position's component, named by its lowest position
            reach = np.any(basis.single_states != 0, axis=0) | np.eye(d, dtype=bool)
            for _ in range(d):
                reach = (reach.astype(int) @ reach.astype(int)) > 0
            first = np.argmax(reach, axis=1)
            digits = np.array(list(itertools.product(range(d), repeat=n)))
            string = [tuple(first[row].tolist()) for row in digits]
            sets = [s for idx in basis.strings.groups for s in idx.tolist()]
            assert sorted(i for s in sets for i in s) == list(range(d ** n))
            assert all(s == sorted(s) and {string[i] for i in s} == {string[s[0]]}
                       for s in sets)
            assert len({string[s[0]] for s in sets}) == len(sets)
            keys = [(len(s), string[s[0]]) for s in sets]
            assert keys == sorted(keys)
            cb = sample_codebook(ch, n=n, m_count=3, k_count=2, gamma=0.9,
                                 ptilde=uniform_nontrivial_ptilde(ch), seed=n)
            rho_bar = basis.to_original_basis(willie_average_state(cb, ch, basis).matrix)
            assert np.max(np.abs(rho_bar - dense_average(ch.willie_states, cb.symbols))) \
                <= 1e-12


class TestBlockDiagonalEquivalence:
    """Scores are unitarily invariant, so a block-diagonal channel scored
    block by block matches the same channel turned into one dense component."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2 ** 31 - 1))
    def test_direct_sum_matches_its_dense_rotation(self, n, seed):
        split, turned, u = _direct_sum_pair(seed)
        assert ProductBasis(split.willie_states, n).strings.count == 2 ** n
        assert ProductBasis(turned.willie_states, n).strings.count == 1
        cb = sample_codebook(split, n=n, m_count=3, k_count=2, gamma=0.9,
                             ptilde=[1.0], seed=seed)
        for key in range(cb.k_count):
            decoders = [build_srm_decoder(cb, ch, a=0.1, key=key) for ch in (split, turned)]
            decoders[0].validate()
            pe = [exact_pe_bob(cb, ch, d, key=key) for ch, d in zip((split, turned), decoders)]
            assert pe[0] == pytest.approx(pe[1], abs=1e-12)
        # the pinched SRM is unitarily covariant: turning back gives the same element
        mine, dense = (d.elements[0] for d in decoders)
        un = kron_chain([u] * n)
        assert np.max(np.abs(un.conj().T @ dense @ un - mine)) <= 1e-9
        basis = ProductBasis(split.willie_states, n)
        dense = dense_average(split.willie_states, cb.symbols)
        assert np.max(np.abs(basis.to_original_basis(
            willie_average_state(cb, split, basis).matrix) - dense)) <= 1e-12
        d_split, pe_split = covertness_report(cb, split)
        d_turned, pe_turned = covertness_report(cb, turned)
        assert d_split == pytest.approx(d_turned, rel=1e-10)
        assert pe_split == pytest.approx(pe_turned, abs=1e-12)

    def test_worker_count_does_not_change_results(self):
        import sys
        split, _, _ = _direct_sum_pair(5)
        base = dict(channel=split, n_list=(3, 4), gamma=0.8, trials=3, seed=4,
                    ptilde=np.array([1.0]), m_override=3, k_override=3)
        serial = run_experiment(ExperimentConfig(**base, workers=1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads share the bases' lazily built blocks
        try:
            threaded = run_experiment(ExperimentConfig(**base, workers=4))
        finally:
            sys.setswitchinterval(interval)
        assert [r.to_json() for r in serial] == [r.to_json() for r in threaded]

    def test_classical_channel_needs_no_eigensolve_above_1x1(self, canonical_channel,
                                                             monkeypatch):
        code_sizes(canonical_channel, [1.0], 10, 0.5, 0.3)  # single-letter work first
        sizes = []

        def guarded(solver):
            def call(a, *args, **kwargs):
                sizes.append(np.shape(a)[-1])
                return solver(a, *args, **kwargs)
            return call

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, guarded(getattr(np.linalg, name)))
        config = ExperimentConfig(channel=canonical_channel, n_list=(10,), gamma=0.5,
                                  varsigma=0.3, trials=2, seed=1, ptilde=np.array([1.0]))
        reports = run_experiment(config)
        assert sizes and max(sizes) == 1
        assert all(math.isfinite(r.covert_d) for r in reports)


class TestTrialDiagnostics:
    def test_counts_on_the_diagonal_fixture(self, canonical_channel):
        config = ExperimentConfig(channel=canonical_channel, n_list=(6, 10), gamma=0.5,
                                  varsigma=0.3, trials=2, seed=1, ptilde=np.array([1.0]))
        for r in run_experiment(config):
            cb = sample_codebook(canonical_channel, r.n, r.m_count, r.k_count, 0.5,
                                 [1.0], r.seed)
            shared = [np.sum(~cb.codewords(k).any(axis=0)) for k in range(r.k_count)]
            # every joint block of a classical channel is 1 x 1, and so is every piece
            assert r.to_json()["diagnostics"] == {
                "clusters": {6: 7, 10: 11}[r.n], "bob_blocks": 2 ** r.n,
                "willie_blocks": 2 ** r.n,
                "distinct_rows": len(np.unique(cb.symbols, axis=0)),
                "bob_types": len(np.unique(np.sort(cb.symbols, axis=1), axis=0)),
                "keys": r.k_count, "shared_innocent": float(np.mean(shared)),
                "bob_sub_blocks": r.k_count * 2 ** r.n, "bob_real": True, "willie_real": True}

    def test_all_innocent_keys_split_into_single_indices(self):
        ch = _ginibre_pair(2, 3)
        config = ExperimentConfig(channel=ch, n_list=(4,), gamma=0.0, trials=1, seed=2,
                                  ptilde=np.array([1.0]), m_override=3, k_override=2)
        (report,) = run_experiment(config)
        assert report.diagnostics["shared_innocent"] == 4.0
        assert report.diagnostics["bob_sub_blocks"] == 2 * 2 ** 4
        assert report.pe_bob == 1.0

    def test_binary_alphabet_has_at_most_n_plus_one_types(self, canonical_channel):
        config = ExperimentConfig(channel=canonical_channel, n_list=(6,), gamma=0.9,
                                  varsigma=0.3, trials=3, seed=2, ptilde=np.array([1.0]),
                                  m_override=8, k_override=4)
        for r in run_experiment(config):
            rows = sample_codebook(canonical_channel, 6, 8, 4, 0.9, [1.0], r.seed).symbols
            assert len(np.unique(rows, axis=0)) > 6 + 1  # more rows than types
            assert 1 <= r.diagnostics["bob_types"] <= 6 + 1

    def test_dense_channel_has_one_block_per_cluster(self):
        ch = _ginibre_pair(2, 3)
        config = ExperimentConfig(channel=ch, n_list=(4,), gamma=0.8, trials=1, seed=2,
                                  ptilde=np.array([1.0]), m_override=3, k_override=2)
        (report,) = run_experiment(config)
        clusters = len(ProductBasis(ch.bob_states, 4).clusters)
        assert report.diagnostics["clusters"] == report.diagnostics["bob_blocks"] == clusters
        assert report.diagnostics["willie_blocks"] == 1


def _typed_channel(kind, seed):
    """A seeded Ginibre qubit or qutrit pair, or the qubit-plus-flag channel,
    whose several component strings make reorderings move blocks."""
    if kind == "flag":
        return _direct_sum_pair(seed)[0]
    return _ginibre_pair({"qubit": 2, "qutrit": 3}[kind], seed)


def _typed_codebook(ch, n, seed):
    """Random rows, three messages under two keys, in which the first
    message under key 0 is unsorted, the second is a reordering of it and
    one row repeats."""
    gen = np.random.default_rng(seed)
    symbols = gen.integers(0, ch.alphabet_size, size=(6, n))
    symbols[0, 0], symbols[0, -1] = 1, 0
    symbols[2] = gen.permutation(symbols[0])
    symbols[5] = symbols[3]
    return Codebook(n=n, m_count=3, k_count=2, symbols=symbols)


def _per_row_decoder(cb, a, key, basis):
    """The pinched SRM for one key built row by row, each codeword's state
    from its own Kronecker product: its element and state stacks over
    ``basis.joint``."""
    from cqcovert.operators import dagger
    threshold = math.exp(a) * basis.eigenvalues
    full = [basis.strings.assemble(basis.rotated_block(row)) for row in cb.codewords(key)]
    rows = [[block[idx[:, :, None], idx[:, None, :]] for idx in basis.joint.groups]
            for block in full]
    elements, sigma = [], []
    for idx, *blocks in zip(basis.joint.groups, *rows):
        stack = np.stack(blocks)
        shifted = stack.copy()
        diag = np.arange(idx.shape[1])
        shifted[..., diag, diag] -= threshold[idx]
        w, v = np.linalg.eigh(hermitian_part(shifted))
        keep = v * (w > 1e-12)[..., None, :]
        projectors = keep @ dagger(keep)
        w, v = np.linalg.eigh(hermitian_part(projectors.sum(axis=0)))
        norm = (v * (np.where(w > 1e-10, w, np.inf) ** -0.5)[..., None, :]) @ dagger(v)
        elements.append(norm @ projectors @ norm)
        sigma.append(stack)
    return elements, sigma


def _frame_elements(decoder):
    """A decoder's (M, D, D) elements in its key's frame of ``basis``: its
    ``pieces`` assembled over ``basis.split(shared)``."""
    basis = decoder.basis
    return Partition(basis.joint.dim, basis.split(decoder.shared)).assemble(decoder.pieces)


def _basis_elements(decoder):
    """A decoder's (M, D, D) elements in ``basis``'s own order: the frame's
    rows and columns read back through the frame's index map."""
    back = decoder.basis.reorderings(decoder.frame[None])[0]
    return _frame_elements(decoder)[:, back[:, None], back[None, :]]


typed_cases = given(kind=st.sampled_from(["qubit", "qutrit", "flag"]), n=st.integers(2, 5),
                    seed=st.integers(0, 2 ** 31 - 1))


class TestTypeSharing:
    """A codeword's decoder blocks are its symbol type's with the tensor
    positions reordered, and Willie's average is summed over a prefix trie;
    both agree with the row-by-row constructions."""

    @seeded
    @typed_cases
    def test_type_shared_decoder_matches_per_row_build(self, kind, n, seed):
        ch = _typed_channel(kind, seed)
        cb = _typed_codebook(ch, n, seed)
        basis = ProductBasis(ch.bob_states, n)
        for key in range(cb.k_count):
            decoder = build_srm_decoder(cb, ch, a=0.1, key=key, basis=basis)
            elements, sigma = _per_row_decoder(cb, 0.1, key, basis)
            assert np.max(np.abs(_basis_elements(decoder)
                                 - basis.joint.assemble(elements))) <= 1e-12
            hits = sum(np.sum(e * np.swapaxes(s, -1, -2), axis=(-3, -2, -1)).real
                       for e, s in zip(elements, sigma))
            pe = exact_pe_bob(cb, ch, decoder, key=key)
            assert pe == pytest.approx(np.mean(1.0 - hits), abs=1e-12)

    @seeded
    @typed_cases
    def test_trie_average_matches_row_by_row_sum(self, kind, n, seed):
        ch = _typed_channel(kind, seed)
        cb = _typed_codebook(ch, n, seed)
        states = ch.willie_states
        basis = ProductBasis(states, n)
        by_row = sum(basis.strings.assemble(basis.rotated_block(row))
                     for row in cb.symbols) / len(cb.symbols)
        trie = willie_average_state(cb, ch, basis).matrix
        assert np.max(np.abs(trie - hermitian_part(by_row))) <= 1e-14
        assert np.max(np.abs(basis.to_original_basis(trie)
                             - dense_average(states, cb.symbols))) <= 1e-14

    @seeded
    @typed_cases
    def test_clusters_and_joint_blocks_map_onto_themselves(self, kind, n, seed):
        ch = _typed_channel(kind, seed)
        basis = ProductBasis(ch.bob_states, n)
        d = ch.bob_states[0].dim

        def sets(index_sets, image):
            return {tuple(sorted(image[s].tolist())) for s in index_sets}

        identity = np.arange(d ** n)
        joint = [s for idx in basis.joint.groups for s in idx]
        moved = False
        for t in range(n - 1):
            order = np.arange(n)
            order[[t, t + 1]] = order[[t + 1, t]]
            image = identity.reshape((d,) * n).transpose(order).ravel()
            assert sets(basis.clusters, image) == sets(basis.clusters, identity)
            assert sets(joint, image) == sets(joint, identity)
            moved |= any(set(image[s].tolist()) != set(s.tolist()) for s in joint)
        assert moved == (kind == "flag")

    def test_type_memo_follows_the_threshold(self):
        ch = _ginibre_pair(2, 4)
        other = _ginibre_pair(2, 9)
        twin = CqChannelPair(bob_states=(ch.bob_states[0], other.bob_states[1]),
                             willie_states=ch.willie_states)
        # key 1 first: key 0 then finds the type 0001 and builds 0011 and 0111
        symbols = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1],
                            [1, 1, 1, 0], [0, 0, 0, 0]])
        cb = Codebook(n=4, m_count=3, k_count=2, symbols=symbols)
        shared = ProductBasis(ch.bob_states, 4)
        for a in (0.1, 0.3, 0.1):
            build_srm_decoder(cb, ch, a=a, key=1, basis=shared)
            mine = build_srm_decoder(cb, ch, a=a, basis=shared)
            fresh = build_srm_decoder(cb, ch, a=a, basis=ProductBasis(ch.bob_states, 4))
            for x, y in zip(mine.pieces, fresh.pieces):
                assert np.array_equal(x, y)
            assert exact_pe_bob(cb, ch, mine) == exact_pe_bob(cb, ch, fresh)
        # the memo holds one party's types: another channel's Bob needs its own basis
        with pytest.raises(IndexMismatch):
            build_srm_decoder(cb, twin, a=0.1, basis=shared)


class TestNormalisedDecoder:
    """Bob's decoder is held as ``E_m = N P_m N`` on the pieces of its key,
    with each state and projector read from its symbol type, and it is
    scored on the states it was built from."""

    @seeded
    @typed_cases
    def test_hits_match_the_per_row_oracle(self, kind, n, seed):
        ch = _typed_channel(kind, seed)
        cb = _typed_codebook(ch, n, seed)
        basis = ProductBasis(ch.bob_states, n)
        for key in range(cb.k_count):
            decoder = build_srm_decoder(cb, ch, a=0.1, key=key, basis=basis)
            elements, sigma = _per_row_decoder(cb, 0.1, key, basis)
            decoder.validate()
            hits = sum(np.sum(e * np.swapaxes(s, -1, -2), axis=(-3, -2, -1)).real
                       for e, s in zip(elements, sigma))
            # each message's hit, with the states read from the type store
            assert np.max(np.abs(decoder.hits - hits)) <= 1e-12

    @seeded
    @typed_cases
    def test_key_with_only_empty_projectors_scores_one(self, kind, n, seed):
        ch = _typed_channel(kind, seed)
        cb = _typed_codebook(ch, n, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            decoder = build_srm_decoder(cb, ch, a=50.0)
            store, which, maps = decoder.types
            for idx in decoder.basis.joint.groups:
                assert not np.any(coding._gather(store, which + 1, maps[:, idx]))
            assert exact_pe_bob(cb, ch, decoder) == 1.0
            assert all(np.all(piece == 0) for piece in decoder.pieces)

    def test_validate_names_a_negative_element_and_an_excess_sum(self):
        ch = _typed_channel("qubit", 3)
        decoder = build_srm_decoder(_typed_codebook(ch, 4, 3), ch, a=0.1)
        assert decoder.validate() > 0
        pieces = decoder.pieces
        assert any(np.any(piece) for piece in pieces)
        # element 2 becomes -2 DECODER_TOL times I on its first piece
        bent = [piece.copy() for piece in pieces]
        bent[0][2, 0] = -2 * coding.DECODER_TOL * np.eye(bent[0].shape[-1])
        decoder.pieces = tuple(bent)
        with pytest.raises(ValidationError, match=r"^decoder element 2 not PSD within 1e-08$"):
            decoder.validate()
        # N P_m N sum to a projector, so scaled by 1.01 they exceed I by 0.01
        decoder.pieces = tuple(1.01 * piece for piece in pieces)
        with pytest.raises(ValidationError, match=r"^decoder sum exceeds identity by 1\.000e-02$"):
            decoder.validate()

    @pytest.mark.xfail(strict=True, raises=ValidationError,
                       reason="ROADMAP item 1: N = w^-1/2 on a Gram eigenvalue just above "
                              "RANK_TOL amplifies the rounding of N P N")
    def test_srl_d3_k6_decoder_is_a_sub_povm(self):
        # the second n=6 trial at seed 2 of simulate --gamma 1 on srl_d3_k6, key 5
        from pathlib import Path
        from cqcovert.channel import load_channel
        path = Path(__file__).resolve().parents[1] / "perfbench" / "channels" / "srl_d3_k6.json"
        ch = load_channel(str(path))
        n, config = 6, ExperimentConfig(channel=ch, n_list=(6,), gamma=1.0, seed=2)
        m, k, _, _ = code_sizes(ch, config.ptilde, n, config.gamma, config.varsigma)
        assert (m, k) == (2, 9)
        # the threshold exponent as run_experiment sets it
        a = ((1.0 - config.nu) * (1.0 - config.mu) * config.gamma * math.sqrt(n)
             * ch.summary.weighted(config.ptilde, ch.summary.bob.divergences))
        cb = sample_codebook(ch, n, m, k, config.gamma, config.ptilde,
                             coding._trial_seed(config.seed, n, 1))
        build_srm_decoder(cb, ch, a, key=5).validate()


def _shared_codebook(ch, n, shared, m_count=3, seed=0):
    """Random codewords, ``len(shared)`` keys of ``m_count`` messages, whose
    key k has exactly ``shared[k]`` innocent columns in common, at random
    positions: every other column sends a non-innocent symbol somewhere."""
    gen = np.random.default_rng(seed)
    k_count = len(shared)
    symbols = gen.integers(0, ch.alphabet_size, size=(m_count * k_count, n))
    for k, c in enumerate(shared):
        rows = symbols[k::k_count]
        columns = gen.permutation(n)
        rows[:, columns[:c]] = 0
        for column in columns[c:]:
            if not rows[:, column].any():
                rows[gen.integers(m_count), column] = gen.integers(1, ch.alphabet_size)
    return Codebook(n=n, m_count=m_count, k_count=k_count, symbols=symbols)


def _joint_block_ids(basis):
    """Each index's joint block, counted over ``basis.joint``'s sets in order."""
    block = np.empty(basis.strings.dim, dtype=int)
    for b, s in enumerate(s for idx in basis.joint.groups for s in idx):
        block[s] = b
    return block


def _piece_mask(basis, c):
    """The (dim, dim) mask of the entries of the pieces ``basis.split(c)``."""
    mask = np.zeros((basis.strings.dim,) * 2, dtype=bool)
    for piece in basis.split(c):
        mask[piece[..., :, None], piece[..., None, :]] = True
    return mask


class TestSharedInnocentSplit:
    """At a key's shared innocent positions every factor is diag(lambda), so
    its decoder is solved on the joint blocks cut by their labels; the split
    is exact, and a key's decoder does not depend on the keys built with it."""

    @pytest.mark.parametrize("kind, n", [("qubit", 5), ("qutrit", 4), ("flag", 4)])
    @pytest.mark.parametrize("shared", ["none", "one", "all_but_one", "all"])
    def test_split_decoder_matches_the_dense_and_per_row_oracles(self, kind, n, shared):
        ch = _typed_channel(kind, 17)
        c = {"none": 0, "one": 1, "all_but_one": n - 1, "all": n}[shared]
        cb = _shared_codebook(ch, n, [c, c], seed=c)
        basis = ProductBasis(ch.bob_states, n)
        for key in range(cb.k_count):
            decoder = build_srm_decoder(cb, ch, a=0.1, key=key, basis=basis)
            assert decoder.shared == c
            decoder.validate()
            for mine, oracle in zip(decoder.elements, _dense_pinched_srm(cb, ch, 0.1, key)):
                assert np.max(np.abs(mine - oracle)) <= 1e-9
            elements, sigma = _per_row_decoder(cb, 0.1, key, basis)
            assert np.max(np.abs(_basis_elements(decoder)
                                 - basis.joint.assemble(elements))) <= 1e-12
            hits = sum(np.sum(e * np.swapaxes(s, -1, -2), axis=(-3, -2, -1)).real
                       for e, s in zip(elements, sigma))
            assert exact_pe_bob(cb, ch, decoder, key=key) == pytest.approx(
                np.mean(1.0 - hits), abs=1e-12)

    @pytest.mark.parametrize("kind", ["qubit", "qutrit", "flag", "diagonal"])
    def test_split_cuts_each_joint_block_by_its_leading_digits(self, kind, canonical_channel):
        n = 4
        ch = canonical_channel if kind == "diagonal" else _typed_channel(kind, 41)
        basis = ProductBasis(ch.bob_states, n)
        d, dim = ch.bob_states[0].dim, basis.strings.dim
        block = _joint_block_ids(basis)
        for c in range(n + 1):
            pieces = basis.split(c)
            owner = np.full(dim, -1)
            for i, s in enumerate(s for piece in pieces for s in piece):
                owner[s] = i
            assert np.array_equal(np.sort(np.concatenate([p.ravel() for p in pieces])),
                                  np.arange(dim))
            assert all(np.all(np.diff(piece, axis=1) > 0) for piece in pieces)
            assert all(np.all(block[piece] == block[piece[:, :1]]) for piece in pieces)
            for idx in basis.joint.groups:
                for s in idx:
                    digits = s // d ** (n - c)
                    assert np.array_equal(digits[:, None] == digits[None, :],
                                          owner[s][:, None] == owner[s][None, :])
            sizes = [piece.shape[1] for piece in pieces]
            assert sizes == sorted(set(sizes))
        assert len(basis.split(0)) == len(basis.joint.groups)
        assert all(np.array_equal(p, g) for p, g in zip(basis.split(0), basis.joint.groups))

    def test_the_committed_block_channel_stacks_pieces_of_several_joint_blocks(self):
        # CI runs simulate on this file under one and two workers for that reason
        from pathlib import Path
        from cqcovert.channel import load_channel
        ch = load_channel(str(Path(__file__).parent / "data" / "block_qutrit.json"))
        basis = ProductBasis(ch.bob_states, 4)
        assert len({len(s) for idx in basis.strings.groups for s in idx}) > 1
        block = _joint_block_ids(basis)
        for c in range(5):
            assert any(len(set(block[piece[:, 0]].tolist())) > 1 for piece in basis.split(c))

    @pytest.mark.parametrize("kind", ["qubit", "qutrit", "flag"])
    def test_projector_sum_and_normaliser_are_zero_off_the_pieces(self, kind):
        from cqcovert.operators import RANK_TOL, dagger
        n = 4
        ch = _typed_channel(kind, 23)
        cb = _shared_codebook(ch, n, [0, 1, 2, 3, 4], seed=5)
        basis = ProductBasis(ch.bob_states, n)
        for key in range(cb.k_count):
            decoder = build_srm_decoder(cb, ch, a=0.1, key=key, basis=basis)
            store, which, maps = decoder.types
            mask = _piece_mask(basis, decoder.shared)
            # in the key's frame, P_m, sum_m P_m and N P_m N solved on whole joint blocks
            whole = np.zeros((cb.m_count,) + mask.shape, dtype=complex)
            for idx in basis.joint.groups:
                rows, cols = idx[..., :, None], idx[..., None, :]
                projector = coding._gather(store, which + 1, maps[:, idx])
                gram = projector.sum(axis=0)
                assert np.all(gram[~mask[rows, cols]] == 0)
                w, v = np.linalg.eigh(gram)
                norm = (v * np.where(w > RANK_TOL, w, np.inf)[..., None, :] ** -0.5) @ dagger(v)
                whole[:, rows, cols] = norm @ projector @ norm
            # the elements solved piece by piece
            assert np.max(np.abs(_frame_elements(decoder) - whole)) <= 1e-10

    @pytest.mark.parametrize("kind", ["qubit", "qutrit", "flag"])
    def test_keys_built_together_are_bit_identical_to_one_key_calls(self, kind):
        n = 4
        ch = _typed_channel(kind, 29)
        shared = [2, 0, 4, 1, 3, 1, 0, 2]
        cb = _shared_codebook(ch, n, shared, m_count=9, seed=7)
        keys = range(cb.k_count)
        together = build_srm_decoder(cb, ch, a=0.1, key=keys,
                                     basis=ProductBasis(ch.bob_states, n))
        assert together[0].basis.real == (kind != "qutrit")  # both arithmetics run
        pe = exact_pe_bob(cb, ch, together, key=keys)
        assert [d.shared for d in together] == shared
        for key in keys:
            alone = build_srm_decoder(cb, ch, a=0.1, key=key,
                                      basis=ProductBasis(ch.bob_states, n))
            for mine, theirs in zip(alone.pieces, together[key].pieces):
                assert np.array_equal(mine, theirs)
            assert np.array_equal(alone.hits, together[key].hits)
            assert exact_pe_bob(cb, ch, alone, key=key) == pe[key]
        subset = [5, 0, 3]
        assert np.array_equal(exact_pe_bob(cb, ch, [together[k] for k in subset], key=subset),
                              pe[subset])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sweep_over_several_chunks_equals_one_key_calls(self, dim):
        ch = _ginibre_pair(dim, 11)
        config = ExperimentConfig(channel=ch, n_list=(3,), gamma=0.8, trials=1, seed=4,
                                  ptilde=np.array([1.0]), m_override=3,
                                  k_override=coding.KEY_CHUNK + 5)
        (report,) = run_experiment(config)
        cb = sample_codebook(ch, 3, 3, report.k_count, 0.8, [1.0], report.seed)
        a = 0.9 * 0.9 * 0.8 * math.sqrt(3) * ch.summary.weighted(
            np.array([1.0]), ch.summary.bob.divergences)
        basis = ProductBasis(ch.bob_states, 3)
        assert basis.real == (dim == 2)  # a Ginibre qubit goes real, a qutrit does not
        pe = [exact_pe_bob(cb, ch, build_srm_decoder(cb, ch, a, key=k, basis=basis), key=k)
              for k in range(report.k_count)]
        assert report.pe_bob == float(np.mean(pe))

    @pytest.mark.parametrize("kind", ["qubit", "qutrit", "flag"])
    def test_all_innocent_codeword_is_the_innocent_state_bit_for_bit(self, kind):
        ch = _typed_channel(kind, 31)
        for states in (ch.bob_states, ch.willie_states):
            basis = ProductBasis(states, 3)
            for mine, state in zip(basis.rotated_block([0, 0, 0]), basis.state.blocks[1]):
                assert np.array_equal(mine, state)


class TestProductBlocks:
    """A symbol type is built on its pieces only (``ProductBasis.
    product_blocks``), with the entries a Kronecker product of the rotated
    single-use states would have, bit for bit."""

    @pytest.mark.parametrize("kind", ["qubit", "qutrit", "flag", "diagonal"])
    def test_every_piece_of_every_type_is_its_kronecker_entries(self, kind, canonical_channel):
        n = 4
        ch = canonical_channel if kind == "diagonal" else _typed_channel(kind, 37)
        basis = ProductBasis(ch.bob_states, n)
        u = basis.single_vectors
        assert basis.real == (kind != "qutrit")
        for x, state in enumerate(ch.bob_states[1:], start=1):
            rotated = u.conj().T @ state.matrix @ u
            if not basis.real:
                assert np.array_equal(basis.single_states[x], rotated)
                continue
            # the exact gauge construction: real, symmetric, nonnegative off the diagonal
            mine = basis.single_states[x]
            assert mine.dtype == np.float64 and np.array_equal(mine, mine.T)
            assert np.all(mine - np.diag(np.diag(mine)) >= 0)
            assert np.max(np.abs(mine - rotated)) <= 1e-15
        # every sorted row: each count z of innocent symbols, first
        types = np.array(sorted({tuple(sorted(r)) for r in itertools.product(
            range(ch.alphabet_size), repeat=n)}))
        which, store = coding._pinched_types(basis, 0.1, types)
        zs = set()
        for row, i in zip(types, which):
            full = kron_chain([basis.single_states[x] for x in row])
            assert np.array_equal(basis.strings.assemble(basis.rotated_block(row)), full)
            z = int(np.count_nonzero(row == 0))
            zs.add(z)
            for piece in basis.split(z):
                assert np.array_equal(coding._gather(store, i, piece),
                                      full[piece[..., :, None], piece[..., None, :]])
        assert zs == set(range(n + 1))

    def test_a_type_build_never_forms_a_whole_block(self):
        import tracemalloc
        n = 7
        ch = _ginibre_pair(3, 5)
        basis = ProductBasis(ch.bob_states, n)
        assert basis.strings.count == 1
        dim = basis.strings.dim
        # three types, with 3, 4 and no innocent symbols
        cb = Codebook(n=n, m_count=3, k_count=1, symbols=np.array(
            [[1, 0, 1, 1, 0, 1, 0], [0, 1, 0, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1, 1]]))
        tracemalloc.start()
        try:
            build_srm_decoder(cb, ch, a=0.2, basis=basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one dim x dim complex block would be 73 MiB
        assert peak < dim ** 2 * 16


def _gauge_party(kind):
    """A channel by name: those of ``_willie_party``, the committed
    ``srl_d2_k3`` (three signals on one qubit edge) and ``srl_d3_k6``
    channels, a seeded Ginibre qutrit, and a qubit whose two signals both
    couple the innocent eigenvectors, with edge phases 1 and i."""
    from pathlib import Path
    from cqcovert.channel import load_channel
    if kind == "ginibre_qutrit":
        return _ginibre_pair(3, 19)
    if kind == "two_phases":
        states = (diagonal_state([0.7, 0.3]),
                  make_density(np.array([[0.5, 0.2], [0.2, 0.5]])),
                  make_density(np.array([[0.4, 0.1j], [-0.1j, 0.6]])))
        return CqChannelPair(bob_states=states, willie_states=states)
    if kind.startswith("srl"):
        root = Path(__file__).resolve().parents[1]
        return load_channel(str(root / "perfbench" / "channels" / f"{kind}.json"))
    return _willie_party(kind)


class TestRealGauge:
    """A diagonal phase on the innocent eigenvectors commutes with the
    innocent product state, so where one makes a party's rotated states real
    the party is scored in float64 with the same numbers."""

    REAL = ["diagonal", "qubit", "qutrit", "flag", "ququart"]
    COMPLEX = ["srl_d2_k3", "srl_d3_k6", "ginibre_qutrit", "two_phases"]

    @pytest.mark.parametrize("kind", REAL + COMPLEX)
    def test_which_parties_go_real(self, kind):
        ch = _gauge_party(kind)
        for states in (ch.bob_states, ch.willie_states):
            basis = ProductBasis(states, 2)
            assert basis.real == (kind in self.REAL)
            dtype = np.float64 if basis.real else np.complex128
            assert basis.single_states.dtype == dtype
            assert basis.state.blocks[1][0].dtype == dtype

    @pytest.mark.parametrize("kind", REAL)
    def test_dropped_imaginary_parts_are_a_few_ulps(self, kind):
        ch = _gauge_party(kind)
        for states in (ch.bob_states, ch.willie_states):
            basis = ProductBasis(states, 1)
            u = basis.single_vectors
            assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), rtol=0, atol=1e-15)
            for mine, state in zip(basis.single_states, states):
                rotated = u.conj().T @ state.matrix @ u
                ulp = np.finfo(float).eps * np.linalg.norm(state.matrix, 2)
                assert np.max(np.abs(rotated - mine)) <= 4 * ulp
                off = ~np.eye(u.shape[0], dtype=bool)
                assert np.max(np.abs(np.abs(rotated[off]) - np.abs(mine[off]))) <= 4 * ulp

    @pytest.mark.parametrize("kind", REAL + ["srl_d2_k3", "two_phases"])
    def test_scores_match_the_dense_oracles(self, kind):
        ch = _gauge_party(kind)
        d = ch.bob_states[0].dim
        n = {2: 6, 3: 5, 4: 4}[d]
        ptilde = np.full(ch.alphabet_size - 1, 1.0 / (ch.alphabet_size - 1))
        cb = sample_codebook(ch, n=n, m_count=3, k_count=3, gamma=1.0, ptilde=ptilde, seed=n)
        bob, willie = ProductBasis(ch.bob_states, n), ProductBasis(ch.willie_states, n)
        assert bob.real == willie.real == (kind in self.REAL)
        for key in range(cb.k_count):
            decoder = build_srm_decoder(cb, ch, a=0.1, key=key, basis=bob)
            assert exact_pe_bob(cb, ch, decoder, key=key) == pytest.approx(
                dense_pe(decoder.elements, ch.bob_states, cb.codewords(key)), abs=1e-12)
        covert_d, pe_willie = covertness_report(cb, ch, willie)
        rho_bar = DensityOperator(dense_average(ch.willie_states, cb.symbols))
        innocent = DensityOperator(kron(*[ch.willie_states[0].matrix] * n))
        assert covert_d == pytest.approx(relative_entropy(rho_bar, innocent), abs=1e-12)
        assert pe_willie == pytest.approx(helstrom_error(rho_bar, innocent), abs=1e-12)
