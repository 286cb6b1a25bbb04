import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_mixture, diagonal_state, matrix_to_json, random_hermitian
from cqcovert.coding import ProductBasis, product_state
from cqcovert.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)
from cqcovert.operators import (
    DensityOperator,
    Partition,
    eigenvalue_clusters,
    ginibre_state,
    hermitian_part,
    kron_chain,
    kron_power,
    make_density,
    matrix_from_json,
    matrix_log,
    matrix_power,
    mixture,
    spectral_decomposition,
    support_projector,
)


class TestMakeDensity:
    def test_maximally_mixed(self):
        rho = make_density(np.eye(2) / 2)
        assert rho.dim == 2
        assert rho.rank == 2

    def test_diagonal_probabilities(self):
        rho = make_density(np.diag([0.9, 0.1]).astype(complex))
        assert rho.rank == 2

    def test_rank_cutoff_collapses_support(self):
        rho = make_density(np.diag([1.0, 1e-14]))
        assert rho.rank == 1

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            make_density(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            make_density(np.diag([1.5, -0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(TraceNotOne):
            make_density(np.diag([0.5, 0.4]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            make_density(np.ones((2, 3)))

    def test_matrix_is_frozen(self):
        rho = make_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0

    def test_psd_check_eigenvalues_are_kept_bit_for_bit(self, rng):
        # the PSD check's eigvalsh is cached as eigenvalues_only: it must be
        # what a fresh stacked eigvalsh of the state gives
        inputs = [np.eye(3) / 3, np.diag([0.5, 0.5, 0.0, 0.0]), np.diag([1.0, 1e-14])]
        inputs += [ginibre_state(dim, rng, rank=rank).matrix
                   for dim in range(1, 7) for rank in sorted({1, dim}) for _ in range(5)]
        for m in inputs:
            rho = make_density(m)
            assert "eigenvalues_only" in vars(rho)
            fresh = np.linalg.eigvalsh(rho.matrix[None])[0][::-1]
            assert rho.eigenvalues_only.tobytes() == fresh.tobytes()
            rebuilt = DensityOperator(rho.matrix).eigenvalues_only
            assert rho.eigenvalues_only.tobytes() == rebuilt.tobytes()


class TestMixture:
    def test_matches_the_term_by_term_sum(self, rng):
        for dim, k in ((2, 2), (3, 4), (4, 3)):
            states = [ginibre_state(dim, rng) for _ in range(k)]
            p = rng.dirichlet(np.ones(k))
            got = mixture(p, states)
            assert got.matrix.shape == (dim, dim)
            assert np.max(np.abs(got.matrix - dense_mixture(p, states).matrix)) <= 1e-15
            assert np.array_equal(got.matrix, got.matrix.conj().T)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2 ** 31))
def test_random_states_satisfy_type_invariants(dim, seed):
    rho = ginibre_state(dim, np.random.default_rng(seed))
    m = rho.matrix
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(m).min() >= -1e-10
    assert abs(np.trace(m).real - 1.0) <= 1e-10


class TestSpectrum:
    def test_reconstruction_and_unitarity(self, rng):
        for dim in (2, 3, 5):
            a = random_hermitian(dim, rng)
            spec = spectral_decomposition(a)
            assert np.all(np.diff(spec.eigenvalues) <= 1e-12)
            v = spec.eigenvectors
            assert np.linalg.norm((v * spec.eigenvalues) @ v.conj().T - a) <= 1e-9
            assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10

    def test_descending_order_with_ties(self, rng):
        # eigenvalues descend, tied ones in eigh's order reversed (a stable
        # descending sort of eigh's ascending output); the eigenvectors are
        # column-major and rebuild the matrix
        tied = [np.eye(3), np.diag([0.5, 0.5, 0.0, 0.0]),
                kron_power(diagonal_state([0.7, 0.3]), 3).matrix,
                kron_power(ginibre_state(2, rng), 3).matrix,
                ginibre_state(5, rng, rank=2).matrix]
        for a in tied:
            w, v = np.linalg.eigh(hermitian_part(np.asarray(a, dtype=complex)))
            order = np.argsort(w, kind="stable")[::-1]
            spec = spectral_decomposition(a)
            assert np.all(np.diff(spec.eigenvalues) <= 0)
            assert np.array_equal(spec.eigenvalues, w[order])
            assert np.array_equal(spec.eigenvectors, v[:, order])
            assert spec.eigenvectors.flags.f_contiguous
            v = spec.eigenvectors
            assert np.allclose((v * spec.eigenvalues) @ v.conj().T, a, atol=1e-12)



def _state_bytes(state):
    spec = state.spectrum
    assert spec.eigenvectors.flags.f_contiguous
    return (state.matrix.tobytes(), spec.eigenvalues.tobytes(),
            spec.eigenvectors.tobytes(), state.eigenvalues_only.tobytes())


class TestGinibreState:
    """``ginibre_state`` is the per-draw formula G G† / Tr, with its own
    ``eigh`` and ``eigvalsh``, bit for bit."""

    @pytest.mark.parametrize("dim, rank", [(2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
                                           (4, 2), (6, 1), (5, 3)])
    def test_state_is_the_formula_of_its_draw(self, dim, rank):
        seed = 100 + 10 * dim + rank
        draws = np.random.default_rng(seed).standard_normal((40, 2, dim, rank))
        rng = np.random.default_rng(seed)
        for x in draws:
            a = ginibre_state(dim, rng, rank=rank)
            g = x[0] + 1j * x[1]
            m = g @ g.conj().T
            m = hermitian_part(m / m.trace().real)
            w, v = np.linalg.eigh(hermitian_part(m))
            assert a.spectrum.eigenvectors.flags.f_contiguous
            assert a.matrix.tobytes() == m.tobytes()
            assert a.spectrum.eigenvalues.tobytes() == w[::-1].tobytes()
            assert a.spectrum.eigenvectors.tobytes() == v[:, ::-1].tobytes()
            assert a.eigenvalues_only.tobytes() == np.linalg.eigvalsh(m)[::-1].tobytes()
            assert a.rank == rank


class TestTensor:
    def test_pure_product(self):
        a = diagonal_state([1.0, 0.0])
        b = diagonal_state([0.0, 1.0])
        out = kron_chain([a.matrix, b.matrix])
        assert np.allclose(out, np.diag([0, 1, 0, 0]))

    def test_kron_power_identity_case(self):
        rho = diagonal_state([0.7, 0.3])
        assert np.array_equal(kron_power(rho, 1).matrix, rho.matrix)

    def test_kron_power_squared_oracle(self):
        # direct 4x4 multiplication oracle
        probs = [0.9, 0.1]
        expected = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                expected[2 * i + j, 2 * i + j] = probs[i] * probs[j]
        out = kron_power(diagonal_state(probs), 2)
        assert np.allclose(out.matrix, expected, atol=1e-15)

    def test_trace_preserved(self, rng):
        rho = ginibre_state(3, rng)
        assert abs(np.trace(kron_power(rho, 3).matrix).real - 1.0) <= 1e-9

    def test_kron_chain_matches_nested_kron(self, rng):
        a, b, c = (ginibre_state(d, rng).matrix for d in (2, 3, 2))
        assert np.array_equal(kron_chain([a, b, c]), np.kron(np.kron(a, b), c))
        assert np.array_equal(kron_chain([np.array([1.0, 2.0])] * 2), [1.0, 2.0, 2.0, 4.0])
        eight = [ginibre_state(2, rng).matrix for _ in range(8)]
        nested = eight[0]
        for f in eight[1:]:
            nested = np.kron(nested, f)
        assert np.array_equal(kron_chain(eight), nested)
        vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (3, 2, 4)]
        assert np.array_equal(kron_chain(vectors),
                              np.kron(np.kron(vectors[0], vectors[1]), vectors[2]))

    def test_kron_chain_of_stacks_multiplies_every_pair(self, rng):
        a = rng.standard_normal((3, 2, 2))
        b = rng.standard_normal((2, 3, 3))
        out = kron_chain([a, b])
        assert out.shape == (6, 6, 6)
        for i in range(3):
            for j in range(2):
                assert np.array_equal(out[2 * i + j], np.kron(a[i], b[j]))

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("CQCOVERT_DIM_CAP", "8")
        rho = diagonal_state([0.5, 0.5])
        kron_power(rho, 3)
        with pytest.raises(DimensionCapExceeded):
            kron_power(rho, 4)
        with pytest.raises(DimensionCapExceeded):
            kron_chain([kron_power(rho, 3).matrix, rho.matrix])
        states = (rho, diagonal_state([0.9, 0.1]))
        product_state(states, [0, 1, 1])
        ProductBasis([rho], 3)
        with pytest.raises(DimensionCapExceeded):
            product_state(states, [0, 1, 1, 0])
        with pytest.raises(DimensionCapExceeded):
            ProductBasis([rho], 4)

    def test_dimension_cap_message_stays_short(self):
        # 2^5000 is refused before anything is allocated, and named by its size
        with pytest.raises(DimensionCapExceeded,
                           match=r"dimension about 10\^1505\.1 exceeds cap") as caught:
            kron_chain([np.ones(2)] * 5000)
        assert len(str(caught.value)) < 80
        with pytest.raises(DimensionCapExceeded, match="dimension 32768 exceeds cap"):
            kron_chain([np.ones(2)] * 15)


class TestPartition:
    """Block-diagonal operators held as stacks of equal-size blocks."""

    def test_assemble_diagonal_and_restrict(self, rng):
        coarse = Partition(4, [np.array([[0], [3]]), np.array([[1, 2]])])
        stacks = (rng.standard_normal((2, 1, 1)), rng.standard_normal((1, 2, 2)))
        full = coarse.assemble(stacks)
        want = np.zeros((4, 4))
        want[0, 0], want[3, 3] = stacks[0][0, 0, 0], stacks[0][1, 0, 0]
        want[1:3, 1:3] = stacks[1][0]
        assert np.array_equal(full, want)
        assert np.array_equal(coarse.diagonal(stacks), np.diag(want))
        assert coarse.count == 3

    def test_block_operator_assembles_on_demand(self, rng):
        rho = ginibre_state(2, rng)
        parts = Partition(4, [np.array([[0, 1], [2, 3]])])
        stacks = (np.stack([0.5 * rho.matrix, 0.5 * rho.matrix]),)
        block = DensityOperator(blocks=(parts, stacks))
        assert "matrix" not in vars(block)
        assert np.array_equal(block.matrix, np.kron(np.diag([0.5, 0.5]), rho.matrix))
        assert block.dim == 4 and block.blocks[0] is parts


    def test_dense_operator_is_the_one_block_case(self, rng):
        rho = ginibre_state(3, rng)
        parts, (stack,) = rho.blocks
        assert rho.blocks is rho.blocks
        assert parts is Partition.whole(3) and stack.shape == (1, 3, 3)
        assert np.shares_memory(stack, rho.matrix) and not stack.flags.writeable
        assert np.array_equal(stack[0], rho.matrix)


class TestSupportProjector:
    def test_diagonal_support(self):
        rho = diagonal_state([0.5, 0.5, 0.0])
        assert np.allclose(support_projector(rho), np.diag([1, 1, 0]), atol=1e-12)

    def test_full_rank_gives_identity(self, rng):
        rho = ginibre_state(3, rng)
        assert np.allclose(support_projector(rho), np.eye(3), atol=1e-9)

    def test_pure_state_support_is_itself(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = v / np.linalg.norm(v)
        rho = make_density(np.outer(v, v.conj()))
        assert np.linalg.norm(support_projector(rho) - rho.matrix) <= 1e-9

    def test_captures_all_mass(self, rng):
        rho = ginibre_state(4, rng, rank=2)
        p = support_projector(rho)
        assert abs(np.trace(p @ rho.matrix).real - 1.0) <= 1e-9


class TestMatrixFunctions:
    def test_log_identity_is_zero(self):
        assert np.allclose(matrix_log(np.eye(3)), np.zeros((3, 3)), atol=1e-12)

    def test_pinv_convention(self):
        assert np.allclose(matrix_power(np.diag([2.0, 0.0]), -1.0), np.diag([0.5, 0.0]),
                           atol=1e-12)

    def test_sqrt_power(self):
        assert np.allclose(matrix_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-12)

    def test_state_reads_its_spectrum_bit_for_bit(self):
        # a state's cached spectrum is spectral_decomposition of its matrix,
        # so every matrix function of the state equals the ndarray path
        rng = np.random.default_rng(2024)
        states = [ginibre_state(dim, rng) for dim in range(2, 7)]
        states.append(ginibre_state(4, rng, rank=2))
        for state in states:
            a = state.matrix
            for c in (0.5, -0.5, 1.3, -1.0):
                assert np.array_equal(matrix_power(state.spectrum, c), matrix_power(a, c))
            assert np.array_equal(matrix_log(state.spectrum), matrix_log(a))

    def test_a_state_is_decomposed_once(self, monkeypatch):
        import cqcovert.operators as operators_mod
        from cqcovert.divergences import psi_functional

        # every eigendecomposition goes through spectral_decomposition:
        # count the matrices it is given
        seen = []
        real = operators_mod.spectral_decomposition

        def counting(a):
            seen.append(np.asarray(a).tobytes())
            return real(a)

        monkeypatch.setattr(operators_mod, "spectral_decomposition", counting)
        rng = np.random.default_rng(7)
        s1, s0 = ginibre_state(3, rng), ginibre_state(3, rng)
        for r in (0.0, 0.3, 0.9):
            psi_functional(s1, s0, r)
        assert sorted(seen) == sorted([s1.matrix.tobytes(), s0.matrix.tobytes()])

    def test_non_diagonal_log_exp_roundtrip(self, rng):
        rho = ginibre_state(4, rng)
        logm = matrix_log(rho.matrix)
        w, v = np.linalg.eigh(logm)
        back = (v * np.exp(w)) @ v.conj().T
        assert np.linalg.norm(back - rho.matrix) <= 1e-9


def test_eigenvalue_clusters_merges_near_ties():
    ids = eigenvalue_clusters(np.array([1.0, 1.0 + 1e-12, 0.5, 0.5 + 1e-3]))
    assert ids[0] == ids[1]
    assert ids[2] != ids[3]
    assert ids[0] != ids[2]


def test_eigenvalue_clusters_are_relative_below_one():
    ids = eigenvalue_clusters(np.array([1e-12, 2e-12, 0.0, 0.0, 1e-12 * (1 + 1e-12)]))
    assert ids[0] != ids[1]
    assert ids[2] == ids[3] != ids[0]
    assert ids[4] == ids[0]


@pytest.mark.parametrize("probs, n, count", [
    ([0.9, 0.1], 10, 11),
    ([0.9, 0.1], 12, 13),
    ([0.97, 0.03], 8, 9),
    ([1.0, 0.0], 4, 2),   # the exact zero products share one cluster
])
def test_product_basis_has_one_cluster_per_distinct_product(probs, n, count):
    assert len(ProductBasis([diagonal_state(probs)], n).clusters) == count


def test_product_basis_needs_a_positive_blocklength():
    for n in (0, -1):
        with pytest.raises(DimensionMismatch):
            ProductBasis([diagonal_state([0.9, 0.1])], n)


def test_matrix_json_roundtrip(rng):
    a = random_hermitian(3, rng)
    doc = matrix_to_json(a)
    assert doc["dim"] == 3
    assert np.allclose(matrix_from_json(doc), a)


def test_density_operator_direct_construction_freezes(rng):
    rho = DensityOperator(np.eye(2) / 2)
    assert rho.spectrum.eigenvalues[0] == pytest.approx(0.5)
