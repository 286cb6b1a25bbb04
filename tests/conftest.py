import functools

import numpy as np
import pytest

from cqcovert import CqChannelPair
from cqcovert.operators import (ZERO_EIGENVALUE_TOL, DensityOperator, eigenvalue_clusters,
                                ginibre_state, hermitian_part, make_density)


def diagonal_state(probs):
    """Density operator with the probability vector ``probs`` on the diagonal."""
    return make_density(np.diag(np.asarray(probs, dtype=complex)))


def matrix_to_json(a):
    """The wire document ``{"dim", "re", "im"}`` of a square matrix, as
    ``matrix_from_json`` reads it."""
    a = np.asarray(a, dtype=complex)
    return {"dim": int(a.shape[0]), "re": a.real.tolist(), "im": a.imag.tolist()}


def channel_to_json(channel):
    """The channel-file document of a pair, as ``load_channel`` reads it."""
    return {"bob": [matrix_to_json(s.matrix) for s in channel.bob_states],
            "willie": [matrix_to_json(s.matrix) for s in channel.willie_states]}


def codeword(codebook, m, k):
    """The symbols of codeword (m, k): row ``m * k_count + k``."""
    return codebook.symbols[m * codebook.k_count + k]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def willie_leak_channel():
    """Square-root-law channel whose symbol 2 leaks at Willie only (infinite D)."""
    return CqChannelPair(
        bob_states=(diagonal_state([0.9, 0.1]), diagonal_state([0.8, 0.2]),
                    diagonal_state([0.5, 0.5])),
        willie_states=(diagonal_state([0.9, 0.1, 0.0]), diagonal_state([0.6, 0.4, 0.0]),
                       diagonal_state([0.3, 0.3, 0.4])))


@pytest.fixture
def canonical_channel():
    """Binary qubit channel with identical diagonal Bob/Willie state pairs."""
    innocent = diagonal_state([0.9, 0.1])
    signal = diagonal_state([0.6, 0.4])
    return CqChannelPair(bob_states=(innocent, signal),
                         willie_states=(innocent, signal))


def kron(*factors):
    """Dense Kronecker product of matrices by nested ``np.kron``, leftmost
    factor first: an oracle that shares no code with the package's
    ``kron_chain``."""
    return functools.reduce(np.kron, factors)


def dense_pe(elements, states, rows):
    """Average decoding error ``(1/M) sum_m (1 - Tr{E_m rho_m})`` of full
    computational-basis ``elements`` against the codeword ``rows``, each
    ``rho_m`` the ``np.kron`` of its symbols' ``states`` and each trace
    ``np.trace``: a scoring oracle that shares no code with the package's
    ``exact_pe_bob``."""
    hits = [np.trace(e @ kron(*(states[x].matrix for x in row))).real
            for e, row in zip(elements, rows)]
    return float(np.mean(1.0 - np.asarray(hits)))


def dense_average(states, rows):
    """``(1/R) sum_r states[rows[r, 0]] (x) ... (x) states[rows[r, n-1]]``, the
    uniform mixture of the codeword rows' states summed row by row from
    ``np.kron``: an average-state oracle that shares no code with the
    package's ``willie_average_state``."""
    return hermitian_part(sum(kron(*(states[x].matrix for x in row)) for row in rows)
                          / len(rows))


def haar_unitary(dim, rng):
    """One Haar unitary from ``rng``: the QR factor of a complex Ginibre
    matrix (real part, then imaginary part, one ``(2, dim, dim)`` draw),
    its columns rephased by the signs of R's diagonal."""
    g = rng.standard_normal((2, dim, dim))
    q, r = np.linalg.qr(g[0] + 1j * g[1])
    phases = np.diagonal(r)
    return q * (phases / np.abs(phases))


def commuting_pair(dim, rng):
    """One random full-rank pair sharing a Haar eigenbasis: the two states
    and their spectra, each a Dirichlet draw floored at 0.1 and normalised."""
    u = haar_unitary(dim, rng)

    def spectrum():
        w = rng.dirichlet(np.ones(dim)) + 0.1
        return w / w.sum()

    wb, wc = spectrum(), spectrum()
    b, c = (DensityOperator(hermitian_part((u * w) @ u.conj().T)) for w in (wb, wc))
    return b, c, wb, wc


def pinching(a, b):
    """Dephase ``b`` in the eigenspaces of the Hermitian ``a``, eigenvalues
    merged into clusters by the package's ``eigenvalue_clusters``: a dense
    oracle for the cluster pinching of Bob's decoder."""
    w, v = np.linalg.eigh(a)
    ids = eigenvalue_clusters(w)
    return v @ ((v.conj().T @ b @ v) * (ids[:, None] == ids[None, :])) @ v.conj().T


def positive_projector(a, strict=True):
    """Projector onto the eigenspaces of the Hermitian ``a`` of eigenvalue
    above ``ZERO_EIGENVALUE_TOL`` (``strict``), else of eigenvalue at least
    ``-ZERO_EIGENVALUE_TOL``: a dense oracle for the positive-part
    projectors of Bob's decoder and for the Helstrom test."""
    w, v = np.linalg.eigh(hermitian_part(np.asarray(a, dtype=complex)))
    cols = v[:, w > ZERO_EIGENVALUE_TOL if strict else w >= -ZERO_EIGENVALUE_TOL]
    return cols @ cols.conj().T


def dense_mixture(weights, states):
    """``sum_x weights[x] states[x]`` as a state, summed term by term: a
    mixture oracle that shares no code with the package's ``mixture``."""
    return DensityOperator(sum(w * s.matrix for w, s in zip(weights, states)))


def classical_kl(p, q):
    """Scalar KL oracle over probability vectors (nats)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    live = p > 0
    return float(np.sum(p[live] * np.log(p[live] / q[live])))


def classical_chi2(p, q):
    """Scalar chi-squared oracle sum (p-q)^2/q over the support of q."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    live = q > 0
    return float(np.sum((p[live] - q[live]) ** 2 / q[live]))


def random_probs(dim, gen):
    v = gen.random(dim) + 1e-3
    return v / v.sum()


def diluted_ginibre_channel(seed, dim, k, willie_stronger, leak=False):
    """Seeded channel pair built from Ginibre states rho_0, ..., rho_k.

    Bob's and Willie's states for symbol x are rho_x diluted towards rho_0 by
    random amounts in [0.1, 0.6].  With ``willie_stronger`` Willie's states
    are not diluted, so every Willie divergence exceeds Bob's.  With ``leak``
    every state lives on the first dim - 1 levels (rank-deficient innocent
    states) and an extra symbol 2 is inserted whose full-rank Willie state
    leaks; its Bob state repeats symbol 1's.
    """
    gen = np.random.default_rng(seed)

    def embed(m):
        return np.pad(m, (0, 1)) if leak else m

    base = [embed(ginibre_state(dim - leak, gen).matrix) for _ in range(k + 1)]
    t_bob = gen.uniform(0.1, 0.6, k)
    t_willie = np.zeros(k) if willie_stronger else gen.uniform(0.1, 0.6, k)
    bob = [base[0]] + [(1 - t) * m + t * base[0] for t, m in zip(t_bob, base[1:])]
    willie = [base[0]] + [(1 - t) * m + t * base[0] for t, m in zip(t_willie, base[1:])]
    if leak:
        bob.insert(2, bob[1])
        willie.insert(2, ginibre_state(dim, gen).matrix)

    def states(matrices):
        return tuple(DensityOperator(hermitian_part(m)) for m in matrices)

    return CqChannelPair(bob_states=states(bob), willie_states=states(willie))


def optimize_ptilde_per_face(channel, objective, weight=0.5):
    """The optimiser's candidate search one face and one system at a time:
    every stationary point of ``min(a.p, b.p) / sqrt(p.Q.p / 2)`` on a face
    of the admissible simplex, plain system then the system bordered by
    ``w.p = 0``, with a singular system skipped where ``np.linalg.solve``
    raises, and the first best of the vertices and the feasible points.  A
    bit-for-bit oracle for the stacked solves of ``optimize_ptilde``, whose
    full input distribution it returns."""
    import itertools
    import math

    from cqcovert.scaling import admissible_symbols

    admissible = [x - 1 for x in admissible_symbols(channel)]
    summary = channel.summary
    d = summary.bob.divergences[admissible]
    w = summary.willie.divergences[admissible] - d
    q = summary.gram[np.ix_(admissible, admissible)]
    a, b = {"max-message": (d, d), "min-key": (np.zeros_like(w), -w),
            "tradeoff": (d, d - weight * w)}[objective]

    def value(p):
        chi2 = float(p @ q @ p)
        return min(a @ p, b @ p) / math.sqrt(chi2 / 2.0) if chi2 > 0.0 else -math.inf

    k = len(admissible)
    bordered = np.block([[q, w[:, None]], [w[None, :], np.zeros((1, 1))]])
    candidates = list(np.eye(k))
    for size in range(1, k + 1):
        for face in itertools.combinations(range(k), size):
            s = list(face)
            kkt = bordered[np.ix_(s + [k], s + [k])]
            for c in ((a,) if a is b else (a, b)):
                for matrix, rhs in ((kkt[:size, :size], c[s]), (kkt, np.append(c[s], 0.0))):
                    try:
                        z = np.linalg.solve(matrix, rhs)[:size]
                    except np.linalg.LinAlgError:
                        continue
                    if z.sum() != 0.0 and np.all(z / z.sum() >= 0.0):
                        p = np.zeros(k)
                        p[s] = z / z.sum()
                        candidates.append(p)
    best = candidates[int(np.argmax([value(p) for p in candidates]))]
    p_full = np.zeros(channel.alphabet_size - 1)
    p_full[admissible] = best
    return p_full
