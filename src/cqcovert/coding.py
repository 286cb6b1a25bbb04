"""Exact small-blocklength simulation of the random coding scheme.

Codebooks are sampled i.i.d. with a vanishing non-innocent symbol weight,
decoded with the square-root measurement built from pinched likelihood-ratio
projectors, and scored exactly: Bob's average error probability, the
covertness divergence of the average adversary state, and the optimal
detector error are all computed without sampling noise.  Trials are
independent tasks whose random streams derive from (master seed, blocklength,
trial index), so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import CqChannelPair, uniform_nontrivial_ptilde
from .divergences import (
    SUPPORT_TOL,
    helstrom_error,
    relative_entropy,
    validate_distribution,
)
from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    IndexMismatch,
    NoLeakage,
    ValidationError,
)
from .operators import (
    DEFAULT_RANK_TOL,
    DensityOperator,
    Spectrum,
    ZERO_EIGENVALUE_TOL,
    eigenvalue_clusters,
    hermitian_part,
    kron_chain,
)


def product_state(states: Sequence[DensityOperator], symbols: Sequence[int]) -> DensityOperator:
    """Tensor product state of per-use outputs, channel use 1 leftmost."""
    return DensityOperator(kron_chain([states[x].matrix for x in symbols]),
                           rank_tolerance=states[0].rank_tolerance)


@dataclass(frozen=True)
class Codebook:
    """Random codebook over the channel alphabet.

    ``symbols[m * k_count + k]`` is the n-symbol codeword for message m under
    key k (both 0-based).  Regeneration from the stored parameters is
    bit-exact.
    """

    n: int
    m_count: int
    k_count: int
    gamma: float
    seed: int
    ptilde: np.ndarray
    symbols: np.ndarray

    @property
    def alpha(self) -> float:
        return self.gamma / math.sqrt(self.n)

    def codeword(self, m: int, k: int) -> np.ndarray:
        return self.symbols[m * self.k_count + k]

    def codewords(self, k: int) -> np.ndarray:
        """The M codewords under key k, in message order."""
        return self.symbols[k::self.k_count]


def sample_codebook(channel: CqChannelPair, n: int, m_count: int, k_count: int,
                    gamma: float, ptilde, seed: int) -> Codebook:
    """Sample a codebook with i.i.d. symbols.

    Each symbol is innocent with probability ``1 - gamma/sqrt(n)`` and
    otherwise a non-innocent symbol drawn from ``ptilde``.  Deterministic
    given ``seed``.
    """
    if n < 1 or m_count < 1 or k_count < 1:
        raise ValidationError(f"need n, M, K >= 1, got {(n, m_count, k_count)}")
    p = validate_distribution(ptilde)
    if p.size != channel.alphabet_size - 1:
        raise ValidationError(f"ptilde has {p.size} entries for "
                              f"{channel.alphabet_size - 1} non-innocent symbols")
    alpha = gamma / math.sqrt(n)
    if not 0.0 <= alpha < 1.0:
        raise AlphaOutOfRange(f"gamma/sqrt(n) = {alpha!r} outside [0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    rows = m_count * k_count
    send = rng.random((rows, n)) < alpha
    draws = rng.random((rows, n))
    cum = np.cumsum(p)
    picks = np.minimum(np.searchsorted(cum, draws, side="right"), p.size - 1) + 1
    symbols = np.where(send, picks, 0).astype(np.int64)
    symbols.flags.writeable = False
    return Codebook(n=n, m_count=m_count, k_count=k_count, gamma=float(gamma),
                    seed=int(seed), ptilde=p, symbols=symbols)


class ProductBasis:
    """Eigenstructure of the n-fold power of a single-use state.

    The eigenbasis of ``state^(x) n`` is the Kronecker power of the
    single-use eigenbasis and its eigenvalues are products of single-use
    eigenvalues; near-degenerate products are merged into pinching clusters.
    Shared across trials at a fixed blocklength.
    """

    def __init__(self, state: DensityOperator, n: int):
        if n < 1:
            raise DimensionMismatch(f"product basis requires n >= 1, got {n}")
        spec = state.spectrum
        single = np.where(spec.eigenvalues > state.rank_tolerance, spec.eigenvalues, 0.0)
        self.n = n
        self.single_state = state
        self.single_vectors = spec.eigenvectors
        self.eigenvalues = kron_chain([single] * n)
        ids = eigenvalue_clusters(self.eigenvalues)
        self.clusters = [np.flatnonzero(ids == c) for c in range(ids.max() + 1)]

    def require(self, state: DensityOperator, n: int, party: str) -> None:
        """Raise ``IndexMismatch`` unless this is the basis of ``state`` at blocklength n."""
        same = (self.single_state is state
                or np.array_equal(self.single_state.matrix, state.matrix))
        if self.n != n or not same:
            raise IndexMismatch(f"basis is not the product eigenbasis of {party}'s "
                                f"innocent state at n={n}")

    @cached_property
    def state(self) -> DensityOperator:
        """The n-fold state in this basis: diagonal, with its spectrum read off
        the product eigenvalues instead of an eigensolve."""
        block = DensityOperator(np.diag(self.eigenvalues),
                                rank_tolerance=self.single_state.rank_tolerance)
        order = np.argsort(-self.eigenvalues, kind="stable")
        # what DensityOperator.spectrum (a cached_property) would cache
        vars(block)["spectrum"] = Spectrum(eigenvalues=self.eigenvalues[order],
                                           eigenvectors=np.eye(self.eigenvalues.size)[:, order],
                                           permutation=order)
        return block

    def rotated_block(self, states: Sequence[DensityOperator],
                      symbols: Sequence[int]) -> np.ndarray:
        """Product block state expressed in the rotated basis (O(dim^2))."""
        u = self.single_vectors
        return kron_chain([u.conj().T @ states[x].matrix @ u for x in symbols])

    def to_original_basis(self, rotated: np.ndarray) -> np.ndarray:
        """Conjugate back to the computational basis: (u^(x) n) rotated
        (u^(x) n)^dagger.  Trial scoring never needs it."""
        u = kron_chain([self.single_vectors] * self.n)
        return u @ rotated @ u.conj().T


def _block(states: Sequence[DensityOperator], symbols: Sequence[int],
           basis: ProductBasis | None) -> np.ndarray:
    """Product block state of a codeword, in ``basis`` or, when it is None,
    in the computational basis."""
    if basis is None:
        return product_state(states, symbols).matrix
    return basis.rotated_block(states, symbols)


def _cluster_blocks(states: Sequence[DensityOperator], rows: np.ndarray,
                    basis: ProductBasis | None, clusters) -> tuple:
    """Per codeword row, the diagonal blocks of its product state over
    ``clusters``: ``out[m][b]`` is row m's state on ``clusters[b]``.  Each
    row's state is built once."""
    return tuple(tuple(full[np.ix_(idx, idx)] for idx in clusters)
                 for full in (_block(states, row, basis) for row in rows))


class DecoderPovm:
    """Sub-POVM decoder: per-message elements plus an implicit failure element.

    Every element is block-diagonal over ``clusters``, index sets that
    partition the space, and is held as its blocks: ``blocks[m][b]`` is
    element m on ``clusters[b]``.  ``build_srm_decoder`` gives blocks over
    the pinching clusters of its product eigenbasis ``basis``, written in
    that basis.  A decoder given by full ``elements`` (written in ``basis``,
    or in the computational basis when it is None) is the one-cluster case.
    The full matrices ``elements`` are assembled only when asked for.

    ``source`` is ``(states, rows, blocks)``: the single-use states and the
    codeword rows the decoder was built for, with ``_cluster_blocks`` of
    them, so scoring the same codewords reuses them.
    """

    def __init__(self, elements: Sequence[np.ndarray] | None = None,
                 basis: ProductBasis | None = None, *,
                 blocks: tuple | None = None, source: tuple | None = None):
        if blocks is None:
            vars(self)["elements"] = tuple(elements)
            blocks = tuple((e,) for e in self.elements)
            self.clusters = [np.arange(self.elements[0].shape[0])]
        else:
            self.clusters = basis.clusters
        self.blocks = blocks
        self.basis = basis
        self.source = source

    @property
    def dim(self) -> int:
        return sum(idx.size for idx in self.clusters)

    @cached_property
    def elements(self) -> tuple[np.ndarray, ...]:
        """The elements as full matrices, zero off the cluster blocks."""
        out = []
        for element in self.blocks:
            full = np.zeros((self.dim, self.dim), dtype=complex)
            for idx, block in zip(self.clusters, element):
                full[np.ix_(idx, idx)] = block
            out.append(full)
        return tuple(out)

    def codeword_blocks(self, states: Sequence[DensityOperator], rows: np.ndarray) -> tuple:
        """``_cluster_blocks`` of the codeword ``rows`` in this decoder's basis."""
        if self.source is not None:
            built_states, built_rows, blocks = self.source
            if built_states is states and np.array_equal(built_rows, rows):
                return blocks
        return _cluster_blocks(states, rows, self.basis, self.clusters)

    def validate(self, tol: float = 1e-8) -> None:
        """Check PSD elements and sum bounded by identity within ``tol``,
        cluster block by cluster block."""
        for b in range(len(self.clusters)):
            stack = np.stack([element[b] for element in self.blocks])
            lowest = np.linalg.eigvalsh(stack).min(axis=1)
            if lowest.min() < -tol:
                i = int(np.argmax(lowest < -tol))
                raise ValidationError(f"decoder element {i} not PSD within {tol:.0e}")
            excess = np.linalg.eigvalsh(stack.sum(axis=0)).max() - 1.0
            if excess > tol:
                raise ValidationError(f"decoder sum exceeds identity by {excess:.3e}")


def build_srm_decoder(codebook: Codebook, channel: CqChannelPair, a: float,
                      key: int = 0, basis: ProductBasis | None = None) -> DecoderPovm:
    """Square-root-measurement decoder for the given key.

    Per-message projectors keep the strictly positive eigenspaces of the
    pinched codeword state minus ``e^a`` times the innocent block state; the
    elements are the projectors normalized symmetrically by the pseudo
    inverse square root of their sum, which yields a valid sub-POVM.

    Everything after the pinching is block-diagonal over the innocent
    state's eigenvalue clusters, so each codeword state is built once in the
    rotated basis, cut into its cluster blocks, and the spectral work and
    the returned elements stay in those blocks (``DecoderPovm.blocks``, in
    the basis ``DecoderPovm.basis``).
    """
    if a < 0:
        raise ValidationError(f"threshold exponent a must be >= 0, got {a}")
    if not 0 <= key < codebook.k_count:
        raise IndexMismatch(f"key {key} outside 0..{codebook.k_count - 1}")
    if basis is None:
        basis = ProductBasis(channel.bob_states[0], codebook.n)
    else:
        basis.require(channel.bob_states[0], codebook.n, "Bob")
    threshold = math.exp(a) * basis.eigenvalues
    rows = codebook.codewords(key)
    sigma = _cluster_blocks(channel.bob_states, rows, basis, basis.clusters)

    per_cluster = []
    for b, idx in enumerate(basis.clusters):
        shift = np.diag(threshold[idx])
        w, v = np.linalg.eigh(np.stack([hermitian_part(s[b] - shift) for s in sigma]))
        keep = [vm[:, wm > ZERO_EIGENVALUE_TOL] for wm, vm in zip(w, v)]
        projectors = [k @ k.conj().T for k in keep]
        w, v = np.linalg.eigh(hermitian_part(sum(projectors)))
        inv_sqrt_w = np.where(w > DEFAULT_RANK_TOL, w, np.inf) ** -0.5
        norm = (v * inv_sqrt_w) @ v.conj().T
        per_cluster.append([hermitian_part(norm @ p @ norm) for p in projectors])
    return DecoderPovm(blocks=tuple(zip(*per_cluster)), basis=basis,
                       source=(channel.bob_states, rows, sigma))


def exact_pe_bob(codebook: Codebook, channel: CqChannelPair,
                 decoder: DecoderPovm, key: int = 0) -> float:
    """Exact average decoding error (1/M) sum_m (1 - Tr{element_m state_m}),
    with each trace summed over the decoder's cluster blocks,
    ``Tr{E_m sigma_m} = sum_b Tr{E_m^b sigma_m^b}``."""
    if len(decoder.blocks) != codebook.m_count:
        raise IndexMismatch(f"decoder has {len(decoder.blocks)} elements "
                            f"for {codebook.m_count} messages")
    if not 0 <= key < codebook.k_count:
        raise IndexMismatch(f"key {key} outside 0..{codebook.k_count - 1}")
    sigma = decoder.codeword_blocks(channel.bob_states, codebook.codewords(key))
    total = 0.0
    for element, state in zip(decoder.blocks, sigma):
        total += 1.0 - sum(float(np.sum(e * s.T).real) for e, s in zip(element, state))
    return min(max(total / codebook.m_count, 0.0), 1.0)


def willie_average_state(codebook: Codebook, channel: CqChannelPair,
                         basis: ProductBasis | None = None) -> DensityOperator:
    """Uniform mixture of the adversary's codeword block states, written in
    ``basis`` or, when it is None, in the computational basis.  Each distinct
    codeword row is built once and weighted by its multiplicity, in the order
    of first occurrence."""
    if basis is not None:
        basis.require(channel.willie_states[0], codebook.n, "Willie")
    rows = codebook.symbols
    _, first, counts = np.unique(rows, axis=0, return_index=True, return_counts=True)
    order = np.argsort(first)
    acc = None
    for i, c in zip(first[order], counts[order]):
        term = _block(channel.willie_states, rows[i], basis)
        term = term if c == 1 else c * term
        if acc is None:
            acc = np.array(term)  # a copy: the block may be read-only
        else:
            acc += term
    acc /= len(rows)
    return DensityOperator(hermitian_part(acc),
                           rank_tolerance=channel.willie_states[0].rank_tolerance)


def covertness_report(codebook: Codebook, channel: CqChannelPair,
                      basis: ProductBasis | None = None) -> tuple[float, float]:
    """Exact covertness divergence (nats) and optimal detector error.

    Compares the average adversary state against the innocent block state,
    both written in ``basis``: the product eigenbasis of the adversary's
    innocent state, built here when None and shared across trials otherwise.
    """
    if basis is None:
        basis = ProductBasis(channel.willie_states[0], codebook.n)
    rho_bar = willie_average_state(codebook, channel, basis)
    return relative_entropy(rho_bar, basis.state), helstrom_error(rho_bar, basis.state)


@dataclass(frozen=True)
class TrialReport:
    """Exact scores of one sampled code."""

    n: int
    gamma: float
    seed: int
    m_count: int
    k_count: int
    log_m_raw: float
    log_k_raw: float
    pe_bob: float
    covert_d: float
    pe_willie: float
    note: str = ""

    @property
    def log_m_nats(self) -> float:
        return math.log(self.m_count)

    @property
    def log_k_nats(self) -> float:
        return math.log(self.k_count)

    def to_json(self) -> dict:
        return {
            "n": self.n, "gamma": self.gamma, "seed": self.seed,
            "m_count": self.m_count, "k_count": self.k_count,
            "log_m_nats": self.log_m_nats, "log_k_nats": self.log_k_nats,
            "log_m_raw": self.log_m_raw, "log_k_raw": self.log_k_raw,
            "pe_bob": self.pe_bob, "covert_d_nats": self.covert_d,
            "pe_willie": self.pe_willie, "note": self.note,
        }


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for a deterministic experiment sweep.

    Message and key counts follow the achievability formulas (rounded up to
    integers >= 1) unless overridden; ``epsilon_target`` defaults to the
    quadratic covertness prediction ``gamma^2 chi^2 / 2`` of the channel.
    """

    channel: CqChannelPair
    n_list: tuple[int, ...]
    gamma: float
    varsigma: float = 0.1
    mu: float = 0.1
    nu: float = 0.1
    trials: int = 1
    seed: int = 0
    ptilde: np.ndarray | None = None
    m_override: int | None = None
    k_override: int | None = None
    delta_target: float = 0.1
    epsilon_target: float | None = None
    workers: int = 1

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from its JSON document (channel given as a path)."""
        from .channel import load_channel
        try:
            channel = load_channel(doc["channel"])
            n_list = tuple(int(n) for n in doc["n"])
            gamma = float(doc["gamma"])
        except KeyError as exc:
            raise ValidationError(f"experiment config missing key {exc}") from exc
        ptilde = doc.get("ptilde")
        return cls(
            channel=channel, n_list=n_list, gamma=gamma,
            varsigma=float(doc.get("varsigma", 0.1)),
            mu=float(doc.get("mu", 0.1)),
            nu=float(doc.get("nu", 0.1)),
            trials=int(doc.get("trials", 1)),
            seed=int(doc.get("seed", 0)),
            ptilde=None if ptilde is None else np.asarray(ptilde, dtype=float),
            delta_target=float(doc.get("delta", 0.1)),
            epsilon_target=(None if doc.get("epsilon") is None
                            else float(doc["epsilon"])),
            workers=int(doc.get("workers", 1)))


def code_sizes(channel: CqChannelPair, ptilde, n: int, gamma: float,
               varsigma: float) -> tuple[int, int, float, float]:
    """Message/key counts from the achievable scaling.

    Returns ``(M, K, log_m_raw, log_k_raw)`` with the raw nat-valued sizes
    ``log M = (1 - varsigma) gamma sqrt(n) sum ptilde(x) D(bob_x || bob_0)``
    and ``log K = gamma sqrt(n) [(1 + varsigma) D_willie -
    (1 - varsigma) D_bob]^+`` rounded up to counts >= 1.
    """
    p = validate_distribution(ptilde)
    summary = channel.summary
    d_bob = summary.weighted(p, summary.bob.divergences)
    d_willie = summary.weighted(p, summary.willie.divergences)
    if not (math.isfinite(d_bob) and math.isfinite(d_willie)):
        raise ValidationError("code sizing needs finite divergences: "
                              "supports must be contained for weighted symbols")
    root = gamma * math.sqrt(n)
    log_m_raw = (1.0 - varsigma) * root * d_bob
    log_k_raw = root * max(0.0, (1.0 + varsigma) * d_willie - (1.0 - varsigma) * d_bob)
    m = max(1, math.ceil(math.exp(log_m_raw) - 1e-12))
    k = max(1, math.ceil(math.exp(log_k_raw) - 1e-12))
    return m, k, log_m_raw, log_k_raw


def _trial_seed(master: int, n: int, trial: int) -> int:
    return int(np.random.SeedSequence((master, n, trial)).generate_state(
        1, dtype=np.uint64)[0])


def run_experiment(config: ExperimentConfig) -> list[TrialReport]:
    """Run all (n, trial) cells of the sweep and return reports in order.

    Deterministic given the config: per-trial randomness derives from
    (seed, n, trial index) only, so the worker count never changes results.
    """
    channel = config.channel
    p = (uniform_nontrivial_ptilde(channel) if config.ptilde is None
         else validate_distribution(config.ptilde))

    tasks = []
    for n in config.n_list:
        bob_basis = ProductBasis(channel.bob_states[0], n)
        willie_basis = ProductBasis(channel.willie_states[0], n)
        m, k, log_m_raw, log_k_raw = code_sizes(channel, p, n, config.gamma,
                                                config.varsigma)
        if config.m_override is not None:
            m = config.m_override
        if config.k_override is not None:
            k = config.k_override
        a = ((1.0 - config.nu) * (1.0 - config.mu) * config.gamma * math.sqrt(n)
             * channel.summary.weighted(p, channel.summary.bob.divergences))
        note = "gamma=0: no signaling" if config.gamma == 0 else ""
        for t in range(config.trials):
            tasks.append((n, m, k, log_m_raw, log_k_raw, a, bob_basis,
                          willie_basis, _trial_seed(config.seed, n, t), note))

    def run_one(task) -> TrialReport:
        n, m, k, log_m_raw, log_k_raw, a, bob_basis, willie_basis, seed, note = task
        codebook = sample_codebook(channel, n, m, k, config.gamma, p, seed)
        pe_values = []
        for key in range(k):
            decoder = build_srm_decoder(codebook, channel, a, key=key, basis=bob_basis)
            pe_values.append(exact_pe_bob(codebook, channel, decoder, key=key))
        covert_d, pe_willie = covertness_report(codebook, channel, willie_basis)
        return TrialReport(n=n, gamma=config.gamma, seed=seed, m_count=m, k_count=k,
                           log_m_raw=log_m_raw, log_k_raw=log_k_raw,
                           pe_bob=float(np.mean(pe_values)), covert_d=covert_d,
                           pe_willie=pe_willie, note=note)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(run_one, tasks))
    return [run_one(t) for t in tasks]


def select_best(reports: Sequence[TrialReport], delta_target: float,
                epsilon_target: float) -> TrialReport:
    """Code with the smallest normalized worst criterion.

    Minimizes ``max(pe_bob / delta_target, covert_d / epsilon_target)``; ties
    break towards the earliest report.  Against a zero target a zero
    criterion scores 0 and a positive one inf.
    """
    if not reports:
        raise ValidationError("select_best needs at least one report")

    def ratio(value: float, target: float) -> float:
        if target == 0:
            return 0.0 if value == 0 else math.inf
        return value / target

    def score(r: TrialReport) -> float:
        if not math.isfinite(r.covert_d):
            return math.inf
        return max(ratio(r.pe_bob, delta_target), ratio(r.covert_d, epsilon_target))

    best = min(range(len(reports)), key=lambda i: (score(reports[i]), i))
    return reports[best]


def default_epsilon_target(channel: CqChannelPair, ptilde, gamma: float) -> float:
    """Quadratic covertness prediction gamma^2 chi^2(avg non-innocent || innocent) / 2."""
    return gamma ** 2 * channel.summary.chi2(validate_distribution(ptilde)) / 2.0


@dataclass(frozen=True)
class NogoReport:
    """Impossibility experiment outcome.

    ``pe_willie`` is the exact error of the innocent-support projector
    detector; ``bob_bound`` the closed-form reliability floor
    ``max(0, 1/4 - sqrt(epsilon / c_min))``; ``pair_bound`` the explicit
    paired-codeword fidelity bound over the admissible codeword set.
    """

    epsilon: float
    pe_willie: float
    c_min: float
    bob_bound: float
    admissible_fraction: float
    pair_bound: float

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon, "pe_willie": self.pe_willie,
            "c_min": self.c_min, "bob_bound": self.bob_bound,
            "admissible_fraction": self.admissible_fraction,
            "pair_bound": self.pair_bound,
        }


def nogo_experiment(channel: CqChannelPair, codebook: Codebook,
                    epsilon: float) -> NogoReport:
    """Detection/reliability trade-off when every adversary state leaks.

    Requires every non-innocent adversary state to have support outside the
    innocent support, and pure receiver states so codeword blocks are pure.
    The adversary measures the projector onto the innocent block support; his
    exact error and the leakage constant ``c_min`` then feed the fidelity
    lower bound on the receiver's error.
    """
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    inside_willie = channel.summary.willie.inside
    for x in channel.non_innocent:
        if 1.0 - inside_willie[x] <= SUPPORT_TOL:
            raise NoLeakage(f"willie[{x}] support is contained in the innocent support")
    for x in range(channel.alphabet_size):
        if channel.bob_states[x].rank != 1:
            raise ValidationError(f"bob[{x}] must be pure for the fidelity bound")

    sigma0 = channel.bob_states[0].matrix
    overlap_bob = np.array([
        float(np.trace(sigma0 @ channel.bob_states[x].matrix).real)
        for x in range(channel.alphabet_size)])

    rows = codebook.symbols
    detect = np.prod(inside_willie[rows], axis=1)   # Tr{P0^n block_m}
    fidelity = np.prod(np.clip(overlap_bob[rows], 0.0, 1.0), axis=1)
    pe_willie = float(np.mean(detect)) / 2.0

    signaling = fidelity < 1.0 - 1e-12
    if not np.any(signaling):
        raise ValidationError("every codeword is innocent; leakage constant undefined")
    c_values = (1.0 - detect[signaling]) / (1.0 - fidelity[signaling])
    c_min = float(np.min(c_values))

    bob_bound = max(0.0, 0.25 - math.sqrt(epsilon / c_min))

    admissible = np.flatnonzero(1.0 - fidelity <= 4.0 * epsilon / c_min)
    pair_total = 0.0
    for i in range(0, len(admissible) - 1, 2):
        f_left = fidelity[admissible[i]]
        f_right = fidelity[admissible[i + 1]]
        per_pair = (1.0 - math.sqrt(1.0 - f_left) - math.sqrt(1.0 - f_right)) / 2.0
        pair_total += 2.0 * max(0.0, per_pair)
    rows_total = codebook.m_count * codebook.k_count
    return NogoReport(epsilon=float(epsilon), pe_willie=pe_willie, c_min=c_min,
                      bob_bound=bob_bound,
                      admissible_fraction=len(admissible) / rows_total,
                      pair_bound=pair_total / rows_total)
