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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .channel import CqChannelPair, ScenarioClass, checked_ptilde, require_regime
from .divergences import helstrom_error, relative_entropy
from .errors import (
    AlphaOutOfRange,
    DimensionMismatch,
    IndexMismatch,
    InvalidParameter,
    ValidationError,
)
from .operators import (
    RANK_TOL,
    DensityOperator,
    Partition,
    Spectrum,
    ZERO_EIGENVALUE_TOL,
    dagger,
    eigenvalue_clusters,
    hermitian_part,
    kron_chain,
    spectral_decomposition,
)


KEY_CHUNK = 16  # keys whose decoders run_experiment builds and scores together
SLICE_ENTRIES = 2 ** 15  # most block entries one stacked decoder call gathers (at least one key's)
PIECE_SPREAD = 2 ** 40  # moves a block entry across two pieces out of any store
COUNT_ROUNDING_TOL = 1e-12  # subtracted before a code size is rounded up to a count
INNOCENT_FIDELITY_TOL = 1e-12  # a codeword of fidelity at least 1 - this does not signal
NOGO_GRID = (64.0, 32.0, 16.0, 8.0)  # nogo_experiment's default levels, c_min / f for each f
DECODER_TOL = 1e-8  # most negative element eigenvalue, and largest excess of the sum over I


def product_state(states: Sequence[DensityOperator], symbols: Sequence[int]) -> DensityOperator:
    """Tensor product state of per-use outputs, channel use 1 leftmost."""
    return DensityOperator(kron_chain([states[x].matrix for x in symbols]))


@dataclass(frozen=True)
class Codebook:
    """Random codebook over the channel alphabet.

    ``symbols[m * k_count + k]`` is the n-symbol codeword for message m under
    key k (both 0-based).
    """

    n: int
    m_count: int
    k_count: int
    symbols: np.ndarray

    def codewords(self, k: int) -> np.ndarray:
        """The M codewords under key k, in message order."""
        return self.symbols[k::self.k_count]

    @cached_property
    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, counts)``: the distinct codeword rows in lexicographic
        order and their multiplicities."""
        return np.unique(self.symbols, axis=0, return_counts=True)

    @cached_property
    def type_count(self) -> int:
        """Number of distinct symbol types (sorted rows) over all keys."""
        return len(set(map(tuple, np.sort(self.symbols, axis=1).tolist())))


def sample_codebook(channel: CqChannelPair, n: int, m_count: int, k_count: int,
                    gamma: float, ptilde, seed: int) -> Codebook:
    """Sample a codebook with i.i.d. symbols.

    Each symbol is innocent with probability ``1 - gamma/sqrt(n)`` and
    otherwise a non-innocent symbol drawn from ``ptilde``
    (``checked_ptilde``).  Deterministic given ``seed``.
    """
    if n < 1 or m_count < 1 or k_count < 1:
        raise ValidationError(f"need n, M, K >= 1, got {(n, m_count, k_count)}")
    p = checked_ptilde(channel, ptilde)
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
    return Codebook(n=n, m_count=m_count, k_count=k_count, symbols=symbols)


def _real_gauge(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(phases, real)`` for the (X, s, s) stack of one component's rotated
    signal ``blocks``: ``real`` is ``diag(phases)^dagger block diag(phases)``
    for each block, built exactly in float64, or None where this rule finds
    no such phases.  Blocks whose imaginary parts are all exactly zero need
    none.  Otherwise the entries off the diagonal that are not exactly zero
    (a symmetric pattern) must form a forest whose every edge is carried by
    one block; phases along each tree, from its lowest level, turn each
    edge's upper entry b into |b|.  ``real`` keeps the blocks' real
    diagonals, |b| on the edges and exact zeros elsewhere."""
    size = blocks.shape[-1]
    if not blocks.imag.any():
        return np.ones(size), blocks.real
    nonzero = blocks != 0
    carriers = np.triu(nonzero.sum(axis=0), 1)
    if np.any(nonzero != nonzero.swapaxes(-1, -2)) or carriers.max() > 1:
        return None
    edges = np.argwhere(carriers == 1).tolist()
    carrier = {(i, k): int(np.argmax(nonzero[:, i, k])) for i, k in edges}
    phases = np.zeros(size, dtype=complex)
    trees = 0
    for root in range(size):
        if phases[root] != 0:
            continue
        trees += 1
        phases[root], frontier = 1.0, [root]
        while frontier:
            j = frontier.pop()
            for i, k in edges:
                other = i + k - j
                if j in (i, k) and phases[other] == 0:
                    b = blocks[carrier[i, k], i, k]
                    phases[other] = phases[j] * (b.conjugate() if j == i else b) / abs(b)
                    frontier.append(other)
    if len(edges) != size - trees:  # a cycle
        return None
    real = np.zeros(blocks.shape)
    diag = np.arange(size)
    real[:, diag, diag] = blocks[:, diag, diag].real
    for (i, k), x in carrier.items():
        real[x, i, k] = real[x, k, i] = abs(blocks[x, i, k])
    return phases, real


@lru_cache(maxsize=64)
def _single_use_basis(states: tuple[DensityOperator, ...]) -> tuple:
    """Components, eigenbasis and rotated signals of a party's single-use
    ``states``, innocent state first: ``(sizes, vectors, eigenvalues,
    signals)``.

    The components, of ``sizes[c]`` levels in order of their lowest levels,
    are those of the union of the states' nonzero patterns, where an entry
    couples two levels iff it is not exactly zero (no tolerance).  The
    innocent state is eigendecomposed component by component: ``vectors``
    (in the computational basis) lists each component's eigenvectors in
    turn, with descending eigenvalues.  ``signals`` stacks the other states
    in that basis, ``u^dagger rho_x u``.  When ``_real_gauge`` finds phases
    for every component, ``vectors`` carry them and ``signals`` is the real
    stack it builds: a diagonal phase commutes with the innocent state, so
    nothing the party is scored on changes.  Cached, so a party's
    single-use work is done once however many blocklengths use it.
    """
    coupled = np.logical_or.reduce([s.matrix != 0 for s in states])
    label = np.arange(coupled.shape[0])
    while True:  # each level takes the lowest label among its neighbours
        lowest = np.minimum(label, np.where(coupled, label, label.size).min(axis=1))
        if np.array_equal(lowest, label):
            break
        label = lowest
    label = np.unique(label, return_inverse=True)[1]
    sizes = np.bincount(label)
    levels = np.argsort(label, kind="stable")
    vectors = np.zeros((label.size, label.size), dtype=complex)
    eigenvalues = np.empty(label.size)
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        comp = levels[start:start + size]
        spec = spectral_decomposition(states[0].matrix[np.ix_(comp, comp)])
        vectors[comp, start:start + size] = spec.eigenvectors
        eigenvalues[start:start + size] = spec.eigenvalues
    signals = np.zeros((len(states) - 1,) + vectors.shape, dtype=complex)
    for x, s in enumerate(states[1:]):
        signals[x] = vectors.conj().T @ s.matrix @ vectors
    phases, real = np.ones(label.size, dtype=complex), np.zeros(signals.shape)
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        window = slice(start, start + size)
        gauge = _real_gauge(signals[:, window, window])
        if gauge is None:
            break
        phases[window], real[:, window, window] = gauge
    else:
        vectors, signals = vectors * phases, real
    for array in (sizes, vectors, eigenvalues, signals):
        array.flags.writeable = False
    return sizes, vectors, eigenvalues, signals


@lru_cache(maxsize=64)
def _component_strings(sizes: tuple[int, ...], n: int) -> tuple:
    """Block structure of the n-fold power of a single-use eigenbasis listing
    components of ``sizes`` in turn, cached: ``(within, groups, row, col)``.
    ``within`` marks the single-use entries inside a component, ``groups``
    the component strings by block size, then string.  Entry (i, j) of a
    product state, i and j in one string, is entry ``row[i] + col[j]`` of
    the Kronecker product of its symbols' ``within`` entries, row by row."""
    comp = np.repeat(np.arange(len(sizes)), sizes)
    within = comp[:, None] == comp[None, :]
    count = within.sum(axis=1)  # the size of each position's component
    e = int(count.sum())
    # per index, folded digit by digit: component string, block size, row and column numbers
    scale = np.stack(np.broadcast_arrays(len(sizes), count, e, e))
    shift = np.stack([comp, 0 * count, np.cumsum(count) - count, np.tril(within, -1).sum(1)])
    fold = np.array([[0], [1], [0], [0]])
    for _ in range(n):
        fold = (fold[:, :, None] * scale[:, None] + shift[:, None]).reshape(4, -1)
    code, size = fold[:2]
    row, col = fold[2:].astype(np.int32 if e ** n < 2 ** 31 else np.intp)
    # sorted by block size and component string, a size's indices fill its sets in turn
    order = np.lexsort((code, size))
    groups = tuple(order[size[order] == s].reshape(-1, s) for s in np.unique(size))
    for array in (within, row, col, *groups):
        array.flags.writeable = False
    return within, groups, row, col


def _cut(groups: Sequence[np.ndarray], labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """The sets of a partition's ``groups`` ((G, s) stacks of index sets)
    cut where the indices' ``labels`` differ, regrouped by size: per piece
    size t, ascending, the (H, t) stack of the pieces, each ascending, taken
    group by group, set by set and label by label."""
    by_size = {}
    for idx in groups:
        count, size = idx.shape
        cut = labels[idx]
        if size == 1 or np.all(cut == cut[:, :1]):  # each set is one piece
            by_size.setdefault(size, []).append(idx)
            continue
        key = (np.arange(count)[:, None] * (int(cut.max()) + 1) + cut).ravel()
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        lengths = np.diff(first, append=key.size)
        for t in np.unique(lengths).tolist():
            by_size.setdefault(t, []).append(idx.ravel()[order[first[lengths == t, None]
                                                               + np.arange(t)]])
    return tuple(np.concatenate(by_size[t]) for t in sorted(by_size))


def _gather(store: tuple, which: np.ndarray, index: np.ndarray,
            transpose: bool = False) -> np.ndarray:
    """Blocks of operators held in a store, ``(flat, base, layout,
    tables)``: operator i's nonzero pieces lie in the 1-D ``flat`` from
    ``base[i]`` on (its first and last entries are 0), in its piece layout
    ``layout[i]``, and ``tables`` is ``(start, position)``, per layout and
    index of the space: the offset of the index's row from the operator's
    base, less ``PIECE_SPREAD`` times its piece, and its position in the
    piece, plus as much.  For each leading index, the block of operator
    ``which`` on the index set ``index`` (its trailing axis), ``(..., H, t,
    t)`` and C-contiguous: an entry across two pieces falls outside ``flat``
    and clips onto one of its zero ends.  Transposed when asked."""
    flat, base, layout, tables = store
    which = np.asarray(which)[..., None, None]
    key = layout[which] * tables.shape[-1] + index
    first = np.take(tables[0], key) + base[which]
    position = np.take(tables[1], key)
    if transpose:
        first, position = position, first
    return np.take(flat, first[..., :, None] + position[..., None, :], mode="clip")


def _append(store: tuple, parts: Sequence[Sequence[np.ndarray]], layouts) -> tuple:
    """``store`` (see ``_gather``) with operators appended: operator i's
    pieces ``parts[i]``, each ravelled in turn, in layout ``layouts[i]``."""
    flat, base, layout, tables = store
    parts = [np.concatenate([p.ravel() for p in pieces]) for pieces in parts]
    starts = flat.size - 1 + np.cumsum([0] + [p.size for p in parts[:-1]])
    return (np.concatenate([flat[:-1], *parts, flat[-1:]]), np.append(base, starts),
            np.append(layout, layouts), tables)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, as an elementwise product when the summed axis has length
    1, where one BLAS call per 1 x 1 piece would cost more than the piece."""
    return a * b if a.shape[-1] == 1 else a @ b


def _elements(projector: np.ndarray) -> np.ndarray:
    """The pieces ``N P_m N`` of decoder elements from the pieces
    ``projector`` (M, ..., t, t) of their projectors on the same index
    sets, with ``N = (sum_m P_m)^(-1/2)`` (pseudo inverse) solved per
    piece."""
    w, v = _eigh(projector.sum(axis=0))
    norm = _matmul(v * (np.where(w > RANK_TOL, w, np.inf) ** -0.5)[..., None, :], dagger(v))
    return _matmul(_matmul(norm, projector), norm)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh``, with a 1 x 1 block its own eigenvalue and
    eigenvector 1, the numbers LAPACK returns, without a call per block."""
    if a.shape[-1] == 1:
        return a.real[..., 0], np.ones_like(a)
    return np.linalg.eigh(a)


def _slices(count: int, entries: int) -> list[slice]:
    """Consecutive slices of ``range(count)``, items of ``entries`` block
    entries each, of at most ``SLICE_ENTRIES`` entries (at least one item),
    so a stacked call's temporaries stay bounded."""
    step = max(1, SLICE_ENTRIES // entries)
    return [slice(i, i + step) for i in range(0, count, step)]


class ProductBasis:
    """Eigenstructure of the n-fold power of a party's innocent state.

    ``states``, kept here, is the party's single-use states, innocent state
    first, block-diagonal over the components of ``_single_use_basis``,
    whose eigenbasis is used here.  In its Kronecker power every n-fold
    state of the party is block-diagonal over the component strings c in
    C^n (``strings``, by block size, then string, each set ascending); a
    party with one component is the dense case.  The eigenvalues are
    products of single-use eigenvalues, and near-degenerate products are
    merged into pinching clusters (``clusters``).  ``single_states[x]``,
    rotated once per party, is state x in this eigenbasis ``u``
    (``single_vectors``), ``u^dagger rho_x u`` (the innocent state is
    exactly diagonal), and ``single_entries[x]`` its component blocks'
    entries, row by row, block by block, as an (E, 1, 1) stack.  In a
    ``real`` party ``u`` carries the phases that make every rotated state
    real, and every array built from them is float64.  Shared across trials
    at a fixed blocklength.
    """

    def __init__(self, states: Sequence[DensityOperator], n: int):
        if n < 1:
            raise DimensionMismatch(f"product basis requires n >= 1, got {n}")
        self.states = tuple(states)
        sizes, u, single, signals = _single_use_basis(self.states)
        single = np.where(single > RANK_TOL, single, 0.0)
        self.n = n
        self.single_vectors = u
        self.eigenvalues = kron_chain([single] * n)
        ids = eigenvalue_clusters(self.eigenvalues)
        self.clusters = [np.flatnonzero(ids == c) for c in range(ids.max() + 1)]
        self._cluster_ids = ids
        self.single_states = np.concatenate([np.diag(single)[None], signals])
        within, groups, *self._entry_numbers = _component_strings(tuple(sizes.tolist()), n)
        self.single_entries = self.single_states[:, within][..., None, None]
        self.strings = Partition(self.eigenvalues.size, groups)
        self._splits = {}  # c -> split(c)
        self._types = (None, {}, ())  # see _pinched_types
        self._lock = threading.RLock()  # guards _types, _splits and _piece_tables

    @property
    def real(self) -> bool:
        """Whether the party's rotated states are real (``_real_gauge``)."""
        return not np.iscomplexobj(self.single_states)

    @cached_property
    def joint(self) -> Partition:
        """The component-string blocks cut by the pinching clusters, the
        blocks of Bob's decoder, with ascending indices in each set."""
        return Partition(self.strings.dim, _cut(self.strings.groups, self._cluster_ids))

    def split(self, c: int) -> tuple[np.ndarray, ...]:
        """The joint blocks cut by the eigenbasis labels of the first c tensor
        positions: one (H, t) stack of index sets per piece size t,
        ascending, over all joint blocks.  An operator whose first c factors
        are diagonal in the single-use eigenbasis is zero off these pieces;
        ``split(0)`` is ``joint.groups``.  Cached per c, and written into
        ``_piece_tables`` as layout c."""
        if c in self._splits:
            return self._splits[c]
        with self._lock:
            if c not in self._splits:
                d, offset = self.single_vectors.shape[0], 0
                pieces = _cut(self.joint.groups, np.arange(self.joint.dim) // d ** (self.n - c))
                for piece in pieces:
                    size = piece.shape[1]
                    start = offset + np.arange(piece.size).reshape(piece.shape) * size
                    spread = PIECE_SPREAD * piece[:, :1]
                    self._piece_tables[:, c, piece] = np.stack(
                        [start - spread, np.arange(size) + spread])
                    offset += piece.size * size
                self._splits[c] = pieces
            return self._splits[c]

    @cached_property
    def _piece_tables(self) -> np.ndarray:
        """The ``_gather`` tables of operators stored as their pieces of
        ``split(z)``, layout z, filled as ``split`` is first called for z:
        ``(start, position)``, (2, n + 1, dim), for pieces stored size by
        size, each t x t piece row by row.  A piece is named by its first
        index."""
        return np.zeros((2, self.n + 1, self.joint.dim), dtype=np.intp)

    def require(self, states: Sequence[DensityOperator], n: int, party: str) -> None:
        """Raise ``IndexMismatch`` unless this is the basis of the party with
        single-use ``states`` at blocklength n: built from those states, the
        same objects or equal matrices, at n."""
        same = self.states is states or (len(self.states) == len(states) and all(
            np.array_equal(mine.matrix, theirs.matrix)
            for mine, theirs in zip(self.states, states)))
        if self.n != n or not same:
            raise IndexMismatch(f"basis is not the product eigenbasis of {party}'s "
                                f"states at n={n}")

    @cached_property
    def state(self) -> DensityOperator:
        """The n-fold innocent state in this basis: diagonal, held over
        ``strings``, with its spectrum read off the product eigenvalues
        instead of an eigensolve.  Its blocks are read off the Kronecker
        power of the innocent state's ``single_entries`` (``blocks_of``)."""
        entries = kron_chain([self.single_entries[0]] * self.n).reshape(-1)
        block = DensityOperator(blocks=(self.strings, self.blocks_of(entries)))
        order = np.argsort(-self.eigenvalues, kind="stable")
        # what DensityOperator.spectrum (a cached_property) would cache
        vars(block)["spectrum"] = Spectrum(eigenvalues=self.eigenvalues[order],
                                           permutation=order)
        return block

    def product_blocks(self, rows: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Entries of product states in this basis: for a (T, n) stack of
        symbol ``rows`` and a (..., t) array of index sets, each set inside
        one component string, the (T, ..., t, t) stack of
        ``prod_k single_states[x_k][i_k, j_k]`` over the tensor positions k,
        with ``i_k`` and ``j_k`` the base-d digits of the set's indices.  The
        factors are multiplied left to right, so each entry is bit-identical
        to the same entry of ``kron_chain`` over the rows' single-use states;
        no entry outside the sets is formed."""
        d = self.single_vectors.shape[0]
        flat = self.single_states.reshape(-1)
        symbols = rows.reshape(rows.shape + (1,) * (index.ndim + 1)) * d * d
        out = None
        for k in range(self.n):
            digit = index // d ** (self.n - 1 - k) % d
            factor = np.take(flat, symbols[:, k] + digit[..., :, None] * d + digit[..., None, :])
            out = factor if out is None else out * factor
        return out

    def rotated_block(self, symbols: Sequence[int]) -> tuple[np.ndarray, ...]:
        """Product block state of a codeword in this basis, as its stacks over
        ``strings`` (``product_blocks`` of the one row)."""
        row = np.asarray([symbols])
        return tuple(self.product_blocks(row, idx)[0] for idx in self.strings.groups)

    def blocks_of(self, entries: np.ndarray) -> list[np.ndarray]:
        """The stacks over ``strings`` of an operator held as its ``entries`` in
        the Kronecker product of ``single_entries`` (``_component_strings``)."""
        row, col = self._entry_numbers
        # indexing, not np.take, which would copy the int32 indices to intp whole
        return [entries[row[idx][:, :, None] + col[idx][:, None, :]]
                for idx in self.strings.groups]

    @cached_property
    def _digits(self) -> np.ndarray:
        """The (n, dim) base-d digits of every index, tensor position 0
        (most significant) first, as floats so that one BLAS product gives
        the images of many orders (exact: every index is below 2^53)."""
        d = self.single_vectors.shape[0]
        index = np.arange(self.eigenvalues.size)
        return (index // d ** np.arange(self.n - 1, -1, -1)[:, None] % d).astype(float)

    def reorderings(self, orders: np.ndarray) -> np.ndarray:
        """Index maps that reorder the tensor positions: the (len(orders),
        dim) array whose row m maps each index i to p(i), the index whose
        digits are ``i[order[0]], ..., i[order[n-1]]`` for ``order =
        orders[m]``.

        With A's rows and columns so gathered, the product state of the
        symbols ``x[order]`` becomes that of ``x``.  The innocent n-fold
        state is invariant under every such reordering, so each joint block
        maps onto a joint block of the same size (the same one only when the
        component string is unchanged).
        """
        weights = float(self.single_vectors.shape[0]) ** np.arange(self.n - 1, -1, -1)
        # p(i) = sum_t digit_t(i) weights[inverse[t]]
        return (weights[np.argsort(orders, axis=1)] @ self._digits).astype(np.intp)

    def to_original_basis(self, rotated: np.ndarray) -> np.ndarray:
        """Conjugate back to the computational basis: (u^(x) n) rotated
        (u^(x) n)^dagger.  Trial scoring never needs it."""
        u = kron_chain([self.single_vectors] * self.n)
        return u @ rotated @ u.conj().T


class DecoderPovm:
    """Bob's pinched square-root measurement for one key, as
    ``build_srm_decoder`` builds it: per-message elements plus an implicit
    failure element.

    Every element is held as ``E_m = N P_m N`` on the pieces
    ``basis.split(shared)``, in the frame that reorders the tensor positions
    of the product eigenbasis ``basis`` by ``frame``, which puts the key's
    ``shared`` innocent positions first.  ``types`` is ``(store, which,
    maps)``: codeword m's block state is operator ``which[m]`` of ``store``
    (see ``_gather``) and its pinched projector P_m the next operator, both
    its symbol type's, read through the index map ``maps[m]``
    (``ProductBasis.reorderings``).  ``hits[m]`` is ``Tr{E_m sigma_m}`` for
    codeword m's block state ``sigma_m``, traced as the decoder was built:
    it holds the score of the codewords it was built for, the key's M
    codeword ``rows`` with the states of ``basis``, and of no others.  The
    elements' ``pieces`` and the full matrices ``elements`` are formed only
    when asked for.
    """

    def __init__(self, basis: ProductBasis, shared: int, frame: np.ndarray, types: tuple,
                 rows: np.ndarray, hits: np.ndarray):
        self.basis = basis
        self.shared = shared
        self.frame = frame
        self.types = types
        self.rows = rows
        self.hits = hits

    @cached_property
    def pieces(self) -> tuple[np.ndarray, ...]:
        """Per piece size of ``basis.split(shared)``, the (M, H, t, t) stack
        of the elements on those pieces, in the key's frame: the build's own
        per-piece solve of ``N P_m N``."""
        store, which, maps = self.types
        return tuple(_elements(_gather(store, which + 1, maps[:, piece]))
                     for piece in self.basis.split(self.shared))

    @cached_property
    def elements(self) -> np.ndarray:
        """The (M, D, D) elements in the computational basis: ``pieces``
        assembled in the key's frame, their rows and columns gathered back
        through the frame's index map, and rotated out of ``basis``."""
        basis = self.basis
        frame = Partition(basis.joint.dim, basis.split(self.shared)).assemble(self.pieces)
        back = basis.reorderings(self.frame[None])[0]  # the frame's index of each index
        return basis.to_original_basis(frame[:, back[:, None], back[None, :]])

    def validate(self) -> float:
        """Check PSD elements and sum bounded by identity within
        ``DECODER_TOL``, one stacked eigensolve per piece size of
        ``pieces``, and return the slack left: ``DECODER_TOL`` less the
        largest of the elements' most negative eigenvalue, negated, and the
        sum's excess over the identity."""
        slack = math.inf
        for stack in self.pieces:
            lowest = np.linalg.eigvalsh(stack).min(axis=-1)
            if lowest.min() < -DECODER_TOL:
                i = int(np.argmax((lowest < -DECODER_TOL).any(axis=-1)))
                raise ValidationError(f"decoder element {i} not PSD within {DECODER_TOL:.0e}")
            excess = np.linalg.eigvalsh(stack.sum(axis=0)).max() - 1.0
            if excess > DECODER_TOL:
                raise ValidationError(f"decoder sum exceeds identity by {excess:.3e}")
            slack = min(slack, DECODER_TOL + float(lowest.min()), DECODER_TOL - float(excess))
        return slack


def _keys(codebook: Codebook, key) -> tuple[list[int], bool]:
    """``(keys, one)``: the keys of an int or a sequence of keys, each checked."""
    one = isinstance(key, (int, np.integer))
    keys = [int(key)] if one else [int(k) for k in key]
    for k in keys:
        if not 0 <= k < codebook.k_count:
            raise IndexMismatch(f"key {k} outside 0..{codebook.k_count - 1}")
    return keys, one


def build_srm_decoder(codebook: Codebook, channel: CqChannelPair, a: float,
                      key=0, basis: ProductBasis | None = None):
    """Square-root-measurement decoder for the given key.

    Per-message projectors keep the strictly positive eigenspaces of the
    pinched codeword state minus ``e^a`` times the innocent block state; the
    elements are the projectors normalized symmetrically by the pseudo
    inverse square root of their sum, which yields a valid sub-POVM.

    Everything after the pinching is block-diagonal over the joint blocks,
    the innocent state's eigenvalue clusters cut by Bob's component strings
    (``ProductBasis.joint``), and more: at the key's shared innocent
    positions, where all M codewords send the innocent symbol, every factor
    is the diagonal ``diag(lambda)``, so the codeword states, the projectors
    ``P_m``, their sum and ``N = (sum_m P_m)^(-1/2)`` (pseudo inverse) are
    block-diagonal over the labels of those positions too.  The key's frame
    puts its c shared positions first, so its blocks are
    ``basis.split(c)``, and element m is ``N P_m N`` with N solved there.  A
    codeword's state and projector are those of its sorted symbol type with
    the tensor positions reordered, so they are built once per type
    (``_pinched_types``) and read through index maps
    (``ProductBasis.reorderings``); only the normalisation is per key.  The
    decoder holds the type store, its codewords' type indices and index maps
    once (``DecoderPovm.types``: a projector follows its state), and the
    codeword rows it was built for.

    The decoder is scored as it is built: each piece's projector blocks are
    gathered once, summed into the Gram matrix that N is solved from, and
    sandwiched into ``N P_m N``, whose traces against the codeword states'
    blocks, ``vec(E) . vec(sigma^T)``, are added piece by piece into
    ``DecoderPovm.hits``, the numbers ``exact_pe_bob`` reads.  No element
    is kept: ``DecoderPovm.pieces`` solves a key's pieces again, the same
    way, only when asked for.

    ``key`` is one key, or a sequence of keys whose decoders are built
    together and returned as a list: their types are found in one call,
    their maps in one call, and the normalisation and traces run one stacked
    call per piece size and shared count across the keys.  Each matrix is
    solved and each trace summed on its own, so a key's decoder and hits do
    not depend on the keys built with it; one key is the one-element case.
    """
    if a < 0:
        raise ValidationError(f"threshold exponent a must be >= 0, got {a}")
    keys, one = _keys(codebook, key)
    if basis is None:
        basis = ProductBasis(channel.bob_states, codebook.n)
    basis.require(channel.bob_states, codebook.n, "Bob")
    m, n = codebook.m_count, codebook.n
    rows = codebook.symbols.reshape(m, codebook.k_count, n)[:, keys]   # (M, B, n)
    shared = ~rows.any(axis=0)                  # innocent in every codeword of the key
    frames = np.argsort(~shared, axis=1, kind="stable")
    keyed = np.take_along_axis(rows, frames[None], axis=2).reshape(-1, n)
    orders = np.argsort(keyed, axis=1, kind="stable")
    which, store = _pinched_types(basis, a, np.take_along_axis(keyed, orders, axis=1))
    which = which.reshape(m, len(keys))
    maps = basis.reorderings(orders).reshape(m, len(keys), -1)
    counts = shared.sum(axis=1)
    hits = np.zeros((len(keys), m))
    for c in np.unique(counts):
        sel = np.flatnonzero(counts == c)
        for piece in basis.split(int(c)):
            size = piece.shape[1] ** 2
            for part in _slices(len(sel), m * piece.shape[0] * size):
                some = sel[part]
                index = maps[:, some][..., piece]
                element = _elements(_gather(store, which[:, some] + 1, index))
                # Tr{E_m sigma_m} on these pieces, vec(E) . vec(sigma^T)
                state = _gather(store, which[:, some], index, transpose=True)
                traces = _matmul(element.reshape(*element.shape[:-2], 1, size),
                                 state.reshape(*state.shape[:-2], size, 1))
                hits[some] += traces.sum(axis=(-3, -2, -1)).real.T
    decoders = [DecoderPovm(basis, c, frames[b], (store, which[:, b], maps[:, b]),
                            rows[:, b], hits[b])
                for b, c in enumerate(counts.tolist())]
    return decoders[0] if one else decoders


def _pinched_types(basis: ProductBasis, a: float,
                   sorted_rows: np.ndarray) -> tuple[np.ndarray, tuple]:
    """``(which, store)``: per sorted codeword row (symbol type), the index
    in ``store`` (see ``_gather``) of its block state; the next operator is
    its pinched projector, on each ``basis.joint`` block the projector onto
    the positive part of ``sigma^b - e^a lambda_b``, from the eigenvectors
    of eigenvalue above ``ZERO_EIGENVALUE_TOL``.  A type with z innocent
    symbols has them first, so its state and projector are block-diagonal
    over ``basis.split(z)``: both are formed on those pieces only
    (``ProductBasis.product_blocks``), never as a whole block, the projector
    is solved there, and both are stored as those pieces, layout z.

    Each type is built once, the missing ones of a call in one stacked
    product and eigensolve per piece size, and kept on ``basis`` for the
    last threshold ``a`` it served, so the memo holds at most one entry per
    type; threads share it under a lock.  Every matrix is solved on its
    own, so an entry does not depend on which types were built with it or
    whether it was found or built.
    """
    with basis._lock:
        served, index, store = basis._types
        if served != a:
            index, store = {}, (np.zeros(2, dtype=basis.single_states.dtype),
                                np.zeros(0, dtype=np.intp),
                                np.zeros(0, dtype=np.intp), basis._piece_tables)
        types = [tuple(t) for t in sorted_rows.tolist()]
        new = [t for t in dict.fromkeys(types) if t not in index]
        if new:
            threshold = math.exp(a) * basis.eigenvalues
            built = np.asarray(new)
            zeros = np.count_nonzero(built == 0, axis=1)
            parts = [[] for _ in range(2 * len(new))]  # per state and projector, its pieces
            for z in np.unique(zeros).tolist():
                owners = np.flatnonzero(zeros == z)
                for piece in basis.split(z):
                    sigma = basis.product_blocks(built[owners], piece)
                    shifted = sigma.copy()
                    diag = np.arange(sigma.shape[-1])
                    shifted[..., diag, diag] -= threshold[piece]
                    w, v = _eigh(hermitian_part(shifted))
                    keep = v * (w > ZERO_EIGENVALUE_TOL)[..., None, :]
                    for i, state, projector in zip(owners, sigma, _matmul(keep, dagger(keep))):
                        parts[2 * i].append(state)
                        parts[2 * i + 1].append(projector)
            first = len(store[1])
            index.update(zip(new, range(first, first + 2 * len(new), 2)))
            store = _append(store, parts, np.repeat(zeros, 2))
            basis._types = (a, index, store)
        return np.array([index[t] for t in types]), store


def exact_pe_bob(codebook: Codebook, channel: CqChannelPair, decoder, key=0):
    """Exact average decoding error (1/M) sum_m (1 - Tr{element_m state_m}),
    read off the traces ``DecoderPovm.hits`` taken while the decoder was
    built.

    ``decoder`` and ``key`` are one decoder and its key, or equal-length
    sequences of them (as ``build_srm_decoder`` returns for a sequence of
    keys), returned as an array; one decoder is the one-element case.  A
    decoder carries the score of the codewords it was built for only, so
    ``IndexMismatch`` is raised unless its basis is Bob's at the codebook's
    blocklength (``ProductBasis.require``) and its codeword rows are the
    key's."""
    keys, one = _keys(codebook, key)
    decoders = [decoder] if one else list(decoder)
    if len(decoders) != len(keys):
        raise IndexMismatch(f"{len(decoders)} decoders for {len(keys)} keys")
    for d, k in zip(decoders, keys):
        d.basis.require(channel.bob_states, codebook.n, "Bob")
        if not np.array_equal(d.rows, codebook.codewords(k)):
            raise IndexMismatch(f"decoder was not built for key {k}'s codewords")
    hits = np.stack([d.hits for d in decoders])
    pe = np.clip(np.sum(1.0 - hits, axis=1) / codebook.m_count, 0.0, 1.0)
    return float(pe[0]) if one else pe


def willie_average_state(codebook: Codebook, channel: CqChannelPair,
                         basis: ProductBasis) -> DensityOperator:
    """Uniform mixture of the adversary's codeword block states in the
    product eigenbasis ``basis`` of its innocent state, over its component
    strings: the distinct rows summed with their multiplicities over their
    prefix trie (``_trie_sum``), whose vector is freed before the Hermitian
    parts are formed.  ``IndexMismatch`` unless ``basis`` is the
    adversary's at the codebook's blocklength (``ProductBasis.require``)."""
    rows, counts = codebook.distinct_rows
    basis.require(channel.willie_states, codebook.n, "Willie")
    stacks = basis.blocks_of(_trie_sum(basis.single_entries, rows, counts))
    for stack in stacks:
        stack /= len(codebook.symbols)
    return DensityOperator(blocks=(basis.strings, [hermitian_part(s) for s in stacks]))


def _trie_sum(per_symbol: np.ndarray, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``sum_r counts[r] per_symbol[rows[r, 0]] (x) ... (x) per_symbol[rows[r, n-1]]``
    over the distinct, lexicographically sorted ``rows``, as one vector.

    Rows that share a prefix share the sum over their suffixes,
    ``R = sum_x S_x (x) R^(x)``, so only the top levels of the trie touch
    full-size vectors (about 2 D^2 work for a qubit, against D^2 per row);
    a run of columns on which all rows below a node agree is one product.
    ``per_symbol[x]`` is an (E, 1, 1) stack, so ``kron_chain`` checks its
    cap against 1, not E^n (up to D^2)."""
    lcp = np.argmax(rows[1:] != rows[:-1], axis=1)  # first column where rows i, i+1 differ

    def node(lo: int, hi: int, t: int) -> np.ndarray:
        """The sum over rows lo..hi-1, which agree before column t, of
        their products from column t on."""
        if hi - lo == 1:  # one row, scaled by its count
            return kron_chain([per_symbol[x] for x in rows[lo, t:]]) * float(counts[lo])
        # the rows agree on columns t..u-1 and branch at column u
        gaps = lcp[lo:hi - 1]
        u = int(gaps.min())
        cuts = [lo, *(lo + 1 + np.flatnonzero(gaps == u)), hi]
        tail = node(cuts[0], cuts[1], u)
        for start, stop in zip(cuts[1:-1], cuts[2:]):
            tail += node(start, stop, u)
        if u == t:
            return tail
        return kron_chain([per_symbol[x] for x in rows[lo, t:u]] + [tail])

    return node(0, len(rows), 0).reshape(-1)


def covertness_report(codebook: Codebook, channel: CqChannelPair,
                      basis: ProductBasis | None = None) -> tuple[float, float]:
    """Exact covertness divergence (nats) and optimal detector error.

    Compares the average adversary state against the innocent block state,
    both written in ``basis``: the product eigenbasis of the adversary's
    innocent state, built here when None and shared across trials otherwise.
    """
    if basis is None:
        basis = ProductBasis(channel.willie_states, codebook.n)
    rho_bar = willie_average_state(codebook, channel, basis)
    return relative_entropy(rho_bar, basis.state), helstrom_error(rho_bar, basis.state)


@dataclass(frozen=True)
class TrialReport:
    """Exact scores of one sampled code.

    ``diagnostics`` holds the structure the trial found, as deterministic
    as the scores: Bob's pinching ``clusters``, the joint blocks Bob's
    decoder (``bob_blocks``) and Willie's average state (``willie_blocks``)
    are scored on, the ``distinct_rows`` of the codebook, the symbol types
    Bob's decoders were built from (``bob_types``), its ``keys``, the mean
    number of shared innocent positions per key (``shared_innocent``), the
    number of pieces the keys' normalisations ran on, summed over the keys
    (``bob_sub_blocks``, see ``ProductBasis.split``), and whether Bob's and
    Willie's parties are scored in real arithmetic (``bob_real``,
    ``willie_real``, see ``ProductBasis.real``).
    """

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
    diagnostics: dict | None = None

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
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for a deterministic experiment sweep.

    Message and key counts follow the achievability formulas (rounded up to
    integers >= 1) unless overridden.  Checked on construction, so
    ``run_experiment`` starts no work on a bad config: the distinct
    blocklengths ``n_list``, ``trials``, ``workers`` and the overrides given
    must be counts and ``seed`` an integer >= 0 (``require_count``), and
    ``varsigma``, ``mu`` and ``nu`` finite and in [0, 1) (``InvalidParameter``
    otherwise); ``gamma`` must be finite with ``0 <= gamma < sqrt(n)`` for
    every n in ``n_list``, so the innocent symbol keeps a positive weight
    (``AlphaOutOfRange`` otherwise); the code sizes follow the square-root
    law, so ``ptilde`` is kept as ``checked_ptilde`` for SquareRootLaw
    returns it (None is uniform over the admissible symbols).
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
    workers: int = 1

    def __post_init__(self):
        for n in self.n_list:
            require_count("blocklength n", n)
        if len(set(self.n_list)) != len(self.n_list):
            raise InvalidParameter(f"blocklengths must not repeat, got {list(self.n_list)}")
        for name in ("trials", "workers", "m_override", "k_override"):
            value = getattr(self, name)
            if not (value is None and name.endswith("override")):
                require_count(name, value)
        require_count("seed", self.seed, least=0)
        for name in ("varsigma", "mu", "nu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value < 1.0):
                raise InvalidParameter(f"{name} must be a finite number in [0, 1), got {value!r}")
        if not (math.isfinite(self.gamma)
                and all(0.0 <= self.gamma < math.sqrt(n) for n in self.n_list)):
            raise AlphaOutOfRange(f"gamma must be finite with 0 <= gamma < sqrt(n) for every "
                                  f"blocklength n, got gamma={self.gamma!r} for "
                                  f"n={list(self.n_list)}")
        object.__setattr__(self, "ptilde", checked_ptilde(
            self.channel, self.ptilde, ScenarioClass.SQUARE_ROOT_LAW))


def require_count(name: str, value, least: int = 1) -> None:
    """``InvalidParameter`` unless ``value`` is an int or NumPy integer >=
    ``least``, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= least):
        raise InvalidParameter(f"need an integer {name} >= {least}, got {value!r}")


def code_sizes(channel: CqChannelPair, ptilde, n: int, gamma: float,
               varsigma: float) -> tuple[int, int, float, float]:
    """Message/key counts from the achievable scaling.

    Returns ``(M, K, log_m_raw, log_k_raw)`` with the raw nat-valued sizes
    ``log M = (1 - varsigma) gamma sqrt(n) sum ptilde(x) D(bob_x || bob_0)``
    and ``log K = gamma sqrt(n) [(1 + varsigma) D_willie -
    (1 - varsigma) D_bob]^+`` rounded up to counts >= 1.  ``ptilde`` is
    checked by ``checked_ptilde`` for SquareRootLaw; both weighted
    divergences are then finite, since ``relative_entropy`` is finite on
    exactly the leaks up to ``SUPPORT_TOL`` that make a symbol admissible.
    """
    p = checked_ptilde(channel, ptilde, ScenarioClass.SQUARE_ROOT_LAW)
    summary = channel.summary
    d_bob = summary.weighted(p, summary.bob.divergences)
    d_willie = summary.weighted(p, summary.willie.divergences)
    root = gamma * math.sqrt(n)
    log_m_raw = (1.0 - varsigma) * root * d_bob
    log_k_raw = root * max(0.0, (1.0 + varsigma) * d_willie - (1.0 - varsigma) * d_bob)
    m = max(1, math.ceil(math.exp(log_m_raw) - COUNT_ROUNDING_TOL))
    k = max(1, math.ceil(math.exp(log_k_raw) - COUNT_ROUNDING_TOL))
    return m, k, log_m_raw, log_k_raw


def _trial_seed(master: int, n: int, trial: int) -> int:
    return int(np.random.SeedSequence((master, n, trial)).generate_state(
        1, dtype=np.uint64)[0])


def run_experiment(config: ExperimentConfig, on_decoders=None) -> list[TrialReport]:
    """Run all (n, trial) cells of the sweep and return reports in order.

    Deterministic given the config: per-trial randomness derives from
    (seed, n, trial index) only, so the worker count never changes results.
    ``on_decoders``, when given, is called as ``on_decoders(codebook, keys,
    decoders)`` with each chunk of a trial's keys and their decoders, the
    first chunk's keys starting at 0, before the decoders are freed; with
    more than one worker, from the worker's thread.
    """
    channel = config.channel
    p = config.ptilde

    tasks = []
    for n in config.n_list:
        m, k, log_m_raw, log_k_raw = code_sizes(channel, p, n, config.gamma,
                                                config.varsigma)
        bob_basis = ProductBasis(channel.bob_states, n)
        willie_basis = ProductBasis(channel.willie_states, n)
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
        # each chunk's decoders are freed before the next chunk is built
        pe_values, shared = [], []
        for start in range(0, k, KEY_CHUNK):
            keys = range(start, min(start + KEY_CHUNK, k))
            decoders = build_srm_decoder(codebook, channel, a, key=keys, basis=bob_basis)
            if on_decoders is not None:
                on_decoders(codebook, keys, decoders)
            pe_values.extend(exact_pe_bob(codebook, channel, decoders, key=keys).tolist())
            shared.extend(d.shared for d in decoders)
            del decoders
        covert_d, pe_willie = covertness_report(codebook, channel, willie_basis)
        diagnostics = {"clusters": len(bob_basis.clusters),
                       "bob_blocks": bob_basis.joint.count,
                       "willie_blocks": willie_basis.strings.count,
                       "distinct_rows": len(codebook.distinct_rows[0]),
                       "bob_types": codebook.type_count, "keys": k,
                       "shared_innocent": float(np.mean(shared)),
                       "bob_sub_blocks": sum(len(r) for c in shared
                                             for r in bob_basis.split(c)),
                       "bob_real": bob_basis.real, "willie_real": willie_basis.real}
        return TrialReport(n=n, gamma=config.gamma, seed=seed, m_count=m, k_count=k,
                           log_m_raw=log_m_raw, log_k_raw=log_k_raw,
                           pe_bob=float(np.mean(pe_values)), covert_d=covert_d,
                           pe_willie=pe_willie, note=note, diagnostics=diagnostics)

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
    """Quadratic covertness prediction gamma^2 chi^2(avg non-innocent || innocent) / 2
    at ``ptilde`` (``checked_ptilde``, which classifies no channel here)."""
    return gamma ** 2 * channel.summary.chi2(checked_ptilde(channel, ptilde)) / 2.0


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
                    epsilons=None) -> list[NogoReport]:
    """Detection/reliability trade-off when every adversary state leaks.

    Requires a channel classified NoGo (``WrongRegime`` otherwise), so that
    every non-innocent adversary state has support outside the innocent
    support, and pure receiver states so codeword blocks are pure.  The
    adversary measures the projector onto the innocent block support; its
    exact error and the leakage constant ``c_min`` then feed the fidelity
    lower bound on the receiver's error.

    One report per covertness level of ``epsilons``, by default ``c_min /
    f`` for f in ``NOGO_GRID``; what does not depend on the level is
    computed once.
    """
    for e in () if epsilons is None else epsilons:
        if not (math.isfinite(e) and e > 0):
            raise ValidationError(f"epsilon must be a finite number > 0, got {e!r}")
    require_regime(channel, ScenarioClass.NO_GO)
    for x in range(channel.alphabet_size):
        if channel.bob_states[x].rank != 1:
            raise ValidationError(f"bob[{x}] must be pure for the fidelity bound")

    sigma0 = channel.bob_states[0].matrix
    overlap_bob = np.array([
        float(np.trace(sigma0 @ channel.bob_states[x].matrix).real)
        for x in range(channel.alphabet_size)])

    rows = codebook.symbols
    detect = np.prod(channel.summary.willie.inside[rows], axis=1)   # Tr{P0^n block_m}
    fidelity = np.prod(np.clip(overlap_bob[rows], 0.0, 1.0), axis=1)
    pe_willie = float(np.mean(detect)) / 2.0

    signaling = fidelity < 1.0 - INNOCENT_FIDELITY_TOL
    if not np.any(signaling):
        raise ValidationError("every codeword is innocent; leakage constant undefined")
    c_values = (1.0 - detect[signaling]) / (1.0 - fidelity[signaling])
    c_min = float(np.min(c_values))
    if epsilons is None:
        epsilons = [c_min / f for f in NOGO_GRID]

    rows_total = codebook.m_count * codebook.k_count
    reports = []
    for e in epsilons:
        admissible = np.flatnonzero(1.0 - fidelity <= 4.0 * e / c_min)
        pair_total = 0.0
        for i in range(0, len(admissible) - 1, 2):
            f_left = fidelity[admissible[i]]
            f_right = fidelity[admissible[i + 1]]
            per_pair = (1.0 - math.sqrt(1.0 - f_left) - math.sqrt(1.0 - f_right)) / 2.0
            pair_total += 2.0 * max(0.0, per_pair)
        reports.append(NogoReport(epsilon=float(e), pe_willie=pe_willie, c_min=c_min,
                                  bob_bound=max(0.0, 0.25 - math.sqrt(e / c_min)),
                                  admissible_fraction=len(admissible) / rows_total,
                                  pair_bound=pair_total / rows_total))
    return reports
