"""Finite-dimensional Hermitian operator algebra.

Construction and validation of density operators, Kronecker products,
convex mixtures, spectral decompositions, matrix functions on supports and
eigenvalue clusters.  All operations are pure functions over immutable
inputs; every state-like object is safe to share across threads.

Conventions
-----------
* Support cutoff: eigenvalues at or below ``RANK_TOL`` (1e-10) are treated
  as exactly zero.  Matrix logarithms and negative powers follow the
  pseudo-function convention: they act on the support and annihilate the
  kernel.
* The other tolerances are module constants too: ``HERMITICITY_TOL``,
  ``PSD_TOL`` and ``TRACE_TOL`` validate inputs, ``ZERO_EIGENVALUE_TOL`` is
  the tie window of the positive-part projectors of Bob's decoder and
  ``CLUSTER_TOL`` the relative merge window of its pinching clusters.  No
  function here takes a tolerance.
* Tensor products order subsystems left-to-right as channel uses 1..n.
* Kronecker products are capped at dimension ``CQCOVERT_DIM_CAP``
  (default 16384) so exact simulation stays in memory.
"""

from __future__ import annotations

import math
import os
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    TraceNotOne,
)

RANK_TOL = 1e-10             # support cutoff: eigenvalues at or below it count as 0
HERMITICITY_TOL = 1e-12      # largest entry of |A - A†| in a valid input
PSD_TOL = 1e-10              # most negative eigenvalue of a valid state
TRACE_TOL = 1e-10            # largest |Tr - 1| of a valid state
DEFAULT_DIM_CAP = 16384
ZERO_EIGENVALUE_TOL = 1e-12  # tie window of the decoder's positive-part projectors
CLUSTER_TOL = 1e-9           # relative merge window of the pinching clusters


def dimension_cap() -> int:
    """Active Kronecker-product dimension cap (env ``CQCOVERT_DIM_CAP`` overrides)."""
    return int(os.environ.get("CQCOVERT_DIM_CAP", DEFAULT_DIM_CAP))


def check_dimension(dim: int) -> None:
    """Raise ``DimensionCapExceeded`` if a Kronecker product of dimension
    ``dim`` would exceed the cap; called before anything is allocated."""
    cap = dimension_cap()
    if dim > cap:
        # log10 of the int: a float conversion overflows past 10^308
        size = dim if dim < 10 ** 15 else f"about 10^{math.log10(dim):.1f}"
        raise DimensionCapExceeded(f"Kronecker product dimension {size} exceeds cap {cap}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2, matrix by matrix for a stack."""
    return (a + dagger(a)) / 2


def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate hermiticity of a square matrix and return its Hermitian part.

    Raises
    ------
    NotHermitian
        If an entry is not finite (NaN or infinite), or the max absolute
        deviation |A - A†| exceeds ``HERMITICITY_TOL``.
    DimensionMismatch
        If the input is not a square 2-d array.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise NotHermitian(f"entry ({i}, {j}) is not a finite number")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > HERMITICITY_TOL:
        raise NotHermitian(f"hermiticity deviation {dev:.3e} exceeds {HERMITICITY_TOL:.0e}")
    return hermitian_part(a)


class Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted in
    descending order.

    ``eigenvectors[:, i]`` is the unit eigenvector for ``eigenvalues[i]``.
    ``permutation`` is set when the operator is diagonal: the eigenvectors
    are then the standard unit vectors, ``eigenvectors[:, i]`` being
    ``e_{permutation[i]}``, and they are only built when read.
    """

    def __init__(self, eigenvalues: np.ndarray, eigenvectors: np.ndarray | None = None,
                 permutation: np.ndarray | None = None):
        self.eigenvalues = eigenvalues
        self.permutation = permutation
        if eigenvectors is not None:
            vars(self)["eigenvectors"] = eigenvectors

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        return np.eye(self.eigenvalues.size)[:, self.permutation]


def spectral_decomposition(a: np.ndarray) -> Spectrum:
    """Eigendecompose a Hermitian matrix with ``eigh``, eigenvalues descending.

    ``eigh`` returns them ascending, so the order is a reversal: tied
    eigenvalues keep ``eigh``'s order, reversed.  The eigenvectors are
    stored column-major; another layout would change the rounding of
    products with them.
    """
    w, v = np.linalg.eigh(hermitian_part(np.asarray(a, dtype=complex)))
    return Spectrum(eigenvalues=w[::-1].copy(), eigenvectors=np.asfortranarray(v[:, ::-1]))


class Partition:
    """Index sets that partition ``range(dim)``, grouped by size.

    ``groups[g]`` is a (G, s) integer array whose rows are G sets of s
    indices each.  An operator that is zero off the diagonal blocks on these
    sets is held as one stack per group: ``stacks[g]``, of shape
    (..., G, s, s), holds the blocks on the rows and columns ``groups[g]``.
    Blocks of equal size share one array, so stacked linear algebra treats
    them in one call.  ``Partition.whole(dim)`` is the one-set partition of
    a dense operator.
    """

    def __init__(self, dim: int, groups: Sequence[np.ndarray]):
        self.dim = dim
        self.groups = tuple(groups)

    @staticmethod
    @lru_cache(maxsize=64)
    def whole(dim: int) -> "Partition":
        """The one-set partition, shared per dimension so that dense
        operators of one dimension are scored over the same partition."""
        return Partition(dim, (np.arange(dim)[None],))

    @property
    def count(self) -> int:
        """Number of sets."""
        return sum(idx.shape[0] for idx in self.groups)

    def assemble(self, stacks: Sequence[np.ndarray]) -> np.ndarray:
        """The full matrices (one per leading index) of blockwise ``stacks``."""
        lead = stacks[0].shape[:-3]
        out = np.zeros(lead + (self.dim, self.dim), dtype=np.result_type(*stacks))
        for idx, stack in zip(self.groups, stacks):
            out[..., idx[:, :, None], idx[:, None, :]] = stack
        return out

    def diagonal(self, stacks: Sequence[np.ndarray]) -> np.ndarray:
        """The diagonals (one per leading index) of blockwise ``stacks``."""
        lead = stacks[0].shape[:-3]
        out = np.zeros(lead + (self.dim,), dtype=np.result_type(*stacks))
        for idx, stack in zip(self.groups, stacks):
            out[..., idx] = np.diagonal(stack, axis1=-2, axis2=-1)
        return out


class DensityOperator:
    """Validated unit-trace PSD Hermitian matrix.

    Use :func:`make_density` to construct; direct instantiation skips
    validation.  An operator is stored in the form it is given, ``matrix``
    or its diagonal blocks ``blocks=(partition, stacks)`` (see
    :class:`Partition`); the other form is derived once, when first read.  A
    full matrix is the one-block case, a view.  Buffers are frozen.

    A state is eigendecomposed at most once: ``spectrum`` is computed on
    first use and cached, and every matrix function of the state
    (``matrix_power``, ``matrix_log``, ``matrix_inv_sqrt`` given
    ``state.spectrum``), its support projector, its rank and the divergences
    against it read that one spectrum.  Entropies need eigenvalues only:
    they always read ``eigenvalues_only``, cached the same way.
    """

    def __init__(self, matrix: np.ndarray | None = None, *, blocks: tuple | None = None):
        if blocks is None:
            m = np.array(matrix, dtype=complex)
            m.flags.writeable = False
            self.matrix = m
            self.dim = m.shape[-1]
        else:
            for stack in blocks[1]:
                stack.flags.writeable = False
            self.blocks = (blocks[0], tuple(blocks[1]))
            self.dim = blocks[0].dim

    @cached_property
    def matrix(self) -> np.ndarray:
        partition, stacks = self.blocks
        m = partition.assemble(stacks)
        m.flags.writeable = False
        return m

    @cached_property
    def blocks(self) -> tuple["Partition", tuple[np.ndarray, ...]]:
        """``(partition, stacks)``: the operator's diagonal blocks; for a full
        matrix, the one block ``matrix[None]`` over ``Partition.whole(dim)``."""
        return Partition.whole(self.dim), (self.matrix[None],)

    @cached_property
    def spectrum(self) -> Spectrum:
        """``spectral_decomposition(self.matrix)``, computed once."""
        return spectral_decomposition(self.matrix)

    @cached_property
    def eigenvalues_only(self) -> np.ndarray:
        """The eigenvalues from ``eigvalsh``, without eigenvectors, computed
        once, block by block: one stacked call per group of equal-size blocks
        (each block's descending, the blocks in reverse order)."""
        return np.concatenate([np.linalg.eigvalsh(s).ravel() for s in self.blocks[1]])[::-1]

    @property
    def rank(self) -> int:
        return int(np.sum(self.spectrum.eigenvalues > RANK_TOL))


def make_density(entries: np.ndarray) -> DensityOperator:
    """Validate a square complex matrix as a density operator.

    The PSD check's ``eigvalsh`` is kept as the state's ``eigenvalues_only``
    (the same call on the same matrix), so the entropies do not solve again.

    Raises
    ------
    NotHermitian, NotPSD, TraceNotOne
        When the corresponding invariant fails (tolerances 1e-12 / -1e-10 /
        1e-10 respectively).
    """
    m = require_hermitian(entries)
    w = np.linalg.eigvalsh(m)
    if w.min() < -PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {w.min():.3e} below -{PSD_TOL:.0e}")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOne(f"trace {tr!r} deviates from 1 by more than {TRACE_TOL:.0e}")
    state = DensityOperator(matrix=m)
    vars(state)["eigenvalues_only"] = w[::-1]
    return state


def kron_chain(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of vectors, matrices or stacks of matrices, leftmost
    factor first.

    Every axis is multiplied out, the leading axis of a stack too: stacks of
    shapes (p, a, a) and (q, b, b) give the (p q, a b, a b) stack of all the
    pairwise products.  Each step is one broadcast multiply, left to right,
    so the result is bit-identical to nested ``np.kron``.  The package's one
    Kronecker builder: the product of the trailing dimensions is checked
    against the dimension cap (``check_dimension``) before any allocation.
    """
    check_dimension(math.prod(f.shape[-1] for f in factors))
    out = factors[0]
    for f in factors[1:]:
        left = out.reshape([k for size in out.shape for k in (size, 1)])
        right = f.reshape([k for size in f.shape for k in (1, size)])
        out = (left * right).reshape([a * b for a, b in zip(out.shape, f.shape)])
    return out


def kron_power(a: DensityOperator, n: int) -> DensityOperator:
    """n-fold Kronecker power of a state (n >= 1)."""
    if n < 1:
        raise DimensionMismatch(f"kron power requires n >= 1, got {n}")
    return DensityOperator(kron_chain([a.matrix] * n))


def mixture(weights, states: Sequence[DensityOperator]) -> DensityOperator:
    """The convex mixture ``sum_x weights[x] states[x]``, summed in x order,
    as a state.  The package's one mixture builder; the weights are the
    caller's to check."""
    w = np.asarray(weights, dtype=float)
    total = w[0] * states[0].matrix
    for x in range(1, len(states)):
        total = total + w[x] * states[x].matrix
    return DensityOperator(hermitian_part(total))


def support_projector(a: DensityOperator) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors above ``RANK_TOL``."""
    spec = a.spectrum
    cols = spec.eigenvectors[:, spec.eigenvalues > RANK_TOL]
    return cols @ cols.conj().T


Operand = np.ndarray | Spectrum


def matrix_function(a: Operand, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply ``f`` to the eigenvalues of a Hermitian operator on its support.

    ``a`` is a Hermitian matrix, decomposed here, or a ``Spectrum`` already
    computed, such as a state's cached ``state.spectrum``, which is read
    without a second eigensolve.  Eigenvalues at or below ``RANK_TOL`` map
    to 0 (pseudo-function convention), which absorbs the singularities of
    logs and negative powers.
    """
    spec = a if isinstance(a, Spectrum) else spectral_decomposition(a)
    w = spec.eigenvalues
    fw = np.zeros_like(w)
    on_support = w > RANK_TOL
    fw[on_support] = f(w[on_support])
    v = spec.eigenvectors
    return hermitian_part((v * fw) @ dagger(v))


def matrix_log(a: Operand) -> np.ndarray:
    """Pseudo-logarithm: log on the support, zero on the kernel."""
    return matrix_function(a, np.log)


def matrix_power(a: Operand, c: float) -> np.ndarray:
    """Pseudo-power ``A^c`` (negative and fractional c act on the support only)."""
    return matrix_function(a, lambda w: w ** c)


def matrix_inv_sqrt(a: Operand) -> np.ndarray:
    """Pseudo inverse square root ``A^{-1/2}`` on the support."""
    return matrix_power(a, -0.5)


def eigenvalue_clusters(eigenvalues: np.ndarray) -> np.ndarray:
    """Group near-degenerate eigenvalues into clusters.

    Adjacent sorted eigenvalues merge when their gap is at most
    ``CLUSTER_TOL * max(|w_i|, |w_j|)``, so exact ties (exact zeros included)
    always share a cluster.  Returns an integer cluster id per entry of
    ``eigenvalues`` (in the given order).
    """
    w = np.asarray(eigenvalues, dtype=float)
    order = np.argsort(w)
    ws = w[order]
    gaps = np.diff(ws) > CLUSTER_TOL * np.maximum(np.abs(ws[:-1]), np.abs(ws[1:]))
    ids = np.zeros(w.shape, dtype=int)
    ids[order[1:]] = np.cumsum(gaps)
    return ids


# --- JSON wire format: {"dim": d, "re": [[...]], "im": [[...]]} ---

def matrix_from_json(doc: dict) -> np.ndarray:
    try:
        dim = int(doc["dim"])
        re = np.asarray(doc["re"], dtype=float)
        im = np.asarray(doc["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed matrix document: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise DimensionMismatch(
            f"matrix document shapes {re.shape}/{im.shape} do not match dim {dim}")
    with np.errstate(invalid="ignore"):  # an infinite part: require_hermitian rejects it
        return re + 1j * im


# --- random states for verify and the tests ---

def ginibre_state(dim: int, rng: np.random.Generator, rank: int | None = None) -> DensityOperator:
    """Random density operator G G† / Tr from a complex Ginibre block G of
    ``rank`` columns (default ``dim``): its real part, then its imaginary
    part, drawn from ``rng`` as one ``(2, dim, rank)`` array."""
    draws = rng.standard_normal((2, dim, dim if rank is None else rank))
    g = draws[0] + 1j * draws[1]
    m = g @ dagger(g)
    return DensityOperator(hermitian_part(m / np.trace(m).real))

