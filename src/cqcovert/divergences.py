"""Distance and divergence functionals between quantum states.

All divergences are returned in nats; unit conversion is a display concern.
An infinite divergence (support-containment failure) is reported as the
``math.inf`` sentinel rather than an exception so that scenario
classification can branch on it.  Small negative values inside the numerical
noise window ``(-1e-9, 0)`` are clipped to zero.

The functionals of a pair of states also come stacked, over two
equal-length stacks of dense states of one dimension (a ``DensityOperator``
holding N states, as ``ginibre_states`` builds them): ``relative_entropies``,
``chi_squareds``, ``trace_distances``, ``pinsker_gaps``,
``phi_functionals`` and ``psi_functionals`` return one value per pair, and
``holevo_informations`` one value per ensemble.  Each one-pair function is
the one-element call of its stacked form, so there is one code path, and a
pair's value does not depend on the rest of its stack.  Block-held states
(``ProductBasis.state`` and Willie's average state) pass through the same
code as a one-element stack of their blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvalidDistribution, SupportViolation
from .operators import (
    RANK_TOL,
    DensityOperator,
    Partition,
    matrix_log,
    matrix_power,
    mixture,
)

SUPPORT_TOL = 1e-9        # Tr{(I - P_sigma) rho} below this declares containment
NEG_CLIP = 1e-9           # negative values above -NEG_CLIP clip to 0
DISTRIBUTION_TOL = 1e-12  # largest |sum p - 1| of a valid probability vector


def _check_dims(a: DensityOperator, b: DensityOperator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"state dimensions differ: {a.dim} vs {b.dim}")


class _OneStack:
    """A state as the one-element stack that the stacked functionals take:
    each form is the state's own with a leading axis, read (and so computed
    and cached on the state) only when a functional asks for it."""

    def __init__(self, state: DensityOperator):
        self.state, self.dim = state, state.dim

    matrix = property(lambda self: self.state.matrix[None])
    spectrum = property(lambda self: self.state.spectrum[None])
    eigenvalues_only = property(lambda self: self.state.eigenvalues_only[None])

    @property
    def blocks(self):
        partition, stacks = self.state.blocks
        return partition, tuple(s[None] for s in stacks)


def _clip(values: np.ndarray) -> np.ndarray:
    return np.where((-NEG_CLIP < values) & (values < 0.0), 0.0, values)


def _support_groups(on: np.ndarray) -> list:
    """``(rows, k)`` per distinct count k of True entries in the rows of the
    mask ``on``: the rows that have k (all of them, ``slice(None)``, when
    every row has the same count)."""
    counts = on.sum(axis=-1).tolist()
    distinct = sorted(set(counts))
    if len(distinct) == 1:
        return [(slice(None), counts[0])]
    return [(np.array(counts) == k, k) for k in distinct]


def _row_sums(values: np.ndarray, on: np.ndarray) -> np.ndarray:
    """Per row of the mask ``on``, the sum of its entries of ``values``, the
    entries where ``on`` row after row (as ``x[on]`` lists them).  Each row
    is summed as the one-dimensional array of its entries, so a row's sum
    does not depend on the rest of the stack."""
    (_, k), *others = _support_groups(on)
    if not others:
        return values.reshape(len(on), k).sum(axis=-1)
    return np.array([part.sum() for part in np.split(values, np.cumsum(on.sum(axis=-1))[:-1])])


def _support_weights(rho, sigma) -> list:
    """Per group of stack rows where ``sigma`` has k eigenvalues above
    ``RANK_TOL`` (its k leading ones): ``(rows, weights, eigenvalues)``, the
    weights ``<v_j| rho |v_j>`` over those k eigenvectors v_j and the k
    eigenvalues, each (rows, k).  A row's weights sum to ``Tr{P_sigma rho}``,
    the mass of ``rho`` inside the support of ``sigma``.  The eigenvectors
    are cut to the support before the product: with the kernel's columns
    too, the product rounds some weights differently.  When the
    eigenvectors are unit vectors the weights are diagonal entries of
    ``rho``, read off its blocks without a matrix product."""
    spec = sigma.spectrum
    groups = []
    for rows, k in _support_groups(spec.eigenvalues > RANK_TOL):
        if spec.permutation is not None:
            partition, stacks = rho.blocks
            weights = partition.diagonal(stacks).real[..., spec.permutation[:k]][rows]
        else:
            v = spec.eigenvectors[rows, :, :k]
            weights = np.einsum("nij,nij->nj", v.conj(), rho.matrix[rows] @ v).real
        groups.append((rows, weights, spec.eigenvalues[rows, :k]))
    return groups


def _support_leaks(rho, sigma) -> np.ndarray:
    """``1 - Tr{P_sigma rho}`` per pair of a stack."""
    out = np.empty(len(sigma.spectrum.eigenvalues))
    for rows, weights, _ in _support_weights(rho, sigma):
        out[rows] = 1.0 - weights.sum(axis=-1)
    return out


def support_leak(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Probability mass of ``rho`` outside the support of ``sigma``."""
    _check_dims(rho, sigma)
    return max(0.0, float(_support_leaks(_OneStack(rho), _OneStack(sigma))[0]))


def supports_contained(rho: DensityOperator, sigma: DensityOperator) -> bool:
    """Numerical proxy for supp(rho) ⊆ supp(sigma): a leak of at most
    ``SUPPORT_TOL``."""
    return support_leak(rho, sigma) <= SUPPORT_TOL


def _entropies(w: np.ndarray) -> np.ndarray:
    """-sum w log w over the entries above ``RANK_TOL`` of each row of ``w``."""
    on = w > RANK_TOL
    support = w[on]
    return -_row_sums(support * np.log(support), on)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -Tr{rho log rho} in nats.

    Needs the eigenvalues only: reads the state's ``eigenvalues_only``,
    computed once without eigenvectors, and never its ``spectrum``, so the
    value does not depend on whether the spectrum was computed before.
    """
    return float(_entropies(rho.eigenvalues_only[None])[0])


def relative_entropies(rho, sigma) -> np.ndarray:
    """Quantum relative entropy Tr{rho (log rho - log sigma)} in nats of each
    pair of two equal-length stacks of states.

    Finite iff supp(rho) ⊆ supp(sigma); otherwise ``math.inf``.  Both
    logarithms follow the pseudo-function-on-support convention.
    """
    _check_dims(rho, sigma)
    out = -_entropies(rho.eigenvalues_only)
    leaks = np.empty_like(out)
    # the support weights also give the cross term Tr{rho log sigma}
    for rows, weights, eigenvalues in _support_weights(rho, sigma):
        out[rows] -= (weights * np.log(eigenvalues)).sum(axis=-1)
        leaks[rows] = 1.0 - weights.sum(axis=-1)
    out = _clip(out)
    out[leaks > SUPPORT_TOL] = math.inf
    return out


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """D(rho||sigma): the one-element call of :func:`relative_entropies`."""
    return float(relative_entropies(_OneStack(rho), _OneStack(sigma))[0])


def chi_squareds(rho, sigma) -> np.ndarray:
    """Chi-squared divergence Tr{(rho - sigma)^2 sigma^{-1}} of each pair of
    two equal-length stacks of states.

    ``sigma^{-1}`` is the pseudo-inverse on the support; ``math.inf`` where
    supp(rho) is not contained in supp(sigma).  Summed as
    ``sum_j ||(rho - sigma) v_j||^2 / lambda_j`` over the eigenpairs of
    ``sigma`` above ``RANK_TOL``.
    """
    _check_dims(rho, sigma)
    spec = sigma.spectrum
    diff = rho.matrix - sigma.matrix
    out = np.empty(len(spec.eigenvalues))
    for rows, k in _support_groups(spec.eigenvalues > RANK_TOL):
        cols = diff[rows] @ spec.eigenvectors[rows, :, :k]
        out[rows] = np.sum(np.sum(np.abs(cols) ** 2, axis=-2) / spec.eigenvalues[rows, :k],
                           axis=-1)
    out = _clip(out)
    out[_support_leaks(rho, sigma) > SUPPORT_TOL] = math.inf
    return out


def chi_squared(rho: DensityOperator, sigma: DensityOperator) -> float:
    """chi2(rho||sigma): the one-element call of :func:`chi_squareds`."""
    return float(chi_squareds(_OneStack(rho), _OneStack(sigma))[0])


def _difference_eigenvalues(a, b, ca: float = 1.0, cb: float = 1.0) -> np.ndarray:
    """Eigenvalues of ``ca a - cb b`` (per state, for stacks), block by block
    when both operators are held over the same partition (one stacked
    ``eigvalsh`` per group of equal-size blocks), else of the assembled
    difference."""
    (pa, sa), (pb, sb) = a.blocks, b.blocks
    if pa is not pb:
        whole = Partition.whole(a.dim)
        sa, sb = whole.restrict(sa, pa), whole.restrict(sb, pb)
    return np.concatenate([np.linalg.eigvalsh(ca * x - cb * y).reshape(x.shape[:-3] + (-1,))
                           for x, y in zip(sa, sb)], axis=-1)


def trace_distances(rho, sigma) -> np.ndarray:
    """Trace norm of each difference, Tr|rho - sigma|, in [0, 2], for two
    equal-length stacks of states."""
    _check_dims(rho, sigma)
    return np.abs(_difference_eigenvalues(rho, sigma)).sum(axis=-1)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Tr|rho - sigma|: the one-element call of :func:`trace_distances`."""
    return float(trace_distances(_OneStack(rho), _OneStack(sigma))[0])


def helstrom_error(rho_bar: DensityOperator, rho0: DensityOperator,
                   priors: tuple[float, float] = (0.5, 0.5)) -> float:
    """Minimum discrimination error between two states.

    For priors (p1, p0) on (rho_bar, rho0) the optimum over all two-outcome
    POVMs is ``(1 - ||p1 rho_bar - p0 rho0||_1) / 2``; with equal priors this
    is ``(1 - ||rho_bar - rho0||_1 / 2) / 2`` and lies in [0, 1/2].  The
    trace norm is summed block by block over a partition the two share.
    """
    _check_dims(rho_bar, rho0)
    p1, p0 = priors
    if p1 < 0 or p0 < 0 or abs(p1 + p0 - 1.0) > DISTRIBUTION_TOL:
        raise InvalidDistribution(f"priors must be a probability pair, got {priors}")
    w = _difference_eigenvalues(rho_bar, rho0, p1, p0)
    err = 0.5 * (1.0 - float(np.sum(np.abs(w))))
    return min(max(err, 0.0), 1.0)


def pinsker_gaps(rho, sigma) -> np.ndarray:
    """Slack D(rho||sigma) - ||rho - sigma||_1^2 / 2 (both sides in nats) of
    each pair of two equal-length stacks of states.

    Non-negative up to numerical noise; infinite when D is infinite.
    """
    t = trace_distances(rho, sigma)
    return relative_entropies(rho, sigma) - t * t / 2.0


def pinsker_gap(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Pinsker slack of one pair: the one-element call of :func:`pinsker_gaps`."""
    return float(pinsker_gaps(_OneStack(rho), _OneStack(sigma))[0])


def validate_distribution(probs) -> np.ndarray:
    """Check a probability vector (finite, nonnegative, sums to 1 within
    ``DISTRIBUTION_TOL``); a failure raises ``InvalidDistribution``, a
    ``ValueError``."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise InvalidDistribution(f"expected a 1-d probability vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidDistribution(f"non-finite probability in {p.tolist()!r}")
    if p.min() < 0:
        raise InvalidDistribution(f"negative probability {p.min()!r}")
    if abs(p.sum() - 1.0) > DISTRIBUTION_TOL:
        raise InvalidDistribution(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def holevo_informations(probs: np.ndarray, states, mixtures) -> np.ndarray:
    """Holevo information H(sum_x p_x s_x) - sum_x p_x H(s_x), in nats, of
    each ensemble of a stack.

    ``probs`` is (N, X); ``states`` holds X stacks of N states, ``states[x]``
    the x-th state of every ensemble; ``mixtures`` is the stack of the N
    mixtures ``mixture(probs, states)``, which a caller that scores them
    anyway builds and diagonalises once.  The entropies of all of them come
    from one stacked call.
    """
    n = len(probs)
    h = _entropies(np.concatenate([mixtures.eigenvalues_only,
                                   *(s.eigenvalues_only for s in states)]))
    chi = h[:n] - sum(probs[:, x] * h[n * (x + 1):n * (x + 2)] for x in range(len(states)))
    return np.where((-NEG_CLIP < chi) & (chi <= 0.0), 0.0, chi)


def holevo_information(probs, states: list[DensityOperator]) -> float:
    """Holevo information of one ensemble, in nats: the one-element call of
    :func:`holevo_informations`."""
    p = validate_distribution(probs)
    if len(states) != p.size:
        raise DimensionMismatch(f"{p.size} probabilities for {len(states)} states")
    dim = states[0].dim
    for s in states:
        if s.dim != dim:
            raise DimensionMismatch("ensemble states have mixed dimensions")
    return float(holevo_informations(p[None], [_OneStack(s) for s in states],
                                     _OneStack(mixture(p, states)))[0])


def _require_contained(inner, outer, label: str) -> None:
    """Raise ``SupportViolation`` unless each state of the stack ``inner``
    lies in the support of its ``outer`` state."""
    leak = _support_leaks(inner, outer).max()
    if leak > SUPPORT_TOL:
        raise SupportViolation(f"{label}: support leak {leak:.3e} exceeds {SUPPORT_TOL:.0e}")


def _traces(x: np.ndarray) -> np.ndarray:
    return np.trace(x, axis1=-2, axis2=-1).real


def phi_functionals(sigma1, sigma0, rs) -> tuple[np.ndarray, np.ndarray]:
    """Decoding-exponent functional and its analytic r-derivative, for each
    pair of two equal-length stacks of states and each r in ``rs``.

    Returns ``(values, derivatives)``, each (len(rs), N): ``-log T(r)`` and
    its r-derivative, where
    ``T(r) = Tr{sigma1 sigma0^{r/2} sigma1^{-r} sigma0^{r/2}}``, with all
    powers and logs taken on the respective supports.  The value vanishes at
    r = 0 and the derivative there equals the relative entropy
    D(sigma1||sigma0).  The logs of the states do not depend on r and are
    computed once per call.

    Raises
    ------
    SupportViolation
        If supp(sigma1) is not contained in supp(sigma0).
    """
    _check_dims(sigma1, sigma0)
    _require_contained(sigma1, sigma0, "phi_functional")
    spec0, spec1 = sigma0.spectrum, sigma1.spectrum
    log0, log1 = matrix_log(spec0), matrix_log(spec1)
    values, derivatives = [], []
    for r in rs:
        pow0_half = matrix_power(spec0, r / 2.0)
        pow1_neg = matrix_power(spec1, -r)
        x = pow0_half @ pow1_neg @ pow0_half
        t = _traces(sigma1.matrix @ x)
        # d/dr sigma0^{r/2} = (log sigma0 / 2) sigma0^{r/2} on the support,
        # d/dr sigma1^{-r} = -(log sigma1) sigma1^{-r} on the support
        dx = 0.5 * (log0 @ x + x @ log0) - pow0_half @ log1 @ pow1_neg @ pow0_half
        # math.log per trace: np.log of the array rounds some traces
        # differently, and finite differences in r amplify the last bit
        values.append([-math.log(ti) for ti in t.tolist()])
        derivatives.append(-_traces(sigma1.matrix @ dx) / t)
    return np.array(values), np.array(derivatives)


def phi_functional(sigma1: DensityOperator, sigma0: DensityOperator,
                   r: float) -> tuple[float, float]:
    """``(-log T(r), d/dr of that)`` for one pair: the one-element call of
    :func:`phi_functionals`."""
    values, derivatives = phi_functionals(_OneStack(sigma1), _OneStack(sigma0), [r])
    return float(values[0, 0]), float(derivatives[0, 0])


def psi_functionals(rho1, rho0, rs) -> tuple[np.ndarray, np.ndarray]:
    """Covertness-exponent functional and its analytic r-derivative, for
    each pair of two equal-length stacks of states and each r in ``rs``.

    Returns ``(values, derivatives)``, each (len(rs), N): ``log T(r)`` and
    its r-derivative, where ``T(r) = Tr{rho1^{1+r} rho0^{-r}}`` under the
    pseudo-power convention.  The value vanishes at r = 0 and the
    derivative there equals D(rho1||rho0); the derivative has the closed
    form ``Tr{rho0^{-r} rho1^{1+r} (log rho1 - log rho0)} / T(r)``.  The
    logs of the states do not depend on r and are computed once per call.
    """
    _check_dims(rho1, rho0)
    _require_contained(rho1, rho0, "psi_functional")
    spec0, spec1 = rho0.spectrum, rho1.spectrum
    log_ratio = matrix_log(spec1) - matrix_log(spec0)
    values, derivatives = [], []
    for r in rs:
        pow1 = matrix_power(spec1, 1.0 + r)
        pow0_neg = matrix_power(spec0, -r)
        t = _traces(pow1 @ pow0_neg)
        values.append([math.log(ti) for ti in t.tolist()])  # math.log, as in phi
        derivatives.append(_traces(pow0_neg @ pow1 @ log_ratio) / t)
    return np.array(values), np.array(derivatives)


def psi_functional(rho1: DensityOperator, rho0: DensityOperator,
                   r: float) -> tuple[float, float]:
    """``(log T(r), d/dr of that)`` for one pair: the one-element call of
    :func:`psi_functionals`."""
    values, derivatives = psi_functionals(_OneStack(rho1), _OneStack(rho0), [r])
    return float(values[0, 0]), float(derivatives[0, 0])

