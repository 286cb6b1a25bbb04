"""Distance and divergence functionals between quantum states.

All divergences are returned in nats; unit conversion is a display concern.
An infinite divergence (support-containment failure) is reported as the
``math.inf`` sentinel rather than an exception so that scenario
classification can branch on it.  Small negative values inside the numerical
noise window ``(-1e-9, 0)`` are clipped to zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvalidDistribution, SupportViolation
from .operators import (
    RANK_TOL,
    DensityOperator,
    Partition,
    hermitian_part,
    matrix_log,
    matrix_power,
)

SUPPORT_TOL = 1e-9        # Tr{(I - P_sigma) rho} below this declares containment
NEG_CLIP = 1e-9           # negative values above -NEG_CLIP clip to 0
DISTRIBUTION_TOL = 1e-12  # largest |sum p - 1| of a valid probability vector


def _check_dims(a: DensityOperator, b: DensityOperator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"state dimensions differ: {a.dim} vs {b.dim}")


def _clip(value: float) -> float:
    if -NEG_CLIP < value < 0.0:
        return 0.0
    return value


def _support_weights(rho: DensityOperator, sigma: DensityOperator,
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``<v_j| rho |v_j>`` over the eigenvectors v_j of ``sigma``
    above ``RANK_TOL``, and those eigenvalues.  The weights sum to
    ``Tr{P_sigma rho}``, the mass of ``rho`` inside the support of ``sigma``.
    When the eigenvectors are unit vectors the weights are diagonal entries
    of ``rho``, read off its blocks without a matrix product."""
    spec = sigma.spectrum
    on = spec.eigenvalues > RANK_TOL
    if spec.permutation is not None:
        partition, stacks = rho.blocks
        weights = partition.diagonal(stacks).real[spec.permutation[on]]
    else:
        v = spec.eigenvectors[:, on]
        weights = np.einsum("ij,ij->j", v.conj(), rho.matrix @ v).real
    return weights, spec.eigenvalues[on]


def support_leak(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Probability mass of ``rho`` outside the support of ``sigma``."""
    _check_dims(rho, sigma)
    weights, _ = _support_weights(rho, sigma)
    return max(0.0, 1.0 - float(weights.sum()))


def supports_contained(rho: DensityOperator, sigma: DensityOperator) -> bool:
    """Numerical proxy for supp(rho) ⊆ supp(sigma): a leak of at most
    ``SUPPORT_TOL``."""
    return support_leak(rho, sigma) <= SUPPORT_TOL


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -Tr{rho log rho} in nats.

    Needs the eigenvalues only: reads the state's ``eigenvalues_only``,
    computed once without eigenvectors, and never its ``spectrum``, so the
    value does not depend on whether the spectrum was computed before.
    """
    w = rho.eigenvalues_only
    w = w[w > RANK_TOL]
    return float(-(w * np.log(w)).sum())


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Quantum relative entropy Tr{rho (log rho - log sigma)} in nats.

    Finite iff supp(rho) ⊆ supp(sigma); otherwise returns ``math.inf``.
    Both logarithms follow the pseudo-function-on-support convention.
    """
    _check_dims(rho, sigma)
    # the support weights also give the cross term Tr{rho log sigma}
    weights, eigenvalues = _support_weights(rho, sigma)
    if 1.0 - float(weights.sum()) > SUPPORT_TOL:
        return math.inf
    cross = float((weights * np.log(eigenvalues)).sum())
    return _clip(-von_neumann_entropy(rho) - cross)


def chi_squared(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Chi-squared divergence Tr{(rho - sigma)^2 sigma^{-1}}.

    ``sigma^{-1}`` is the pseudo-inverse on the support; returns ``math.inf``
    when supp(rho) is not contained in supp(sigma).
    """
    _check_dims(rho, sigma)
    if not supports_contained(rho, sigma):
        return math.inf
    return _clip(_inverse_weighted_norm(rho.matrix - sigma.matrix, sigma))


def _inverse_weighted_norm(x: np.ndarray, sigma: DensityOperator) -> float:
    """``Tr{x sigma^+ x†} = sum_j ||x v_j||^2 / lambda_j`` over the
    eigenpairs of ``sigma`` above ``RANK_TOL``."""
    spec = sigma.spectrum
    on = spec.eigenvalues > RANK_TOL
    cols = x @ spec.eigenvectors[:, on]
    return float(np.sum(np.sum(np.abs(cols) ** 2, axis=0) / spec.eigenvalues[on]))


def _difference_eigenvalues(a: DensityOperator, b: DensityOperator,
                            ca: float = 1.0, cb: float = 1.0) -> np.ndarray:
    """Eigenvalues of ``ca a - cb b``, block by block when both operators are
    held over the same partition (one stacked ``eigvalsh`` per group of
    equal-size blocks), else of the assembled difference."""
    (pa, sa), (pb, sb) = a.blocks, b.blocks
    if pa is not pb:
        whole = Partition.whole(a.dim)
        sa, sb = whole.restrict(sa, pa), whole.restrict(sb, pb)
    return np.concatenate([np.linalg.eigvalsh(ca * x - cb * y).ravel()
                           for x, y in zip(sa, sb)])


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace norm of the difference, Tr|rho - sigma|, in [0, 2]."""
    _check_dims(rho, sigma)
    return float(np.abs(_difference_eigenvalues(rho, sigma)).sum())


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


def pinsker_gap(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Slack D(rho||sigma) - ||rho - sigma||_1^2 / 2 (both sides in nats).

    Non-negative up to numerical noise; infinite when D is infinite.
    """
    d = relative_entropy(rho, sigma)
    if math.isinf(d):
        return math.inf
    t = trace_distance(rho, sigma)
    return d - t * t / 2.0


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


def holevo_information(probs, states: list[DensityOperator]) -> float:
    """Holevo information H(sum p_x s_x) - sum p_x H(s_x) of an ensemble, in nats."""
    p = validate_distribution(probs)
    if len(states) != p.size:
        raise DimensionMismatch(f"{p.size} probabilities for {len(states)} states")
    dim = states[0].dim
    for s in states:
        if s.dim != dim:
            raise DimensionMismatch("ensemble states have mixed dimensions")
    avg_matrix = sum(pi * s.matrix for pi, s in zip(p, states))
    avg = DensityOperator(hermitian_part(avg_matrix))
    chi = von_neumann_entropy(avg) - sum(pi * von_neumann_entropy(s)
                                         for pi, s in zip(p, states))
    return max(0.0, chi) if chi > -NEG_CLIP else chi


def _require_contained(inner: DensityOperator, outer: DensityOperator, label: str) -> None:
    leak = support_leak(inner, outer)
    if leak > SUPPORT_TOL:
        raise SupportViolation(f"{label}: support leak {leak:.3e} exceeds {SUPPORT_TOL:.0e}")


def phi_functional(sigma1: DensityOperator, sigma0: DensityOperator,
                   r: float) -> tuple[float, float]:
    """Decoding-exponent functional and its analytic r-derivative.

    Returns ``(-log T(r), d/dr of that)`` where
    ``T(r) = Tr{sigma1 sigma0^{r/2} sigma1^{-r} sigma0^{r/2}}``, with all
    powers and logs taken on the respective supports.  The value vanishes at
    r = 0 and the derivative there equals the relative entropy
    D(sigma1||sigma0).

    Raises
    ------
    SupportViolation
        If supp(sigma1) is not contained in supp(sigma0).
    """
    _check_dims(sigma1, sigma0)
    _require_contained(sigma1, sigma0, "phi_functional")
    pow0_half = matrix_power(sigma0.spectrum, r / 2.0)
    pow1_neg = matrix_power(sigma1.spectrum, -r)
    log0 = matrix_log(sigma0.spectrum)
    log1 = matrix_log(sigma1.spectrum)
    x = pow0_half @ pow1_neg @ pow0_half
    t = float(np.trace(sigma1.matrix @ x).real)
    # d/dr sigma0^{r/2} = (log sigma0 / 2) sigma0^{r/2} on the support,
    # d/dr sigma1^{-r} = -(log sigma1) sigma1^{-r} on the support
    dx = 0.5 * (log0 @ x + x @ log0) - pow0_half @ log1 @ pow1_neg @ pow0_half
    dt = float(np.trace(sigma1.matrix @ dx).real)
    return -math.log(t), -dt / t


def psi_functional(rho1: DensityOperator, rho0: DensityOperator,
                   r: float) -> tuple[float, float]:
    """Covertness-exponent functional and its analytic r-derivative.

    Returns ``(log T(r), d/dr of that)`` where
    ``T(r) = Tr{rho1^{1+r} rho0^{-r}}`` under the pseudo-power convention.
    The value vanishes at r = 0 and the derivative there equals
    D(rho1||rho0); the derivative has the closed form
    ``Tr{rho0^{-r} rho1^{1+r} (log rho1 - log rho0)} / T(r)``.
    """
    _check_dims(rho1, rho0)
    _require_contained(rho1, rho0, "psi_functional")
    pow1 = matrix_power(rho1.spectrum, 1.0 + r)
    pow0_neg = matrix_power(rho0.spectrum, -r)
    log0 = matrix_log(rho0.spectrum)
    log1 = matrix_log(rho1.spectrum)
    t = float(np.trace(pow1 @ pow0_neg).real)
    num = float(np.trace(pow0_neg @ pow1 @ (log1 - log0)).real)
    return math.log(t), num / t


def overlap_trace(sigma0: DensityOperator, sigma1: DensityOperator) -> float:
    """Second-moment overlap Tr{sigma0^{-1} sigma1^2} (pseudo-inverse on support).

    Raises
    ------
    SupportViolation
        If supp(sigma1) is not contained in supp(sigma0).
    """
    _check_dims(sigma0, sigma1)
    _require_contained(sigma1, sigma0, "overlap_trace")
    return _inverse_weighted_norm(sigma1.matrix, sigma0)
