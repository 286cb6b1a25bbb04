"""Distance and divergence functionals between quantum states.

All divergences are returned in nats; unit conversion is a display concern.
An infinite divergence (support-containment failure) is reported as the
``math.inf`` sentinel rather than an exception so that scenario
classification can branch on it.  Small negative values inside the numerical
noise window ``(-1e-9, 0)`` are clipped to zero.

Every functional takes one pair of states (or one ensemble).  Block-held
states (``ProductBasis.state`` and Willie's average state) pass through the
same code as dense ones: a dense state is the one-block case.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvalidDistribution, SupportViolation
from .operators import (
    RANK_TOL,
    DensityOperator,
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


def _clip(value: float) -> float:
    return 0.0 if -NEG_CLIP < value < 0.0 else value


def _support_weights(rho: DensityOperator, sigma: DensityOperator
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``(weights, eigenvalues)``: the k eigenvalues of ``sigma`` above
    ``RANK_TOL`` (its k leading ones) and the weights ``<v_j| rho |v_j>``
    over their eigenvectors v_j.  The weights sum to ``Tr{P_sigma rho}``,
    the mass of ``rho`` inside the support of ``sigma``.  The eigenvectors
    are cut to the support before the product: with the kernel's columns
    too, the product rounds some weights differently.  When the
    eigenvectors are unit vectors the weights are diagonal entries of
    ``rho``, read off its blocks without a matrix product."""
    spec = sigma.spectrum
    k = int(np.count_nonzero(spec.eigenvalues > RANK_TOL))
    if spec.permutation is not None:
        partition, stacks = rho.blocks
        weights = partition.diagonal(stacks).real[spec.permutation[:k]]
    else:
        v = spec.eigenvectors[:, :k]
        weights = np.einsum("ij,ij->j", v.conj(), rho.matrix @ v).real
    return weights, spec.eigenvalues[:k]


def support_leak(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Probability mass of ``rho`` outside the support of ``sigma``."""
    _check_dims(rho, sigma)
    return max(0.0, float(1.0 - _support_weights(rho, sigma)[0].sum()))


def _entropy(w: np.ndarray) -> float:
    """-sum w log w over the entries of ``w`` above ``RANK_TOL``."""
    support = w[w > RANK_TOL]
    return -float((support * np.log(support)).sum())


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Quantum relative entropy D(rho||sigma) = Tr{rho (log rho - log sigma)}
    in nats.

    Finite iff supp(rho) ⊆ supp(sigma); otherwise ``math.inf``.  Both
    logarithms follow the pseudo-function-on-support convention.
    """
    _check_dims(rho, sigma)
    # the support weights also give the cross term Tr{rho log sigma}
    weights, eigenvalues = _support_weights(rho, sigma)
    if 1.0 - weights.sum() > SUPPORT_TOL:
        return math.inf
    return _clip(float(-_entropy(rho.eigenvalues_only) - (weights * np.log(eigenvalues)).sum()))


def chi_squared(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Chi-squared divergence chi2(rho||sigma) = Tr{(rho - sigma)^2 sigma^{-1}}.

    ``sigma^{-1}`` is the pseudo-inverse on the support; ``math.inf`` where
    supp(rho) is not contained in supp(sigma).  Summed as
    ``sum_j ||(rho - sigma) v_j||^2 / lambda_j`` over the eigenpairs of
    ``sigma`` above ``RANK_TOL``.
    """
    _check_dims(rho, sigma)
    if support_leak(rho, sigma) > SUPPORT_TOL:
        return math.inf
    spec = sigma.spectrum
    k = int(np.count_nonzero(spec.eigenvalues > RANK_TOL))
    cols = (rho.matrix - sigma.matrix) @ spec.eigenvectors[:, :k]
    return _clip(float(np.sum(np.sum(np.abs(cols) ** 2, axis=-2) / spec.eigenvalues[:k])))


def _difference_eigenvalues(a: DensityOperator, b: DensityOperator,
                            scale: float = 1.0) -> np.ndarray:
    """Eigenvalues of ``scale (a - b)``, as ``scale a - scale b``, block by
    block when both operators are held over the same partition (one stacked
    ``eigvalsh`` per group of equal-size blocks), else of the assembled
    difference."""
    (pa, sa), (pb, sb) = a.blocks, b.blocks
    if pa is not pb:
        sa, sb = (pa.assemble(sa)[None],), (pb.assemble(sb)[None],)
    return np.concatenate([np.linalg.eigvalsh(scale * x - scale * y).ravel()
                           for x, y in zip(sa, sb)])


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Trace norm of the difference, Tr|rho - sigma|, in [0, 2]."""
    _check_dims(rho, sigma)
    return float(np.abs(_difference_eigenvalues(rho, sigma)).sum())


def helstrom_error(rho_bar: DensityOperator, rho0: DensityOperator) -> float:
    """Minimum error of discriminating two equally likely states.

    The optimum over all two-outcome POVMs is
    ``(1 - ||rho_bar / 2 - rho0 / 2||_1) / 2``, in [0, 1/2].  The trace
    norm is summed block by block over a partition the two share.
    """
    _check_dims(rho_bar, rho0)
    w = _difference_eigenvalues(rho_bar, rho0, 0.5)
    err = 0.5 * (1.0 - float(np.sum(np.abs(w))))
    return min(max(err, 0.0), 1.0)


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
        raise InvalidDistribution(f"negative probability {float(p.min())!r}")
    if abs(p.sum() - 1.0) > DISTRIBUTION_TOL:
        raise InvalidDistribution(f"probabilities sum to {float(p.sum())!r}, not 1")
    return p


def holevo_information(probs, states: list[DensityOperator]) -> float:
    """Holevo information H(sum_x p_x s_x) - sum_x p_x H(s_x) of one
    ensemble, in nats."""
    p = validate_distribution(probs)
    if len(states) != p.size:
        raise DimensionMismatch(f"{p.size} probabilities for {len(states)} states")
    dim = states[0].dim
    for s in states:
        if s.dim != dim:
            raise DimensionMismatch("ensemble states have mixed dimensions")
    chi = (_entropy(mixture(p, states).eigenvalues_only)
           - sum(p[x] * _entropy(s.eigenvalues_only) for x, s in enumerate(states)))
    return 0.0 if -NEG_CLIP < chi <= 0.0 else float(chi)


def _require_contained(inner: DensityOperator, outer: DensityOperator, label: str) -> None:
    """Raise ``SupportViolation`` unless ``inner`` lies in the support of ``outer``."""
    leak = 1.0 - _support_weights(inner, outer)[0].sum()
    if leak > SUPPORT_TOL:
        raise SupportViolation(f"{label}: support leak {leak:.3e} exceeds {SUPPORT_TOL:.0e}")


def _trace(x: np.ndarray) -> float:
    return float(np.trace(x).real)


def psi_functional(rho1: DensityOperator, rho0: DensityOperator,
                   r: float) -> tuple[float, float]:
    """Covertness-exponent functional and its analytic r-derivative.

    Returns ``(log T(r), d/dr of that)``, where
    ``T(r) = Tr{rho1^{1+r} rho0^{-r}}`` under the pseudo-power convention.
    The value vanishes at r = 0 and the derivative there equals
    D(rho1||rho0); the derivative has the closed form
    ``Tr{rho0^{-r} rho1^{1+r} (log rho1 - log rho0)} / T(r)``.

    Raises
    ------
    SupportViolation
        If supp(rho1) is not contained in supp(rho0).
    """
    _check_dims(rho1, rho0)
    _require_contained(rho1, rho0, "psi_functional")
    spec0, spec1 = rho0.spectrum, rho1.spectrum
    pow1 = matrix_power(spec1, 1.0 + r)
    pow0_neg = matrix_power(spec0, -r)
    t = _trace(pow1 @ pow0_neg)
    log_ratio = matrix_log(spec1) - matrix_log(spec0)
    return math.log(t), _trace(pow0_neg @ pow1 @ log_ratio) / t
