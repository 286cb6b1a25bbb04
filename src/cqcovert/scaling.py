"""Closed-form scaling coefficients, input-distribution optimization, and
converse bounds.

The square-root-law coefficients are ratios of weighted relative entropies to
the square root of half the chi-squared divergence of the average
non-innocent adversary state.  All values are in nats; display conversion is
the CLI's concern.  Weighted sums skip symbols of zero weight, so a symbol
that ``ptilde`` does not use never contributes, even if its divergence is
infinite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    CqChannelPair,
    Povm,
    ScenarioClass,
    SupportRelation,
    induce_dmc,
    require_regime,
    support_relations,
)
from .coding import require_count
from .divergences import (
    SUPPORT_TOL,
    holevo_information,
    relative_entropy,
    validate_distribution,
)
from .errors import (
    InvalidParameter,
    ResourceError,
    SupportViolationClassical,
    WrongRegime,
    ZeroChiSquared,
)
from .operators import mixture

CLASSICAL_ZERO = 1e-12
CLASSICAL_LEAK_TOL = 1e-9
MAX_OPTIMIZE_SYMBOLS = 16  # optimize_ptilde enumerates 2^k faces: about 1 s at k = 16
OBJECTIVES = ("max-message", "min-key", "tradeoff")


@dataclass(frozen=True)
class ScalingReport:
    """Square-root-law coefficients for a channel at a given input
    distribution, in nats per unit of sqrt(n * covertness divergence).  The
    document names the regime and carries a null ``kappa``, the SqrtNLogN
    constant (see :class:`SqrtnLognReport`), so both regimes share keys.
    """

    message_coeff: float
    key_coeff: float
    ptilde: np.ndarray

    def to_json(self, unit: str = "nats") -> dict:
        scale = 1.0 if unit == "nats" else 1.0 / math.log(2.0)
        return {
            "regime": ScenarioClass.SQUARE_ROOT_LAW.value,
            "message_coeff": self.message_coeff * scale,
            "key_coeff": self.key_coeff * scale,
            "unit": unit,
            "ptilde": self.ptilde.tolist(),
            "kappa": None,
        }


def admissible_symbols(channel: CqChannelPair) -> list[int]:
    """Symbols whose Bob and Willie states are both inside the innocent supports."""
    return [x for x, (b_rel, w_rel) in zip(channel.non_innocent, support_relations(channel))
            if b_rel is SupportRelation.CONTAINED and w_rel is SupportRelation.CONTAINED]


def _srl_ptilde(channel: CqChannelPair, ptilde) -> np.ndarray:
    # a validated ptilde on a SquareRootLaw channel, weighting admissible symbols only
    p = validate_distribution(ptilde)
    require_regime(channel, ScenarioClass.SQUARE_ROOT_LAW)
    admissible = set(admissible_symbols(channel))
    for weight, x in zip(p, channel.non_innocent):
        if weight > 0 and x not in admissible:
            raise WrongRegime(f"ptilde puts weight on symbol {x} whose supports "
                              "are not contained")
    return p


def _chi_squared_denominator(channel: CqChannelPair, p: np.ndarray) -> float:
    chi2 = channel.summary.chi2(p)
    if not math.isfinite(chi2) or chi2 <= 0.0:
        raise ZeroChiSquared(f"chi-squared denominator {chi2!r}; the innocent "
                             "state must not be a mixture of the weighted symbols")
    return chi2


def _coefficient_pair(channel: CqChannelPair, p: np.ndarray) -> tuple[float, float]:
    # (message, key) coefficients without the regime gate
    denom = math.sqrt(_chi_squared_denominator(channel, p) / 2.0)
    summary = channel.summary
    d_bob = summary.weighted(p, summary.bob.divergences)
    d_willie = summary.weighted(p, summary.willie.divergences)
    return d_bob / denom, max(0.0, d_willie - d_bob) / denom


def scaling_report(channel: CqChannelPair, ptilde) -> ScalingReport:
    """Both square-root-law coefficients at a given input distribution."""
    p = _srl_ptilde(channel, ptilde)
    message, key = _coefficient_pair(channel, p)
    return ScalingReport(message_coeff=message, key_coeff=key, ptilde=p)


def _classical_kl(row: np.ndarray, innocent_row: np.ndarray) -> float:
    zero = innocent_row <= CLASSICAL_ZERO
    leak = float(row[zero].sum())
    if leak > CLASSICAL_LEAK_TOL:
        raise SupportViolationClassical(
            f"induced row has mass {leak:.3e} outside the innocent row support")
    live = (~zero) & (row > 0)
    return float(np.sum(row[live] * np.log(row[live] / innocent_row[live])))


def product_measurement_coefficients(channel: CqChannelPair, povm: Povm,
                                     ptilde) -> ScalingReport:
    """Scaling coefficients when Bob is restricted to a per-use measurement.

    The numerators use classical relative entropies of the induced DMC rows;
    the denominator keeps the quantum chi-squared divergence at Willie.
    Never better than the joint-measurement coefficients.
    """
    p = _srl_ptilde(channel, ptilde)
    chi2 = _chi_squared_denominator(channel, p)
    dmc = induce_dmc(list(channel.bob_states), povm)
    kl = np.array([_classical_kl(dmc[x], dmc[0]) for x in channel.non_innocent])
    summary = channel.summary
    num = summary.weighted(p, kl)
    gap = summary.weighted(p, summary.willie.divergences - kl)
    denom = math.sqrt(chi2 / 2.0)
    return ScalingReport(message_coeff=num / denom,
                         key_coeff=max(0.0, gap) / denom, ptilde=p)


@dataclass(frozen=True)
class SqrtnLognReport:
    """Leading constant of the sqrt(n) log(n) upper bound.

    The schedule-dependent additive term is not computable at finite n and is
    carried symbolically in ``expression``.
    """

    kappa: float
    leading_constant: float
    ptilde: np.ndarray
    expression: str

    def to_json(self) -> dict:
        return {
            "regime": ScenarioClass.SQRT_N_LOG_N.value,
            "kappa": self.kappa,
            "leading_constant": self.leading_constant,
            "ptilde": self.ptilde.tolist(),
            "expression": self.expression,
        }


def sqrtnlogn_coefficient(channel: CqChannelPair, ptilde) -> SqrtnLognReport:
    """Escape probability kappa and the computable part of the upper bound.

    ``kappa = 1 - Tr{P_0 sum p(x) bob_x}`` with ``P_0`` the innocent-support
    projector at Bob; the reported constant is ``kappa / (2 sqrt(chi2/2))``.
    """
    p = validate_distribution(ptilde)
    require_regime(channel, ScenarioClass.SQRT_N_LOG_N)
    summary = channel.summary
    for weight, x in zip(p, channel.non_innocent):
        if weight > 0 and 1.0 - summary.willie.inside[x] > SUPPORT_TOL:
            raise WrongRegime(f"ptilde puts weight on symbol {x} leaking at Willie")
    chi2 = _chi_squared_denominator(channel, p)
    kappa = 1.0 - summary.weighted(p, summary.bob.inside[1:])
    kappa = min(max(kappa, 0.0), 1.0)
    return SqrtnLognReport(
        kappa=kappa,
        leading_constant=kappa / (2.0 * math.sqrt(chi2 / 2.0)),
        ptilde=p,
        expression="kappa * (1/2 + lim log(1/iota)/log(n)) / sqrt(chi2/2); "
                   "the limit term depends on the vanishing schedule iota_n",
    )


def optimize_ptilde(channel: CqChannelPair, objective: str,
                    weight: float = 0.5) -> tuple[np.ndarray, ScalingReport]:
    """Certified optimal input distribution on the admissible simplex.

    Objectives: ``"max-message"`` maximizes the message coefficient,
    ``"min-key"`` minimizes the key coefficient, ``"tradeoff"`` maximizes
    message minus ``weight`` (>= 0) times key.  With ``d`` Bob's divergences,
    ``w`` Willie's minus Bob's and ``Q`` the chi-squared Gram matrix, each
    objective is ``min(a.p, b.p) / sqrt(p.Q.p / 2)``: ``a = b = d``
    (max-message), ``a = 0, b = -w`` (min-key), ``a = d, b = d - weight w``
    (tradeoff).  Its maximum lies at a vertex or at a stationary point inside
    a face of the simplex, possibly cut by ``w.p = 0``; on a face that point
    solves one small linear system.  Every face of the admissible symbols is
    enumerated (2^k of them for k symbols), the true objective is evaluated
    at every feasible candidate and every vertex, and the first best is kept,
    so the result is the global optimum.  More than ``MAX_OPTIMIZE_SYMBOLS``
    admissible symbols raise ``ResourceError`` before any face is visited.
    """
    if objective not in OBJECTIVES:
        raise InvalidParameter(f"unknown objective {objective!r}")
    if not (math.isfinite(weight) and weight >= 0.0):
        raise InvalidParameter(f"tradeoff weight must be finite and >= 0, got {weight!r}")
    require_regime(channel, ScenarioClass.SQUARE_ROOT_LAW)
    admissible = [x - 1 for x in admissible_symbols(channel)]  # never empty here
    if len(admissible) > MAX_OPTIMIZE_SYMBOLS:
        raise ResourceError(f"optimizing over {len(admissible)} admissible symbols "
                            f"enumerates 2^{len(admissible)} faces; the limit is "
                            f"{MAX_OPTIMIZE_SYMBOLS} symbols")
    summary = channel.summary
    d = summary.bob.divergences[admissible]
    w = summary.willie.divergences[admissible] - d
    q = summary.gram[np.ix_(admissible, admissible)]
    a, b = {"max-message": (d, d), "min-key": (np.zeros_like(w), -w),
            "tradeoff": (d, d - weight * w)}[objective]

    def value(p: np.ndarray) -> float:
        chi2 = float(p @ q @ p)
        return min(a @ p, b @ p) / math.sqrt(chi2 / 2.0) if chi2 > 0.0 else -math.inf

    k = len(admissible)
    # stationary points on a face S: Q_SS z = c_S, or with w.z = 0 active,
    # [[Q_SS, w_S], [w_S^T, 0]] [z; multiplier] = [c_S; 0], the rows and
    # columns S + [k] of the bordered matrix; all faces of one size are
    # solved in one stacked call, in the order face, c, plain then bordered
    bordered = np.block([[q, w[:, None]], [w[None, :], np.zeros((1, 1))]])
    candidates = list(np.eye(k))  # the vertices
    for size in range(1, k + 1):
        faces = np.array(list(itertools.combinations(range(k), size)))
        s = np.concatenate([faces, np.full((len(faces), 1), k)], axis=1)
        kkt = bordered[s[:, :, None], s[:, None, :]]
        zero = np.zeros((len(faces), 1))
        found = [_face_points(matrix, rhs, size)
                 for c in ((a,) if a is b else (a, b))
                 for matrix, rhs in ((kkt[:, :size, :size], c[faces]),
                                     (kkt, np.append(c[faces], zero, axis=1)))]
        points, feasible = zip(*found)
        z = np.stack(points, axis=1).reshape(-1, size)
        keep = np.stack(feasible, axis=1).ravel()
        p = np.zeros((len(z), k))
        p[np.arange(len(z))[:, None], np.repeat(faces, len(found), axis=0)] = z
        candidates.extend(p[keep])
    best = candidates[int(np.argmax([value(p) for p in candidates]))]
    p_full = np.zeros(channel.alphabet_size - 1)
    p_full[admissible] = best
    return p_full, scaling_report(channel, p_full)


def _face_points(matrix: np.ndarray, rhs: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``(points, feasible)`` of a stack of face systems ``matrix z = rhs``:
    the first ``size`` entries of each solution, normalised to sum 1, and
    whether the system is nonsingular with a nonzero sum and every entry
    nonnegative.  A system is singular when ``slogdet`` finds an exact zero
    pivot, the same LU factorisation at which ``solve`` would raise; the
    others are solved in one stacked call, each as ``solve`` solves it alone."""
    z = np.zeros(rhs.shape[:1] + (size,))
    live = np.linalg.slogdet(matrix)[0] != 0
    if live.any():
        z[live] = np.linalg.solve(matrix[live], rhs[live][..., None])[:, :size, 0]
    total = z.sum(axis=1)
    ok = total != 0.0
    z /= np.where(ok, total, 1.0)[:, None]
    return z, ok & np.all(z >= 0.0, axis=1)


@dataclass(frozen=True)
class ConverseBounds:
    """Single-letter converse quantities at an average input distribution.

    ``log_m_upper`` bounds the message length from above through the
    receiver's Holevo information; ``log_mk_lower`` bounds message plus key
    from below through the adversary's.  The ``linear_*`` fields are the
    looser weighted-divergence bounds used for cross-checking the Holevo
    expansion identity ``chi = mu * sum p D(x||0) - D(mixture||innocent)``.
    """

    log_m_upper: float
    log_mk_lower: float
    chi_bob: float
    chi_willie: float
    linear_bob: float
    linear_willie: float
    d_mix_bob: float
    d_mix_willie: float


def converse_bounds(channel: CqChannelPair, ptilde, mu: float, n: int,
                    delta: float, epsilon: float) -> ConverseBounds:
    """Evaluate the converse bounds at innocent mass 1 - mu, non-innocent mu.

    ``log_m_upper = (n chi_bob + 1) / (1 - delta)`` and
    ``log_mk_lower = n chi_willie - epsilon`` in nats.  ``n`` must be a
    count (``require_count``) and ``epsilon`` finite and >= 0.
    """
    p = validate_distribution(ptilde)
    if not 0.0 <= mu < 1.0:
        raise InvalidParameter(f"mu must lie in [0, 1), got {mu}")
    if not 0.0 <= delta < 1.0:
        raise InvalidParameter(f"delta must lie in [0, 1), got {delta}")
    require_count("blocklength n", n)
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise InvalidParameter(f"epsilon must be finite and >= 0, got {epsilon!r}")
    p_bar = np.concatenate([[1.0 - mu], mu * p])
    summary = channel.summary
    linear_bob = mu * summary.weighted(p, summary.bob.divergences)
    linear_willie = mu * summary.weighted(p, summary.willie.divergences)
    chi, d_mix = [], []
    for states in (channel.bob_states, channel.willie_states):
        d_mix.append(relative_entropy(mixture(p_bar, states), states[0]))
        chi.append(holevo_information(p_bar, list(states)))
    return ConverseBounds(
        log_m_upper=(n * chi[0] + 1.0) / (1.0 - delta),
        log_mk_lower=n * chi[1] - epsilon,
        chi_bob=chi[0], chi_willie=chi[1],
        linear_bob=linear_bob, linear_willie=linear_willie,
        d_mix_bob=d_mix[0], d_mix_willie=d_mix[1])
