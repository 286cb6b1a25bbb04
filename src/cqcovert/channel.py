"""Classical-quantum channel pairs and covertness-regime classification.

A channel pair maps each classical symbol x in {0, ..., N} to a receiver
state and an adversary state; symbol 0 is the innocent "no transmission"
input.  Support relations between the non-innocent states and the innocent
one decide which scaling regime governs covert communication; the decision
table is implemented by :func:`classify_scenario`.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.optimize

from .divergences import (
    SUPPORT_TOL,
    relative_entropy,
    support_leak,
    trace_distance,
    validate_distribution,
)
from .errors import (
    DimensionMismatch,
    InvalidPovm,
    ParseError,
    ValidationError,
    WrongRegime,
)
from .operators import (
    DensityOperator,
    make_density,
    matrix_from_json,
    matrix_inv_sqrt,
    mixture,
    require_hermitian,
)

MIXTURE_RESIDUAL_TOL = 1e-8
POVM_PSD_TOL = 1e-10
POVM_SUM_TOL = 1e-9
DMC_NEG_TOL = 1e-12      # most negative induced probability; milder ones clip to 0
DMC_ROW_SUM_TOL = 1e-9   # largest |sum_y p(y|x) - 1| of an induced row


class SupportRelation(str, enum.Enum):
    CONTAINED = "contained"
    OVERLAPPING = "overlapping"
    DISJOINT = "disjoint"


class ScenarioClass(str, enum.Enum):
    NO_GO = "NoGo"
    CONSTANT_BITS = "ConstantBits"
    LOG_LAW = "LogLaw"
    SQUARE_ROOT_LAW = "SquareRootLaw"
    SQRT_N_LOG_N = "SqrtNLogN"
    CONSTANT_RATE = "ConstantRate"


@dataclass(frozen=True)
class CqChannelPair:
    """States received by Bob and Willie for each input symbol.

    ``bob_states[x]`` and ``willie_states[x]`` are the outputs for symbol x;
    index 0 is the innocent symbol.  All Bob states share one dimension, all
    Willie states another.
    """

    bob_states: tuple[DensityOperator, ...]
    willie_states: tuple[DensityOperator, ...]

    def __post_init__(self):
        if len(self.bob_states) != len(self.willie_states):
            raise ValidationError(
                f"{len(self.bob_states)} Bob states vs "
                f"{len(self.willie_states)} Willie states")
        if len(self.bob_states) < 1:
            raise ValidationError("channel needs at least the innocent symbol 0")
        for name, states in (("bob", self.bob_states), ("willie", self.willie_states)):
            d = states[0].dim
            for x, s in enumerate(states):
                if s.dim != d:
                    raise ValidationError(
                        f"{name}[{x}] has dimension {s.dim}, expected {d}")

    @property
    def alphabet_size(self) -> int:
        return len(self.bob_states)

    @property
    def non_innocent(self) -> range:
        return range(1, self.alphabet_size)

    @cached_property
    def summary(self) -> "ChannelSummary":
        """Single-letter quantities of the pair, computed once per channel."""
        return ChannelSummary(self)

    @cached_property
    def scenario(self) -> "ScenarioReport":
        """``classify_scenario`` of the pair, computed once per channel."""
        return classify_scenario(self)


def channel_from_json(doc: dict) -> CqChannelPair:
    """Build a validated channel pair from its JSON document."""
    if not isinstance(doc, dict) or "bob" not in doc or "willie" not in doc:
        raise ParseError('channel document must contain "bob" and "willie" state lists')
    sides = {}
    for name in ("bob", "willie"):
        entries = doc[name]
        if not isinstance(entries, list) or not entries:
            raise ParseError(f'"{name}" must be a non-empty list of matrices '
                             "(index 0 is the innocent symbol)")
        states = []
        for x, m in enumerate(entries):
            try:
                states.append(make_density(matrix_from_json(m)))
            except Exception as exc:
                raise ValidationError(f"{name}[{x}]: {exc}") from exc
        sides[name] = tuple(states)
    return CqChannelPair(bob_states=sides["bob"], willie_states=sides["willie"])


def read_json(path: str, what: str) -> dict:
    """The JSON document in a ``what`` file (``ParseError`` when the file
    cannot be read or is not JSON)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {what} file {path}: {exc}") from exc


def load_channel(path: str) -> CqChannelPair:
    """Read and validate a channel-pair JSON file."""
    return channel_from_json(read_json(path, "channel"))


class SideSummary:
    """Single-letter quantities of one side (Bob or Willie), each computed on first use."""

    def __init__(self, states: tuple[DensityOperator, ...]):
        self.states = states

    @cached_property
    def inside(self) -> np.ndarray:
        """Mass ``Tr{P_0 state_x}`` inside the innocent support, for every symbol x."""
        return np.array([1.0 - support_leak(s, self.states[0]) for s in self.states])

    @cached_property
    def divergences(self) -> np.ndarray:
        """``D(state_x || state_0)`` in nats for the non-innocent symbols (inf on a leak)."""
        return np.array([relative_entropy(s, self.states[0]) for s in self.states[1:]])


class ChannelSummary:
    """Per-side :class:`SideSummary` plus Willie's chi-squared Gram matrix;
    vectors over the non-innocent symbols line up with ``ptilde``."""

    def __init__(self, channel: CqChannelPair):
        self.bob = SideSummary(channel.bob_states)
        self.willie = SideSummary(channel.willie_states)

    @cached_property
    def gram(self) -> np.ndarray:
        """``Q_xy = Re Tr{D_x rho_0^+ D_y}`` with ``D_x = willie_x - willie_0``, so
        that ``chi2(sum_x p_x willie_x || willie_0) = p^T Q p``.  Built as ``L^T L``
        from the real-vectorized ``D_x rho_0^{-1/2}``, so it is symmetric PSD."""
        rho0 = self.willie.states[0]
        root = matrix_inv_sqrt(rho0.spectrum)
        cols = [((s.matrix - rho0.matrix) @ root).ravel() for s in self.willie.states[1:]]
        factor = np.column_stack([np.concatenate([c.real, c.imag]) for c in cols])
        return factor.T @ factor

    @staticmethod
    def weighted(ptilde, values) -> float:
        """``sum_x ptilde_x values_x`` left to right, skipping ``ptilde_x = 0``: a
        zero-weight symbol adds nothing, even when its value is infinite."""
        if len(ptilde) != len(values):
            raise DimensionMismatch(
                f"ptilde has {len(ptilde)} entries for {len(values)} symbols")
        return sum(pi * v for pi, v in zip(ptilde, values) if pi != 0)

    def chi2(self, p: np.ndarray) -> float:
        """Chi-squared divergence of Willie's ``p``-mixture from the innocent
        state; inf when the mixture leaks more than ``SUPPORT_TOL`` outside."""
        if self.weighted(p, 1.0 - self.willie.inside[1:]) > SUPPORT_TOL:
            return math.inf
        return max(0.0, float(p @ self.gram @ p))


def _relation(inside: float) -> SupportRelation:
    if 1.0 - inside <= SUPPORT_TOL:
        return SupportRelation.CONTAINED
    if inside <= SUPPORT_TOL:
        return SupportRelation.DISJOINT
    return SupportRelation.OVERLAPPING


def support_relations(channel: CqChannelPair) -> list[tuple[SupportRelation, SupportRelation]]:
    """Per non-innocent symbol: (Bob relation, Willie relation) to the innocent support."""
    bob, willie = channel.summary.bob.inside, channel.summary.willie.inside
    return [(_relation(bob[x]), _relation(willie[x])) for x in channel.non_innocent]


def mixture_feasibility(rho0: DensityOperator, non_innocent: list[DensityOperator]
                        ) -> tuple[bool, np.ndarray | None]:
    """Can ``rho0`` be written as a convex mixture of the given states?

    Solves the linear feasibility problem with nonnegative least squares over
    the real-vectorized Hermitian components (a heavily weighted row enforces
    normalization), then renormalizes and checks the Frobenius residual
    against ``MIXTURE_RESIDUAL_TOL``.  Returns the witness distribution when
    feasible.
    """
    if not non_innocent:
        raise ValidationError("mixture feasibility needs at least one candidate state")
    for s in non_innocent:
        if s.dim != rho0.dim:
            raise DimensionMismatch(f"candidate dim {s.dim} != innocent dim {rho0.dim}")

    def vec(m: np.ndarray) -> np.ndarray:
        return np.concatenate([m.real.ravel(), m.imag.ravel()])

    weight = 1e4  # normalization row dominates the entry-wise residual
    cols = [np.concatenate([vec(s.matrix), [weight]]) for s in non_innocent]
    a = np.column_stack(cols)
    b = np.concatenate([vec(rho0.matrix), [weight]])
    pi, _ = scipy.optimize.nnls(a, b)
    total = pi.sum()
    if total <= 0:
        return False, None
    pi = pi / total
    residual = float(np.linalg.norm(mixture(pi, non_innocent).matrix - rho0.matrix))
    if residual <= MIXTURE_RESIDUAL_TOL:
        return True, pi
    return False, None


@dataclass(frozen=True)
class ScenarioReport:
    """Classification outcome with its witnesses.

    ``refinements`` lists the weak-covertness corner cases that apply when
    the strict verdict is NoGo; the string ``"weak-covert-unsettled"`` marks
    the leaking-receiver sub-case whose weak-covert scaling is not settled.
    ``sqrtnlogn_symbols`` lists every symbol that qualifies a SqrtNLogN
    channel (receiver-leaking, adversary-contained).
    """

    scenario: ScenarioClass
    relations: list[tuple[SupportRelation, SupportRelation]]
    refinements: tuple[str, ...] = ()
    mixture_pi: np.ndarray | None = None
    sqrtnlogn_symbols: tuple[int, ...] = ()

    def to_json(self) -> dict:
        return {
            "class": self.scenario.value,
            "relations": [
                {"symbol": x + 1, "bob": b.value, "willie": w.value}
                for x, (b, w) in enumerate(self.relations)
            ],
            "refinements": list(self.refinements),
            "mixture_pi": None if self.mixture_pi is None else self.mixture_pi.tolist(),
            "sqrtnlogn_symbols": list(self.sqrtnlogn_symbols),
        }


def _bob_pair_disjoint(channel: CqChannelPair) -> bool:
    # exists x != x' (both non-innocent) with orthogonal Bob supports
    symbols = list(channel.non_innocent)
    for i, x in enumerate(symbols):
        for x2 in symbols[i + 1:]:
            if support_leak(channel.bob_states[x2], channel.bob_states[x]) >= 1.0 - SUPPORT_TOL:
                return True
    return False


def classify_scenario(channel: CqChannelPair) -> ScenarioReport:
    """Place a channel pair in its covertness scaling regime.

    Strict covertness first: if no non-innocent symbol keeps Willie's state
    inside the innocent support, the verdict is NoGo, annotated with the
    applicable weak-covertness refinements (ConstantBits when two
    non-innocent Bob supports are orthogonal, LogLaw when some Bob support is
    orthogonal to the innocent one).  Otherwise the contained sub-alphabet
    decides between ConstantRate (innocent state is a mixture of
    non-innocent ones), SqrtNLogN (some contained symbol leaks at Bob), and
    SquareRootLaw.
    """
    relations = support_relations(channel)
    contained = [x for x, (_, w_rel) in zip(channel.non_innocent, relations)
                 if w_rel is SupportRelation.CONTAINED]

    if not contained:
        refinements = []
        if _bob_pair_disjoint(channel):
            refinements.append(ScenarioClass.CONSTANT_BITS.value)
        if any(b_rel is SupportRelation.DISJOINT for b_rel, _ in relations):
            refinements.append(ScenarioClass.LOG_LAW.value)
        if not refinements and any(b_rel is not SupportRelation.CONTAINED
                                   for b_rel, _ in relations):
            refinements.append("weak-covert-unsettled")
        return ScenarioReport(scenario=ScenarioClass.NO_GO, relations=relations,
                              refinements=tuple(refinements))

    feasible, pi = mixture_feasibility(
        channel.willie_states[0], [channel.willie_states[x] for x in contained])
    if feasible:
        return ScenarioReport(scenario=ScenarioClass.CONSTANT_RATE,
                              relations=relations, mixture_pi=pi)

    leaking = tuple(x for x in contained
                    if relations[x - 1][0] is not SupportRelation.CONTAINED)
    if leaking:
        return ScenarioReport(scenario=ScenarioClass.SQRT_N_LOG_N,
                              relations=relations, sqrtnlogn_symbols=leaking)
    return ScenarioReport(scenario=ScenarioClass.SQUARE_ROOT_LAW, relations=relations)


def require_regime(channel: CqChannelPair, wanted: ScenarioClass) -> None:
    """Raise ``WrongRegime``, naming the channel's class, unless
    ``classify_scenario`` places it in ``wanted`` (read from the channel's
    cached ``scenario``)."""
    verdict = channel.scenario
    if verdict.scenario is not wanted:
        raise WrongRegime(f"channel classified {verdict.scenario.value}, "
                          f"operation requires {wanted.value}")


@dataclass(frozen=True)
class Povm:
    """Positive operator-valued measure: PSD elements summing to identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elements = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not elements:
            raise InvalidPovm("POVM needs at least one element")
        dim = elements[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for i, e in enumerate(elements):
            try:
                e = require_hermitian(e)
            except Exception as exc:
                raise InvalidPovm(f"element {i}: {exc}") from exc
            if e.shape[0] != dim:
                raise InvalidPovm(f"element {i} has dimension {e.shape[0]}, expected {dim}")
            if np.linalg.eigvalsh(e).min() < -POVM_PSD_TOL:
                raise InvalidPovm(f"element {i} is not PSD within {POVM_PSD_TOL:.0e}")
            total += e
        if np.linalg.norm(total - np.eye(dim)) > POVM_SUM_TOL:
            raise InvalidPovm(f"elements sum to identity only within "
                              f"{np.linalg.norm(total - np.eye(dim)):.3e}")
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def num_outcomes(self) -> int:
        return len(self.elements)


def povm_from_json(doc: dict) -> Povm:
    if not isinstance(doc, dict) or not isinstance(doc.get("elements"), list):
        raise ParseError('POVM document must contain an "elements" list')
    return Povm(elements=tuple(matrix_from_json(m) for m in doc["elements"]))


def induce_dmc(states: list[DensityOperator], povm: Povm) -> np.ndarray:
    """Transition matrix p(y|x) = Tr{state_x element_y} of the induced DMC.

    Rows are input symbols, columns measurement outcomes; rows sum to one and
    sub-machine-noise negatives are clipped to zero.
    """
    if any(s.dim != povm.dim for s in states):
        raise DimensionMismatch("POVM dimension does not match the states")
    rows = np.empty((len(states), povm.num_outcomes))
    for i, s in enumerate(states):
        for j, e in enumerate(povm.elements):
            rows[i, j] = float(np.trace(s.matrix @ e).real)
    if rows.min() < -DMC_NEG_TOL:
        raise InvalidPovm(f"negative outcome probability {rows.min():.3e}")
    rows = np.clip(rows, 0.0, None)
    row_sums = rows.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > DMC_ROW_SUM_TOL:
        raise InvalidPovm(f"induced rows do not sum to 1 within {DMC_ROW_SUM_TOL:.0e}")
    return rows


def farthest_adversary_symbol(channel: CqChannelPair) -> tuple[float, int]:
    """``(max_x ||willie_x - willie_0||_1, argmax x)`` over the non-innocent
    symbols; a tie goes to the largest x."""
    if channel.alphabet_size < 2:
        raise ValidationError("need at least one non-innocent symbol")
    rho0 = channel.willie_states[0]
    return max((trace_distance(channel.willie_states[x], rho0), x)
               for x in channel.non_innocent)


def uniform_nontrivial_ptilde(channel: CqChannelPair) -> np.ndarray:
    """Uniform distribution over the non-innocent alphabet."""
    n = channel.alphabet_size - 1
    if n < 1:
        raise ValidationError("channel has no non-innocent symbols")
    return np.full(n, 1.0 / n)


def average_states(channel: CqChannelPair, ptilde) -> tuple[DensityOperator, DensityOperator]:
    """Average non-innocent states (Bob, Willie) under a distribution on x != 0."""
    p = validate_distribution(ptilde)
    if p.size != channel.alphabet_size - 1:
        raise DimensionMismatch(
            f"ptilde has {p.size} entries for {channel.alphabet_size - 1} symbols")
    return mixture(p, channel.bob_states[1:]), mixture(p, channel.willie_states[1:])
