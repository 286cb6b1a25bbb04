"""Self-contained randomized verification sweeps.

Each suite draws seeded random operators, checks one family of inequalities
or identities, and reports its worst margin (slack remaining before the
tolerance; negative means failure).  Backing for the ``verify`` CLI command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import CqChannelPair
from .divergences import (
    holevo_information,
    phi_functional,
    pinsker_gap,
    psi_functional,
    relative_entropy,
)
from .errors import InvalidParameter
from .operators import (
    DensityOperator,
    ginibre_state,
    haar_unitary,
    hermitian_part,
    matrix_power,
    pinching,
    random_hermitian,
    spectral_decomposition,
    spectral_projection_nonneg,
)
from .scaling import expansion_check, expansion_radius


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    worst_margin: float
    failures: list[dict] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: checks={self.checks} "
                f"worst_margin={self.worst_margin:.3e}")


class _Collector:
    def __init__(self, name: str, max_failures: int = 10):
        self.name = name
        self.checks = 0
        self.worst = math.inf
        self.failures: list[dict] = []
        self.max_failures = max_failures

    def record(self, margin: float, **context) -> None:
        self.checks += 1
        if margin < self.worst:
            self.worst = margin
        if margin < 0 and len(self.failures) < self.max_failures:
            self.failures.append({"margin": margin, **context})

    def result(self) -> SuiteResult:
        return SuiteResult(name=self.name, passed=not self.failures
                           and self.worst >= 0, checks=self.checks,
                           worst_margin=self.worst, failures=self.failures)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def pinsker_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """||rho - sigma||_1^2 / 2 never exceeds D(rho||sigma) by more than 1e-9."""
    rng = _rng(seed, 1)
    col = _Collector("pinsker")
    for dim in range(2, 7):
        for i in range(trials):
            rho = ginibre_state(dim, rng)
            sigma = ginibre_state(dim, rng)
            gap = pinsker_gap(rho, sigma)
            col.record(gap + 1e-9, dim=dim, index=i)
    return col.result()


def trace_bounds_suite(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Power-trace sandwich around the relative entropy, slack >= -1e-8.

    For states A, B and c > 0:
    (1/c) Tr{A - A^{1-c} B^c} <= D(A||B) <= (1/c) Tr{A^{1+c} B^{-c} - A}.
    """
    rng = _rng(seed, 2)
    col = _Collector("trace-bounds")
    for i in range(trials):
        dim = 2 + (i % 4)
        a = ginibre_state(dim, rng)
        b = ginibre_state(dim, rng)
        d = relative_entropy(a, b)
        for c in (0.1, 0.5, 1.0):
            lower = float(np.trace(
                a.matrix - matrix_power(a.spectrum, 1 - c) @ matrix_power(b.spectrum, c)
            ).real) / c
            upper = float(np.trace(
                matrix_power(a.spectrum, 1 + c) @ matrix_power(b.spectrum, -c) - a.matrix
            ).real) / c
            col.record(d - lower + 1e-8, kind="lower", c=c, dim=dim, index=i)
            col.record(upper - d + 1e-8, kind="upper", c=c, dim=dim, index=i)
    return col.result()


def sign_projection_suite(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Signed spectral projections never flip trace signs against PD weights.

    Tr{B A {A<0}} <= 1e-10 and Tr{B A {A>0}} >= -1e-10 for Hermitian A and
    positive-definite B.
    """
    rng = _rng(seed, 3)
    col = _Collector("sign-projections")
    for dim in range(2, 6):
        for i in range(trials):
            a = random_hermitian(dim, rng)
            b_state = ginibre_state(dim, rng)
            b = b_state.matrix + 1e-3 * np.eye(dim)  # ensure strictly PD
            spec = spectral_decomposition(a)  # one eigensolve for both projections
            pos = spectral_projection_nonneg(spec, strict=True)
            nonneg = spectral_projection_nonneg(spec, strict=False)
            neg = np.eye(dim) - nonneg
            t_neg = float(np.trace(b @ a @ neg).real)
            t_pos = float(np.trace(b @ a @ pos).real)
            col.record(1e-10 - t_neg, kind="negative", dim=dim, index=i)
            col.record(t_pos + 1e-10, kind="positive", dim=dim, index=i)
    return col.result()


def pinching_suite(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Dephasing commutes with its basis and preserves commuting traces.

    Checks ||[E_A(B), A]||_F <= 1e-9 and |Tr{B p(A)} - Tr{E_A(B) p(A)}| <=
    1e-9 for random polynomials p of degree <= 3, including degenerate A.
    """
    rng = _rng(seed, 4)
    col = _Collector("pinching")
    for dim in (2, 3, 4):
        for i in range(trials):
            a = random_hermitian(dim, rng) / (2 * math.sqrt(dim))
            if i % 3 == 0 and dim > 2:
                # force a degenerate eigenspace to exercise cluster merging
                w, v = np.linalg.eigh(a)
                w[0] = w[1]
                a = hermitian_part((v * w) @ v.conj().T)
            b = random_hermitian(dim, rng) / (2 * math.sqrt(dim))
            pinched = pinching(a, b)
            comm = np.linalg.norm(pinched @ a - a @ pinched)
            col.record(1e-9 - comm, kind="commutation", dim=dim, index=i)
            coeffs = rng.uniform(-1, 1, size=4)
            poly = (coeffs[0] * np.eye(dim) + coeffs[1] * a
                    + coeffs[2] * a @ a + coeffs[3] * a @ a @ a)
            t_orig = float(np.trace(b @ poly).real)
            t_pinched = float(np.trace(pinched @ poly).real)
            col.record(1e-9 - abs(t_orig - t_pinched),
                       kind="trace", dim=dim, index=i)
    return col.result()


def derivative_suite(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Analytic exponent derivatives match finite differences and anchor at D.

    Central differences (h = 1e-5) at r in {0.1, 0.5, 0.9} within 1e-6; the
    r = 0 derivative equals the relative entropy within 1e-8.
    """
    rng = _rng(seed, 5)
    col = _Collector("derivatives")
    h = 1e-5
    for i in range(trials):
        dim = 2 + (i % 3)
        s1 = ginibre_state(dim, rng)
        s0 = ginibre_state(dim, rng)
        d = relative_entropy(s1, s0)
        for name, functional in (("phi", phi_functional), ("psi", psi_functional)):
            _, at_zero = functional(s1, s0, 0.0)
            col.record(1e-8 - abs(at_zero - d), kind=f"{name}-anchor",
                       dim=dim, index=i)
            for r in (0.1, 0.5, 0.9):
                _, analytic = functional(s1, s0, r)
                plus, _ = functional(s1, s0, r + h)
                minus, _ = functional(s1, s0, r - h)
                fd = (plus - minus) / (2 * h)
                col.record(1e-6 - abs(analytic - fd), kind=name, r=r,
                           dim=dim, index=i)
    return col.result()


def commuting_pair(dim: int, rng: np.random.Generator,
                   floor: float = 0.1) -> tuple[DensityOperator, DensityOperator,
                                                np.ndarray, np.ndarray]:
    """Random full-rank pair sharing a Haar eigenbasis; returns states and spectra."""
    u = haar_unitary(dim, rng)

    def spectrum() -> np.ndarray:
        w = rng.dirichlet(np.ones(dim)) + floor
        return w / w.sum()

    wb, wc = spectrum(), spectrum()
    b = DensityOperator(hermitian_part((u * wb) @ u.conj().T))
    c = DensityOperator(hermitian_part((u * wc) @ u.conj().T))
    return b, c, wb, wc


def expansion_suite(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Quadratic expansion residual has cubic log-log slope in [2.7, 3.3].

    Sampled over commuting full-rank pairs, where the chi-squared divergence
    is exactly the curvature of the relative entropy.  (For non-commuting
    pairs the curvature is the strictly smaller divided-difference form, so
    the chi-squared prediction is only an upper bound and the residual is
    quadratic; that regime is out of scope for this suite.)  Draws whose
    cubic Taylor coefficient nearly vanishes are skipped: their residual is
    even smaller than cubic, which a slope fit cannot certify.
    """
    rng = _rng(seed, 6)
    col = _Collector("expansion")
    grid = np.logspace(-3, -1, 9)
    for dim in (2, 3, 4):
        done = 0
        while done < trials:
            b, c, wb, wc = commuting_pair(dim, rng)
            if expansion_radius(b, c) <= grid.max():
                continue  # outside the validity radius of the expansion
            chi2 = float(np.sum((wc - wb) ** 2 / wb))
            cubic = float(np.sum((wc - wb) ** 3 / wb ** 2))
            if abs(cubic) < 0.05 * chi2:
                continue  # degenerate cubic term: slope fit not meaningful
            check = expansion_check(b, c, grid)
            if check.slope is None:
                continue
            done += 1
            margin = min(check.slope - 2.7, 3.3 - check.slope)
            col.record(margin, dim=dim, index=done, slope=check.slope)
    return col.result()


def holevo_identity_suite(trials: int = 100, seed: int = 0) -> SuiteResult:
    """Holevo information equals the weighted-divergence expansion within 1e-8.

    chi(p_bar, states) = mu sum ptilde(x) D(state_x || state_0)
                         - D(mixture || state_0).
    """
    rng = _rng(seed, 7)
    col = _Collector("holevo")
    for i in range(trials):
        dim = 2 + (i % 2)
        n_symbols = 2 + (i % 3)
        bob = tuple(ginibre_state(dim, rng) for _ in range(n_symbols + 1))
        willie = tuple(ginibre_state(dim, rng) for _ in range(n_symbols + 1))
        channel = CqChannelPair(bob_states=bob, willie_states=willie)
        ptilde = rng.dirichlet(np.ones(n_symbols))
        for mu in (0.01, 0.1):
            p_bar = np.concatenate([[1.0 - mu], mu * ptilde])
            for side, states in (("bob", bob), ("willie", willie)):
                chi = holevo_information(p_bar, list(states))
                linear = mu * sum(
                    w * relative_entropy(states[x], states[0])
                    for w, x in zip(ptilde, range(1, n_symbols + 1)))
                mix_matrix = sum(w * s.matrix for w, s in zip(p_bar, states))
                mix = DensityOperator(hermitian_part(mix_matrix))
                d_mix = relative_entropy(mix, states[0])
                margin = 1e-8 - abs(chi - (linear - d_mix))
                col.record(margin, side=side, mu=mu, index=i)
    return col.result()


SUITES = {
    "pinsker": pinsker_suite,
    "trace-bounds": trace_bounds_suite,
    "sign-projections": sign_projection_suite,
    "pinching": pinching_suite,
    "derivatives": derivative_suite,
    "expansion": expansion_suite,
    "holevo": holevo_identity_suite,
}


def run_suites(names=None, trials: int | None = None, seed: int = 0) -> list[SuiteResult]:
    """Run the named suites (all by default) and return their results.

    ``trials`` overrides every suite's default count and must be at least 1:
    a suite of no checks would report a pass it never tested.
    """
    if trials is not None and trials < 1:
        raise InvalidParameter(f"trials must be an integer >= 1, got {trials}")
    chosen = list(SUITES) if not names else list(names)
    results = []
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        kwargs = {"seed": seed}
        if trials is not None:
            kwargs["trials"] = trials
        results.append(SUITES[name](**kwargs))
    return results
