"""Self-contained randomized verification sweeps.

Each suite draws seeded random operators, checks one family of inequalities
or identities, and reports its worst margin (slack remaining before the
tolerance; negative or NaN means failure).  Backing for the ``verify`` CLI
command.

A suite runs its trials in chunks of ``CHUNK``, each in three phases: draw
every random number of the chunk's trials in trial order (so the random
stream is the one a trial-by-trial loop draws), build and diagonalise the
chunk's states as one stack per shape (``ginibre_states``), then check them
with the package's own functionals.  The pinsker, trace-bounds and
derivatives suites check each dimension's trials of a chunk with one call
of each stacked functional (``pinsker_gaps``, ``relative_entropies``,
``phi_functionals``, ...) and record the margins trial by trial, in trial
order; the other suites check trial by trial.  Every margin is
bit-identical to building and checking the states one at a time, and
memory does not grow with the number of trials.  The expansion suite runs
trial by trial: it rejects candidates, so a chunk cannot know ahead how
many draws it needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import (
    holevo_information,
    phi_functionals,
    pinsker_gaps,
    psi_functionals,
    relative_entropies,
    relative_entropy,
)
from .errors import InvalidParameter
from .operators import (
    DensityOperator,
    dagger,
    ginibre_states,
    haar_unitary,
    hermitian_part,
    matrix_power,
    mixture,
    pinching,
    random_hermitians,
    spectral_decompositions,
    spectral_projection_nonneg,
)
from .scaling import expansion_check, expansion_radius

# Trials drawn, built and diagonalised together: enough to amortise the
# per-call cost of the stacked numpy calls, few enough that a chunk's
# stacks stay small next to the process.
CHUNK = 16
MAX_FAILURES = 10  # failing cases a suite lists


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
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.worst = math.inf
        self.failures: list[dict] = []

    def record(self, margin: float, **context) -> None:
        self.checks += 1
        if margin < self.worst or math.isnan(margin):  # a NaN stays the worst
            self.worst = margin
        if not margin >= 0 and len(self.failures) < MAX_FAILURES:
            self.failures.append({"margin": margin, **context})

    def result(self) -> SuiteResult:
        return SuiteResult(name=self.name, passed=not self.failures
                           and self.worst >= 0, checks=self.checks,
                           worst_margin=self.worst, failures=self.failures)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _chunks(trials: int):
    """The trial indices ``range(trials)`` in consecutive chunks of ``CHUNK``."""
    for start in range(0, trials, CHUNK):
        yield range(start, min(start + CHUNK, trials))


def _ginibre_draws(rng: np.random.Generator, dims) -> list[np.ndarray]:
    """The draws of one ``ginibre_state(dim, rng)`` call per entry of
    ``dims``, in that order, taken by one call to the generator."""
    sizes = [2 * dim * dim for dim in dims]
    flat = rng.standard_normal(sum(sizes))
    return [flat[end - size:end] for end, size in zip(itertools.accumulate(sizes), sizes)]


def _ginibre_build(draws: list[np.ndarray]) -> list[DensityOperator]:
    """The states of ``draws`` in order, built and diagonalised as one stack
    per dimension."""
    where: dict[int, list[int]] = {}
    for pos, x in enumerate(draws):
        where.setdefault(x.size, []).append(pos)
    states = [None] * len(draws)
    for size, positions in where.items():
        dim = math.isqrt(size // 2)
        stack = ginibre_states(np.stack([draws[pos] for pos in positions]).reshape(-1, 2, dim, dim))
        # diagonalise the whole stack now: each state reads its share
        vars(stack).update(spectrum=stack.spectrum, eigenvalues_only=stack.eigenvalues_only)
        for k, pos in enumerate(positions):
            states[pos] = stack[k]
    return states


def _check_pairs(col: _Collector, rng: np.random.Generator, chunk: range, dims: list[int],
                 check) -> None:
    """Draw two Ginibre states of dimension ``dims[k]`` for the chunk's k-th
    trial, in trial order; check each dimension's trials in one call,
    ``check(first, second)`` on their two states as two stacks, which
    returns ``(margins, context)`` pairs with one margin per trial; then
    record each trial's margins in trial order."""
    draws = _ginibre_draws(rng, [d for d in dims for _ in range(2)])
    checks = {}
    for dim in sorted(set(dims)):
        at = [k for k, d in enumerate(dims) if d == dim]
        first, second = (ginibre_states(np.stack([draws[2 * k + j] for k in at])
                                        .reshape(-1, 2, dim, dim)) for j in (0, 1))
        found = [(np.asarray(margins).tolist(), context)
                 for margins, context in check(first, second)]
        for n, k in enumerate(at):
            checks[k] = [(margins[n], context) for margins, context in found]
    for k, i in enumerate(chunk):
        for margin, context in checks[k]:
            col.record(margin, **context, dim=dims[k], index=i)


def pinsker_suite(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """||rho - sigma||_1^2 / 2 never exceeds D(rho||sigma) by more than 1e-9."""
    rng = _rng(seed, 1)
    col = _Collector("pinsker")
    for dim in range(2, 7):
        for chunk in _chunks(trials):
            _check_pairs(col, rng, chunk, [dim] * len(chunk),
                         lambda rho, sigma: [(pinsker_gaps(rho, sigma) + 1e-9, {})])
    return col.result()


def trace_bounds_suite(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Power-trace sandwich around the relative entropy, slack >= -1e-8.

    For states A, B and c > 0:
    (1/c) Tr{A - A^{1-c} B^c} <= D(A||B) <= (1/c) Tr{A^{1+c} B^{-c} - A}.
    """
    def check(a, b):
        d = relative_entropies(a, b)
        margins = []
        for c in (0.1, 0.5, 1.0):
            lower = np.trace(a.matrix - matrix_power(a.spectrum, 1 - c)
                             @ matrix_power(b.spectrum, c), axis1=1, axis2=2).real / c
            upper = np.trace(matrix_power(a.spectrum, 1 + c)
                             @ matrix_power(b.spectrum, -c) - a.matrix, axis1=1, axis2=2).real / c
            margins += [(d - lower + 1e-8, {"kind": "lower", "c": c}),
                        (upper - d + 1e-8, {"kind": "upper", "c": c})]
        return margins

    rng = _rng(seed, 2)
    col = _Collector("trace-bounds")
    for chunk in _chunks(trials):
        _check_pairs(col, rng, chunk, [2 + i % 4 for i in chunk], check)
    return col.result()


def sign_projection_suite(trials: int = 200, seed: int = 0) -> SuiteResult:
    """Signed spectral projections never flip trace signs against PD weights.

    Tr{B A {A<0}} <= 1e-10 and Tr{B A {A>0}} >= -1e-10 for Hermitian A and
    positive-definite B.
    """
    rng = _rng(seed, 3)
    col = _Collector("sign-projections")
    for dim in range(2, 6):
        for chunk in _chunks(trials):
            draws = rng.standard_normal((len(chunk), 2, 2, dim, dim))  # per trial: A, then B
            a_stack = random_hermitians(draws[:, 0])
            spectra = spectral_decompositions(a_stack)  # one eigensolve for both projections
            b_states = ginibre_states(draws[:, 1]).matrix
            for i, a, spec, b_state in zip(chunk, a_stack, spectra, b_states):
                b = b_state + 1e-3 * np.eye(dim)  # ensure strictly PD
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
        for chunk in _chunks(trials):
            draws, coeffs = [], []
            for _ in chunk:  # per trial: A, B, then the polynomial's coefficients
                draws.append(rng.standard_normal((2, 2, dim, dim)))
                coeffs.append(rng.uniform(-1, 1, size=4))
            draws = np.stack(draws)
            a_stack = random_hermitians(draws[:, 0]) / (2 * math.sqrt(dim))
            b_stack = random_hermitians(draws[:, 1]) / (2 * math.sqrt(dim))
            if dim > 2:
                # force a degenerate eigenspace to exercise cluster merging
                forced = [k for k, i in enumerate(chunk) if i % 3 == 0]
                w, v = np.linalg.eigh(a_stack[forced])
                w[:, 0] = w[:, 1]
                a_stack[forced] = hermitian_part((v * w[:, None, :]) @ dagger(v))
            spectra = spectral_decompositions(a_stack)
            for i, a, spec, b, c in zip(chunk, a_stack, spectra, b_stack, coeffs):
                pinched = pinching(spec, b)
                comm = np.linalg.norm(pinched @ a - a @ pinched)
                col.record(1e-9 - comm, kind="commutation", dim=dim, index=i)
                poly = (c[0] * np.eye(dim) + c[1] * a
                        + c[2] * a @ a + c[3] * a @ a @ a)
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
    h = 1e-5
    points = (0.1, 0.5, 0.9)
    rs = [0.0, *points, *(r + h for r in points), *(r - h for r in points)]

    def check(s1, s0):
        d = relative_entropies(s1, s0)
        margins = []
        for name, functionals in (("phi", phi_functionals), ("psi", psi_functionals)):
            values, slopes = functionals(s1, s0, rs)  # rows: r = 0, points, + h, - h
            fd = (values[4:7] - values[7:10]) / (2 * h)
            margins.append((1e-8 - np.abs(slopes[0] - d), {"kind": f"{name}-anchor"}))
            margins += [(1e-6 - np.abs(analytic - diff), {"kind": name, "r": r})
                        for r, analytic, diff in zip(points, slopes[1:4], fd)]
        return margins

    rng = _rng(seed, 5)
    col = _Collector("derivatives")
    for chunk in _chunks(trials):
        _check_pairs(col, rng, chunk, [2 + i % 3 for i in chunk], check)
    return col.result()


def commuting_pair(dim: int, rng: np.random.Generator
                   ) -> tuple[DensityOperator, DensityOperator, np.ndarray, np.ndarray]:
    """Random full-rank pair sharing a Haar eigenbasis; returns states and spectra."""
    u = haar_unitary(dim, rng)

    def spectrum() -> np.ndarray:
        w = rng.dirichlet(np.ones(dim)) + 0.1  # the floor keeps both states full rank
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
    for chunk in _chunks(trials):
        draws, ptildes = [], []
        for i in chunk:  # per trial: Bob's n_symbols + 1 states, Willie's, then ptilde
            n_symbols = 2 + (i % 3)
            draws += _ginibre_draws(rng, [2 + (i % 2)] * (2 * n_symbols + 2))
            ptildes.append(rng.dirichlet(np.ones(n_symbols)))
        built = iter(_ginibre_build(draws))
        for i, ptilde in zip(chunk, ptildes):
            n_symbols = ptilde.size
            bob = tuple(next(built) for _ in range(n_symbols + 1))
            willie = tuple(next(built) for _ in range(n_symbols + 1))
            mus = (0.01, 0.1)
            p_bars = [np.concatenate([[1.0 - mu], mu * ptilde]) for mu in mus]
            sides = []
            for side, states in (("bob", bob), ("willie", willie)):
                # the symbols' divergences do not depend on mu; the mixtures
                # of both mu values are scored in one stacked call
                divergences = [relative_entropy(s, states[0]) for s in states[1:]]
                d_mixes = relative_entropies(mixture(np.stack(p_bars), states),
                                             states[0][None]).tolist()
                sides.append((side, states, divergences, d_mixes))
            for j, (mu, p_bar) in enumerate(zip(mus, p_bars)):
                for side, states, divergences, d_mixes in sides:
                    chi = holevo_information(p_bar, list(states))
                    linear = mu * sum(w * d for w, d in zip(ptilde, divergences))
                    margin = 1e-8 - abs(chi - (linear - d_mixes[j]))
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
