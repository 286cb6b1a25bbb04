"""Self-contained randomized verification sweeps.

Each suite draws seeded random operators, checks one family of inequalities
or identities, and reports its worst margin (slack remaining before the
tolerance; negative or NaN means failure).  Backing for the ``verify`` CLI
command.

A suite runs its trials in chunks of ``CHUNK``, each in three phases: draw
every random number of the chunk's trials in trial order (so the random
stream is the one a trial-by-trial loop draws), build and diagonalise the
chunk's states as one stack per shape (``ginibre_states``,
``random_hermitians``, ``haar_unitaries``), then check each group of trials
of one shape with one call of each of the package's stacked functionals
(``pinsker_gaps``, ``relative_entropies``, ``phi_functionals``,
``spectral_projection_nonneg``, ``pinching``, ``holevo_informations``,
``expansion_checks``, ...) and record the margins trial by trial, in trial
order.  Every margin is bit-identical to building and checking the states
one at a time, and memory does not grow with the number of trials.  The
expansion suite rejects candidates, so its chunks are counted in kept
candidates: a chunk draws one candidate at a time until it holds as many
as the suite still needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import (
    holevo_informations,
    phi_functionals,
    pinsker_gaps,
    psi_functionals,
    relative_entropies,
)
from .errors import InvalidParameter
from .operators import (
    DensityOperator,
    dagger,
    ginibre_states,
    haar_unitaries,
    hermitian_part,
    matrix_power,
    mixture,
    pinching,
    random_hermitians,
    spectral_decompositions,
    spectral_projection_nonneg,
)
from .scaling import expansion_checks, expansion_radii

# Trials drawn, built and diagonalised together: enough to amortise the
# per-call cost of the stacked numpy calls (larger chunks gain under 10%),
# few enough that a chunk's stacks (at most about 2 MB) leave the process's
# peak memory as it is.
CHUNK = 128
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


def _check_pairs(col: _Collector, rng: np.random.Generator, chunk: range, dims: list[int],
                 check) -> None:
    """Draw two Ginibre states of dimension ``dims[k]`` for the chunk's k-th
    trial, in trial order, with one call to the generator; check each
    dimension's trials in one call, ``check(first, second)`` on their two
    states as two stacks, which returns ``(margins, context)`` pairs with
    one margin per trial; then record each trial's margins in trial order."""
    sizes = [4 * dim * dim for dim in dims]  # per trial: two (2, dim, dim) draws
    flat = rng.standard_normal(sum(sizes))
    starts = np.cumsum([0, *sizes[:-1]])
    checks = {}
    for dim in sorted(set(dims)):
        at = [k for k, d in enumerate(dims) if d == dim]
        pairs = flat[starts[at, None] + np.arange(4 * dim * dim)].reshape(-1, 2, 2, dim, dim)
        first, second = ginibre_states(pairs[:, 0]), ginibre_states(pairs[:, 1])
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
            a = random_hermitians(draws[:, 0])
            spectra = spectral_decompositions(a)  # one eigensolve for both projections
            b = ginibre_states(draws[:, 1]).matrix + 1e-3 * np.eye(dim)  # ensure strictly PD
            pos = spectral_projection_nonneg(spectra, strict=True)
            neg = np.eye(dim) - spectral_projection_nonneg(spectra, strict=False)
            t_neg = np.trace(b @ a @ neg, axis1=1, axis2=2).real
            t_pos = np.trace(b @ a @ pos, axis1=1, axis2=2).real
            for i, below, above in zip(chunk, (1e-10 - t_neg).tolist(), (t_pos + 1e-10).tolist()):
                col.record(below, kind="negative", dim=dim, index=i)
                col.record(above, kind="positive", dim=dim, index=i)
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
            a = random_hermitians(draws[:, 0]) / (2 * math.sqrt(dim))
            b = random_hermitians(draws[:, 1]) / (2 * math.sqrt(dim))
            if dim > 2:
                # force a degenerate eigenspace to exercise cluster merging
                forced = [k for k, i in enumerate(chunk) if i % 3 == 0]
                w, v = np.linalg.eigh(a[forced])
                w[:, 0] = w[:, 1]
                a[forced] = hermitian_part((v * w[:, None, :]) @ dagger(v))
            pinched = pinching(spectral_decompositions(a), b)
            # the Frobenius norm one matrix at a time: np.linalg.norm of one
            # matrix sums with a dot product, which rounds unlike a stacked sum
            comms = [float(np.linalg.norm(x)) for x in pinched @ a - a @ pinched]
            c = np.array(coeffs)[:, :, None, None]
            poly = (c[:, 0] * np.eye(dim) + c[:, 1] * a
                    + c[:, 2] * a @ a + c[:, 3] * a @ a @ a)
            t_orig = np.trace(b @ poly, axis1=1, axis2=2).real
            t_pinched = np.trace(pinched @ poly, axis1=1, axis2=2).real
            gaps = np.abs(t_orig - t_pinched).tolist()
            for i, comm, gap in zip(chunk, comms, gaps):
                col.record(1e-9 - comm, kind="commutation", dim=dim, index=i)
                col.record(1e-9 - gap, kind="trace", dim=dim, index=i)
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


def _commuting_draws(dim: int, rng: np.random.Generator):
    """One commuting pair's draws in stream order: the Ginibre block of the
    Haar unitary, then the spectra of the two states."""
    g = rng.standard_normal((2, dim, dim))

    def spectrum() -> np.ndarray:
        w = rng.dirichlet(np.ones(dim)) + 0.1  # the floor keeps both states full rank
        return w / w.sum()

    return g, spectrum(), spectrum()


def _commuting_pairs(draws: np.ndarray, wb: np.ndarray, wc: np.ndarray
                     ) -> tuple[DensityOperator, DensityOperator]:
    """The two stacks of states of pairs sharing a Haar eigenbasis, one pair
    per row of ``draws``, ``wb`` and ``wc``."""
    u = haar_unitaries(draws)
    return tuple(DensityOperator(hermitian_part((u * w[:, None, :]) @ dagger(u)))
                 for w in (wb, wc))


def expansion_suite(trials: int = 50, seed: int = 0) -> SuiteResult:
    """Quadratic expansion residual has cubic log-log slope in [2.7, 3.3].

    Sampled over commuting full-rank pairs, where the chi-squared divergence
    is exactly the curvature of the relative entropy.  (For non-commuting
    pairs the curvature is the strictly smaller divided-difference form, so
    the chi-squared prediction is only an upper bound and the residual is
    quadratic; that regime is out of scope for this suite.)  Draws whose
    cubic Taylor coefficient nearly vanishes are skipped: their residual is
    even smaller than cubic, which a slope fit cannot certify.  So are draws
    outside the validity radius of the expansion.

    Whether a draw is kept depends on its own draws only.  A chunk draws
    pairs one at a time until it holds as many with a usable cubic term as
    the suite still needs, no more: the stream is the one a trial-by-trial
    loop draws.  It then checks them in one call per functional.
    """
    rng = _rng(seed, 6)
    col = _Collector("expansion")
    grid = np.logspace(-3, -1, 9)
    for dim in (2, 3, 4):
        done = 0
        while done < trials:
            draws = []
            while len(draws) < min(CHUNK, trials - done):
                g, wb, wc = _commuting_draws(dim, rng)
                chi2 = float(np.sum((wc - wb) ** 2 / wb))
                cubic = float(np.sum((wc - wb) ** 3 / wb ** 2))
                if not abs(cubic) < 0.05 * chi2:
                    draws.append((g, wb, wc))
            b, c = _commuting_pairs(*map(np.stack, zip(*draws)))
            radii = expansion_radii(b, c)
            inside = np.flatnonzero(radii > grid.max())
            if not inside.size:
                continue
            for check in expansion_checks(b[inside], c[inside], grid, radii[inside]):
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

    A chunk's trials are scored in groups of one dimension and one ensemble
    size, one stacked call per functional, and recorded in trial order.
    """
    rng = _rng(seed, 7)
    col = _Collector("holevo")
    mus = (0.01, 0.1)
    mu = np.array(mus)[None, :, None]
    for chunk in _chunks(trials):
        groups: dict[tuple[int, int], list] = {}
        for i in chunk:  # per trial: Bob's n_symbols + 1 states, Willie's, then ptilde
            dim, n_symbols = 2 + i % 2, 2 + i % 3
            draws = rng.standard_normal((2 * n_symbols + 2, 2, dim, dim))
            groups.setdefault((dim, n_symbols), []).append(
                (i, draws, rng.dirichlet(np.ones(n_symbols))))
        margins = {}
        for (dim, n_symbols), group in sorted(groups.items()):
            index, draws, ptilde = zip(*group)
            ptilde, size = np.array(ptilde), n_symbols + 1
            # states in rows (trial, side, symbol), each solved once by the
            # reads below: the stacks indexed from them copy what is cached
            states = ginibre_states(np.concatenate(draws))
            states.eigenvalues_only
            sides = np.arange(2 * len(index))  # rows (trial, side)
            innocent = states[sides * size]
            innocent.spectrum
            # the symbols' divergences do not depend on mu
            divergences = relative_entropies(
                states[(sides[:, None] * size + np.arange(1, size)).ravel()],
                innocent[np.repeat(sides, n_symbols)]).reshape(-1, 2, n_symbols)
            linear = mu * sum(ptilde[:, None, x] * divergences[..., x]
                              for x in range(n_symbols))[:, None, :]
            # ensembles in rows (trial, mu, side)
            ensemble = np.repeat(sides.reshape(-1, 1, 2), 2, axis=1).ravel()
            p_bar = np.concatenate([np.broadcast_to(1.0 - mu, (len(index), 2, 1)),
                                    mu * ptilde[:, None, :]], axis=-1)
            probs = np.repeat(p_bar, 2, axis=1).reshape(-1, size)
            members = [states[ensemble * size + x] for x in range(size)]
            mixed = mixture(probs, members)
            d_mix = relative_entropies(mixed, innocent[ensemble])
            chi = holevo_informations(probs, members, mixed)
            found = 1e-8 - np.abs(chi - (linear.ravel() - d_mix))
            margins.update(zip(index, found.reshape(-1, 4).tolist()))
        for i in chunk:
            for margin, (mu_, side) in zip(margins[i], itertools.product(mus, ("bob", "willie"))):
                col.record(margin, side=side, mu=mu_, index=i)
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
