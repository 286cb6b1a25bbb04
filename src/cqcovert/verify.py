"""Seeded checks of the numbers the CLI reports.

Each suite draws small channels from the seed, runs the package on them as
``simulate`` and ``coefficients --optimize`` do, checks what they report
against an independent recomputation or a bound, and reports its worst
margin (slack remaining before the tolerance; negative or NaN means
failure).  Backing for the ``verify`` CLI command.

The simulated channels are one of each kind in ``KINDS``, with one
non-innocent symbol, run at the blocklengths ``N_LIST`` with ``trials``
trials each.  Every innocent state is a random state mixed half and half
with the maximally mixed one, and every other state lies halfway between a
random state and its side's innocent state, so that every divergence, and
with it the code sizes M and K, stays small.  A suite's channels and runs
are drawn and made once per ``run_suites`` call, on first use, from a
stream of their own, so a suite's output does not depend on which suites
run with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import CqChannelPair
from .coding import ExperimentConfig, product_state, require_count, run_experiment
from .divergences import helstrom_error, relative_entropy
from .errors import ValidationError
from .operators import DensityOperator, ginibre_state, hermitian_part, kron_chain, make_density
from .scaling import OBJECTIVES, optimize_ptilde, scaling_report

KINDS = ("commuting", "qubit", "block")  # diagonal qubit, Ginibre qubit, qutrit 2+1 blocks
N_LIST = (2, 4)  # dense n-fold states stay at most 81 x 81
GAMMA = 1.0
DEFAULT_TRIALS = 2
OPTIMUM_SYMBOLS = 3  # non-innocent symbols of the channels the optimum suite draws
TOL = 1e-9  # agreement with a recomputation, relative above 1, and slack of a bound
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


def _agreement(value: float, reference: float) -> float:
    """Slack of ``|value - reference| <= TOL max(1, |reference|)``; two
    equal infinities agree."""
    if math.isinf(value) or math.isinf(reference):
        return TOL if value == reference else -math.inf
    return TOL * max(1.0, abs(reference)) - abs(value - reference)


def _random_state(kind: str, rng: np.random.Generator) -> np.ndarray:
    if kind == "commuting":
        return np.diag(rng.dirichlet(np.ones(2))).astype(complex)
    if kind == "qubit":
        return ginibre_state(2, rng).matrix
    weight = rng.uniform()
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = weight * ginibre_state(2, rng).matrix
    out[2, 2] = 1.0 - weight
    return out


def _channel(kind: str, rng: np.random.Generator, symbols: int) -> CqChannelPair:
    """A channel of the given kind with ``symbols`` non-innocent symbols,
    Bob's states drawn first."""
    def side() -> tuple[DensityOperator, ...]:
        draw = _random_state(kind, rng)
        innocent = (draw + np.eye(len(draw)) / len(draw)) / 2
        states = [innocent] + [(_random_state(kind, rng) + innocent) / 2 for _ in range(symbols)]
        return tuple(make_density(m) for m in states)

    return CqChannelPair(bob_states=side(), willie_states=side())


class _Runs:
    """The suites' seeded channels and runs, each made once, on first use."""

    def __init__(self, seed: int, trials: int):
        self.seed, self.trials = seed, trials
        self._runs: dict[str, list] = {}

    def trials_of(self, kinds=KINDS):
        """``(kind, config, report, codebook, decoders)`` per trial of
        ``run_experiment`` on each kind's channel: the trial's codebook and
        its keys' decoders, as the run built them."""
        for kind in kinds:
            if kind not in self._runs:
                channel = _channel(kind, _rng(self.seed, 1 + KINDS.index(kind)), 1)
                config = ExperimentConfig(channel=channel, n_list=N_LIST, gamma=GAMMA,
                                          trials=self.trials, seed=self.seed,
                                          ptilde=np.ones(1))
                built = []  # per trial: its codebook and decoders

                def keep(codebook, keys, decoders):
                    if keys.start == 0:
                        built.append((codebook, []))
                    built[-1][1].extend(decoders)

                reports = run_experiment(config, keep)
                self._runs[kind] = [(kind, config, r, *trial) for r, trial in zip(reports, built)]
            yield from self._runs[kind]


def willie_dense_suite(runs: _Runs) -> SuiteResult:
    """Willie's ``covert_D`` and ``pe_willie`` equal ``relative_entropy`` and
    ``helstrom_error`` of the dense average state, the mean of the codewords'
    ``kron_chain`` products, against the dense n-fold innocent state."""
    col = _Collector("willie-dense")
    for kind, config, r, codebook, _ in runs.trials_of():
        states = config.channel.willie_states
        rho_bar = DensityOperator(hermitian_part(
            sum(product_state(states, row).matrix for row in codebook.symbols)
            / len(codebook.symbols)))
        rho0 = product_state(states, [0] * r.n)
        context = {"kind": kind, "n": r.n, "seed": r.seed}
        col.record(_agreement(r.covert_d, relative_entropy(rho_bar, rho0)),
                   quantity="covert_D", **context)
        col.record(_agreement(r.pe_willie, helstrom_error(rho_bar, rho0)),
                   quantity="pe_willie", **context)
    return col.result()


def willie_classical_suite(runs: _Runs) -> SuiteResult:
    """On the commuting channel, ``covert_D`` and ``pe_willie`` equal the
    classical KL divergence and total-variation error of the averaged
    product distribution against the n-fold innocent one."""
    col = _Collector("willie-classical")
    for kind, config, r, codebook, _ in runs.trials_of(("commuting",)):
        rows = [np.diag(s.matrix).real for s in config.channel.willie_states]
        p = sum(kron_chain([rows[x] for x in row]) for row in codebook.symbols) / len(
            codebook.symbols)
        q = kron_chain([rows[0]] * r.n)
        live = p > 0
        kl = float(np.sum(p[live] * np.log(p[live] / q[live])))
        context = {"kind": kind, "n": r.n, "seed": r.seed}
        col.record(_agreement(r.covert_d, kl), quantity="covert_D", **context)
        col.record(_agreement(r.pe_willie, 0.5 * (1.0 - 0.5 * float(np.abs(p - q).sum()))),
                   quantity="pe_willie", **context)
    return col.result()


def pinsker_suite(runs: _Runs) -> SuiteResult:
    """Each trial's ``covert_D`` and ``pe_willie`` satisfy Pinsker's
    inequality: with ``||rho_bar - rho_0||_1 = 2 (1 - 2 pe_willie)``, its
    square over 2 never exceeds ``covert_D`` by more than ``TOL``."""
    col = _Collector("pinsker")
    for kind, _, r, _, _ in runs.trials_of():
        distance = 2.0 * (1.0 - 2.0 * r.pe_willie)
        col.record(r.covert_d - distance * distance / 2.0 + TOL, kind=kind, n=r.n, seed=r.seed)
    return col.result()


def decoders_suite(runs: _Runs) -> SuiteResult:
    """Every decoder the runs build passes ``DecoderPovm.validate`` (a
    sub-POVM), and each trial's ``pe_bob`` equals its decoders' average
    error recomputed densely: each element in the computational basis
    against the ``kron_chain`` product state of its codeword."""
    col = _Collector("decoders")
    for kind, config, r, codebook, decoders in runs.trials_of():
        errors = []
        for key, decoder in enumerate(decoders):
            context = {"kind": kind, "n": r.n, "seed": r.seed, "key": key}
            try:
                col.record(decoder.validate(), quantity="sub_povm", **context)
            except ValidationError as exc:
                col.record(-math.inf, quantity="sub_povm", error=str(exc), **context)
            hits = [np.trace(element @ product_state(config.channel.bob_states, row).matrix).real
                    for element, row in zip(decoder.elements, codebook.codewords(key))]
            errors.append(float(np.mean(1.0 - np.array(hits))))
        col.record(_agreement(r.pe_bob, float(np.mean(errors))), quantity="pe_bob",
                   kind=kind, n=r.n, seed=r.seed)
    return col.result()


def _objective(report, objective: str) -> float:
    """The value ``optimize_ptilde`` maximises, at its default tradeoff weight."""
    return {"max-message": report.message_coeff, "min-key": -report.key_coeff,
            "tradeoff": report.message_coeff - 0.5 * report.key_coeff}[objective]


def optimum_suite(runs: _Runs) -> SuiteResult:
    """No vertex of the input simplex beats the optimum ``optimize_ptilde``
    returns, for every objective, on non-commuting channels of
    ``OPTIMUM_SYMBOLS`` symbols (Ginibre qubit and qutrit 2+1 blocks in
    turn, one per trial)."""
    col = _Collector("optimum")
    rng = _rng(runs.seed, 1 + len(KINDS))
    for trial in range(runs.trials):
        kind = KINDS[1 + trial % 2]
        channel = _channel(kind, rng, OPTIMUM_SYMBOLS)
        for objective in OBJECTIVES:
            best = _objective(optimize_ptilde(channel, objective)[1], objective)
            for x, vertex in enumerate(np.eye(OPTIMUM_SYMBOLS)):
                value = _objective(scaling_report(channel, vertex), objective)
                col.record(best - value + TOL * max(1.0, abs(best)), kind=kind,
                           objective=objective, vertex=x, index=trial)
    return col.result()


SUITES = {
    "willie-dense": willie_dense_suite,
    "willie-classical": willie_classical_suite,
    "pinsker": pinsker_suite,
    "decoders": decoders_suite,
    "optimum": optimum_suite,
}


def run_suites(names=None, trials: int | None = None, seed: int = 0) -> list[SuiteResult]:
    """Run the named suites (all by default) and return their results.

    ``trials`` (default ``DEFAULT_TRIALS``) is the number of trials per
    blocklength of each simulated channel, and the number of channels the
    optimum suite draws; it must be an integer >= 1 (``require_count``,
    ``InvalidParameter`` otherwise): a suite of no checks would report a
    pass it never tested.  ``seed`` must be an integer >= 0, checked the
    same way before any suite runs.
    """
    if trials is not None:
        require_count("trials", trials)
    require_count("seed", seed, least=0)
    chosen = list(SUITES) if not names else list(names)
    for name in chosen:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    runs = _Runs(seed, DEFAULT_TRIALS if trials is None else trials)
    return [SUITES[name](runs) for name in chosen]
