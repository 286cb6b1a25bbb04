"""The benchmark's workloads.

A workload has a ``name`` and three methods: ``calls(seed)`` lists the CLI
argument vectors of one pass, ``setup(cli)`` does the set-up work timed on
its own (given the freshly imported ``cqcovert.cli``), and
``check(results, checks, structure)`` checks one pass's outputs against the
oracles, records ``covert_inf`` and the optimizer ``shortfalls`` in
``structure``, and returns (operations, failed
operations) per call.  Channels are fixed JSON files under ``channels/``;
the seed only reaches the CLI's ``--seed``.

An operation is one CLI call or one simulated trial.  It fails if the call
raises or exits non-zero, or if a check on it misses its oracle or breaks an
invariant.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles

CHANNELS = Path(__file__).resolve().parent / "channels"
TRIALS = 1            # simulate trials per blocklength in one pass
ORACLE_TOL = 1e-9     # relative (above 1) or absolute agreement with an oracle


@dataclass
class CallResult:
    argv: list[str]
    rc: int | None
    out: str
    error: str | None   # repr of an exception the call raised


class Checks:
    """Oracle checks of one pass: per check, count, largest deviation, failures."""

    def __init__(self):
        self.table: dict[str, list] = {}

    def deviation(self, name: str, dev: float, tol: float) -> bool:
        row = self.table.setdefault(name, [0, 0.0, tol, 0])
        row[0] += 1
        row[1] = max(row[1], dev)
        ok = dev <= tol
        row[3] += not ok
        return ok

    def close(self, name: str, got: float, want: float, tol: float = ORACLE_TOL) -> bool:
        if math.isinf(got) or math.isinf(want):
            dev = 0.0 if got == want else math.inf
        else:
            dev = abs(got - want) / max(1.0, abs(want))
        return self.deviation(name, dev, tol)

    def holds(self, name: str, ok: bool) -> bool:
        return self.deviation(name, 0.0 if ok else 1.0, 0.0)

    def lines(self) -> list[str]:
        return [f"check {name}: n={n} max_dev={dev:.3e} tol={tol:.0e} failures={bad}"
                for name, (n, dev, tol, bad) in sorted(self.table.items())]


def _channel(name: str) -> str:
    return str(CHANNELS / f"{name}.json")


def _exited_ok(result: CallResult, checks: Checks) -> bool:
    return checks.holds("cli.exit_code", result.error is None and result.rc == 0)


def _output(result: CallResult, checks: Checks) -> dict | None:
    """The call's JSON document, or None (recorded as a failed check) if the
    call raised, exited non-zero or printed something else."""
    if not _exited_ok(result, checks):
        return None
    try:
        doc = json.loads(result.out)
    except ValueError:
        doc = None
    return doc if checks.holds("cli.json_output", doc is not None) else None


@dataclass(frozen=True)
class Sweep:
    """One ``simulate`` call per pass."""

    name: str
    channel: str
    n_list: str
    gamma: float
    knobs: tuple[float, float, float]      # varsigma, mu, nu
    diagonal: bool                         # exact classical oracle for Bob and Willie

    def calls(self, seed: int) -> list[list[str]]:
        return [["simulate", "--channel", _channel(self.channel), "--n", self.n_list,
                "--gamma", repr(self.gamma), "--sigma-knobs", ",".join(map(repr, self.knobs)),
                "--trials", str(TRIALS), "--seed", str(seed), "--format", "json"]]

    def setup(self, cli) -> None:
        channel = cli.load_channel(_channel(self.channel))
        cli.default_epsilon_target(channel, cli.uniform_nontrivial_ptilde(channel), self.gamma)

    def check(self, results, checks, structure):
        from cqcovert.channel import load_channel
        from cqcovert.coding import sample_codebook

        (result,) = results
        trials = TRIALS * len(self.n_list.split(","))
        doc = _output(result, checks)
        if doc is None:
            return [(1 + trials, 1 + trials)]
        call_ok = checks.holds("simulate.trial_count", len(doc["trials"]) == trials)

        bob, willie = oracles.matrices(json.loads(Path(_channel(self.channel)).read_text()))
        p = np.full(len(bob) - 1, 1.0 / (len(bob) - 1))
        d_bob = sum(px * oracles.relative_entropy(b, bob[0]) for px, b in zip(p, bob[1:]))
        d_willie = sum(px * oracles.relative_entropy(w, willie[0])
                       for px, w in zip(p, willie[1:]))
        varsigma, mu, nu = self.knobs
        program_channel = load_channel(_channel(self.channel))
        if self.diagonal:
            bob = [np.diag(m).real.copy() for m in bob]
            willie = [np.diag(m).real.copy() for m in willie]

        failed = 0
        for trial in doc["trials"]:
            n, m_count, k_count = trial["n"], trial["m_count"], trial["k_count"]
            pe_bob, covert_d, pe_willie = (trial["pe_bob"], trial["covert_d_nats"],
                                           trial["pe_willie"])
            structure["covert_inf"] += math.isinf(covert_d)
            log_m, log_k = oracles.code_sizes(d_bob, d_willie, n, self.gamma, varsigma)
            ok = checks.close("simulate.log_m_raw", trial["log_m_raw"], log_m)
            ok &= checks.close("simulate.log_k_raw", trial["log_k_raw"], log_k)
            ok &= checks.holds("simulate.counts_from_sizes", (
                m_count == max(1, math.ceil(math.exp(trial["log_m_raw"]) - 1e-12))
                and k_count == max(1, math.ceil(math.exp(trial["log_k_raw"]) - 1e-12))))
            ok &= checks.holds("bob.pe_in_unit_interval", 0.0 <= pe_bob <= 1.0)
            # Pinsker: 1/2 - pe_willie = ||rho_bar - rho_0||_1 / 4 <= sqrt(D / 2) / 2
            ok &= checks.deviation("willie.pinsker",
                                   max(0.0, 0.5 - pe_willie - math.sqrt(covert_d / 2) / 2),
                                   1e-12)

            symbols = sample_codebook(program_channel, n, m_count, k_count, self.gamma,
                                      p, trial["seed"]).symbols
            innocent_w = oracles.kron_rows(willie, np.zeros((1, n), dtype=int))[0]
            rho_bar = sum(oracles.kron_rows(willie, symbols)) / len(symbols)
            if self.diagonal:
                a = (1.0 - nu) * (1.0 - mu) * self.gamma * math.sqrt(n) * d_bob
                innocent_b = oracles.kron_rows(bob, np.zeros((1, n), dtype=int))[0]
                rows = np.array(oracles.kron_rows(bob, symbols))
                pe_keys = [oracles.diagonal_srm_error(rows[key::k_count], innocent_b, a)
                           for key in range(k_count)]
                ok &= checks.close("bob.pe_vs_diagonal_srm", pe_bob, float(np.mean(pe_keys)))
                ok &= checks.close("willie.D_vs_classical_kl", covert_d,
                                   oracles.classical_relative_entropy(rho_bar, innocent_w))
                ok &= checks.close("willie.pe_vs_total_variation", pe_willie,
                                   oracles.total_variation_error(rho_bar, innocent_w))
            else:
                ok &= checks.close("willie.D_vs_dense", covert_d,
                                   oracles.relative_entropy(rho_bar, innocent_w))
                ok &= checks.close("willie.pe_vs_dense_helstrom", pe_willie,
                                   oracles.helstrom_error(rho_bar, innocent_w))
            failed += not ok
        return [(1 + trials, failed + (not call_ok))]


class SingleLetter:
    """The CLI calls that never build block states.

    The optimizer's restart seed stays at the CLI default: its number of
    objective evaluations, and so the pass time, changes with that seed, and
    at seed 0 the min-key search shows its vertex stall.  The workload seed
    reaches ``verify``.
    """

    name = "single-letter"
    channels = ("srl_d2_k3", "srl_d3_k6")

    def calls(self, seed: int) -> list[list[str]]:
        calls = [["classify", "--channel", _channel(c)] for c in self.channels]
        calls += [["coefficients", "--channel", _channel(c), "--optimize", objective]
                  for c in self.channels for objective in ("max-message", "min-key")]
        calls.append(["verify", "--seed", str(seed)])
        return calls

    def setup(self, cli) -> None:
        for name in self.channels:
            cli.classify_scenario(cli.load_channel(_channel(name)))

    def check(self, results, checks, structure):
        verdicts = []
        for result in results:
            if result.argv[0] == "verify":
                ok = (_exited_ok(result, checks)
                      and checks.holds("verify.all_pass", all(
                          line.startswith("PASS") for line in result.out.splitlines())))
            else:
                doc = _output(result, checks)
                ok = doc is not None and self._check_document(result.argv, doc, checks,
                                                              structure)
            verdicts.append((1, int(not ok)))
        return verdicts

    @staticmethod
    def _check_document(argv, doc, checks, structure) -> bool:
        bob, willie = oracles.matrices(json.loads(Path(argv[2]).read_text()))
        if not all(oracles.full_rank(m) for m in bob + willie):
            raise ValueError(f"{argv[2]}: the oracles need full-rank states")
        if argv[0] == "classify":
            # full-rank innocent states contain every support
            want = "ConstantRate" if oracles.is_mixture(willie[0], willie[1:]) else "SquareRootLaw"
            return checks.holds("classify.class_vs_lp", doc["class"] == want)
        return _check_optimum(argv[4], doc, oracles.SquareRootLawTerms(bob, willie),
                              checks, structure)


def _check_optimum(objective, doc, terms, checks, structure) -> bool:
    """The reported coefficients must equal the oracle's at the reported ptilde
    and must not beat the certified optimum.  The relative gap to the optimum
    is recorded as a shortfall, not a failure: the optimizer is documented as a
    heuristic."""
    message, key = terms.coefficients(np.asarray(doc["ptilde"], dtype=float))
    ok = checks.close("coefficients.message_at_ptilde", doc["message_coeff"], message)
    ok &= checks.close("coefficients.key_at_ptilde", doc["key_coeff"], key)
    if objective == "max-message":
        best = terms.max_message()
        shortfall = (best - doc["message_coeff"]) / best
    else:
        best = terms.min_key()
        shortfall = (doc["key_coeff"] - best) / best
    ok &= checks.deviation(f"coefficients.{objective}_not_beating_optimum",
                           max(0.0, -shortfall), ORACLE_TOL)
    structure["shortfalls"].append(shortfall)
    return ok


WORKLOADS = {w.name: w for w in (
    Sweep("diag-n10", "diag_qubit", "6,8,10", 0.5, (0.3, 0.1, 0.1), diagonal=True),
    Sweep("keyed-n8", "ginibre_qubit", "6,8", 1.0, (0.1, 0.1, 0.1), diagonal=False),
    SingleLetter(),
)}
