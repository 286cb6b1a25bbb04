"""Command-line entry point.

Subcommands: ``classify``, ``coefficients``, ``simulate``, ``verify``,
``nogo``.  Data outputs go to ``--out`` (default stdout) and are
deterministic given the flags and seed; progress lines go to stderr.

Exit codes: 0 success, 2 input error, 3 regime mismatch, 4 resource cap
or out of memory, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .channel import (
    # the two marked F401 are not called here (a channel classifies itself
    # once, in ``CqChannelPair.scenario``, and ``checked_ptilde`` owns the
    # default input distribution), but importable from this module: the
    # benchmark's set-ups call ``cli.classify_scenario`` and
    # ``cli.uniform_nontrivial_ptilde``
    classify_scenario,  # noqa: F401
    farthest_adversary_symbol,
    load_channel,
    povm_from_json,
    read_json,
    ScenarioClass,
    uniform_nontrivial_ptilde,  # noqa: F401
)
from .coding import (
    Codebook,
    ExperimentConfig,
    default_epsilon_target,
    nogo_experiment,
    run_experiment,
    select_best,
)
from .errors import InputError, ParseError, RegimeError, ResourceError, WrongRegime
from .scaling import (
    OBJECTIVES,
    optimize_ptilde,
    product_measurement_coefficients,
    scaling_report,
    sqrtnlogn_coefficient,
)
from .verify import SUITES, run_suites

SIMULATE_HEADER = "n,gamma,seed,logM_nats,logK_nats,pe_bob,covert_D_nats,pe_willie"
COEFFICIENTS_HEADER = "regime,message_coeff,key_coeff,kappa,unit,ptilde"
NOGO_HEADER = "epsilon,c_min,pe_willie,bob_bound,admissible_fraction,pair_bound"


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc


def _emit(args, doc, csv_lines: list[str]) -> int:
    """Write ``doc`` as JSON or ``csv_lines`` as CSV, as ``--format`` asks."""
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(csv_lines) + "\n"
    _write(text, args.out)
    return 0


def _parse_floats(raw: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",") if v != ""]
    except ValueError as exc:
        raise ParseError(f"{flag} expects a comma list of numbers: {exc}") from exc


def _parse_ints(raw: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in raw.split(",") if v != ""]
    except ValueError as exc:
        raise ParseError(f"{flag} expects a comma list of integers: {exc}") from exc


def _ptilde(args) -> np.ndarray | None:
    """``--ptilde`` as a vector, or None (the library's default) when it is not given."""
    return None if args.ptilde is None else np.asarray(_parse_floats(args.ptilde, "--ptilde"))


def cmd_classify(args) -> int:
    doc = load_channel(args.channel).scenario.to_json()
    refinements = ";".join(doc["refinements"])
    symbols = ";".join(str(s) for s in doc["sqrtnlogn_symbols"])
    return _emit(args, doc, ["class,refinements,sqrtnlogn_symbols",
                             f"{doc['class']},{refinements},{symbols}"])


def cmd_coefficients(args) -> int:
    channel = load_channel(args.channel)
    verdict = channel.scenario
    unit = "bits" if args.bits else "nats"

    if verdict.scenario is ScenarioClass.SQUARE_ROOT_LAW:
        if args.optimize and args.povm:
            raise ParseError("--optimize and --povm cannot be combined; "
                             "optimize works on the joint-measurement coefficients")
        if args.optimize:
            objective, *fields = args.optimize.split(":")
            if objective not in OBJECTIVES or len(fields) > (1 if objective == "tradeoff" else 0):
                raise ParseError("--optimize expects max-message, min-key or "
                                 f"tradeoff[:w], got {args.optimize!r}")
            try:
                weights = [float(v) for v in fields]
            except ValueError as exc:
                raise ParseError(f"--optimize tradeoff weight must be a number: {exc}") from exc
            ptilde, report = optimize_ptilde(channel, objective, *weights)
        elif args.povm:
            povm = povm_from_json(read_json(args.povm, "POVM"))
            report = product_measurement_coefficients(channel, povm, _ptilde(args))
        else:
            report = scaling_report(channel, _ptilde(args))
        doc = report.to_json(unit)
        doc["optimized"] = args.optimize or None
        return _emit(args, doc, [COEFFICIENTS_HEADER,
                                 f"{doc['regime']},{_fmt(doc['message_coeff'])},"
                                 f"{_fmt(doc['key_coeff'])},,{unit},"
                                 f"{';'.join(_fmt(v) for v in doc['ptilde'])}"])

    if verdict.scenario is ScenarioClass.SQRT_N_LOG_N:
        for flag, value in (("--optimize", args.optimize), ("--povm", args.povm)):
            if value:
                raise WrongRegime(f"{flag} needs a SquareRootLaw channel; this channel "
                                  "is SqrtNLogN, where only the kappa constant applies")
        report = sqrtnlogn_coefficient(channel, _ptilde(args))
        doc = report.to_json()
        doc["unit"] = unit  # the leading constant is base-invariant
        return _emit(args, doc, [COEFFICIENTS_HEADER,
                                 f"{doc['regime']},{_fmt(doc['leading_constant'])},,"
                                 f"{_fmt(doc['kappa'])},{unit},"
                                 f"{';'.join(_fmt(v) for v in doc['ptilde'])}"])

    raise WrongRegime(f"channel classified {verdict.scenario.value}; scaling "
                      "coefficients require SquareRootLaw or SqrtNLogN "
                      f"(refinements: {list(verdict.refinements)})")


def cmd_simulate(args) -> int:
    channel = load_channel(args.channel)
    n_list = tuple(_parse_ints(args.n, "--n"))
    if not n_list:
        raise ParseError("--n needs at least one blocklength")
    knobs = _parse_floats(args.sigma_knobs, "--sigma-knobs")
    if len(knobs) != 3:
        raise ParseError("--sigma-knobs expects three values: varsigma,mu,nu")
    for flag, value in (("--delta", args.delta), ("--epsilon", args.epsilon)):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ParseError(f"{flag} must be a finite number >= 0, got {value!r}")
    config = ExperimentConfig(
        channel=channel, n_list=n_list, gamma=args.gamma,
        varsigma=knobs[0], mu=knobs[1], nu=knobs[2],
        trials=args.trials, seed=args.seed, ptilde=_ptilde(args), workers=_workers())
    epsilon = args.epsilon
    if epsilon is None:
        epsilon = default_epsilon_target(channel, config.ptilde, args.gamma)
    print(f"simulate: n={list(n_list)} gamma={args.gamma} trials={args.trials}",
          file=sys.stderr)
    reports = run_experiment(config)

    summaries = []
    for n in n_list:
        group = [r for r in reports if r.n == n]
        summaries.append(select_best(group, args.delta, epsilon))

    doc = {"trials": [r.to_json() for r in reports],
           "summaries": [s.to_json() for s in summaries],
           "delta_target": args.delta,
           "epsilon_target": epsilon}
    lines = [SIMULATE_HEADER]
    for n, summary in zip(n_list, summaries):
        lines += [_trial_csv_row(r) for r in reports if r.n == n]
        lines.append(_trial_csv_row(summary))
    return _emit(args, doc, lines)


def _workers() -> int:
    """Thread count from ``CQCOVERT_WORKERS`` (default 1): an integer >= 1."""
    raw = os.environ.get("CQCOVERT_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParseError(f"CQCOVERT_WORKERS must be an integer >= 1, got {raw!r}")
    return workers


def _trial_csv_row(r) -> str:
    return ",".join([str(r.n), _fmt(r.gamma), str(r.seed),
                     _fmt(r.log_m_nats), _fmt(r.log_k_nats), _fmt(r.pe_bob),
                     _fmt(r.covert_d), _fmt(r.pe_willie)])


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else None
    try:
        results = run_suites(names, trials=args.trials, seed=args.seed)
    except KeyError as exc:
        raise ParseError(str(exc)) from exc
    lines = []
    failed = False
    for r in results:
        lines.append(r.line())
        if not r.passed:
            failed = True
            for f in r.failures:
                lines.append(f"  failing case: {json.dumps(f, sort_keys=True)}")
    _write("\n".join(lines) + "\n", args.out)
    return 5 if failed else 0


def cmd_nogo(args) -> int:
    channel = load_channel(args.channel)
    blocklengths = _parse_ints(args.n, "--n") if args.n else [2]
    if len(blocklengths) != 1 or blocklengths[0] < 1:
        raise ParseError(f"--n expects one blocklength >= 1, got {args.n!r}")
    n = blocklengths[0]
    _, x_star = farthest_adversary_symbol(channel)
    symbols = np.zeros((2, n), dtype=np.int64)
    symbols[0, 0] = x_star
    if n >= 2:
        symbols[1, 1] = x_star
    codebook = Codebook(n=n, m_count=2, k_count=1, symbols=symbols)
    rows = nogo_experiment(channel, codebook, None if args.epsilon is None else [args.epsilon])

    return _emit(args, [r.to_json() for r in rows],
                 [NOGO_HEADER] + [",".join(_fmt(v) for v in (
                     r.epsilon, r.c_min, r.pe_willie, r.bob_bound,
                     r.admissible_fraction, r.pair_bound)) for r in rows])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqcovert",
        description="Covert-communication numerics for classical-quantum channels")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--channel", required=True, help="channel-pair JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("classify", help="place a channel in its scaling regime")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("coefficients", help="square-root-law scaling coefficients")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ptilde", default=None,
                       help="comma list over non-innocent symbols")
    group.add_argument("--optimize", default=None,
                       help="max-message | min-key | tradeoff[:w]")
    p.add_argument("--povm", default=None, help="per-use POVM JSON (product measurement)")
    p.add_argument("--bits", action="store_true", help="report coefficients in bits")
    p.set_defaults(func=cmd_coefficients)

    p = sub.add_parser("simulate", help="exact random-coding simulation sweep")
    common(p)
    p.add_argument("--n", required=True, help="comma list of blocklengths")
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.1, help="reliability target")
    p.add_argument("--epsilon", type=float, default=None, help="covertness target")
    p.add_argument("--sigma-knobs", default="0.1,0.1,0.1",
                   help="varsigma,mu,nu constants")
    p.add_argument("--ptilde", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="randomized invariant suites")
    p.add_argument("--suite", default=None, choices=sorted(SUITES))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("nogo", help="impossibility experiment on a leaking channel")
    common(p)
    p.add_argument("--n", default=None, help="blocklength (default 2)")
    p.add_argument("--epsilon", type=float, default=None,
                   help="single covertness level (default: grid from c_min)")
    p.set_defaults(func=cmd_nogo)
    return parser


def _check_out(out: str | None) -> None:
    """``ParseError`` unless ``--out`` names a file in an existing, writable
    directory; checked before any work, and nothing is created."""
    if out is None:
        return
    folder = os.path.dirname(out) or "."
    if os.path.isdir(out) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ParseError(f"cannot write {out}: not a file in a writable directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
