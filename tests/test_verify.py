import math
from pathlib import Path

import numpy as np
import pytest

import cqcovert.coding as coding_mod
import cqcovert.verify as verify_mod
from cqcovert.cli import main
from cqcovert.errors import InvalidParameter
from cqcovert.verify import SUITES, SuiteResult, run_suites

DATA = Path(__file__).resolve().parent / "data"


def _verify(capsys, *args):
    code = main(["verify", *args])
    return code, capsys.readouterr().out


def test_every_seed_the_benchmark_can_use_passes(capsys):
    # the benchmark runs verify at its default trials with its own seed
    for seed in range(200):
        code, out = _verify(capsys, "--seed", str(seed))
        lines = out.splitlines()
        assert code == 0, out
        assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in SUITES]


def test_all_suites_pass_at_reduced_trials():
    # one trial a blocklength, below the default, at seeds the goldens do not pin
    for seed in range(3, 13):
        results = run_suites(trials=1, seed=seed)
        assert [r.name for r in results] == list(SUITES)
        for r in results:
            assert r.passed, f"{r.name} failed at seed {seed}: {r.failures[:2]}"
            assert r.checks > 0


def test_suites_are_seed_reproducible():
    a = run_suites(trials=1, seed=9)
    b = run_suites(trials=1, seed=9)
    assert [(r.line(), r.failures) for r in a] == [(r.line(), r.failures) for r in b]
    c = run_suites(trials=1, seed=10)
    assert [r.worst_margin for r in a] != [r.worst_margin for r in c]


@pytest.mark.parametrize("kind", verify_mod.KINDS)
def test_channels_are_of_their_kind(kind):
    # what the suites' oracles assume of the channels they draw
    for seed in range(20):
        channel = verify_mod._channel(kind, verify_mod._rng(seed, 1), 2)
        for states in (channel.bob_states, channel.willie_states):
            mats = [s.matrix for s in states]
            dim = len(mats[0])
            assert dim == (3 if kind == "block" else 2)
            # the innocent state is at least half the maximally mixed one,
            # so every other state lies in its support
            assert np.linalg.eigvalsh(mats[0]).min() >= 0.5 / dim - 1e-12
            if kind == "commuting":
                assert all(np.array_equal(m, np.diag(np.diag(m))) for m in mats)
            elif kind == "block":
                assert all(not m[2, :2].any() and not m[:2, 2].any() for m in mats)
            if kind != "commuting":
                # the signal states do not commute with the innocent one
                assert all(np.abs(m @ mats[0] - mats[0] @ m).max() > 1e-6 for m in mats[1:])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_output_matches_the_recorded_output(capsys, seed):
    assert _verify(capsys, "--seed", str(seed)) == (
        0, (DATA / f"verify_seed{seed}.txt").read_text())


def test_suite_runs_concatenated_equal_the_full_run(capsys):
    for seed in (0, 1):
        full = _verify(capsys, "--seed", str(seed))[1]
        parts = [_verify(capsys, "--seed", str(seed), "--suite", name)[1] for name in SUITES]
        assert "".join(parts) == full


def test_one_trial_works(capsys):
    code, out = _verify(capsys, "--seed", "3", "--trials", "1")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS ") for line in lines) and len(lines) == len(SUITES)
    # three channels at two blocklengths, two numbers each
    assert lines[0].startswith("PASS willie-dense: checks=12 ")


@pytest.mark.parametrize("seed", [0, 1])
def test_reduced_trials_output_matches_the_recorded_output(capsys, seed):
    assert _verify(capsys, "--seed", str(seed), "--trials", "1") == (
        0, (DATA / f"verify_trials1_seed{seed}.txt").read_text())


@pytest.mark.parametrize("trials", [1, 3])
def test_checks_grow_with_the_trials(trials):
    results = {r.name: r for r in run_suites(trials=trials, seed=5)}
    runs = len(verify_mod.KINDS) * len(verify_mod.N_LIST) * trials
    assert results["willie-dense"].checks == 2 * runs
    assert results["willie-classical"].checks == 2 * len(verify_mod.N_LIST) * trials
    assert results["pinsker"].checks == runs
    assert results["optimum"].checks == 3 * verify_mod.OPTIMUM_SYMBOLS * trials
    # one sub-POVM check per key, at least one key a trial, and one pe_bob check a trial
    assert results["decoders"].checks >= 2 * runs
    assert all(r.passed for r in results.values())


def _failing(out, suite):
    lines = out.splitlines()
    at = lines.index(next(line for line in lines if line.startswith(f"FAIL {suite}:")))
    assert lines[at + 1].startswith("  failing case: ")
    return lines


def test_a_shifted_willie_error_fails(monkeypatch, capsys):
    real = coding_mod.helstrom_error
    monkeypatch.setattr(coding_mod, "helstrom_error", lambda a, b: real(a, b) + 1e-6)
    code, out = _verify(capsys, "--seed", "1")
    assert code == 5
    _failing(out, "willie-dense")
    _failing(out, "willie-classical")


def test_a_shifted_covertness_divergence_fails(monkeypatch, capsys):
    # the recomputation reads its own binding of relative_entropy
    real = coding_mod.relative_entropy
    monkeypatch.setattr(coding_mod, "relative_entropy", lambda a, b: real(a, b) * (1 + 1e-6))
    code, out = _verify(capsys, "--seed", "1")
    assert code == 5
    _failing(out, "willie-dense")
    assert '"quantity": "covert_D"' in out


def test_sign_flip_mutation_is_caught(monkeypatch, capsys):
    # a sign flip in the covertness divergence breaks its recomputation and Pinsker
    real = coding_mod.relative_entropy
    monkeypatch.setattr(coding_mod, "relative_entropy", lambda a, b: -real(a, b))
    code, out = _verify(capsys, "--seed", "1")
    assert code == 5
    _failing(out, "willie-dense")
    _failing(out, "pinsker")


def test_a_pinsker_violation_fails(monkeypatch, capsys):
    # an error of 0 claims a trace distance of 2, which no covert_D below 2 allows
    monkeypatch.setattr(coding_mod, "helstrom_error", lambda a, b: 0.0)
    code, out = _verify(capsys, "--seed", "1")
    assert code == 5
    _failing(out, "pinsker")


def test_an_overscaled_decoder_fails(monkeypatch, capsys):
    # elements N P_m N scaled by 1.01 sum past the identity
    real = coding_mod._elements
    monkeypatch.setattr(coding_mod, "_elements", lambda p: 1.01 * real(p))
    code, out = _verify(capsys, "--seed", "1")
    assert code == 5
    _failing(out, "decoders")
    assert "sum exceeds identity" in out


def test_a_wrong_optimum_fails(monkeypatch, capsys):
    # an optimizer that always answers with the first symbol
    def first_vertex(channel, objective):
        p = np.eye(channel.alphabet_size - 1)[0]
        return p, verify_mod.scaling_report(channel, p)

    monkeypatch.setattr(verify_mod, "optimize_ptilde", first_vertex)
    code, out = _verify(capsys, "--seed", "1")
    assert code == 5
    _failing(out, "optimum")


@pytest.mark.parametrize("trials", [0, -1, 2.5, True])
def test_nonpositive_trials_rejected(trials):
    # a suite of no checks would report PASS with worst_margin=inf
    with pytest.raises(InvalidParameter):
        run_suites(trials=trials)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_bad_seed_rejected(seed):
    # a negative seed would reach the random streams, whose error names no argument
    with pytest.raises(InvalidParameter, match="seed"):
        run_suites(seed=seed)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


def test_cli_exit_5_on_suite_failure(monkeypatch, capsys):
    def broken_suite(runs):
        return SuiteResult(name="broken", passed=False, checks=1, worst_margin=-1.0,
                           failures=[{"margin": -1.0, "index": 0}])

    monkeypatch.setitem(verify_mod.SUITES, "pinsker", broken_suite)
    code, out = _verify(capsys, "--suite", "pinsker")
    assert code == 5
    assert "FAIL" in out
    assert "failing case" in out


def test_nan_margin_is_a_failure():
    col = verify_mod._Collector("nan")
    col.record(0.5)
    col.record(math.nan, index=1)
    col.record(0.25)
    result = col.result()
    assert not result.passed
    assert math.isnan(result.worst_margin)
    assert result.line() == "FAIL nan: checks=3 worst_margin=nan"
    assert len(result.failures) == 1 and math.isnan(result.failures[0]["margin"])


def test_cli_exit_5_on_nan_margin(monkeypatch, capsys):
    def nan_suite(runs):
        col = verify_mod._Collector("pinsker")
        col.record(1.0, index=0)
        col.record(math.nan, index=1)
        return col.result()

    monkeypatch.setitem(verify_mod.SUITES, "pinsker", nan_suite)
    code, out = _verify(capsys, "--suite", "pinsker")
    assert code == 5
    assert out.startswith("FAIL pinsker: checks=2 worst_margin=nan\n")
    assert "failing case" in out


def test_agreement_of_infinities():
    assert verify_mod._agreement(math.inf, math.inf) == verify_mod.TOL
    assert verify_mod._agreement(math.inf, 1.0) == -math.inf
    assert verify_mod._agreement(1.0, math.inf) == -math.inf
    assert verify_mod._agreement(2.0, 2.0 + 1e-9) > 0 > verify_mod._agreement(2.0, 2.0 + 3e-9)
