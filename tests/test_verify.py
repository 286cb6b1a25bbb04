import numpy as np
import pytest

import cqcovert.verify as verify_mod
from cqcovert.cli import main
from cqcovert.errors import InvalidParameter
from cqcovert.verify import SUITES, SuiteResult, run_suites


def test_all_suites_pass_at_reduced_trials():
    results = run_suites(trials=20, seed=3)
    assert len(results) == len(SUITES)
    for r in results:
        assert r.passed, f"{r.name} failed: {r.failures[:2]}"
        assert r.checks > 0


def test_suites_are_seed_reproducible():
    a = run_suites(["pinsker"], trials=50, seed=9)[0]
    b = run_suites(["pinsker"], trials=50, seed=9)[0]
    assert a.worst_margin == b.worst_margin
    assert a.checks == b.checks


@pytest.mark.parametrize("trials", [0, -1])
def test_nonpositive_trials_rejected(trials):
    # a suite of no checks would report PASS with worst_margin=inf
    with pytest.raises(InvalidParameter):
        run_suites(trials=trials)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suites(["no-such-suite"])


def test_sign_flip_mutation_is_caught(monkeypatch):
    # a sign flip in the chi-squared divergence must break the expansion suite
    import cqcovert.scaling as scaling_mod
    true_chi2 = scaling_mod.chi_squared
    monkeypatch.setattr(scaling_mod, "chi_squared",
                        lambda rho, sigma: -true_chi2(rho, sigma))
    result = verify_mod.expansion_suite(trials=5, seed=0)
    assert not result.passed


def test_cli_exit_5_on_suite_failure(monkeypatch, capsys):
    def broken_suite(trials=1, seed=0):
        return SuiteResult(name="broken", passed=False, checks=1,
                           worst_margin=-1.0,
                           failures=[{"margin": -1.0, "index": 0}])

    monkeypatch.setitem(verify_mod.SUITES, "pinsker", broken_suite)
    assert main(["verify", "--suite", "pinsker"]) == 5
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "failing case" in out
