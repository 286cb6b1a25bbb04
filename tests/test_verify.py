import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import cqcovert.verify as verify_mod
from conftest import commuting_pair
from cqcovert.cli import main
from cqcovert.errors import InvalidParameter
from cqcovert.operators import (
    ginibre_state,
    hermitian_part,
    random_hermitian,
    spectral_decomposition,
)
from cqcovert.scaling import expansion_check, expansion_radii
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
    true_chi2 = scaling_mod.chi_squareds
    monkeypatch.setattr(scaling_mod, "chi_squareds",
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
    def nan_suite(trials=1, seed=0):
        col = verify_mod._Collector("pinsker")
        col.record(1.0, index=0)
        col.record(math.nan, index=1)
        return col.result()

    monkeypatch.setitem(verify_mod.SUITES, "pinsker", nan_suite)
    assert main(["verify", "--suite", "pinsker"]) == 5
    out = capsys.readouterr().out
    assert out.startswith("FAIL pinsker: checks=2 worst_margin=nan\n")
    assert "failing case" in out


def test_pinsker_calls_the_package_trace_distance(monkeypatch):
    # the stacked build must not bypass the functionals: a doubled trace
    # distance breaks Pinsker's inequality (trace_distance is the one-pair
    # call of trace_distances, which the suite's pinsker_gaps reads)
    import cqcovert.divergences as divergences_mod
    true_distance = divergences_mod.trace_distances
    monkeypatch.setattr(divergences_mod, "trace_distances",
                        lambda rho, sigma: 2 * true_distance(rho, sigma))
    assert not verify_mod.pinsker_suite(trials=20).passed


def test_trace_bounds_call_the_package_matrix_power(monkeypatch):
    # the suite reads matrix_power through its own module's binding
    true_power = verify_mod.matrix_power
    monkeypatch.setattr(verify_mod, "matrix_power", lambda a, c: 0.5 * true_power(a, c))
    assert not verify_mod.trace_bounds_suite(trials=20).passed


def _margins(monkeypatch, trials):
    seen = []
    record = verify_mod._Collector.record

    def recording(self, margin, **context):
        seen.append((self.name, np.float64(margin).tobytes(), sorted(context.items())))
        record(self, margin, **context)

    with monkeypatch.context() as patch:
        patch.setattr(verify_mod._Collector, "record", recording)
        run_suites(trials=trials, seed=4)
    return seen


@pytest.mark.parametrize("chunk", [1, 5])
def test_margins_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # 70 trials: a partial last chunk at the default size and at size 5;
    # CHUNK + 30 trials cross a chunk boundary at the default size too
    for trials in (70, verify_mod.CHUNK + 30):
        default = _margins(monkeypatch, trials)
        with monkeypatch.context() as patch:
            patch.setattr(verify_mod, "CHUNK", chunk)
            assert _margins(monkeypatch, trials) == default
        assert len(default) > 0


def _fingerprints(monkeypatch, seed):
    """Per suite, the SHA-256 of every margin (all 64 bits) with its
    context, in the order the suite records them, at 50 trials."""
    digests = {}
    record = verify_mod._Collector.record

    def recording(self, margin, **context):
        digests.setdefault(self.name, hashlib.sha256()).update(
            repr((np.float64(margin).tobytes(), sorted(context.items()))).encode())
        record(self, margin, **context)

    with monkeypatch.context() as patch:
        patch.setattr(verify_mod._Collector, "record", recording)
        run_suites(trials=50, seed=seed)
    return {name: digest.hexdigest() for name, digest in digests.items()}


@pytest.mark.parametrize("seed", [0, 1])
def test_margins_match_the_recorded_fingerprints(monkeypatch, seed):
    # the text goldens print margins to four digits; these fingerprints
    # catch a change in the last bit of any margin or in its context
    root = Path(__file__).resolve().parents[1]
    recorded = json.loads((root / "tests" / "data" / "verify_margins_trials50.json").read_text())
    assert _fingerprints(monkeypatch, seed) == recorded[str(seed)]


@pytest.mark.parametrize("seed", [0, 1])
def test_reduced_trials_output_matches_the_recorded_output(capsys, seed):
    root = Path(__file__).resolve().parents[1]
    golden = root / "tests" / "data" / f"verify_trials50_seed{seed}.txt"
    assert main(["verify", "--seed", str(seed), "--trials", "50"]) == 0
    assert capsys.readouterr().out == golden.read_text()


# Trial-by-trial references: the draws of each suite, one state or matrix at
# a time, in the order the suite's trials take them.  The chunked suites must
# hand the package's functionals exactly these inputs.  A suite that hands a
# stacked functional one stack per dimension of a chunk takes each chunk's
# trials grouped by dimension (increasing), in trial order within a group.

def _pairs(rng, dims):
    for dim in dims:
        yield ginibre_state(dim, rng).matrix, ginibre_state(dim, rng).matrix


def _grouped_by_dimension(pairs):
    pairs = list(pairs)
    out = []
    for start in range(0, len(pairs), verify_mod.CHUNK):
        out += sorted(pairs[start:start + verify_mod.CHUNK], key=lambda pair: pair[0].shape[0])
    return out


def _pinsker_reference(rng, trials):
    return _pairs(rng, [dim for dim in range(2, 7) for _ in range(trials)])


def _trace_bounds_reference(rng, trials):
    return _grouped_by_dimension(_pairs(rng, [2 + i % 4 for i in range(trials)]))


def _derivatives_reference(rng, trials):
    return _grouped_by_dimension(_pairs(rng, [2 + i % 3 for i in range(trials)]))


def _sign_projections_reference(rng, trials):
    for dim in range(2, 6):
        for _ in range(trials):
            spec = spectral_decomposition(random_hermitian(dim, rng))
            ginibre_state(dim, rng)
            yield spec.eigenvalues, spec.eigenvectors
            yield spec.eigenvalues, spec.eigenvectors


def _pinching_reference(rng, trials):
    for dim in (2, 3, 4):
        for i in range(trials):
            a = random_hermitian(dim, rng) / (2 * math.sqrt(dim))
            if i % 3 == 0 and dim > 2:
                w, v = np.linalg.eigh(a)
                w[0] = w[1]
                a = hermitian_part((v * w) @ v.conj().T)
            b = random_hermitian(dim, rng) / (2 * math.sqrt(dim))
            rng.uniform(-1, 1, size=4)
            yield spectral_decomposition(a).eigenvalues, b


def _one_call_per_projection(rng, trials):
    # the sign suite projects each chunk's matrices in two stacked calls,
    # strictly positive first, then non-negative
    items = list(_sign_projections_reference(rng, trials))
    out = []
    for start in range(0, len(items), 2 * trials):  # one dimension's trials
        block = items[start:start + 2 * trials]
        for first in range(0, 2 * trials, 2 * verify_mod.CHUNK):
            chunk = block[first:first + 2 * verify_mod.CHUNK]
            out += chunk[0::2] + chunk[1::2]
    return out


def _expansion_reference(rng, trials):
    grid = np.logspace(-3, -1, 9)
    for dim in (2, 3, 4):
        done = 0
        while done < trials:
            b, c, wb, wc = commuting_pair(dim, rng)
            if expansion_radii(b[None], c[None])[0] <= grid.max():
                continue
            chi2 = float(np.sum((wc - wb) ** 2 / wb))
            if abs(float(np.sum((wc - wb) ** 3 / wb ** 2))) < 0.05 * chi2:
                continue
            yield b.matrix, c.matrix
            done += expansion_check(b, c, grid).slope is not None


def _holevo_reference(rng, trials):
    for i in range(trials):
        dim, n_symbols = 2 + i % 2, 2 + i % 3
        bob = [ginibre_state(dim, rng).matrix for _ in range(n_symbols + 1)]
        willie = [ginibre_state(dim, rng).matrix for _ in range(n_symbols + 1)]
        ptilde = rng.dirichlet(np.ones(n_symbols))
        for mu in (0.01, 0.1):
            p_bar = np.concatenate([[1.0 - mu], mu * ptilde])
            yield (p_bar, *bob)
            yield (p_bar, *willie)


def _by_ensemble_shape(rng, trials):
    # the holevo suite scores each chunk's trials grouped by dimension, then
    # ensemble size, in trial order within a group: four ensembles a trial
    items = list(_holevo_reference(rng, trials))
    size = 4 * verify_mod.CHUNK
    return [item for start in range(0, len(items), size)
            for item in sorted(items[start:start + size],
                               key=lambda item: (item[1].shape[0], len(item)))]


def _rows(first, second):
    """A stacked functional's two stacks, unrolled into their pairs."""
    return list(zip(first.matrix, second.matrix))


STREAMS = [  # suite, seed tag, functional called in its check, the inputs it is given
    ("pinsker", 1, "pinsker_gaps", _pinsker_reference, _rows),
    ("trace-bounds", 2, "relative_entropies", _trace_bounds_reference, _rows),
    ("sign-projections", 3, "spectral_projection_nonneg", _one_call_per_projection,
     lambda spec, strict: zip(spec.eigenvalues, spec.eigenvectors)),
    ("pinching", 4, "pinching", _pinching_reference, lambda spec, b: zip(spec.eigenvalues, b)),
    ("derivatives", 5, "relative_entropies", _derivatives_reference, _rows),
    ("expansion", 6, "expansion_checks", _expansion_reference,
     lambda b, c, alphas, radii: _rows(b, c)),
    ("holevo", 7, "holevo_informations", _by_ensemble_shape,
     lambda probs, states, mixed: zip(probs, *(s.matrix for s in states))),
]


@pytest.mark.parametrize("suite, tag, functional, reference, inputs", STREAMS,
                         ids=[s[0] for s in STREAMS])
def test_chunks_hand_the_functionals_the_trial_by_trial_draws(
        monkeypatch, suite, tag, functional, reference, inputs):
    # CHUNK + 30 trials cross a chunk boundary
    trials = verify_mod.CHUNK + 30
    seen = []
    real = getattr(verify_mod, functional)

    def spying(*args, **kwargs):
        seen.extend(tuple(np.asarray(x).tobytes() for x in item)
                    for item in inputs(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_mod, functional, spying)
    verify_mod.SUITES[suite](trials=trials, seed=2)
    expected = [tuple(np.asarray(x).tobytes() for x in item)
                for item in reference(verify_mod._rng(2, tag), trials)]
    assert seen == expected
