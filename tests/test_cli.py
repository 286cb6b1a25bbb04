import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import channel_to_json, matrix_to_json
from cqcovert import cli, verify
from cqcovert.cli import main


def _write_channel(path, bob, willie):
    doc = {"bob": [matrix_to_json(np.asarray(m, dtype=complex)) for m in bob],
           "willie": [matrix_to_json(np.asarray(m, dtype=complex)) for m in willie]}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def canonical_path(tmp_path):
    states = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]
    return _write_channel(tmp_path / "canonical.json", states, states)


@pytest.fixture
def constant_rate_path(tmp_path):
    bob = [np.diag([0.5, 0.5]), np.diag([0.9, 0.1]), np.diag([0.2, 0.8])]
    willie = [np.diag([0.5, 0.5]), np.diag([0.7, 0.3]), np.diag([0.3, 0.7])]
    return _write_channel(tmp_path / "mixture.json", bob, willie)


@pytest.fixture
def sqrtnlogn_path(tmp_path):
    bob = [np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]
    willie = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]
    return _write_channel(tmp_path / "snl.json", bob, willie)


@pytest.fixture
def leaking_path(tmp_path):
    bob = [np.diag([1.0, 0.0]),
           np.outer([math.sqrt(0.8), math.sqrt(0.2)], [math.sqrt(0.8), math.sqrt(0.2)])]
    willie = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    return _write_channel(tmp_path / "leaking.json", bob, willie)


@pytest.fixture
def willie_leak_path(tmp_path, willie_leak_channel):
    path = tmp_path / "willie_leak.json"
    path.write_text(json.dumps(channel_to_json(willie_leak_channel)))
    return str(path)


GOLDEN_CHANNELS = ("diag_qubit", "ginibre_qubit", "srl_d2_k3", "srl_d3_k6")
SINGLE_LETTER_CALLS = [("classify_{}.json", ["classify"])] + [
    (f"coefficients_{{}}_{name}.json", ["coefficients", *flags])
    for name, flags in (("default", []), ("max-message", ["--optimize", "max-message"]),
                        ("min-key", ["--optimize", "min-key"]), ("bits", ["--bits"]))]


@pytest.mark.parametrize("channel", GOLDEN_CHANNELS)
@pytest.mark.parametrize("golden, argv", SINGLE_LETTER_CALLS)
def test_single_letter_json_matches_the_recorded_output(tmp_path, channel, golden, argv):
    # the files change only with a change that is meant to move these numbers
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out.json"
    assert main([*argv, "--channel", str(root / "perfbench" / "channels" / f"{channel}.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (root / "tests" / "data" / golden.format(channel)).read_bytes()


@pytest.mark.parametrize("command", ["classify", "coefficients", "nogo"])
def test_seed_is_rejected_where_nothing_is_random(canonical_path, command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--channel", canonical_path, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestClassify:
    def test_json_report(self, canonical_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["classify", "--channel", canonical_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["class"] == "SquareRootLaw"

    def test_csv_single_row(self, canonical_path, capsys):
        assert main(["classify", "--channel", canonical_path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("class,")
        assert lines[1].split(",")[0] == "SquareRootLaw"
        assert len(lines) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["classify", "--channel", str(bad)]) == 2

    def test_missing_file_exits_2(self):
        assert main(["classify", "--channel", "/nonexistent.json"]) == 2

    def test_invalid_state_exits_2(self, tmp_path):
        path = _write_channel(tmp_path / "nonpsd.json",
                              [np.diag([0.9, 0.1]), np.diag([1.5, -0.5])],
                              [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])])
        assert main(["classify", "--channel", path]) == 2


class TestCoefficients:
    def test_canonical_value(self, canonical_path, capsys):
        assert main(["coefficients", "--channel", canonical_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["message_coeff"] == pytest.approx(0.440159, abs=1e-5)
        assert doc["key_coeff"] == 0.0
        assert doc["unit"] == "nats"

    def test_bits_flag(self, canonical_path, capsys):
        assert main(["coefficients", "--channel", canonical_path, "--bits"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["message_coeff"] == pytest.approx(0.440159 / math.log(2), abs=1e-5)
        assert doc["unit"] == "bits"

    def test_wrong_regime_exits_3(self, constant_rate_path, capsys):
        assert main(["coefficients", "--channel", constant_rate_path]) == 3

    def test_optimizer_mode(self, tmp_path, capsys):
        bob = [np.diag([0.9, 0.1]), np.diag([0.85, 0.15]), np.diag([0.3, 0.7])]
        willie = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4]), np.diag([0.8, 0.2])]
        path = _write_channel(tmp_path / "three.json", bob, willie)
        assert main(["coefficients", "--channel", path,
                     "--optimize", "max-message"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimized"] == "max-message"
        assert doc["message_coeff"] > 0

    def test_explicit_ptilde(self, tmp_path, capsys):
        bob = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4]), np.diag([0.3, 0.7])]
        path = _write_channel(tmp_path / "three.json", bob, bob)
        assert main(["coefficients", "--channel", path, "--ptilde", "0.25,0.75"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ptilde"] == [0.25, 0.75]

    def test_povm_mode_matches_quantum_on_commuting_channel(self, canonical_path,
                                                            tmp_path, capsys):
        povm_doc = {"elements": [matrix_to_json(np.diag([1.0 + 0j, 0.0])),
                                 matrix_to_json(np.diag([0.0, 1.0 + 0j]))]}
        povm_path = tmp_path / "povm.json"
        povm_path.write_text(json.dumps(povm_doc))
        assert main(["coefficients", "--channel", canonical_path,
                     "--povm", str(povm_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["message_coeff"] == pytest.approx(0.440159, abs=1e-5)

    @pytest.mark.parametrize("doc", [{"elements": 5}, {"elements": {"dim": 2}}, {}, [1, 2]])
    def test_malformed_povm_exits_2(self, canonical_path, tmp_path, capsys, doc):
        povm_path = tmp_path / "povm.json"
        povm_path.write_text(json.dumps(doc))
        assert main(["coefficients", "--channel", canonical_path,
                     "--povm", str(povm_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"elements" list' in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("text", [None, "{oops"])
    def test_unreadable_povm_file_exits_2(self, canonical_path, tmp_path, capsys, text):
        povm_path = tmp_path / "povm.json"
        if text is not None:
            povm_path.write_text(text)
        assert main(["coefficients", "--channel", canonical_path,
                     "--povm", str(povm_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "POVM file" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("fixture, argv", [
        ("canonical_path", ["classify"]), ("canonical_path", ["coefficients"]),
        ("canonical_path", ["coefficients", "--bits"]),
        ("canonical_path", ["coefficients", "--optimize", "min-key"]),
        ("canonical_path", ["coefficients", "--povm"]),
        ("sqrtnlogn_path", ["coefficients"]), ("constant_rate_path", ["coefficients"])])
    def test_a_call_classifies_the_channel_once(self, request, tmp_path, monkeypatch,
                                                fixture, argv):
        from cqcovert import channel as channel_module
        if argv[-1] == "--povm":
            povm_path = tmp_path / "povm.json"
            povm_path.write_text(json.dumps({"elements": [matrix_to_json(np.diag([1.0, 0.0])),
                                                          matrix_to_json(np.diag([0.0, 1.0]))]}))
            argv = [*argv, str(povm_path)]
        calls = []
        classify = channel_module.classify_scenario

        def counted(pair):
            calls.append(pair)
            return classify(pair)

        # every module binding, as the benchmark's tracer wraps it
        for module in (channel_module, cli):
            monkeypatch.setattr(module, "classify_scenario", counted)
        assert main([*argv, "--channel", request.getfixturevalue(fixture),
                     "--out", str(tmp_path / "out")]) in (0, 3)
        assert len(calls) == 1

    def test_sqrtnlogn_channel_reports_kappa(self, tmp_path, capsys):
        bob = [np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]
        willie = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]
        path = _write_channel(tmp_path / "snl.json", bob, willie)
        assert main(["coefficients", "--channel", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "SqrtNLogN"
        assert doc["kappa"] == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("flag, value", [("--optimize", "max-message"),
                                             ("--povm", "/nonexistent.json")])
    def test_sqrtnlogn_channel_rejects_flag(self, tmp_path, capsys, flag, value):
        bob = [np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]
        willie = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]
        path = _write_channel(tmp_path / "snl.json", bob, willie)
        assert main(["coefficients", "--channel", path, flag, value]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_too_many_optimized_symbols_exits_4(self, tmp_path):
        probs = [[0.9, 0.1]] + [[0.3 + 0.02 * x, 0.7 - 0.02 * x] for x in range(17)]
        path = _write_channel(tmp_path / "wide.json", [np.diag(p) for p in probs],
                              [np.diag(p) for p in probs])
        assert main(["coefficients", "--channel", path, "--optimize", "max-message"]) == 4


    @pytest.mark.parametrize("value", ["tradeoff:1:2", "tradeoff:heavy", "tradeoff:",
                                       "max-message:1", "maximize-everything"])
    def test_malformed_optimize_exits_2(self, tmp_path, value):
        bob = [np.diag([0.9, 0.1]), np.diag([0.85, 0.15]), np.diag([0.3, 0.7])]
        willie = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4]), np.diag([0.8, 0.2])]
        path = _write_channel(tmp_path / "three.json", bob, willie)
        assert main(["coefficients", "--channel", path, "--optimize", value]) == 2

    def test_wrong_length_ptilde_exits_2(self, tmp_path):
        bob = [np.diag([0.9, 0.1]), np.diag([0.85, 0.15]), np.diag([0.3, 0.7]),
               np.diag([0.5, 0.5])]
        path = _write_channel(tmp_path / "four.json", bob, bob)
        assert main(["coefficients", "--channel", path, "--ptilde", "0.5,0.5"]) == 2

    @pytest.mark.parametrize("command", ["coefficients", "simulate"])
    def test_non_finite_ptilde_exits_2(self, tmp_path, capsys, command):
        bob = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4]), np.diag([0.3, 0.7]),
               np.diag([0.5, 0.5])]
        path = _write_channel(tmp_path / "four.json", bob, bob)
        extra = ["--n", "2", "--trials", "1"] if command == "simulate" else []
        assert main([command, "--channel", path, "--ptilde", "nan,0.5,0.5"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("path, command", [
        ("canonical_path", ["coefficients"]), ("sqrtnlogn_path", ["coefficients"]),
        ("canonical_path", ["simulate", "--n", "2", "--trials", "1"])])
    def test_empty_ptilde_exits_2(self, request, capsys, path, command):
        # an empty list is a given ptilde, not a missing one: no uniform default
        argv = [command[0], "--channel", request.getfixturevalue(path), *command[1:]]
        assert main(argv + ["--ptilde", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "probability vector" in captured.err and "Traceback" not in captured.err

    def test_zero_weight_leaking_symbol(self, willie_leak_path, capsys):
        assert main(["coefficients", "--channel", willie_leak_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ptilde"] == [1.0, 0.0]
        d_bob = 0.8 * math.log(0.8 / 0.9) + 0.2 * math.log(2.0)
        d_willie = 0.6 * math.log(0.6 / 0.9) + 0.4 * math.log(4.0)
        assert doc["key_coeff"] == pytest.approx((d_willie - d_bob) / math.sqrt(0.5), abs=1e-12)


class TestSimulate:
    ARGS = ["--n", "2,3", "--gamma", "0.5", "--trials", "2", "--seed", "11",
            "--format", "csv"]

    @pytest.mark.parametrize("golden, channel, args", [
        ("simulate_diag_n10_seed1.csv", "perfbench/channels/diag_qubit.json",
         ["--n", "6,8,10", "--gamma", "0.5", "--sigma-knobs", "0.3,0.1,0.1", "--trials", "1"]),
        ("simulate_keyed_n8_seed1.csv", "perfbench/channels/ginibre_qubit.json",
         ["--n", "6,8", "--gamma", "1.0", "--sigma-knobs", "0.1,0.1,0.1", "--trials", "1"]),
        ("simulate_block_qutrit_seed1.csv", "tests/data/block_qutrit.json",
         ["--n", "4,5,6", "--gamma", "1", "--trials", "2"])])
    def test_csv_matches_the_recorded_output(self, tmp_path, monkeypatch, golden, channel,
                                             args):
        # the benchmark's diag-n10 and keyed-n8 arguments, and a 2+1 block
        # qutrit whose component strings have several sizes, at seed 1; the
        # files change only with a change that is meant to move these numbers
        root = Path(__file__).resolve().parents[1]
        monkeypatch.delenv("CQCOVERT_WORKERS", raising=False)
        out = tmp_path / golden
        assert main(["simulate", "--channel", str(root / channel), "--seed", "1",
                     "--format", "csv", "--out", str(out)] + args) == 0
        assert out.read_bytes() == (root / "tests" / "data" / golden).read_bytes()

    def test_row_counts(self, canonical_path, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--channel", canonical_path, "--out", str(out)]
                    + self.ARGS) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,gamma,seed,logM_nats,logK_nats,pe_bob,covert_D_nats,pe_willie"
        # two trials per n plus one summary row per n
        assert len(lines) == 1 + 2 * (2 + 1)

    def test_byte_identical_reruns(self, canonical_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["simulate", "--channel", canonical_path, "--out", str(out)]
                        + self.ARGS) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_dimension_cap_exits_4(self, canonical_path, monkeypatch):
        monkeypatch.setenv("CQCOVERT_DIM_CAP", "16")
        assert main(["simulate", "--channel", canonical_path, "--n", "2,5",
                     "--gamma", "0.5", "--trials", "1"]) == 4

    def test_out_of_memory_exits_4_with_one_error_line(self, canonical_path, capsys,
                                                        monkeypatch):
        from cqcovert import coding

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 9.90 TiB for an array")

        monkeypatch.setattr(coding, "sample_codebook", exhausted)
        assert main(["simulate", "--channel", canonical_path, "--n", "2",
                     "--gamma", "0.5", "--trials", "1"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: out of memory: Unable to allocate 9.90 TiB for an array"
        assert not any("Traceback" in line for line in err)

    def test_zero_weight_leaking_symbol(self, willie_leak_path):
        assert main(["simulate", "--channel", willie_leak_path, "--n", "2", "--gamma", "0.5",
                     "--trials", "1", "--ptilde", "1,0", "--format", "csv"]) == 0

    @pytest.mark.parametrize("n", ["0", "-1", "2,0"])
    def test_nonpositive_blocklength_exits_2(self, canonical_path, capsys, n):
        assert main(["simulate", "--channel", canonical_path, "--n", n,
                     "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n >= 1" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("flags", [["--gamma", "0"], ["--delta", "0"],
                                       ["--epsilon", "0"]])
    def test_zero_targets_select_a_code(self, canonical_path, capsys, flags):
        assert main(["simulate", "--channel", canonical_path, "--n", "2", "--trials", "2",
                     "--format", "csv"] + flags) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        lines = captured.out.strip().splitlines()
        assert len(lines) == 1 + 2 + 1
        assert lines[-1] in lines[1:3]

    @pytest.mark.parametrize("flag, value", [("--delta", "-0.1"), ("--delta", "inf"),
                                             ("--epsilon", "-1"), ("--epsilon", "nan")])
    def test_bad_target_exits_2(self, canonical_path, capsys, flag, value):
        assert main(["simulate", "--channel", canonical_path, "--n", "2", "--trials", "1",
                     flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_worker_count_exits_2(self, canonical_path, capsys, monkeypatch, value):
        monkeypatch.setenv("CQCOVERT_WORKERS", value)
        assert main(["simulate", "--channel", canonical_path, "--n", "2", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "CQCOVERT_WORKERS" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_trials_exit_2_before_any_work(self, canonical_path, capsys,
                                                       monkeypatch, value):
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *a: pytest.fail("trials ran before --trials was checked"))
        assert main(["simulate", "--channel", canonical_path, "--n", "2",
                     "--trials", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials" in captured.err and "Traceback" not in captured.err

    def test_negative_seed_exits_2_before_any_work(self, canonical_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *a: pytest.fail("trials ran before --seed was checked"))
        assert main(["simulate", "--channel", canonical_path, "--n", "2",
                     "--trials", "1", "--seed", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: need an integer seed >= 0, got -3"]

    @pytest.mark.parametrize("ptilde, message", [
        ("0.5,0.5", "error: ptilde has 2 entries for 6 non-innocent symbols"),
        ("", "error: expected a 1-d probability vector, got shape (0,)")])
    @pytest.mark.parametrize("epsilon", [[], ["--epsilon", "0.1"]])
    def test_bad_ptilde_exits_2_before_any_work(self, capsys, monkeypatch, ptilde, message,
                                                epsilon):
        # with --epsilon given, no default target checks ptilde before the config does
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *a: pytest.fail("trials ran before --ptilde was checked"))
        path = Path(__file__).resolve().parents[1] / "perfbench" / "channels" / "srl_d3_k6.json"
        assert main(["simulate", "--channel", str(path), "--n", "2", "--trials", "1",
                     "--ptilde", ptilde] + epsilon) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_repeated_blocklength_exits_2_before_any_work(self, canonical_path, capsys,
                                                          monkeypatch):
        # trial seeds derive from (seed, n, trial): a repeated n would print its trials twice
        monkeypatch.setattr(cli, "run_experiment",
                            lambda *a: pytest.fail("trials ran on a repeated blocklength"))
        assert main(["simulate", "--channel", canonical_path, "--n", "4,4",
                     "--trials", "1", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repeat" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--gamma", "inf"), ("--gamma", "1e6"), ("--gamma", "nan"), ("--gamma", "-1"),
        ("--sigma-knobs", "nan,0.1,0.1"), ("--sigma-knobs", "2,0.1,0.1"),
        ("--sigma-knobs", "0.1,0.1,-5"), ("--sigma-knobs", "0.1,inf,0.1")])
    def test_bad_gamma_or_knobs_exit_2_before_any_work(self, canonical_path, capsys,
                                                       monkeypatch, flag, value):
        for name in ("default_epsilon_target", "run_experiment"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(
                f"{name} ran before {flag} was checked"))
        assert main(["simulate", "--channel", canonical_path, "--n", "2,8",
                     "--trials", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sqrtnlogn_channel_exits_3_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       fmt):
        bob = [np.diag([1.0, 0.0]), np.diag([0.5, 0.5])]
        willie = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]
        path = _write_channel(tmp_path / "snl.json", bob, willie)
        monkeypatch.setattr(cli, "run_experiment", lambda *args: pytest.fail(
            "run_experiment ran on a SqrtNLogN channel"))
        assert main(["simulate", "--channel", path, "--n", "4", "--gamma", "0.5",
                     "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SqrtNLogN" in captured.err and "Traceback" not in captured.err

    def test_json_format(self, canonical_path, capsys):
        assert main(["simulate", "--channel", canonical_path, "--n", "2",
                     "--gamma", "0.4", "--trials", "2", "--seed", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["trials"]) == 2
        assert len(doc["summaries"]) == 1
        assert doc["trials"][0]["n"] == 2

    def test_json_diagnostics_leave_the_csv_unchanged(self, canonical_path, capsys):
        args = ["simulate", "--channel", canonical_path, "--n", "3", "--trials", "2",
                "--seed", "5"]
        assert main(args + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for trial in doc["trials"]:
            assert trial["diagnostics"]["bob_blocks"] == 8
            assert trial["diagnostics"]["willie_blocks"] == 8
            assert 1 <= trial["diagnostics"]["bob_types"] <= 3 + 1
        assert main(args + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,gamma,seed,logM_nats,logK_nats,pe_bob,covert_D_nats,pe_willie"
        assert all(len(line.split(",")) == 8 for line in lines)


class TestVerify:
    def test_fast_run_passes(self, capsys):
        assert main(["verify", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_single_suite(self, capsys):
        assert main(["verify", "--suite", "pinsker", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert out.strip().startswith("PASS pinsker")
        assert len(out.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_trials_exit_2(self, capsys, monkeypatch, value):
        # a run that checks nothing must not pass
        for name in list(verify.SUITES):
            monkeypatch.setitem(verify.SUITES, name,
                                lambda runs: pytest.fail("a suite ran before --trials was checked"))
        assert main(["verify", "--trials", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials" in captured.err and "Traceback" not in captured.err

    def test_negative_seed_exits_2(self, capsys, monkeypatch):
        for name in list(verify.SUITES):
            monkeypatch.setitem(verify.SUITES, name,
                                lambda runs: pytest.fail("a suite ran before --seed was checked"))
        assert main(["verify", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: need an integer seed >= 0, got -1"]


class TestNogo:
    def test_leaking_channel_grid(self, leaking_path, capsys):
        assert main(["nogo", "--channel", leaking_path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "epsilon,c_min,pe_willie,bob_bound,admissible_fraction,pair_bound"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        # bound positive well below the boundary, zero at c_min/16 and above
        assert float(rows[0][3]) > 0
        assert float(rows[2][3]) == pytest.approx(0.0, abs=1e-12)

    def test_contained_channel_exits_3(self, canonical_path):
        assert main(["nogo", "--channel", canonical_path]) == 3

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_blocklength_exits_2(self, leaking_path, n):
        assert main(["nogo", "--channel", leaking_path, "--n", n]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_epsilon_exits_2(self, leaking_path, capsys, value):
        assert main(["nogo", "--channel", leaking_path, "--epsilon", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "epsilon" in captured.err and "Traceback" not in captured.err

    def test_explicit_epsilon(self, leaking_path, capsys):
        assert main(["nogo", "--channel", leaking_path, "--epsilon", "0.001"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 1
        assert doc[0]["epsilon"] == pytest.approx(0.001)


NON_FINITE_CALLS = [["classify"], ["coefficients"], ["simulate", "--n", "2", "--trials", "1"]]


@pytest.mark.parametrize("argv", NON_FINITE_CALLS)
@pytest.mark.parametrize("part, value", [("re", math.nan), ("re", math.inf), ("im", math.inf)])
def test_non_finite_channel_entry_exits_2(tmp_path, capsys, argv, part, value):
    # a NaN compares False with every tolerance, so it must be refused by name
    states = [np.diag([0.9, 0.1]), np.diag([0.6, 0.4])]
    doc = {"bob": [matrix_to_json(m) for m in states],
           "willie": [matrix_to_json(m) for m in states]}
    doc["willie"][1][part][0][1] = value
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([argv[0], "--channel", str(path), *argv[1:]]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "willie[1]" in captured.err and "entry (0, 1)" in captured.err
    assert "not a finite number" in captured.err and "Traceback" not in captured.err


def test_non_finite_povm_element_exits_2(canonical_path, tmp_path, capsys):
    povm_doc = {"elements": [matrix_to_json(np.diag([1.0, 0.0])),
                             matrix_to_json(np.diag([0.0, 1.0]))]}
    povm_doc["elements"][0]["re"][1][1] = math.nan
    povm_path = tmp_path / "povm.json"
    povm_path.write_text(json.dumps(povm_doc))
    assert main(["coefficients", "--channel", canonical_path, "--povm", str(povm_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "element 0: entry (1, 1)" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("command", [["classify"], ["coefficients"], ["nogo"],
                                     ["simulate", "--n", "2", "--trials", "1"], ["verify"]])
@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unwritable_out_exits_2_before_any_work(canonical_path, tmp_path, capsys, monkeypatch,
                                               command, where):
    for name in ("load_channel", "run_experiment", "run_suites"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work ran before --out"))
    out = tmp_path / "missing" / "x.csv" if where == "missing" else tmp_path
    before = sorted(tmp_path.iterdir())
    channel = [] if command == ["verify"] else ["--channel", canonical_path]
    assert main([command[0], *channel, *command[1:], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: cannot write {out}: "
                                         "not a file in a writable directory"]
    assert sorted(tmp_path.iterdir()) == before
