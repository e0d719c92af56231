import copy
import csv
import dataclasses
import hashlib
import io
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qfeedback import achievability, cli, protocol
from qfeedback.achievability import DisturbanceRecord
from qfeedback.cli import main
from qfeedback.config import (
    ConfigError,
    dump_report,
    encode_code,
    load_config,
    parse_config,
)
from qfeedback.directed import directed_information_total, rate_report
from qfeedback.protocol import random_feedback_code, validate_code
from qfeedback.quantum import Povm, ValidationError, depolarizing_channel

ROOT = Path(__file__).resolve().parent.parent
IDENTITY = ROOT / "configs" / "identity.json"
DEPOLARIZING = ROOT / "configs" / "depolarizing.json"


def run_cli(args):
    """Run the CLI in-process, capturing stdout; returns (exit, text)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in args])
    return code, buf.getvalue()


def test_validate_shipped_configs():
    for cfg in (IDENTITY, DEPOLARIZING):
        code, out = run_cli(["validate", cfg])
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_running_the_module_runs_main(monkeypatch, capsys):
    # ``python -m qfeedback.cli`` exits with main's status.  runpy warns when
    # the module it runs is already imported, so it runs from a fresh copy.
    monkeypatch.delitem(sys.modules, "qfeedback.cli")
    monkeypatch.setattr(sys, "argv", ["qfeedback", "validate", str(DEPOLARIZING)])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("qfeedback.cli", run_name="__main__")
    assert exit_.value.code == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_validate_bad_kraus_exits_one(tmp_path):
    bad = {
        "channel": {"kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]},
        "protocol": {
            "n": 1,
            "words": ["0", "1"],
            "probs": [0.5, 0.5],
            "letter_states": [[0.0, 0.0], [3.14159, 0.0]],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _ = run_cli(["validate", path])
    assert code == 1


def test_nan_probability_config_rejected():
    data = json.loads(IDENTITY.read_text())
    data["protocol"]["probs"] = [float("nan"), 0.5]
    with pytest.raises(ValidationError, match="not a probability distribution"):
        parse_config(data)


def test_unknown_field_exits_two(tmp_path):
    data = json.loads(IDENTITY.read_text())
    data["surprise"] = 1
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(data))
    code, _ = run_cli(["validate", path])
    assert code == 2


@pytest.mark.parametrize(
    "section, field, value, where",
    [
        ("protocol", "probs", 0.5, "protocol.probs"),
        ("protocol", "probs", ["half", 0.5], "protocol.probs"),
        ("channel", "p", "x", "channel.p"),
        ("protocol", "words", [["a"], [1]], "protocol.words"),
        ("protocol", "letter_states", [["x", 0.0], [3.14, 0.0]], "protocol.letter_states"),
    ],
    ids=["probs-not-a-list", "probs-not-numbers", "channel-p-not-a-number", "word-not-digits", "angle-not-a-number"],
)
def test_mistyped_fields_exit_two(tmp_path, section, field, value, where):
    data = json.loads(IDENTITY.read_text())
    if section == "channel":
        data["channel"] = {"name": "depolarizing"}
    data[section][field] = value
    with pytest.raises(ConfigError, match=re.escape(where)):
        parse_config(data)
    path = tmp_path / "mistyped.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", path])[0] == 2


N3 = {"n": 3, "words": ["000", "111"], "measurements": [[0.6, 0.3], [0.0, 0.0]]}


@pytest.mark.parametrize(
    "update, where",
    [
        ({"words": 5}, "protocol.words"),
        ({"letter_states": [0.0, 3.14]}, "protocol.letter_states"),
        ({"measurements": [["a", 0.3]]}, "protocol.measurements"),
        ({"measurements": [[0.6]]}, "protocol.measurements"),
        ({**N3, "feedback": {"2": 5}}, "protocol.feedback[2]"),
        ({**N3, "feedback": {"x": {"0": [0.1, 0.0, 0.0]}}}, "protocol.feedback"),
        ({**N3, "feedback": {"2": {"0": ["a", 0, 0]}}}, "protocol.feedback[2][0]"),
        ({"measurements": None, "measurements_explicit": 5}, "protocol.measurements_explicit"),
        ({"measurements": None, "measurements_explicit": [5, 6]}, "protocol.M1"),
        ({"measurements": None, "measurements_explicit": [[["a"]], []]}, "protocol.M1"),
    ],
    ids=[
        "words-not-a-list",
        "angle-pair-not-a-list",
        "measurement-angle-not-a-number",
        "measurement-row-too-short",
        "feedback-round-not-an-object",
        "feedback-round-key-not-an-int",
        "feedback-angle-not-a-number",
        "explicit-measurements-not-a-list",
        "explicit-povm-not-a-list",
        "explicit-element-not-a-pair",
    ],
)
def test_misshapen_fields_exit_two(tmp_path, update, where):
    data = json.loads(DEPOLARIZING.read_text())
    data["protocol"].update(update)
    data["protocol"] = {key: value for key, value in data["protocol"].items() if value is not None}
    with pytest.raises(ConfigError, match=re.escape(f"{where}: expected")):
        parse_config(data)
    path = tmp_path / "misshapen.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", path])[0] == 2


def test_parameters_a_channel_does_not_take_exit_two(tmp_path):
    data = json.loads(IDENTITY.read_text())
    data["channel"] = {"name": "depolarizing", "p": 0.2, "gamma": 0.9, "dim": 7}
    with pytest.raises(ConfigError, match=re.escape("channel 'depolarizing': unknown fields ['dim', 'gamma']")):
        parse_config(data)
    path = tmp_path / "stray_parameters.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", path])[0] == 2
    assert run_cli(["optimize", "--channel", "identity", "--p", "0.3", "--max-sweeps", "0"])[0] == 2
    assert run_cli(["optimize", "--channel", "depolarizing", "--starts", "1", "--max-sweeps", "0"])[0] == 2


def test_final_measurement_key_is_unknown(tmp_path):
    # The PGM is the only decoder a config without explicit POVMs gets, so the key selects nothing.
    data = json.loads(IDENTITY.read_text())
    data["protocol"]["final_measurement"] = "pgm"
    with pytest.raises(ConfigError, match=re.escape("protocol: unknown fields ['final_measurement']")):
        parse_config(data)
    path = tmp_path / "final.json"
    path.write_text(json.dumps(data))
    assert run_cli(["validate", path])[0] == 2


def test_dead_config_sections_rejected(tmp_path):
    # A config has no typicality or optimizer section: nothing would read one.
    data = json.loads(IDENTITY.read_text())
    data["typicality"] = {"delta": "banana"}
    data["optimizer"] = {"starts": 99}
    with pytest.raises(ConfigError, match="unknown fields"):
        parse_config(data)
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(data))
    code, _ = run_cli(["validate", path])
    assert code == 2


def test_feedback_for_a_missing_outcome_exits_two(tmp_path):
    # M_1 is a two-outcome qubit measurement: a map keyed by outcome 7 would never run.
    data = json.loads(IDENTITY.read_text())
    data["protocol"].update(
        n=3, words=["000", "111"], measurements=[[0, 0], [0, 0]], feedback={"2": {"7": [3.14159, 0, 0]}}
    )
    with pytest.raises(ConfigError, match=re.escape("protocol.feedback[2][7]: not an outcome of M_1")):
        parse_config(data)
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(data))
    for command in ("validate", "info", "simulate"):
        assert run_cli([command, path])[0] == 2
    data["protocol"]["feedback"] = {"2": {"1": [3.14159, 0, 0]}}
    path.write_text(json.dumps(data))
    assert run_cli(["validate", path])[0] == 0


def test_an_empty_feedback_family_exits_one(tmp_path, capsys):
    # The PGM decoder walks the code when the config loads, so every command meets the family.
    data = json.loads(DEPOLARIZING.read_text())
    data["protocol"].update(N3, feedback={"2": {"0": []}})
    path = tmp_path / "empty_feedback.json"
    path.write_text(json.dumps(data))
    for command in ("validate", "info", "simulate"):
        assert run_cli([command, path])[0] == 1
        err = capsys.readouterr().err
        assert "validation error: Kraus family is not complete" in err
        assert "Traceback" not in err


def _qutrit_config(n):
    """Identity channel on a qutrit, basis-state letters given as explicit matrices."""
    basis = [np.diag(np.eye(3)[k]).astype(complex) for k in range(3)]
    states = []
    for word in ("0" * n, "1" * n):
        mat = np.array([[1.0 + 0j]])
        for a in word:
            mat = np.kron(mat, basis[int(a)])
        states.append(mat)
    return {
        "channel": {"name": "identity", "dim": 3},
        "protocol": {
            "n": n,
            "alphabet": 3,
            "words": ["0" * n, "1" * n],
            "probs": [0.5, 0.5],
            "states": [[[[z.real, z.imag] for z in row] for row in m] for m in states],
        },
    }


@pytest.mark.parametrize(
    "case,field",
    [
        ("letter_states", "protocol.letter_states"),
        ("measurements_default", "protocol.measurements"),
        ("measurements", "protocol.measurements"),
        ("euler_feedback", "protocol.feedback[2][0]"),
    ],
)
def test_qubit_only_fields_on_qutrit_channel_exit_two(case, field, tmp_path):
    data = _qutrit_config(3 if case == "euler_feedback" else 2)
    proto = data["protocol"]
    if case == "letter_states":
        del proto["states"]
        proto["alphabet"] = 2
        proto["words"] = ["00", "11"]
        proto["letter_states"] = [[0.0, 0.0], [3.141592653589793, 0.0]]
    elif case == "measurements":
        proto["measurements"] = [[0.6, 0.3]]
    elif case == "euler_feedback":
        # Trivial one-outcome measurements, so the Euler entry is the only qubit field.
        eye = [[[[float(i == j), 0.0] for j in range(3**q)] for i in range(3**q)] for q in (1, 2, 3)]
        proto["measurements_explicit"] = [[[0, eye[0]]], [[0, eye[1]]], [["000", eye[2]]]]
        proto["feedback"] = {"2": {"0": [0.1, 0.2, 0.3]}}
    with pytest.raises(ConfigError, match=re.escape(f"{field}: qubit-only")):
        parse_config(data)
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps(data))
    code, _ = run_cli(["validate", path])
    assert code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["optimize", "--channel", "identity", "--starts", "0"],
        ["optimize", "--channel", "identity", "--n", "0"],
        ["optimize", "--channel", "identity", "--max-sweeps", "-1"],
        ["simulate", IDENTITY, "--samples", "-5"],
        ["verify-lemmas", "--trials", "0"],
        ["verify-lemmas", "--seed", "-1"],
        ["optimize", "--channel", "identity", "--seed", "-3"],
        ["simulate", IDENTITY, "--seed", "-2"],
    ],
    ids=["starts", "n", "max-sweeps", "samples", "trials", "verify-seed", "optimize-seed", "simulate-seed"],
)
def test_out_of_range_counts_are_parse_errors(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_qutrit_explicit_config_builds():
    # The same qutrit config without qubit-only fields is a valid code.
    data = _qutrit_config(1)
    cfg = parse_config(data)
    assert validate_code(cfg.code).ok


def test_unreadable_config_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli(["validate", path])
    assert code == 2


def test_simulate_identity_exact_zero_error():
    code, out = run_cli(["simulate", IDENTITY, "--exact"])
    assert code == 0
    rep = json.loads(out)
    assert rep["average_error"] < 1e-12


def test_simulate_exact_with_samples_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", IDENTITY, "--exact", "--samples", 5])
    assert exc.value.code == 2
    assert "--exact (exact enumeration only) does not take --samples" in capsys.readouterr().err


def test_simulate_deterministic_bytes(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code1, text1 = run_cli(["simulate", DEPOLARIZING, "--samples", 500, "--seed", 7, "--out", out_a])
    code2, text2 = run_cli(["simulate", DEPOLARIZING, "--samples", 500, "--seed", 7, "--out", out_b])
    assert code1 == code2 == 0
    assert text1 == text2
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_stdout_is_pinned():
    # sha256 of `qfeedback simulate configs/depolarizing.json --samples 2000 --seed 7` stdout as the
    # per-call sampler (`oracle_sample_transcript`) printed it: the sampler's node table moves no byte.
    code, text = run_cli(["simulate", DEPOLARIZING, "--samples", 2000, "--seed", 7])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == "21f06d5b87197fdc9d7e6705297adfbae0313eafa16217b346b373d07abc4aaa"


def test_simulate_over_the_cap(monkeypatch, capsys):
    # Loading builds the PGM decoder through the walk, so the cap drops only after it.
    cap, load = protocol.ENUM_CAP, cli.load_config

    def load_then_cap(path):
        monkeypatch.setattr(protocol, "ENUM_CAP", cap)
        cfg = load(path)
        monkeypatch.setattr(protocol, "ENUM_CAP", 1)
        return cfg

    monkeypatch.setattr(cli, "load_config", load_then_cap)
    code, out = run_cli(["simulate", DEPOLARIZING])
    assert (code, out) == (3, "")
    assert "resource cap: transcript enumeration exceeded 1 branches" in capsys.readouterr().err
    code, out = run_cli(["simulate", DEPOLARIZING, "--samples", 200, "--seed", 1])
    rep = json.loads(out)
    assert code == 0
    assert rep["exact_skipped"] == "enumeration exceeded the branch cap"
    assert "exact_outcome_distribution" not in rep and "average_error" not in rep
    assert rep["samples"] == 200
    assert abs(sum(rep["sampled_frequencies"].values()) - 1.0) <= 1e-12
    assert 0.0 <= rep["sampled_error"] <= 1.0


def test_simulate_sampled_matches_exact():
    code, out = run_cli(["simulate", DEPOLARIZING, "--samples", 10000, "--seed", 3])
    assert code == 0
    rep = json.loads(out)
    exact = rep["exact_outcome_distribution"]
    freq = rep["sampled_frequencies"]
    n = rep["samples"]
    for key, p in exact.items():
        if p < 5e-4:
            continue
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(freq.get(key, 0.0) - p) <= 3 * sigma + 1e-9, key


def test_info_reports_converse_chain():
    code, out = run_cli(["info", DEPOLARIZING])
    assert code == 0
    rep = json.loads(out)
    assert rep["ddpi_slack"] >= -1e-9
    assert rep["i_message_classical"] <= rep["i_message_quantum"] + 1e-9
    assert rep["message_entropy_rate"] <= rep["fano_bound"] + 1e-9


def test_info_fully_depolarizing(tmp_path):
    data = json.loads(DEPOLARIZING.read_text())
    data["channel"] = {"name": "fully_depolarizing"}
    path = tmp_path / "full.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["info", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["directed_information"] <= 1e-10
    assert all(t <= 1e-10 for t in rep["per_round_information"])


def test_info_identity_one_bit():
    code, out = run_cli(["info", IDENTITY])
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["directed_information"] - 1.0) < 1e-9


def test_optimize_identity(tmp_path):
    code_file = tmp_path / "best.json"
    code, out = run_cli(
        ["optimize", "--channel", "identity", "--n", 1, "--starts", 2, "--max-sweeps", 25,
         "--seed", 0, "--code-out", code_file]
    )
    rep = json.loads(out)
    assert rep["rate"] >= 0.99
    loaded = load_config(str(code_file))
    assert validate_code(loaded.code).ok


def test_optimize_fully_depolarizing():
    code, out = run_cli(
        ["optimize", "--channel", "fully_depolarizing", "--n", 1, "--starts", 1, "--max-sweeps", 3,
         "--grid-check"]
    )
    rep = json.loads(out)
    assert rep["rate"] <= 1e-6
    assert abs(rep["grid_oracle"]) <= 1e-6


def test_optimize_feedback_flag_equivalence_n1():
    _, out_on = run_cli(
        ["optimize", "--channel", "depolarizing", "--p", 0.2, "--n", 1, "--starts", 2,
         "--max-sweeps", 20, "--seed", 5]
    )
    _, out_off = run_cli(
        ["optimize", "--channel", "depolarizing", "--p", 0.2, "--n", 1, "--starts", 2,
         "--max-sweeps", 20, "--seed", 5, "--no-feedback"]
    )
    on = json.loads(out_on)
    off = json.loads(out_off)
    assert abs(on["rate"] - off["rate"]) <= 1e-6


def test_optimize_deterministic():
    common = ["--n", 1, "--starts", 2, "--max-sweeps", 10, "--seed", 11]
    for channel in (["--channel", "depolarizing", "--p", 0.1], ["--channel", "amplitude_damping", "--gamma", 0.3]):
        code1, a = run_cli(["optimize", *channel, *common])
        code2, b = run_cli(["optimize", *channel, *common])
        assert code1 == code2 == 0
        assert a == b
    assert json.loads(a)["channel"] == "amplitude_damping(0.3)"


def test_verify_lemmas_passes():
    code, out = run_cli(["verify-lemmas", "--trials", 3, "--seed", 2])
    assert code == 0
    rep = json.loads(out)
    assert rep["all_ok"] is True


VERIFY_PIN = ROOT / "tests" / "data" / "verify_lemmas.json"


@pytest.mark.parametrize("argv", sorted(json.loads(VERIFY_PIN.read_text())))
def test_verify_lemmas_output_pin(argv):
    # Recorded from the trial-by-trial battery: drawing first and evaluating in
    # stacks keeps every field bit for bit.  The typicality overlap, now summed
    # exactly, may move by at most 1e-15.
    code, out = run_cli(argv.split())
    assert code == (1 if "--self-test" in argv else 0)
    got = {path: (type(v), v) for path, v in cli._leaves(json.loads(out))}
    want = {path: (type(v), v) for path, v in cli._leaves(json.loads(VERIFY_PIN.read_text())[argv])}
    overlap = "checks.typicality.overlap"
    assert abs(got.pop(overlap)[1] - want.pop(overlap)[1]) <= 1e-15
    assert got == want


def test_verify_lemmas_cumulative_check_is_all_records_passed(monkeypatch):
    # The battery's verdict is the records' own; worst_excess is only reported beside it.
    records = lambda *excess: [DisturbanceRecord((), (), 1, 1.0, 1.0 + e, 1.0, ()) for e in excess]
    monkeypatch.setattr(cli, "build_double_blocked_code", lambda base, l, delta: None)
    for excess, ok in [((0.5e-9,), True), ((-0.1, 2e-9), False), ((), True)]:
        monkeypatch.setattr(cli, "cumulative_disturbance_report", lambda code, base: records(*excess))
        got = cli._lemma_battery(1, 0, False)["cumulative_disturbance"]
        assert got["ok"] is ok is all(r.passed for r in records(*excess))
        assert got["branches"] == len(excess)
    # A wider slack in the one pass rule moves the battery with the records.
    monkeypatch.setattr(achievability, "BOUND_SLACK", 3e-9)
    monkeypatch.setattr(cli, "cumulative_disturbance_report", lambda code, base: records(2e-9))
    got = cli._lemma_battery(1, 0, False)["cumulative_disturbance"]
    assert got["ok"] is True and got["worst_excess"] > 1e-9


def test_verify_lemmas_reproducible():
    _, a = run_cli(["verify-lemmas", "--trials", 1, "--seed", 9])
    _, b = run_cli(["verify-lemmas", "--trials", 1, "--seed", 9])
    assert a == b


def test_verify_lemmas_self_test_detects_violation():
    code, out = run_cli(["verify-lemmas", "--trials", 1, "--seed", 2, "--self-test"])
    assert code == 1
    rep = json.loads(out)
    assert rep["checks"]["hayashi_nagaoka"]["ok"] is False
    assert rep["all_ok"] is False


def test_csv_format():
    code, out = run_cli(["info", IDENTITY, "--format", "csv"])
    assert code == 0
    assert "directed_information," in out
    assert "{" not in out


def _json_leaves(value, path=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _json_leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _json_leaves(v, f"{path}[{i}]")
    else:
        yield path, value


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", DEPOLARIZING, "--samples", 20],
        ["verify-lemmas", "--trials", 1, "--seed", 2],
        ["validate", IDENTITY],
        ["validate", "NON_CODEWORD_DECODER"],
    ],
)
def test_csv_rows_parse_to_the_json_leaves(args, tmp_path):
    if "NON_CODEWORD_DECODER" in args:
        # M_n outcome 7 is no codeword: the report lists a violation.
        data = json.loads(IDENTITY.read_text())
        m_1 = [[7, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]]
        data["protocol"]["measurements_explicit"] = [m_1]
        path = tmp_path / "decoder.json"
        path.write_text(json.dumps(data))
        args = ["validate", path]
    _, text = run_cli(args)
    _, table = run_cli(args + ["--format", "csv"])
    rows = list(csv.reader(io.StringIO(table)))
    assert rows and all(len(row) == 2 for row in rows)
    leaves = {path: str(value) for path, value in _json_leaves(json.loads(text))}
    assert len(rows) == len(leaves)
    assert dict(rows) == leaves


def test_report_roundtrip_byte_identical():
    _, out = run_cli(["info", DEPOLARIZING])
    rep = json.loads(out)
    assert dump_report(rep) == out.rstrip("\n")


def test_code_roundtrip(tmp_path):
    feedback_code = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.1), 3, num_words=3)
    assert feedback_code.measurements[0].feedback
    for i, code in enumerate([load_config(str(DEPOLARIZING)).code, feedback_code]):
        path = tmp_path / f"code{i}.json"
        path.write_text(json.dumps(encode_code(code)))
        loaded = load_config(str(path)).code
        assert validate_code(loaded).ok
        assert abs(directed_information_total(loaded) - directed_information_total(code)) < 1e-12
        for a, b in zip(loaded.states, code.states, strict=True):
            assert np.array_equal(a.mat, b.mat)
        for a, b in zip(loaded.measurements, code.measurements, strict=True):
            assert a.labels == b.labels
            assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.elements, b.elements, strict=True))
            assert a.feedback.keys() == b.feedback.keys()
            for k, kraus in b.feedback.items():
                assert all(np.array_equal(x, y) for x, y in zip(a.feedback[k], kraus, strict=True))


def test_code_roundtrip_with_string_labels(tmp_path):
    # M_1 relabelled 'a'/'b': encode_code writes its feedback keys as str(label), and loading resolves them back.
    code = random_feedback_code(np.random.default_rng(3), depolarizing_channel(0.1), 3, num_words=3)
    names = {0: "a", 1: "b"}
    m1 = code.measurements[0]
    m1 = Povm(
        tuple((names[lab], f) for lab, f in m1.elements), {names[k]: kraus for k, kraus in m1.feedback.items()}
    )
    relabelled = dataclasses.replace(code, measurements=(m1,) + code.measurements[1:])
    assert validate_code(relabelled).ok
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(encode_code(relabelled)))
    loaded = load_config(str(path)).code
    assert loaded.measurements[0].labels == ("a", "b")
    assert loaded.measurements[0].feedback.keys() == {"a", "b"}
    assert rate_report(loaded) == rate_report(relabelled) == rate_report(code)
    assert run_cli(["info", path])[0] == 0
    data = json.loads(path.read_text())
    data["protocol"]["feedback"]["2"]["0"] = data["protocol"]["feedback"]["2"].pop("a")
    with pytest.raises(ConfigError, match=re.escape("protocol.feedback[2][0]: not an outcome of M_1")):
        parse_config(data)


def _mutate(data, rng):
    data = copy.deepcopy(data)
    kind = rng.integers(0, 5)
    if kind == 0:
        data[f"junk_{rng.integers(100)}"] = 1
    elif kind == 1:
        data["protocol"]["probs"] = [2.0, -1.0]
    elif kind == 2:
        data["channel"] = {"name": "no_such_channel"}
    elif kind == 3:
        data["protocol"]["words"] = ["0", "0"]
    else:
        data["protocol"]["letter_states"] = [[0.0, 0.0]]
    return data


def test_fuzzed_configs_never_crash(tmp_path):
    rng = np.random.default_rng(13)
    base = json.loads(DEPOLARIZING.read_text())
    for i in range(40):
        data = _mutate(base, rng)
        path = tmp_path / f"fuzz_{i}.json"
        path.write_text(json.dumps(data))
        code, _ = run_cli(["validate", path])
        assert code in (0, 1, 2)


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qfeedback.cli", "validate", str(IDENTITY)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True
