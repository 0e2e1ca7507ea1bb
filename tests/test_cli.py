"""End-to-end runs of the command-line entry point, all in process."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qgalab import cli as cli_mod
from qgalab import prfsg as prfsg_mod
from qgalab import games as games_mod
from qgalab import qga as qga_mod
from qgalab.circuits import MAX_DENSE_QUBITS, PhaseWord
from qgalab.cli import main
from qgalab.games import run_up_game, up_copy
from qgalab.qga import iqp_poly_qga, qga_from_json
from qgalab.rng import stream
from qgalab.states import StateVector, sample_haar_state, state_from_json, state_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# reproducibility contracts
# ---------------------------------------------------------------------------

def test_reports_are_byte_identical_across_reruns(capsys):
    args = ("sample", "--seed", "5", "--lambda", "2", "--candidate", "3")
    code1, out1, err1 = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "elapsed_ms=" in err1  # timing goes to stderr, never the report


def test_reports_do_not_depend_on_workers(capsys):
    base = ("game", "--id", "up", "--trials", "40", "--lambda", "2", "--seed", "9")
    code1, out1, _ = run_cli(capsys, *base, "--workers", "1")
    code2, out2, _ = run_cli(capsys, *base, "--workers", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_game_matches_library_call(capsys):
    code, out, _ = run_cli(capsys, "game", "--id", "up", "--adversary", "copy",
                           "--trials", "50", "--seed", "123")
    assert code == 0
    report = json.loads(out)
    direct = run_up_game(iqp_poly_qga(3, 3, None), up_copy, 2, 50, seed=123)
    assert report["successes"] == direct.successes
    assert report["estimate"] == direct.estimate
    assert report["ci"] == [direct.ci_low, direct.ci_high]
    assert report["params"]["adversary"] == "copy"


# ---------------------------------------------------------------------------
# validation failures exit with 2
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("sample", "--d", "0"),
    ("sample", "--lambda", "25"),
    ("sample", "--candidate", "bogus"),
    ("sample", "--format", "csv"),
    ("game", "--id", "nonsense"),
    ("game", "--trials", "5"),                                   # --id missing
    ("game", "--id", "uc", "--t", "2", "--tprime", "2"),
    ("game", "--id", "ucfsg", "--lambda", "7", "--tprime", "3"),
    ("game", "--id", "up", "--adversary", "cloner"),
    ("game", "--id", "pr0-vs-warp1"),
    ("game", "--id", "attack-iqp-pru", "--candidate", "random-circuit"),
    ("prfsg-eval", "--ell", "9"),
])
def test_validation_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("game", "--id", "attack-iqp-pru", "--lambda", "8", "--trials", "5"),
    ("sample", "--candidate", "haar-unitary", "--lambda", "9"),
    ("game", "--id", "up", "--candidate", "haar-unitary", "--lambda", "9", "--trials", "5"),
    ("game", "--id", "ow", "--adversary", "orthogonal", "--lambda", "8", "--trials", "5"),
])
def test_dense_caps_reject_before_any_trial(capsys, monkeypatch, argv):
    started = []
    monkeypatch.setattr(games_mod, "run_trials", lambda *args, **kwargs: started.append(args))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "dense" in err
    assert started == []


def _validated_config(*argv):
    args = cli_mod._build_parser().parse_args(list(argv))
    config = cli_mod._resolve_config(args)
    cli_mod._validate(config, args.command)
    return config


@pytest.mark.parametrize("argv", [
    ("--lambda", "20", "--ell", "8"),
    ("--lambda", "17", "--ell", "6"),
])
def test_prfsg_eval_rejects_oversize_reports_before_keygen(capsys, monkeypatch, argv):
    drawn = []
    monkeypatch.setattr(prfsg_mod, "keygen", lambda *args: drawn.append(args))
    code, out, err = run_cli(capsys, "prfsg-eval", *argv)
    assert (code, out) == (2, "")
    assert "report cap" in err
    assert drawn == []


def test_prfsg_eval_largest_report_passes_validation():
    # 2^(16 + 6) amplitudes sits exactly at the cap; nothing is allocated here
    assert _validated_config("prfsg-eval", "--lambda", "16", "--ell", "6")["lambda"] == 16


def test_runtime_value_error_exits_3(capsys, monkeypatch):
    # an adversary handing back one register instead of t' fails inside a trial
    monkeypatch.setitem(cli_mod._GAME_ADVERSARIES["uc"][1], "echo-junk",
                        lambda ch, rng: ch.copies)
    code, out, err = run_cli(capsys, "game", "--id", "uc", "--lambda", "2", "--trials", "3")
    assert code == 3
    assert out == ""
    assert "register count mismatch" in err


def test_config_file_validation(capsys, tmp_path):
    bad_key = tmp_path / "bad-key.json"
    bad_key.write_text('{"trials": 10, "colour": 3}')
    assert run_cli(capsys, "sample", "--config", str(bad_key))[0] == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run_cli(capsys, "sample", "--config", str(bad_json))[0] == 2

    assert run_cli(capsys, "sample", "--config", str(tmp_path / "absent.json"))[0] == 2

    # string options of the wrong JSON type are rejected before any trial runs
    for text in ('{"id": "up", "out": 5}', '{"id": 5}', '{"id": ["up"]}',
                 '{"id": "up", "adversary": ["x"]}'):
        wrong_type = tmp_path / "wrong-type.json"
        wrong_type.write_text(text)
        code, out, err = run_cli(capsys, "game", "--config", str(wrong_type), "--trials", "5")
        assert (code, out) == (2, ""), text
        assert "must be a string" in err, text


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats dominates start-up time, and only ega-check needs it
    code = "import sys, qgalab.cli; sys.exit('scipy.stats' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg roughly doubles start-up time, and only Haar unitary sampling needs it
    code = "import sys, qgalab.cli; sys.exit('scipy.linalg' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0


def test_config_file_merge_order(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"trials": 30, "lambda": 2}')
    code, out, _ = run_cli(capsys, "sample", "--config", str(cfg), "--trials", "40")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["trials"] == 40   # flag beats file
    assert report["config"]["lambda"] == 2    # file beats default


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------

def test_sample_report_round_trips(capsys):
    code, out, _ = run_cli(capsys, "sample", "--lambda", "2", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["family"]["name"] == "iqp-sparse"
    element = qga_from_json(report["group_element"])
    assert element.num_qubits == 2
    assert "workers" not in report["config"]
    assert "out" not in report["config"]


def test_out_flag_writes_file_and_silences_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "sample", "--seed", "4", "--out", str(target))
    assert code == 0
    assert out == ""
    direct = run_cli(capsys, "sample", "--seed", "4")[1]
    assert target.read_text() == direct


def test_csv_game_output(capsys):
    code, out, _ = run_cli(capsys, "game", "--id", "up", "--trials", "10",
                           "--lambda", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trial,outcome"
    assert len(lines) == 11
    assert all(line.split(",")[1] in ("0", "1") for line in lines[1:])


def test_csv_needs_recorded_outcomes(capsys):
    code, _, err = run_cli(capsys, "game", "--id", "attack-iqp-pru",
                           "--trials", "10", "--lambda", "2", "--format", "csv")
    assert code == 2
    assert "outcome" in err


def test_attack_game_report(capsys):
    code, out, _ = run_cli(capsys, "game", "--id", "attack-iqp-pru",
                           "--trials", "30", "--lambda", "3", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["detail"]["iqp_rate"] == 1.0


def test_ske_roundtrip_report(capsys):
    code, out, _ = run_cli(capsys, "ske-roundtrip", "--trials", "20",
                           "--lambda", "2", "--ell", "2", "--t", "2")
    assert code == 0
    report = json.loads(out)
    assert report["zero_message"]["estimate"] == 1.0
    assert report["ones_per_bit"]["trials"] == 40
    assert 0.0 <= report["ones_message"]["estimate"] <= 1.0


def test_prfsg_eval_builds_the_base_state_once(capsys, monkeypatch):
    built = []
    basis_state = qga_mod.basis_state
    qga_mod.StateDescription.expand.cache_clear()  # shared per process: start cold
    monkeypatch.setattr(qga_mod, "basis_state",
                        lambda *args: built.append(args) or basis_state(*args))
    code, _, _ = run_cli(capsys, "prfsg-eval", "--lambda", "4", "--ell", "6", "--seed", "1")
    assert code == 0
    assert built == [(4, 0)]  # one key, 64 evaluations


def test_money_demo_report(capsys):
    code, out, _ = run_cli(capsys, "money-demo", "--trials", "20", "--lambda", "2")
    assert code == 0
    report = json.loads(out)
    assert report["honest_accept"]["estimate"] == 1.0
    assert report["counterfeit_expected"] == 0.25
    assert report["counterfeit_accept"]["estimate"] < 0.75


def test_prfsg_eval_report(capsys):
    code, out, _ = run_cli(capsys, "prfsg-eval", "--ell", "2", "--lambda", "2",
                           "--seed", "6")
    assert code == 0
    report = json.loads(out)
    assert sorted(report["states"]) == ["00", "01", "10", "11"]
    for encoded in report["states"].values():
        state = state_from_json(encoded)
        assert abs(np.linalg.norm(state.amplitudes) - 1) < 1e-12
    assert report["key"]["ell"] == 2


@pytest.mark.parametrize("candidate", ["random-circuit", "iqp-circuit", "iqp-sparse",
                                       "haar-unitary", "identity"])
@pytest.mark.parametrize("lam,ell", [(1, 1), (3, 2), (5, 4), (10, 6)])
def test_prfsg_eval_report_matches_the_dict_reference(capsys, candidate, lam, ell):
    if candidate == "haar-unitary":
        lam = min(lam, MAX_DENSE_QUBITS)
    argv = ("prfsg-eval", "--candidate", candidate, "--lambda", str(lam), "--ell", str(ell),
            "--seed", str(lam + ell))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == oracles.prfsg_eval_report_reference(_validated_config(*argv))
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("amplitudes", [
    [complex(1.0, -0.0), complex(5e-324, 1e-05)],
    [complex(0.1, -0.0), complex(0.0, 5e-324), complex(1e-05, np.sqrt(0.99 - 1e-10)), 0.0],
])
def test_state_text_equals_the_indented_dump(amplitudes):
    state = StateVector(int(np.log2(len(amplitudes))), np.array(amplitudes))
    expected = json.dumps({"states": {"0": state_to_json(state)}}, sort_keys=True, indent=2)
    assert '{\n  "states": {\n    "0": ' + cli_mod._state_text(state) + "\n  }\n}" == expected


def _writer_states() -> dict:
    """Four states on two qubits: no repeated value; +0.0, -0.0 and 5e-324
    repeated in one state; no repeat again, though it holds -0.0; repeats
    that share their values with "01"."""
    amplitudes = {
        "00": sample_haar_state(2, stream(0, "state-writer")).amplitudes,
        "01": [complex(1.0, -0.0), complex(0.0, 5e-324), complex(-0.0, 0.0), complex(5e-324, -0.0)],
        "10": [complex(0.6, -0.0), complex(0.0, 0.48), complex(0.36, 0.5), complex(0.1, 0.02**0.5)],
        "11": [complex(0.6, -0.0), complex(0.8, 0.0), complex(0.0, -0.0), complex(5e-324, 0.0)],
    }
    return {x: StateVector(2, np.array(amps)) for x, amps in amplitudes.items()}


def test_state_texts_share_one_memo_by_bit_pattern(capsys, monkeypatch):
    # a memo keyed by float value would write -0.0 as 0.0 or 0.0 as -0.0
    states = _writer_states()
    floats = [s.amplitudes.view(float) for s in states.values()]
    assert [len(np.unique(f.view(np.uint64))) < len(f) for f in floats] == [False, True, False, True]
    assert np.signbit(floats[2][1])
    monkeypatch.setattr(prfsg_mod, "state_gen_all", lambda key: iter(states.items()))
    monkeypatch.setattr(prfsg_mod, "state_gen", lambda key, x: states[x])
    argv = ("prfsg-eval", "--lambda", "2", "--ell", "2", "--candidate", "iqp-circuit")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == oracles.prfsg_eval_report_reference(_validated_config(*argv))
    assert '"01": {\n      "amplitudes": [\n        [\n          1.0,\n          -0.0\n' in out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gates_writer_matches_the_word_dump(data):
    # two words at two depths of one dump, with repeated letters within and across them
    def word():
        lam = data.draw(st.integers(1, 10))
        wires = st.integers(0, lam - 1).flatmap(lambda a: st.tuples(
            st.just(a), st.sampled_from([-1] + [q for q in range(lam) if q != a])))
        letters = data.draw(st.lists(wires, max_size=200))
        return qga_mod.QgaDescription(qga_mod.VARIANT_IQP_CIRCUIT, lam, PhaseWord(
            lam, [a for a, _ in letters], [b for _, b in letters]))

    first, second = word(), word()
    hollow = [qga_mod.qga_to_json(g) for g in (first, second)]
    for element in hollow:
        element["body"]["gates"] = None
    text = cli_mod._canonical_json({"a": hollow[0], "b": {"c": [hollow[1]]}})
    expected = cli_mod._canonical_json({"a": qga_mod.qga_to_json(first),
                                        "b": {"c": [qga_mod.qga_to_json(second)]}})
    assert cli_mod._with_gates(text, [first.body, second.body]) == expected


def test_ega_check_report(capsys):
    code, out, _ = run_cli(capsys, "ega-check", "--trials", "2000")
    assert code == 0
    report = json.loads(out)
    assert report["axioms"] == {"identity": True, "compatibility": True}
    assert report["properties"]["regular"] is True
    assert report["orbit_uniformity"]["p_value"] > 0.001
    assert report["action"]["p"] == 23


# ---------------------------------------------------------------------------
# the benchmark's tracer still binds every name it wraps
# ---------------------------------------------------------------------------

_TRACED_RUN = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import qgalab.cli
import tracer as tracing

CALLS = [
    ["prfsg-eval", "--candidate", "iqp-circuit", "--lambda", "3", "--ell", "2"],
    ["game", "--id", "up", "--lambda", "3", "--trials", "3"],
    ["ske-roundtrip", "--lambda", "2", "--trials", "2"],
]


def run_all(call):
    outs = []
    for argv in CALLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = call(argv)
        outs.append([rc, out.getvalue()])
    return outs


plain = run_all(qgalab.cli.main)
tracer = tracing.Tracer()
tracing.install(tracer)
traced = run_all(lambda argv: tracer.call("cli.main", qgalab.cli.main, argv))
print(json.dumps({"same": plain == traced, "rcs": [rc for rc, _ in traced],
                  "layers": tracing.layer_metrics(tracer)}))
"""


def test_benchmark_tracer_installs_and_keeps_report_bytes():
    # a fresh interpreter: install() rebinds qgalab's module globals for good
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(root / "perfbench"), str(root / "src")],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rcs"] == [0, 0, 0]
    assert result["same"]
    layers = result["layers"]
    for name in ("qga.sample_g.calls", "circuits.hadamard_layer_array.calls",
                 "states.StateVector.constructions", "rng.stream.calls"):
        assert layers[name] > 0, name
