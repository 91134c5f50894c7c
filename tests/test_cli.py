import io
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from spinsense import SpinJ, build_spin_operators
from spinsense.cli import _named_operator, main


def run_cli(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_qfi_noon_prints_value(capsys):
    rc, out, err = run_cli(["qfi", "--state", "noon", "--twice-j", "10", "--axis", "z"], capsys)
    assert rc == 0
    assert err == ""
    assert float(out.strip()) == pytest.approx(100.0, rel=1e-12)
    assert out == "100.0\n"  # the README example, to the byte


def test_qfi_noon_x_axis(capsys):
    rc, out, _ = run_cli(["qfi", "--state", "noon", "--twice-j", "10", "--axis", "x"], capsys)
    assert rc == 0
    assert float(out.strip()) == pytest.approx(10.0, rel=1e-12)


def test_construct_then_state_check_round_trip(capsys, monkeypatch):
    rc, out, _ = run_cli(["construct", "--twice-j", "6", "--support", "0,3"], capsys)
    assert rc == 0
    doc = json.loads(out)
    levels = {e["m_times_2"]: e["re"] ** 2 + e["im"] ** 2 for e in doc["amplitudes"]}
    assert levels[0] == pytest.approx(5.0 / 9.0, abs=1e-14)
    assert levels[6] == pytest.approx(2.0 / 9.0, abs=1e-14)
    rc, out2, _ = run_cli(["state-check", "--tol", "1e-9"], capsys, monkeypatch, stdin_text=out)
    assert rc == 0
    assert json.loads(out2)["passed"] is True


def test_ae_code_pipes_into_code_check(capsys, monkeypatch):
    rc, code_json, _ = run_cli(["ae-code", "--twice-j", "12", "--m1", "3", "--m2", "6"], capsys)
    assert rc == 0
    rc, out, _ = run_cli(
        ["code-check", "--errors", "I,J+,J-,Jz", "--tol", "1e-9"],
        capsys,
        monkeypatch,
        stdin_text=code_json,
    )
    assert rc == 0
    report = json.loads(out)
    assert report["detection"]["passed"] is True
    assert report["kl"]["passed"] is True
    assert report["kl"]["violation"] < 1e-9


def test_code_check_failure_exits_2(capsys, monkeypatch):
    code = {
        "twice_j": 4,
        "codewords": [
            {"twice_j": 4, "amplitudes": [{"m_times_2": 2, "re": 1.0, "im": 0.0}]},
            {"twice_j": 4, "amplitudes": [{"m_times_2": 4, "re": 1.0, "im": 0.0}]},
        ],
    }
    rc, out, _ = run_cli(
        ["code-check", "--errors", "J+", "--tol", "1e-9", "--check", "detection"],
        capsys,
        monkeypatch,
        stdin_text=json.dumps(code),
    )
    assert rc == 2
    assert json.loads(out)["detection"]["passed"] is False


def test_unknown_subcommand_is_input_error(capsys):
    rc, out, err = run_cli(["frobnicate"], capsys)
    assert rc == 1
    assert out == ""
    assert "error" in json.loads(err)


def test_malformed_json_is_input_error(capsys, monkeypatch):
    rc, _, err = run_cli(["state-check"], capsys, monkeypatch, stdin_text="{not json")
    assert rc == 1
    assert "malformed JSON" in json.loads(err)["error"]


def test_schema_violation_is_input_error(capsys, monkeypatch):
    rc, _, err = run_cli(
        ["state-check"], capsys, monkeypatch, stdin_text='{"twice_j": 2}'
    )
    assert rc == 1
    assert "error" in json.loads(err)


def test_ae_code_invalid_parameters(capsys):
    rc, _, err = run_cli(["ae-code", "--twice-j", "12", "--m1", "3", "--m2", "5"], capsys)
    assert rc == 1
    assert "m2 >= m1 + 3" in json.loads(err)["error"]


def test_state_check_fails_on_denormalized_state(capsys, monkeypatch):
    doc = {"twice_j": 2, "amplitudes": [{"m_times_2": 2, "re": 1.0, "im": 0.0001}]}
    rc, out, _ = run_cli(
        ["state-check", "--tol", "1e-9"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    # the state is outside even the constructor tolerance: input error
    assert rc == 1


def test_distance_distributions_frozen_value(capsys):
    rc, out, _ = run_cli(["distance", "--p", "0.5,0.5", "--q", "0.8,0.2"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["bhattacharyya"] == pytest.approx(0.94868329805051380, abs=1e-15)
    assert doc["omega"] == pytest.approx(0.32175055439664219, abs=1e-15)
    # 17 significant digits survive the round trip
    assert format(doc["omega"], ".17g") in out
    assert len(format(doc["omega"], ".17g")) >= 17


def test_distance_between_states(capsys, monkeypatch, tmp_path):
    a = {"twice_j": 1, "amplitudes": [{"m_times_2": 1, "re": 1.0, "im": 0.0}]}
    s = 1.0 / math.sqrt(2.0)
    b = {
        "twice_j": 1,
        "amplitudes": [
            {"m_times_2": 1, "re": s, "im": 0.0},
            {"m_times_2": -1, "re": s, "im": 0.0},
        ],
    }
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(json.dumps(a))
    fb.write_text(json.dumps(b))
    rc, out, _ = run_cli(["distance", "--state-a", str(fa), "--state-b", str(fb)], capsys)
    assert rc == 0
    assert json.loads(out)["lambda"] == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_error_subcommand_noon(capsys):
    rc, out, _ = run_cli(
        ["error", "--state", "noon", "--twice-j", "4", "--axis", "z", "--theta", "0.1"], capsys
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["error_of_state"] == pytest.approx(0.039469502998557459, abs=1e-12)
    assert doc["small_theta_error"] == pytest.approx(0.04, rel=1e-12)


def test_fisher_matrix_subcommand(capsys):
    rc, out, _ = run_cli(["fisher-matrix", "--state", "noon", "--twice-j", "10"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert np.allclose(doc["matrix"], np.diag([2.5, 2.5, 25.0]), atol=1e-10)
    assert doc["trace"] == pytest.approx(30.0, rel=1e-12)
    assert all(isinstance(x, float) for row in doc["matrix"] for x in row)


def test_estimate_deterministic_artifacts(capsys, tmp_path):
    args = [
        "estimate",
        "--state",
        "noon",
        "--twice-j",
        "4",
        "--axis",
        "z",
        "--theta-true",
        "0.05",
        "--trials",
        "2000",
        "--runs",
        "8",
        "--seed",
        "7",
    ]
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    rc, out_a, _ = run_cli(args + ["--csv", str(csv_a)], capsys)
    assert rc == 0
    rc, out_b, _ = run_cli(args + ["--csv", str(csv_b)], capsys)
    assert rc == 0
    assert out_a == out_b
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert csv_a.read_text().startswith("run,theta_hat\n0,")
    summary = json.loads(out_a)
    assert set(summary) == {"empirical_sigma", "crb_sigma", "ratio", "clipped_runs", "theta_peak"}
    assert isinstance(summary["clipped_runs"], int)


def test_estimate_seed_from_environment(capsys, monkeypatch):
    args = [
        "estimate",
        "--state",
        "noon",
        "--twice-j",
        "4",
        "--axis",
        "z",
        "--theta-true",
        "0.05",
        "--trials",
        "1000",
        "--runs",
        "4",
    ]
    monkeypatch.setenv("SPINSENSE_SEED", "7")
    rc, out_env, _ = run_cli(args, capsys)
    assert rc == 0
    monkeypatch.delenv("SPINSENSE_SEED")
    rc, out_explicit, _ = run_cli(args + ["--seed", "7"], capsys)
    assert rc == 0
    assert out_env == out_explicit


def test_error_requires_theta_or_operator(capsys):
    rc, _, err = run_cli(["error", "--state", "noon", "--twice-j", "4"], capsys)
    assert rc == 1
    assert "error" in json.loads(err)


def test_axis_with_leading_minus_is_a_value(capsys):
    rc, out, err = run_cli(
        ["qfi", "--state", "noon", "--twice-j", "10", "--axis", "-0.2,0.3,0.9"], capsys
    )
    assert rc == 0, err
    rc, joined, _ = run_cli(
        ["qfi", "--state", "noon", "--twice-j", "10", "--axis=-0.2,0.3,0.9"], capsys
    )
    assert rc == 0
    assert out == joined


@pytest.mark.parametrize(
    "argv",
    [
        ["state-check", "--tol", "nan"],
        ["code-check", "--errors", "I", "--tol", "inf"],
        ["error", "--state", "noon", "--twice-j", "4", "--theta", "nan"],
        ["estimate", "--state", "noon", "--twice-j", "4", "--theta-true", "inf"],
        ["code-check", "--errors", "I,Rz(1e999)"],
    ],
)
def test_non_finite_float_is_input_error(argv, capsys, monkeypatch):
    state = {"twice_j": 2, "amplitudes": [{"m_times_2": 2, "re": 1.0, "im": 0.0}]}
    code = {"twice_j": 2, "codewords": [state]}
    stdin = json.dumps(code if argv[0] == "code-check" else state)
    rc, out, err = run_cli(argv, capsys, monkeypatch, stdin_text=stdin)
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "finite" in json.loads(lines[0])["error"]


def test_qfi_from_state_file(capsys, monkeypatch):
    doc = {"twice_j": 4, "amplitudes": [{"m_times_2": 4, "re": 1.0, "im": 0.0}]}
    rc, out, _ = run_cli(
        ["qfi", "--axis", "z"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert rc == 0
    assert float(out.strip()) == pytest.approx(0.0, abs=1e-12)


def test_qfi_with_generator_file(capsys, tmp_path):
    jz = np.diag([2.0, 1.0, 0.0, -1.0, -2.0])
    doc = {
        "twice_j": 4,
        "label": "Jz",
        "matrix_re": jz.tolist(),
        "matrix_im": np.zeros_like(jz).tolist(),
    }
    gen_file = tmp_path / "jz.json"
    gen_file.write_text(json.dumps(doc))
    rc, out, _ = run_cli(
        ["qfi", "--state", "noon", "--twice-j", "4", "--generator-file", str(gen_file)], capsys
    )
    assert rc == 0
    assert float(out.strip()) == pytest.approx(16.0, rel=1e-12)


def test_qfi_non_finite_generator_is_input_error(capsys, tmp_path):
    doc = {
        "twice_j": 2,
        "label": "G",
        "matrix_re": [[math.nan, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "matrix_im": [[0.0] * 3] * 3,
    }
    gen_file = tmp_path / "g.json"
    gen_file.write_text(json.dumps(doc))
    rc, out, err = run_cli(
        ["qfi", "--state", "noon", "--twice-j", "2", "--generator-file", str(gen_file)], capsys
    )
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "finite" in json.loads(lines[0])["error"]


def test_import_leaves_scipy_unloaded():
    import spinsense

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinsense.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, spinsense, spinsense.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["fisher-matrix", "--state", "noon", "--twice-j", "10"],
        ["ae-code", "--twice-j", "12", "--m1", "3", "--m2", "6"],
    ],
)
def test_closed_stdout_exits_1_without_traceback(argv):
    # the reader of stdout has gone before the command writes, as in `... | true`
    import spinsense

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinsense.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spinsense", *argv],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_code_check_with_error_file(capsys, monkeypatch, tmp_path):
    jz13 = np.diag(np.arange(6.0, -7.0, -1.0))
    doc = {
        "twice_j": 12,
        "label": "Jz",
        "matrix_re": jz13.tolist(),
        "matrix_im": np.zeros_like(jz13).tolist(),
    }
    op_file = tmp_path / "jz.json"
    op_file.write_text(json.dumps(doc))
    _, code_json, _ = run_cli(["ae-code", "--twice-j", "12", "--m1", "3", "--m2", "6"], capsys)
    rc, out, _ = run_cli(
        ["code-check", "--errors", "I", "--error-file", str(op_file), "--tol", "1e-9"],
        capsys,
        monkeypatch,
        stdin_text=code_json,
    )
    assert rc == 0
    assert json.loads(out)["kl"]["passed"] is True


def test_construct_rejects_bad_support(capsys):
    rc, _, err = run_cli(["construct", "--twice-j", "6", "--support", "0,1"], capsys)
    assert rc == 1
    assert "infeasible" in json.loads(err)["error"]


def test_oversized_twice_j_is_input_error(capsys):
    rc, out, err = run_cli(
        ["error", "--state", "noon", "--twice-j", "1000000", "--theta", "0.01"], capsys
    )
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "2J <= 4096" in json.loads(lines[0])["error"]
    # the identity is capped too, before its (2J+1)^2 allocation
    with pytest.raises(ValueError, match="2J <= 4096"):
        _named_operator("I", SpinJ(10**6))
    # the O(d) moment route has no dense limit
    rc, out, _ = run_cli(["qfi", "--state", "noon", "--twice-j", "1000000", "--axis", "z"], capsys)
    assert rc == 0
    assert out == "1000000000000.0\n"


def test_estimate_rejects_trials_beyond_int64(capsys):
    rc, out, err = run_cli(
        ["estimate", "--state", "noon", "--twice-j", "4", "--axis", "z", "--theta-true", "0.05",
         "--trials", str(2**63), "--runs", "3", "--seed", "1"],
        capsys,
    )
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "trials_per_run" in json.loads(lines[0])["error"]


def test_named_operators_match_the_operator_set():
    j = SpinJ(5)
    ops = build_spin_operators(j)
    expected = {"Jx": ops.jx, "Jy": ops.jy, "Jz": ops.jz, "J+": ops.jplus, "J-": ops.jminus}
    for name, op in expected.items():
        got = _named_operator(name, j)
        assert got.label == name
        assert np.array_equal(got.matrix, op.matrix)
    identity = _named_operator("I", j)
    assert identity.label == "I"
    assert np.array_equal(identity.matrix, np.eye(j.dim, dtype=complex))


def _readme_commands():
    """The sh block under "## Command line" in README.md, one command per entry."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Command line") :]
    start = section.index("```sh\n") + len("```sh\n")
    block = section[start : section.index("```", start)]
    return [cmd.split("#")[0].strip() for cmd in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 7
    outputs = {}
    for command in commands:
        stdin_text = None
        for stage in command.split("|"):
            argv = shlex.split(stage)
            assert argv[0] == "spinsense"
            if stdin_text is not None:
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
            rc, stdin_text, err = run_cli(argv[1:], capsys)
            assert rc == 0, (stage, err)
        outputs[command] = stdin_text
    assert outputs["spinsense qfi --state noon --twice-j 10 --axis z"] == "100.0\n"
    assert (tmp_path / "runs.csv").read_text().startswith("run,theta_hat\n0,")
