import ast
import io
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

from spinsense import SpinJ, ae_codewords, build_spin_operators
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


def test_error_above_the_small_angle_range_prints_a_null_small_angle_field(capsys):
    rc, out, err = run_cli(
        ["error", "--state", "noon", "--twice-j", "4", "--axis", "z", "--theta", "0.5"], capsys
    )
    assert rc == 0 and err == ""
    doc = json.loads(out)
    # NOON at 2J = 4 about z: |<psi|U|psi>| = |cos(2 theta)|, exact at any angle
    assert doc["error_of_state"] == pytest.approx(math.sin(1.0) ** 2, abs=1e-12)
    assert doc["small_theta_error"] is None
    assert '"small_theta_error":null' in out


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


def test_library_modules_leave_scipy_unloaded():
    # the package is lazy, so `import spinsense` alone loads no submodule;
    # resolving every public name loads all six, and none may import scipy
    import spinsense

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinsense.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys\nfrom spinsense import *\nimport spinsense.cli\n"
        "assert all(f'spinsense.{m}' in sys.modules for m in "
        "('spin', 'wigner', 'metrics', 'codes', 'sensing', 'estimation'))\n"
        "print('scipy' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


# the names `from spinsense import *` gave when the package imported every submodule
PUBLIC_NAMES = {
    "AnticoherenceReport", "CodeSpace", "ConditionReport", "DistinguishabilityReport",
    "Distribution", "ErrorSet", "EstimationConfig", "EstimationResult", "FeasibilityError",
    "FisherMatrix", "ProjectorBasis", "RecoverySet", "ReducedElement", "RotationAxis",
    "SpacingError", "SpinJ", "SpinOperator", "SpinOperatorSet", "SpinState", "SupportSpec",
    "TensorOperator", "ThreeJArgs", "ae_codewords", "anticoherence_report", "apply",
    "axis_generator", "basis_state", "build_spin_operators", "classical_fisher", "codes",
    "construct_anticoherent", "crb_report", "detection_check", "dfs_check", "distinguishability",
    "error_of_state", "error_small_theta", "error_with_recovery", "estimate_theta", "estimation",
    "expectation_and_variance", "fisher_matrix", "generator_unitary", "kl_check",
    "max_error_over_code", "measurement_distribution", "metrics", "min_shell_gap", "noon_state",
    "overlap", "qfi", "qfi_finite_difference", "reduced_matrix_element", "rotation_qfi",
    "rotation_unitary", "sensing", "simulate_trials", "spin", "statistical_distance",
    "survival_probability", "tensor_operator", "three_j", "we_expectation", "wigner",
}


def _loaded_modules(code):
    """The spinsense submodules (and fractions) loaded after running `code` in
    a fresh interpreter; the list is the last line of its stdout."""
    import spinsense

    src = os.path.dirname(os.path.dirname(os.path.abspath(spinsense.__file__)))
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('spinsense.') or m == 'fractions']))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_import_spinsense_loads_no_submodule():
    assert _loaded_modules("import spinsense") == set()


def test_import_cli_loads_only_spin():
    assert _loaded_modules("import spinsense.cli") == {"spinsense.cli", "spinsense.spin"}


def test_qfi_process_loads_only_what_it_runs():
    loaded = _loaded_modules(
        "import runpy, sys\n"
        "sys.argv = ['spinsense', 'qfi', '--state', 'noon', '--twice-j', '4']\n"
        "try:\n"
        "    runpy.run_module('spinsense', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    assert "spinsense.sensing" in loaded
    assert not loaded & {"spinsense.wigner", "spinsense.codes", "spinsense.estimation"}


def test_public_names_resolve_lazily():
    import spinsense

    namespace = {}
    exec("from spinsense import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert set(spinsense.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(spinsense))
    for name in PUBLIC_NAMES - {"spin", "wigner", "metrics", "codes", "sensing", "estimation"}:
        owner = sys.modules[namespace[name].__module__]
        assert getattr(owner, name) is getattr(spinsense, name)
    assert spinsense.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        spinsense.no_such_name


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
    # off the poles the rotation needs the d x d Wigner basis, which is capped
    rc, out, err = run_cli(
        ["error", "--state", "noon", "--twice-j", "1000000", "--axis", "1,1,1", "--theta", "0.01"], capsys
    )
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "2J <= 4096" in json.loads(lines[0])["error"]
    # about z every route is O(d): the NOON state loses sin^2(J theta)
    rc, out, err = run_cli(
        ["error", "--state", "noon", "--twice-j", "1000000", "--axis", "z", "--theta", "0.01"], capsys
    )
    assert (rc, err) == (0, "")
    assert json.loads(out)["error_of_state"] == pytest.approx(math.sin(5e5 * 0.01) ** 2, rel=1e-9)
    # the identity keeps its band; its matrix is capped, before its (2J+1)^2 allocation
    with pytest.raises(ValueError, match="2J <= 4096"):
        _named_operator("I", SpinJ(10**6)).matrix
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


def _readme_block(heading, language):
    """The first ```language block under the README.md section `heading`."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(heading) :]
    start = section.index(f"```{language}\n") + len(f"```{language}\n")
    return section[start : section.index("```", start)]


def _readme_commands():
    """The sh block under "## Command line" in README.md, one command per entry."""
    block = _readme_block("## Command line", "sh")
    return [cmd.split("#")[0].strip() for cmd in block.replace("\\\n", " ").splitlines()]


def test_readme_library_tour_runs():
    # run the block statement by statement, keeping the value of each bare expression
    namespace, values = {}, []
    for node in ast.parse(_readme_block("## Library quick tour", "python")).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    qfi_z, kl_passed = values
    # the two results the block states: 16.0 on every axis, and the KL check passes
    assert qfi_z == pytest.approx(16.0, rel=1e-12)
    assert kl_passed is True
    rng = np.random.default_rng(85)
    axis = namespace["RotationAxis"]
    for _ in range(5):
        u = axis.from_vector(rng.normal(size=3))
        assert namespace["rotation_qfi"](namespace["psi"], u) == pytest.approx(16.0, rel=1e-12)


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


def test_readme_estimate_matches_its_golden_output(capsys, monkeypatch, tmp_path):
    # the README estimate example (2J = 4 NOON, 1e5 trials x 200 runs, seed 42),
    # pinned to the byte: any change to the draws or to the inversion on this
    # two-level model shows up here
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    (command,) = [c for c in _readme_commands() if c.startswith("spinsense estimate")]
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(shlex.split(command)[1:], capsys)
    assert (rc, err) == (0, "")
    with open(os.path.join(data, "readme_estimate.out"), "rb") as fh:
        assert out.encode() == fh.read()
    with open(os.path.join(data, "readme_estimate_runs.csv"), "rb") as fh:
        assert (tmp_path / "runs.csv").read_bytes() == fh.read()


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["fisher-matrix"], "construct_fisher_matrix.out"),
        (["qfi", "--axis=0.3,0.4,0.5"], "construct_qfi.out"),
    ],
    ids=["fisher-matrix", "qfi"],
)
def test_constructed_sensor_matches_its_golden_output(argv, golden, capsys, monkeypatch):
    # construct --twice-j 12 --support 0,4,6 piped into the O(d) moments,
    # pinned to the byte: any change to their arithmetic shows up here
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    rc, state, err = run_cli(["construct", "--twice-j", "12", "--support", "0,4,6"], capsys)
    assert (rc, err) == (0, "")
    rc, out, err = run_cli(argv, capsys, monkeypatch, stdin_text=state)
    assert (rc, err) == (0, "")
    with open(os.path.join(data, golden), "rb") as fh:
        assert out.encode() == fh.read()


@pytest.mark.parametrize(
    "argv",
    [
        ["qfi"],
        ["fisher-matrix"],
        ["error", "--axis", "z", "--theta", "0.1"],
        ["estimate", "--theta-true", "0.05", "--runs", "3"],
    ],
)
def test_unallocatable_twice_j_is_input_error(argv, capsys):
    # the O(d) paths have no dense cap; a 16 PB state request fails at once
    rc, out, err = run_cli([*argv, "--state", "noon", "--twice-j", str(10**15)], capsys)
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    message = json.loads(lines[0])["error"]
    assert message.startswith("out of memory")
    assert "1000000000000001" in message


@pytest.mark.parametrize(
    "text, message",
    [("Unable to allocate 8.0 PiB", "out of memory: Unable to allocate 8.0 PiB"), ("", "out of memory")],
)
def test_memory_error_after_the_state_loads_is_one_json_error_line(capsys, monkeypatch, text, message):
    def compute(state, axis):
        raise MemoryError(text)

    monkeypatch.setattr("spinsense.sensing.rotation_qfi", compute)
    rc, out, err = run_cli(["qfi", "--state", "noon", "--twice-j", "4", "--axis", "x"], capsys)
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": message}


def test_parser_is_cached_but_build_parser_is_fresh():
    from spinsense.cli import _parser, build_parser

    assert build_parser() is not build_parser()
    assert _parser() is _parser()


def test_error_files_do_not_leak_into_the_next_call(capsys, monkeypatch, tmp_path):
    doc = {"twice_j": 12, "label": "Jz", "matrix_re": np.diag(np.arange(6.0, -7.0, -1.0)).tolist(),
           "matrix_im": np.zeros((13, 13)).tolist()}
    op_file = tmp_path / "jz.json"
    op_file.write_text(json.dumps(doc))
    _, code_json, _ = run_cli(["ae-code", "--twice-j", "12", "--m1", "3", "--m2", "6"], capsys)
    rc, _, _ = run_cli(["code-check", "--error-file", str(op_file)], capsys, monkeypatch, code_json)
    assert rc == 0
    rc, out, err = run_cli(["code-check"], capsys, monkeypatch, code_json)
    assert rc == 1
    assert out == ""
    assert "no error operators given" in json.loads(err)["error"]


def test_bad_call_leaves_the_next_call_intact(capsys):
    _, expected, _ = run_cli(["qfi", "--state", "noon", "--twice-j", "10", "--axis", "x"], capsys)
    for bad in (["qfi", "--state", "noon", "--twice-j", "x"], ["qfi", "--bogus"], ["nope"], []):
        rc, out, _ = run_cli(bad, capsys)
        assert (rc, out) == (1, "")
        rc, out, err = run_cli(["qfi", "--state", "noon", "--twice-j", "10", "--axis", "x"], capsys)
        assert (rc, out, err) == (0, expected, "")


def _run_readme_in_process(capsys, monkeypatch):
    outputs = []
    for command in _readme_commands():
        stdin_text = None
        for stage in command.split("|"):
            if stdin_text is not None:
                monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
            rc, stdin_text, _ = run_cli(shlex.split(stage)[1:], capsys)
            assert rc == 0
        outputs.append(stdin_text)
    with open("runs.csv", encoding="utf-8") as fh:
        outputs.append(fh.read())
    return outputs


def _run_readme_in_subprocesses(cwd):
    import spinsense

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(spinsense.__file__))))
    outputs = []
    for command in _readme_commands():
        stdin_text = ""
        for stage in command.split("|"):
            proc = subprocess.run([sys.executable, "-m", "spinsense", *shlex.split(stage)[1:]], cwd=cwd,
                                  env=env, input=stdin_text, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            stdin_text = proc.stdout
        outputs.append(stdin_text)
    outputs.append((cwd / "runs.csv").read_text(encoding="utf-8"))
    return outputs


def test_readme_examples_repeat_in_process_as_in_fresh_processes(capsys, monkeypatch, tmp_path):
    fresh = _run_readme_in_subprocesses(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _run_readme_in_process(capsys, monkeypatch) == fresh
    assert _run_readme_in_process(capsys, monkeypatch) == fresh


@pytest.mark.parametrize(
    "doc",
    [
        {"twice_j": 2, "amplitudes": [{"m_times_2": 2.0, "re": 1, "im": 0}]},
        {"twice_j": 1, "amplitudes": [{"m_times_2": True, "re": 1, "im": 0}]},
    ],
)
@pytest.mark.parametrize(
    "argv", [["state-check"], ["qfi", "--input", "-"], ["code-check", "--errors", "I"]]
)
def test_non_integer_m_times_2_is_input_error(argv, doc, capsys, monkeypatch):
    if argv[0] == "code-check":
        doc = {"twice_j": doc["twice_j"], "codewords": [doc]}
    rc, out, err = run_cli(argv, capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "m_times_2 must be an integer" in json.loads(lines[0])["error"]


@pytest.mark.parametrize(
    "argv", [["state-check"], ["qfi", "--input", "-"], ["code-check", "--errors", "I"]]
)
def test_boolean_amplitude_is_input_error(argv, capsys, monkeypatch):
    doc = {"twice_j": 1, "amplitudes": [{"m_times_2": 1, "re": True, "im": False}]}
    if argv[0] == "code-check":
        doc = {"twice_j": doc["twice_j"], "codewords": [doc]}
    rc, out, err = run_cli(argv, capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert rc == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert "re and im must be numbers" in json.loads(lines[0])["error"]


def test_boolean_operator_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    doc = {"twice_j": 1, "matrix_re": [[True, 0.0], [False, True]], "matrix_im": [[0.0] * 2] * 2}
    path.write_text(json.dumps(doc))
    argv = ["error", "--state", "noon", "--twice-j", "1", "--operator-file", str(path)]
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert "entries must be numbers" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("tol", ["0", "-1e-9"])
def test_state_check_tolerance_uses_the_shared_validator(tol, capsys, monkeypatch):
    doc = {"twice_j": 2, "amplitudes": [{"m_times_2": 2, "re": 1.0, "im": 0.0}]}
    rc, out, err = run_cli(
        ["state-check", f"--tol={tol}"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert rc == 1
    assert out == ""
    assert "tolerance must be positive and finite" in json.loads(err)["error"]


def _huge_diagonal_operator(tmp_path):
    path = tmp_path / "huge.json"
    doc = {"twice_j": 1, "matrix_re": [[1e200, 0.0], [0.0, 1e200]], "matrix_im": [[0.0] * 2] * 2}
    path.write_text(json.dumps(doc))
    return ["error", "--state", "noon", "--twice-j", "1", "--operator-file", str(path)], None


def test_error_names_an_overflowing_operator_not_unitary(capsys, tmp_path):
    # a |U_ij| of 1e200 decides the verdict before U^dag U could overflow
    argv, _ = _huge_diagonal_operator(tmp_path)
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": "operator '' is not unitary"}


def test_qfi_names_an_overflowing_generator(capsys, tmp_path):
    # ||G psi||^2 overflows, and <G^2> - <G>^2 would be inf - inf
    path = tmp_path / "huge.json"
    doc = {
        "twice_j": 1,
        "label": "G",
        "matrix_re": [[1e200, 0.0], [0.0, -1e200]],
        "matrix_im": [[0.0] * 2] * 2,
    }
    path.write_text(json.dumps(doc))
    argv = ["qfi", "--state", "noon", "--twice-j", "1", "--generator-file", str(path)]
    rc, out, err = run_cli(argv, capsys)
    assert (rc, out) == (1, "")
    assert json.loads(err) == {"error": "operator 'G' is too large: <G> or ||G psi||^2 is not finite"}


def test_numpy_overflow_in_process_is_one_json_error_line(capsys, monkeypatch, tmp_path):
    # the Knill-Laflamme products of a 1e200 error operator would overflow inside
    # numpy; the check bounds the entries first and names the file in its one line
    huge = np.diag(np.full(13, 1e200))
    path = tmp_path / "huge.json"
    doc = {"twice_j": 12, "matrix_re": huge.tolist(), "matrix_im": np.zeros_like(huge).tolist()}
    path.write_text(json.dumps(doc))
    _, code_json, _ = run_cli(["ae-code", "--twice-j", "12", "--m1", "3", "--m2", "6"], capsys)
    rc, out, err = run_cli(
        ["code-check", "--errors", "I", "--error-file", str(path)], capsys, monkeypatch, stdin_text=code_json
    )
    assert (rc, out) == (1, "")
    assert "overflow" in json.loads(err)["error"]
    assert repr(str(path)) in json.loads(err)["error"]


def test_state_check_names_an_oversized_amplitude(capsys, monkeypatch):
    doc = {"twice_j": 2, "amplitudes": [{"m_times_2": -2, "re": 0.0, "im": -1e200}]}
    rc, out, err = run_cli(["state-check"], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert (rc, out) == (1, "")
    assert "m_times_2=-2" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "case, qfi",
    [
        # the axis is scaled before its norm is taken: it is (1, 1, 0)/sqrt(2),
        # about which the NOON state of 2J = 4 has variance 1
        (lambda tmp_path: (["qfi", "--state", "noon", "--twice-j", "4", "--axis=1e308,1e308,0"], None), 4.0),
        (_huge_diagonal_operator, None),
        (
            lambda tmp_path: (
                ["state-check"],
                json.dumps({"twice_j": 0, "amplitudes": [{"m_times_2": 0, "re": 1e200, "im": 0}]}),
            ),
            None,
        ),
    ],
    ids=["qfi-axis-overflow", "error-operator-overflow", "state-check-amplitude-overflow"],
)
def test_numpy_warning_is_one_json_error_line(case, qfi, tmp_path):
    # a fresh process: pytest records warnings raised in its own process
    import spinsense

    argv, stdin_text = case(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinsense.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "spinsense", *argv],
        env=env,
        input=stdin_text if stdin_text is not None else "",
        capture_output=True,
        text=True,
        timeout=60,
    )
    if qfi is not None:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert float(proc.stdout) == pytest.approx(qfi, rel=1e-12)
        return
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert "error" in json.loads(lines[0])


@pytest.mark.parametrize("name, component", [("Rx(0.1)", "jx"), ("Ry(0.1)", "jy"), ("Rz(0.1)", "jz")])
def test_code_check_with_a_rotation_error(name, component, capsys, monkeypatch):
    # Rx and Ry read the lazy dense d(beta) matrix of an off-pole rotation
    linalg = pytest.importorskip("scipy.linalg")
    j = SpinJ(12)
    _, code_json, _ = run_cli(["ae-code", "--twice-j", "12", "--m1", "3", "--m2", "6"], capsys)
    rc, out, err = run_cli(["code-check", "--errors", name], capsys, monkeypatch, stdin_text=code_json)
    doc = json.loads(out)
    # R^dag R = I passes Knill-Laflamme with C = 1
    assert doc["kl"]["passed"] is True
    assert doc["kl"]["c_re"][0][0] == pytest.approx(1.0, abs=1e-12)
    # <w|R|w> differs between the codewords: detection fails at 1e-9, exit 2
    rot = linalg.expm(-0.1j * getattr(build_spin_operators(j), component).matrix)
    diag = np.array([np.vdot(w.amplitudes, rot @ w.amplitudes) for w in ae_codewords(j, 3, 6).codewords])
    assert doc["detection"]["c_re"][0] == pytest.approx(diag.mean().real, abs=1e-12)
    assert doc["detection"]["max_diagonal_spread"] == pytest.approx(abs(diag[0] - diag.mean()), abs=1e-12)
    assert doc["detection"]["passed"] is False
    assert (rc, err) == (2, "")


def test_unknown_operator_name_lists_the_known_names(capsys, monkeypatch):
    _, code_json, _ = run_cli(["ae-code", "--twice-j", "12", "--m1", "3", "--m2", "6"], capsys)
    rc, out, err = run_cli(["code-check", "--errors", "I,Jw"], capsys, monkeypatch, stdin_text=code_json)
    assert (rc, out) == (1, "")
    message = json.loads(err)["error"]
    assert message.startswith("unknown operator 'Jw'")
    assert "I, Jx, Jy, Jz, J+, J-, Rx/Ry/Rz(theta)" in message


def test_error_with_a_unitary_operator_file(capsys, tmp_path):
    # Rz(0.1) on the NOON state of 2J = 4 keeps the overlap cos(0.2)
    rot = np.diag(np.exp(-0.1j * np.arange(2.0, -3.0, -1.0)))
    path = tmp_path / "rz.json"
    doc = {"twice_j": 4, "label": "Rz", "matrix_re": rot.real.tolist(), "matrix_im": rot.imag.tolist()}
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(["error", "--state", "noon", "--twice-j", "4", "--operator-file", str(path)], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"error_of_state": pytest.approx(math.sin(0.2) ** 2, rel=1e-12)}


def test_construct_at_j_zero_prints_the_one_level(capsys):
    # one occupied level has no pair to space, and |0,0> is anti-coherent
    rc, out, err = run_cli(["construct", "--twice-j", "0", "--support", "0"], capsys)
    assert (rc, err) == (0, "")
    assert out == '{"twice_j":0,"amplitudes":[{"m_times_2":0,"re":1.0,"im":0.0}]}\n'
