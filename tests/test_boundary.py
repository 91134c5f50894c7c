"""The input rules at every entry point that takes outside input (README,
"Input rules"): a bool or a float is not an integer, array entries are
finite numbers, and a JSON document is an object with the named fields,
lists where a list is read.  Each bad input is refused with an error that
names its field."""

import io
import json

import numpy as np
import pytest

from spinsense import (
    CodeSpace,
    Distribution,
    FisherMatrix,
    RotationAxis,
    SpinJ,
    SpinOperator,
    SpinState,
    SupportSpec,
    ae_codewords,
    basis_state,
    classical_fisher,
    noon_state,
)
from spinsense.cli import main

J12 = SpinJ(12)
_OPERATOR = {"twice_j": 1, "matrix_re": [[1.0, 0.0], [0.0, 1.0]], "matrix_im": [[0.0, 0.0], [0.0, 0.0]]}

# (entry point, bad input, exception, message fragment)
CASES = [
    (SpinState, (SpinJ(2), np.array([True, False, False])), ValueError, "amplitudes must be numbers"),
    (SpinOperator, (SpinJ(1), np.eye(2, dtype=bool), "B"), ValueError, "'B' matrix entries must be numbers"),
    (RotationAxis, (np.array([False, False, True]),), ValueError, "axis components must be numbers"),
    (RotationAxis.from_vector, ([False, False, True],), ValueError, "axis components must be numbers"),
    (Distribution, (np.array([True, False]),), ValueError, "probabilities must be numbers"),
    (classical_fisher, (Distribution([0.5, 0.5]), [False, False]), ValueError, "derivatives must be numbers"),
    (FisherMatrix, (np.full((3, 3), np.inf),), ValueError, "Fisher matrix entries must be finite"),
    (FisherMatrix, (np.diag([1.0, np.nan, 1.0]),), ValueError, "Fisher matrix entries must be finite"),
    (J12.index_of, (6.0,), ValueError, "twice_m must be an integer, got 6.0"),
    (basis_state, (J12, 6.0), ValueError, "twice_m must be an integer, got 6.0"),
    (noon_state(SpinJ(1)).amplitude, (True,), ValueError, "twice_m must be an integer, got True"),
    (ae_codewords, (J12, 3.0, 6.0), ValueError, "m1 must be an integer, got 3.0"),
    (ae_codewords, (J12, 3, np.float64(6.0)), ValueError, "m2 must be an integer, got"),
    (SupportSpec, (J12, (4,), "no"), TypeError, "include_zero must be a bool, got 'no'"),
    (
        SupportSpec.from_json_dict,
        ({"twice_j": 12, "support": [4], "include_zero": "false"},),
        TypeError,
        "include_zero must be a bool, got 'false'",
    ),
    (
        SpinState.from_json_dict,
        ({"twice_j": 2, "amplitudes": 5},),
        ValueError,
        "spin state document field 'amplitudes' must be a list",
    ),
    (
        SpinState.from_json_dict,
        ({"twice_j": 2, "amplitudes": {"m_times_2": 2, "re": 1.0, "im": 0.0}},),
        ValueError,
        "spin state document field 'amplitudes' must be a list",
    ),
    (
        CodeSpace.from_json_dict,
        ({"twice_j": 12, "codewords": "w0"},),
        ValueError,
        "code space document field 'codewords' must be a list",
    ),
    (
        SupportSpec.from_json_dict,
        ({"twice_j": 12, "support": 4},),
        ValueError,
        "support document field 'support' must be a list",
    ),
    (
        SpinOperator.from_json_dict,
        ({**_OPERATOR, "matrix_re": {"0": [1.0, 0.0]}},),
        ValueError,
        "operator document field 'matrix_re' must be a list",
    ),
    (
        SpinOperator.from_json_dict,
        ({**_OPERATOR, "matrix_im": [[0.0, 0.0], 0.0]},),
        ValueError,
        "matrix_re and matrix_im rows must be lists",
    ),
    (RotationAxis, (np.array([1, 0, 1j]),), ValueError, "axis components must be real"),
    (RotationAxis.from_vector, (np.array([1.0, 0.0, 1j]),), ValueError, "axis components must be real"),
    (Distribution, (np.array([0.5 + 0.5j, 0.5]),), ValueError, "probabilities must be real"),
    (classical_fisher, (Distribution([0.5, 0.5]), np.array([1j, -1j])), ValueError, "derivatives must be real"),
    (FisherMatrix, (np.eye(3, dtype=complex),), ValueError, "Fisher matrix entries must be real"),
]


@pytest.mark.parametrize("entry, args, error, fragment", CASES)
def test_entry_point_refuses_input_that_breaks_a_rule(entry, args, error, fragment):
    with pytest.raises(error) as exc:
        entry(*args)
    assert fragment in str(exc.value)


_STATE = {"twice_j": 2, "amplitudes": {"m_times_2": 2, "re": 1.0, "im": 0.0}}
_CODE = {"twice_j": 2, "codewords": [_STATE]}
_NO_ROWS = {**_OPERATOR, "matrix_re": 5}
_BAD_ROWS = {**_OPERATOR, "matrix_re": [[1.0, 0.0], 1.0]}
_NOON = ["--state", "noon", "--twice-j", "1"]

# (argv, document on stdin or in the one file named {path}, message fragment)
CLI_CASES = [
    (["state-check"], {"twice_j": 2, "amplitudes": 5}, "field 'amplitudes' must be a list"),
    (["qfi", "--input", "-"], _STATE, "field 'amplitudes' must be a list"),
    (["fisher-matrix"], _STATE, "field 'amplitudes' must be a list"),
    (["distance", "--state-a", "{path}", "--state-b", "{path}"], _STATE, "field 'amplitudes' must be a list"),
    (["code-check", "--errors", "Jz"], {"twice_j": 12, "codewords": 5}, "field 'codewords' must be a list"),
    (["code-check", "--errors", "Jz"], _CODE, "field 'amplitudes' must be a list"),
    (["error", *_NOON, "--operator-file", "{path}"], _NO_ROWS, "field 'matrix_re' must be a list"),
    (["qfi", *_NOON, "--generator-file", "{path}"], _BAD_ROWS, "rows must be lists"),
]


@pytest.mark.parametrize("argv, doc, fragment", CLI_CASES)
def test_cli_refuses_input_that_breaks_a_rule(argv, doc, fragment, capsys, monkeypatch, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    rc = main([arg.replace("{path}", str(path)) for arg in argv])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert fragment in json.loads(lines[0])["error"]
