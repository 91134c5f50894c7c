"""Command-line front end: JSON in/out subcommands that compose over pipes.

Exit codes: 0 success, 2 a requested check failed at its tolerance, 1 bad
input (unknown subcommand, malformed JSON, schema or parameter violations).
Errors go to stderr as a single machine-readable ``{"error": ...}`` line.
All numeric output is serialized with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import codes, estimation, metrics, sensing, spin

_RZ_RE = re.compile(r"^R([xyz])\(([-+0-9.eE]+)\)$")
_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
# a negative number, or a comma list of numbers starting with one, is a value
_NEGATIVE_VALUE_RE = re.compile(rf"^-{_UNSIGNED}(?:,[-+]?{_UNSIGNED})*$")


class CliInputError(ValueError):
    pass


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise CliInputError(f"cannot serialize non-finite number {x!r}")
    text = format(x, ".17g")
    # a float stays a float literal, so 100.0 prints as 100.0, not as the integer 100
    return text if "." in text or "e" in text else text + ".0"


def _to_json(obj) -> str:
    """Compact JSON with floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_to_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj) -> None:
    sys.stdout.write(_to_json(obj) + "\n")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _read_json_document(path: str | None):
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read input: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"malformed JSON: {exc}") from None


def _load_state(args) -> spin.SpinState:
    named = getattr(args, "state", None)
    if named:
        if named != "noon":
            raise CliInputError(f"unknown named state {named!r}; only 'noon' is built in")
        if args.twice_j is None:
            raise CliInputError("--twice-j is required with --state noon")
        return sensing.noon_state(spin.SpinJ(args.twice_j))
    return spin.SpinState.from_json_dict(_read_json_document(args.input))


def _parse_axis(text: str) -> spin.RotationAxis:
    named = {"x": spin.RotationAxis.x, "y": spin.RotationAxis.y, "z": spin.RotationAxis.z}
    if text in named:
        return named[text]()
    parts = text.split(",")
    if len(parts) != 3:
        raise CliInputError(f"axis must be x, y, z or 'ux,uy,uz', got {text!r}")
    try:
        vec = [float(p) for p in parts]
    except ValueError:
        raise CliInputError(f"axis components must be numbers, got {text!r}") from None
    return spin.RotationAxis.from_vector(vec)


def _named_operator(name: str, j: spin.SpinJ) -> spin.SpinOperator:
    if name in ("I", "Jx", "Jy", "Jz", "J+", "J-"):
        return spin._standard_operator(j, name)
    m = _RZ_RE.match(name)
    if m:
        axis = _parse_axis(m.group(1))
        theta = float(m.group(2))
        if not math.isfinite(theta):
            raise CliInputError(f"operator {name!r}: the angle must be a finite number")
        return spin.rotation_unitary(j, theta, axis)
    raise CliInputError(
        f"unknown operator {name!r}; use I, Jx, Jy, Jz, J+, J-, Rx/Ry/Rz(theta), "
        "or supply a JSON operator file"
    )


def _parse_error_ops(args, j: spin.SpinJ) -> list[spin.SpinOperator]:
    ops: list[spin.SpinOperator] = []
    if args.errors:
        ops.extend(_named_operator(name.strip(), j) for name in args.errors.split(","))
    for path in args.error_file or []:
        op = spin.SpinOperator.from_json_dict(_read_json_document(path))
        if op.j != j:
            raise CliInputError(f"operator file {path!r} has twice_j {op.j.twice_j}, expected {j.twice_j}")
        ops.append(op)
    if not ops:
        raise CliInputError("no error operators given; use --errors and/or --error-file")
    return ops


def _condition_dict(report: codes.ConditionReport) -> dict:
    c = np.asarray(report.c_matrix)
    return {
        "passed": report.passed,
        "violation": report.violation,
        "max_off_diagonal": report.max_off_diagonal,
        "max_diagonal_spread": report.max_diagonal_spread,
        "c_re": np.real(c).tolist(),
        "c_im": np.imag(c).tolist(),
    }


def cmd_state_check(args) -> int:
    if args.tol <= 0:
        raise CliInputError("tolerance must be positive")
    doc = _read_json_document(args.input)
    state = spin.SpinState.from_json_dict(doc)
    norm_error = abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0)
    ok = norm_error <= args.tol
    _emit({"twice_j": state.j.twice_j, "norm_error": norm_error, "passed": ok})
    return 0 if ok else 2


def cmd_qfi(args) -> int:
    state = _load_state(args)
    if args.generator_file:
        g = spin.SpinOperator.from_json_dict(_read_json_document(args.generator_file))
        value = metrics.qfi(state, g)
    else:
        value = sensing.rotation_qfi(state, _parse_axis(args.axis))
    sys.stdout.write(_fmt_float(value) + "\n")
    return 0


def cmd_fisher_matrix(args) -> int:
    state = _load_state(args)
    fm = sensing.fisher_matrix(state)
    _emit({"matrix": fm.matrix.tolist(), "trace": fm.trace})
    return 0


def cmd_construct(args) -> int:
    try:
        shells = tuple(int(s) for s in args.support.split(","))
    except ValueError:
        raise CliInputError(f"--support must be a comma list of integers, got {args.support!r}") from None
    spec = sensing.SupportSpec(spin.SpinJ(args.twice_j), shells, include_zero=args.include_zero)
    state = sensing.construct_anticoherent(spec)
    _emit(state.to_json_dict())
    return 0


def cmd_ae_code(args) -> int:
    code = codes.ae_codewords(spin.SpinJ(args.twice_j), args.m1, args.m2)
    _emit(code.to_json_dict())
    return 0


def cmd_code_check(args) -> int:
    code = codes.CodeSpace.from_json_dict(_read_json_document(args.input))
    error_ops = codes.ErrorSet(_parse_error_ops(args, code.j))
    out = {}
    ok = True
    if args.check in ("detection", "both"):
        rep = codes.detection_check(code, error_ops, args.tol)
        out["detection"] = _condition_dict(rep)
        ok = ok and rep.passed
    if args.check in ("kl", "both"):
        rep = codes.kl_check(code, error_ops, args.tol)
        out["kl"] = _condition_dict(rep)
        ok = ok and rep.passed
    _emit(out)
    return 0 if ok else 2


def cmd_error(args) -> int:
    state = _load_state(args)
    if args.operator_file:
        u = spin.SpinOperator.from_json_dict(_read_json_document(args.operator_file))
        _emit({"error_of_state": codes.error_of_state(state, u)})
        return 0
    g = spin.axis_generator(state.j, _parse_axis(args.axis))
    u = spin.generator_unitary(g, args.theta)
    _emit(
        {
            "error_of_state": codes.error_of_state(state, u),
            "small_theta_error": codes.error_small_theta(state, g, args.theta),
        }
    )
    return 0


def cmd_estimate(args) -> int:
    state = _load_state(args)
    g = spin.axis_generator(state.j, _parse_axis(args.axis))
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SPINSENSE_SEED", "0"))
    config = estimation.EstimationConfig(
        psi=state,
        generator=g,
        theta_true=args.theta_true,
        trials_per_run=args.trials,
        runs=args.runs,
        seed=seed,
    )
    result = estimation.crb_report(config)
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(result.to_csv())
        except OSError as exc:
            raise CliInputError(f"cannot write CSV: {exc}") from None
    _emit(result.summary_dict())
    return 0


def cmd_distance(args) -> int:
    if args.p is not None or args.q is not None:
        if args.p is None or args.q is None:
            raise CliInputError("--p and --q must be given together")
        try:
            p = metrics.Distribution(np.array([float(x) for x in args.p.split(",")]))
            q = metrics.Distribution(np.array([float(x) for x in args.q.split(",")]))
        except ValueError as exc:
            raise CliInputError(str(exc)) from None
        omega, bc = metrics.statistical_distance(p, q)
        _emit({"omega": omega, "bhattacharyya": bc})
        return 0
    if args.state_a is None or args.state_b is None:
        raise CliInputError("give either --p/--q or --state-a/--state-b")
    a = spin.SpinState.from_json_dict(_read_json_document(args.state_a))
    b = spin.SpinState.from_json_dict(_read_json_document(args.state_b))
    rep = metrics.distinguishability(a, b)
    _emit({"lambda": rep.angle, "sin_lambda": rep.sin_angle, "cos_lambda": rep.cos_angle})
    return 0


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Relies on argparse's private _negative_number_matcher, which
        # _parse_optional reads to tell a negative value from an option.
        # Subparsers inherit it because add_parser defaults to type(self).
        # test_axis_with_leading_minus_is_a_value breaks if Python drops it.
        self._negative_number_matcher = _NEGATIVE_VALUE_RE

    def error(self, message):
        raise CliInputError(message)


def _add_state_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", "-i", default=None, help="SpinState JSON file, or - for stdin (default)")
    p.add_argument("--state", default=None, help="named state family: noon")
    p.add_argument("--twice-j", type=int, default=None, help="2J for a named state")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinsense", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("state-check", help="validate a SpinState JSON document")
    p.add_argument("--input", "-i", default=None)
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.set_defaults(func=cmd_state_check)

    p = sub.add_parser("qfi", help="quantum Fisher information of a state")
    _add_state_inputs(p)
    p.add_argument("--axis", default="z", help="x, y, z, or 'ux,uy,uz'")
    p.add_argument("--generator-file", default=None, help="JSON operator file overriding --axis")
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("fisher-matrix", help="3x3 angular-momentum covariance matrix")
    _add_state_inputs(p)
    p.set_defaults(func=cmd_fisher_matrix)

    p = sub.add_parser("construct", help="build an axis-independent sensor state")
    p.add_argument("--twice-j", type=int, required=True)
    p.add_argument("--support", required=True, help="comma list of shell m-values, e.g. 0,3")
    p.add_argument("--include-zero", action="store_true", help="add the m=0 shell")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("ae-code", help="build the symmetric two-codeword space")
    p.add_argument("--twice-j", type=int, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.set_defaults(func=cmd_ae_code)

    p = sub.add_parser("code-check", help="detection / Knill-Laflamme checks on a CodeSpace")
    p.add_argument("--input", "-i", default=None, help="CodeSpace JSON file, or - for stdin (default)")
    p.add_argument("--errors", default=None, help="comma list: I,Jx,Jy,Jz,J+,J-,Rz(theta)")
    p.add_argument("--error-file", action="append", default=None, help="JSON operator file (repeatable)")
    p.add_argument("--tol", type=_finite_float, default=1e-9)
    p.add_argument("--check", choices=("detection", "kl", "both"), default="both")
    p.set_defaults(func=cmd_code_check)

    p = sub.add_parser("error", help="error of state under a rotation or a unitary file")
    _add_state_inputs(p)
    p.add_argument("--axis", default="z")
    p.add_argument("--theta", type=_finite_float, default=None)
    p.add_argument("--operator-file", default=None, help="JSON unitary overriding --axis/--theta")
    p.set_defaults(func=cmd_error)

    p = sub.add_parser("estimate", help="Monte Carlo Cramer-Rao check")
    _add_state_inputs(p)
    p.add_argument("--axis", default="z")
    p.add_argument("--theta-true", type=_finite_float, required=True)
    p.add_argument("--trials", type=int, default=100000, help="trials per run (N)")
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--seed", type=int, default=None, help="default: $SPINSENSE_SEED, else 0")
    p.add_argument("--csv", default=None, help="write per-run estimates to this CSV path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("distance", help="statistical distance or state distinguishability")
    p.add_argument("--p", default=None, help="comma list of probabilities")
    p.add_argument("--q", default=None, help="comma list of probabilities")
    p.add_argument("--state-a", default=None, help="SpinState JSON file")
    p.add_argument("--state-b", default=None, help="SpinState JSON file")
    p.set_defaults(func=cmd_distance)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise CliInputError("a subcommand is required (see --help)")
        if getattr(args, "func", None) is cmd_error and args.operator_file is None and args.theta is None:
            raise CliInputError("error: give --theta (with --axis) or --operator-file")
        return args.func(args)
    except (CliInputError, ValueError, TypeError) as exc:
        sys.stderr.write(_to_json({"error": str(exc)}) + "\n")
        return 1


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away.  Point stdout at devnull so that the
        # interpreter's final flush does not fail again (see the note on
        # SIGPIPE in the Python documentation of the signal module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
