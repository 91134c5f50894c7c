"""Every dataclass of the library is frozen: a value keeps what its
constructor validated, and a new value comes from a constructor."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import spinsense
from spinsense import (
    CodeSpace,
    ErrorSet,
    EstimationConfig,
    EstimationResult,
    ProjectorBasis,
    RecoverySet,
    RotationAxis,
    SpinJ,
    SpinOperator,
    SupportSpec,
    crb_report,
    ThreeJArgs,
    ae_codewords,
    anticoherence_report,
    axis_generator,
    basis_state,
    build_spin_operators,
    distinguishability,
    fisher_matrix,
    kl_check,
    noon_state,
    reduced_matrix_element,
    tensor_operator,
)
from spinsense.metrics import Distribution


def _library_dataclasses() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(spinsense.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"spinsense.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found.add(obj)
    return found


def _one_of_each() -> list:
    j = SpinJ(4)
    ops = build_spin_operators(j)
    psi = noon_state(j)
    code = ae_codewords(SpinJ(12), 3, 6)
    ops12 = build_spin_operators(SpinJ(12))
    return [
        j,
        psi,
        ops.jz,
        axis_generator(j, RotationAxis.from_vector([0.3, -0.5, 0.8])),
        RotationAxis.z(),
        ops,
        ThreeJArgs(2, 2, 0, 0, 0, 0),
        tensor_operator(j, 1, 0),
        reduced_matrix_element(j, 1),
        Distribution(np.array([0.5, 0.5])),
        ProjectorBasis.two_outcome(psi),
        distinguishability(psi, basis_state(j, 0)),
        code,
        ErrorSet([ops12.jx, ops12.jy, ops12.jz]),
        RecoverySet([SpinOperator(j, np.eye(j.dim), "I")]),
        kl_check(code, ErrorSet([ops12.jz]), 1e-9),
        fisher_matrix(psi),
        anticoherence_report(psi, 1e-9),
        SupportSpec(SpinJ(6), (0, 3)),
        EstimationConfig(psi, ops.jz, 0.05, 1000, 3, 1),
        EstimationResult(np.zeros(2), 0.0, 1.0, 0.0, 0, 1.0),
    ]


def test_every_dataclass_is_frozen_and_rejects_every_field_assignment():
    values = _one_of_each()
    classes = _library_dataclasses()
    assert {type(v) for v in values} == classes
    assert len(classes) == 20
    for cls in classes:
        assert cls.__dataclass_params__.frozen, cls.__name__
    for value in values:
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, f.name)


def test_container_fields_are_tuples():
    j = SpinJ(12)
    ops = build_spin_operators(j)
    words = list(ae_codewords(j, 3, 6).codewords)
    assert type(CodeSpace(j, words).codewords) is tuple
    assert type(ErrorSet([ops.jx, ops.jz]).ops) is tuple
    assert type(RecoverySet([SpinOperator(j, np.eye(j.dim))]).ops) is tuple
    assert type(ProjectorBasis.two_outcome(words[0]).projectors) is tuple
    # the spin space of a set is that of its operators
    assert ErrorSet([ops.jx, ops.jz]).j == j and ProjectorBasis.two_outcome(words[0]).j == j


def test_an_operator_keeps_the_matrix_it_was_checked_with():
    op = build_spin_operators(SpinJ(4)).jx
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.matrix = np.full((5, 5), np.nan)
    assert np.all(np.isfinite(op.matrix)) and op.is_hermitian()
    # an axis generator whose matrix is not built yet
    g = axis_generator(SpinJ(4), RotationAxis.from_vector([1.0, 2.0, 2.0]))
    assert "matrix" not in vars(g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.matrix = np.eye(3)
    assert g.matrix.shape == (5, 5) and g.axis is not None
    psi = noon_state(SpinJ(4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.amplitudes = np.ones(5)
    assert not psi.amplitudes.flags.writeable
    assert "def __setattr__" not in inspect.getsource(SpinOperator)


def test_report_arrays_are_read_only():
    # a report whose arrays could be written would contradict its own verdict
    j = SpinJ(4)
    jz = build_spin_operators(j).jz
    result = crb_report(EstimationConfig(noon_state(j), jz, 0.05, 1000, 4, 42))
    with pytest.raises(ValueError):
        result.theta_hats[0] = 5.0
    ops = build_spin_operators(SpinJ(12))
    rep = kl_check(ae_codewords(SpinJ(12), 3, 6), ErrorSet([ops.jx, ops.jy, ops.jz]), 1e-9)
    with pytest.raises(ValueError):
        rep.c_matrix[0, 0] = 99
    assert rep.passed
