"""Spin-J states, angular-momentum operator matrices, and rotation unitaries.

Basis convention: amplitude index 0 corresponds to m = J and the index
increases as m decreases down to -J.  J is stored as the integer 2J so
half-integer spins are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
AXIS_TOL = 1e-12
# Largest 2J for which a dense (2J+1)^2 complex matrix is built: 268 MB at 4096.
MAX_DENSE_TWICE_J = 4096
# Rows per strip of the Hermitian check: a strip of a d x d matrix is 1 MB at 2J = 1000.
_STRIP = 64


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked_matrix(j: SpinJ, mat: np.ndarray, label: str) -> np.ndarray:
    """mat itself, frozen, once its shape fits j and its entries are finite."""
    if mat.shape != (j.dim, j.dim):
        raise ValueError(f"matrix must be {j.dim}x{j.dim}, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"operator {label!r} matrix entries must be finite")
    return _frozen(mat)


def _hermitian_defect(m: np.ndarray) -> tuple[float, float]:
    """(max |M - M^dag|, max |M|) of a square matrix, read in strips of _STRIP rows.

    Strip i compares its entries right of column i with the columns
    M[i:, i:i+s] conjugated.  Since |(M - M^dag)_ik| = |(M - M^dag)_ki|
    exactly, these upper parts give the maximum over the whole matrix.
    """
    defect = size = 0.0
    for i in range(0, m.shape[0], _STRIP):
        strip = m[i : i + _STRIP]
        defect = max(defect, float(np.max(np.abs(strip[:, i:] - m[i:, i : i + _STRIP].conj().T))))
        size = max(size, float(np.max(np.abs(strip))))
    return defect, size


def check_tolerance(tol: float) -> None:
    """Reject a tolerance that is not a positive finite number (NaN included)."""
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


@dataclass(frozen=True)
class SpinJ:
    """Total angular momentum, stored as 2J so half-integer values stay exact."""

    twice_j: int

    def __post_init__(self):
        if isinstance(self.twice_j, bool) or not isinstance(self.twice_j, (int, np.integer)):
            raise TypeError(f"twice_j must be an integer, got {type(self.twice_j).__name__}")
        if self.twice_j < 0:
            raise ValueError(f"twice_j must be non-negative, got {self.twice_j}")
        object.__setattr__(self, "twice_j", int(self.twice_j))

    @property
    def j(self) -> float:
        return self.twice_j / 2.0

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    @property
    def is_integer(self) -> bool:
        return self.twice_j % 2 == 0

    def twice_m_values(self) -> np.ndarray:
        """The 2m ladder in index order: 2J, 2J-2, ..., -2J."""
        return np.arange(self.twice_j, -self.twice_j - 1, -2)

    def m_values(self) -> np.ndarray:
        return self.twice_m_values() / 2.0

    def index_of(self, twice_m: int) -> int:
        """Amplitude index of the level with 2m = twice_m."""
        if (self.twice_j - twice_m) % 2 != 0 or abs(twice_m) > self.twice_j:
            raise ValueError(f"2m={twice_m} is not a level of 2J={self.twice_j}")
        return (self.twice_j - twice_m) // 2


@dataclass
class SpinState:
    """Normalized pure spin-J state with amplitudes ordered m = J down to -J."""

    j: SpinJ
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.j.dim,):
            raise ValueError(
                f"amplitude vector must have length {self.j.dim}, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        self.amplitudes = _frozen(amps)

    def amplitude(self, twice_m: int) -> complex:
        return complex(self.amplitudes[self.j.index_of(twice_m)])

    def to_json_dict(self) -> dict:
        """Serialize to ``{"twice_j": int, "amplitudes": [{"m_times_2", "re", "im"}]}``.

        Zero amplitudes are omitted; readers treat missing m entries as zero.
        """
        entries = []
        for twice_m, a in zip(self.j.twice_m_values(), self.amplitudes):
            if a != 0:
                entries.append({"m_times_2": int(twice_m), "re": float(a.real), "im": float(a.imag)})
        return {"twice_j": self.j.twice_j, "amplitudes": entries}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpinState":
        if not isinstance(doc, dict):
            raise ValueError("spin state document must be a JSON object")
        try:
            j = SpinJ(doc["twice_j"])
            entries = doc["amplitudes"]
        except KeyError as exc:
            raise ValueError(f"spin state document missing field {exc}") from None
        amps = np.zeros(j.dim, dtype=complex)
        seen = set()
        for entry in entries:
            try:
                twice_m = entry["m_times_2"]
                value = complex(entry["re"], entry["im"])
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad amplitude entry {entry!r}: {exc}") from None
            if twice_m in seen:
                raise ValueError(f"duplicate amplitude entry for m_times_2={twice_m}")
            seen.add(twice_m)
            amps[j.index_of(twice_m)] = value
        return cls(j, amps)


def basis_state(j: SpinJ, twice_m: int) -> SpinState:
    """The eigenstate |J, m> with 2m = twice_m."""
    amps = np.zeros(j.dim, dtype=complex)
    amps[j.index_of(twice_m)] = 1.0
    return SpinState(j, amps)


def overlap(a: SpinState, b: SpinState) -> complex:
    """Inner product <a|b>."""
    if a.j != b.j:
        raise ValueError(f"dimension mismatch: 2J={a.j.twice_j} vs 2J={b.j.twice_j}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


@dataclass
class SpinOperator:
    """Labeled dense complex operator on a spin-J space.

    The constructor copies the matrix it is given; the copy is frozen.
    """

    j: SpinJ
    matrix: np.ndarray
    label: str = ""
    # (u, matrix) on the generator u . J that axis_generator builds; see `axis`
    _axis_tag: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = _checked_matrix(self.j, np.array(self.matrix, dtype=complex), self.label)

    @classmethod
    def _owned(cls, j: SpinJ, mat: np.ndarray, label: str = "") -> "SpinOperator":
        """Wrap a complex matrix the library has just allocated, without copying
        it; the checks of the constructor still run and the matrix is frozen."""
        op = cls.__new__(cls)
        op.j, op.label, op._axis_tag = j, label, None
        op.matrix = _checked_matrix(j, mat, label)
        return op

    @property
    def axis(self) -> RotationAxis | None:
        """The axis u if axis_generator built this operator as u . J, else None.

        The tag lapses if `matrix` is reassigned.
        """
        tag = self._axis_tag
        return tag[0] if tag is not None and tag[1] is self.matrix else None

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        """max |M - M^dag| <= tol * max(1, max |M|), read in strips of _STRIP rows
        (see _hermitian_defect), so no d x d temporary is allocated."""
        defect, size = _hermitian_defect(self.matrix)
        return defect <= tol * max(1.0, size)

    def is_unitary(self, tol: float = UNITARY_TOL) -> bool:
        """max |U^dag U - I| <= tol, with U^dag U from real products of U = Ur + i Ui:
        its real part is Ur^T Ur + Ui^T Ui and its imaginary part X - X^T, X = Ur^T Ui."""
        re = self.matrix.real.copy()
        im = self.matrix.imag.copy()
        x = re.T @ im
        gram = re.T @ re
        # the copies of Ur and Ui take Ui^T Ui and X - X^T once they are no longer read
        gram += np.matmul(im.T, im, out=re)
        skew = np.subtract(x, x.T, out=im)
        gram.flat[:: self.j.dim + 1] -= 1.0
        # |z|^2 <= tol^2 for every entry z: squares, since np.hypot is an order slower
        gram *= gram
        skew *= skew
        gram += skew
        return float(np.max(gram)) <= tol * tol

    def dagger(self) -> "SpinOperator":
        return SpinOperator(self.j, self.matrix.conj().T, label=f"{self.label}^dag")

    def to_json_dict(self) -> dict:
        return {
            "twice_j": self.j.twice_j,
            "label": self.label,
            "matrix_re": self.matrix.real.tolist(),
            "matrix_im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SpinOperator":
        if not isinstance(doc, dict):
            raise ValueError("operator document must be a JSON object")
        try:
            j = SpinJ(doc["twice_j"])
            re = np.asarray(doc["matrix_re"], dtype=float)
            im = np.asarray(doc["matrix_im"], dtype=float)
        except KeyError as exc:
            raise ValueError(f"operator document missing field {exc}") from None
        if re.shape != im.shape:
            raise ValueError("matrix_re and matrix_im shapes differ")
        return cls(j, re + 1j * im, label=str(doc.get("label", "")))


@dataclass(frozen=True)
class RotationAxis:
    """Unit 3-vector (ux, uy, uz) specifying a rotation direction."""

    u: np.ndarray

    def __post_init__(self):
        vec = np.array(self.u, dtype=float)
        if vec.shape != (3,):
            raise ValueError(f"axis must be a 3-vector, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"axis components must be finite, got {vec.tolist()}")
        if abs(np.linalg.norm(vec) - 1.0) > AXIS_TOL:
            raise ValueError(f"axis must be a unit vector, |u| = {np.linalg.norm(vec)!r}")
        object.__setattr__(self, "u", _frozen(vec))

    @classmethod
    def from_vector(cls, v: Iterable[float]) -> "RotationAxis":
        """Normalize an arbitrary nonzero 3-vector into an axis."""
        vec = np.asarray(list(v), dtype=float)
        n = np.linalg.norm(vec)
        if not np.isfinite(n):
            raise ValueError(f"axis components must be finite, got {vec.tolist()}")
        if n == 0:
            raise ValueError("cannot normalize the zero vector into an axis")
        return cls(vec / n)

    @classmethod
    def x(cls) -> "RotationAxis":
        return cls(np.array([1.0, 0.0, 0.0]))

    @classmethod
    def y(cls) -> "RotationAxis":
        return cls(np.array([0.0, 1.0, 0.0]))

    @classmethod
    def z(cls) -> "RotationAxis":
        return cls(np.array([0.0, 0.0, 1.0]))


@dataclass
class SpinOperatorSet:
    """The standard operators on one spin-J space."""

    jx: SpinOperator
    jy: SpinOperator
    jz: SpinOperator
    jplus: SpinOperator
    jminus: SpinOperator
    jsq: SpinOperator


def _ladder(twice_j: int) -> np.ndarray:
    """c[k] = <m_k|J+|m_{k+1}> = sqrt(J(J+1) - m(m+1)) at m = m_{k+1}, k = 0..2J-1.

    With m_k = J - k the radicand is the integer (2J - k)(k + 1).
    """
    k = np.arange(twice_j)
    return np.sqrt(((twice_j - k) * (k + 1)).astype(float))


def _banded(dim: int, bands: dict, dtype=complex) -> np.ndarray:
    """Dense dim x dim matrix (complex by default) with bands[q] on the entries
    (i, i + q); a band holds dim - |q| values, or one scalar for all of them."""
    if dim - 1 > MAX_DENSE_TWICE_J:
        raise ValueError(f"2J = {dim - 1} exceeds the dense-matrix limit 2J <= {MAX_DENSE_TWICE_J}")
    mat = np.zeros((dim, dim), dtype=dtype)
    flat = mat.reshape(-1)
    for q, values in bands.items():
        if q >= 0:
            # stop at the band's last row: past it the stride runs on into the next rows
            flat[q : max(dim - q, 0) * dim : dim + 1] = values
        else:
            flat[-q * dim :: dim + 1] = values
    return mat


def _standard_diagonals(j: SpinJ) -> dict[str, dict]:
    """The diagonals of I, Jx, Jy, Jz, J+, J- and J^2, keyed by offset (see _banded).

    Jz is diagonal with entries m; J+ carries the ladder vector one step up
    the ladder; Jx = (J+ + J-)/2 and Jy = (J+ - J-)/(2i).  J^2 is J(J+1)
    times the identity in closed form.
    """
    c = _ladder(j.twice_j)
    half = c / 2.0
    return {
        "I": {0: 1.0},
        "Jx": {1: half, -1: half},
        "Jy": {1: -1j * half, -1: 1j * half},
        "Jz": {0: j.m_values()},
        "J+": {1: c},
        "J-": {-1: c},
        "J^2": {0: j.j * (j.j + 1.0)},
    }


def _standard_operator(j: SpinJ, label: str) -> SpinOperator:
    """The one dense standard operator with this label (see _standard_diagonals)."""
    return SpinOperator._owned(j, _banded(j.dim, _standard_diagonals(j)[label]), label)


def build_spin_operators(j: SpinJ) -> SpinOperatorSet:
    """Dense matrices for Jx, Jy, Jz, J+, J-, and J^2 (see _standard_diagonals)."""
    dim, diagonals = j.dim, _standard_diagonals(j)
    labels = ("Jx", "Jy", "Jz", "J+", "J-", "J^2")
    return SpinOperatorSet(
        *[SpinOperator._owned(j, _banded(dim, diagonals[label]), label) for label in labels]
    )


def axis_generator(j: SpinJ, u: RotationAxis) -> SpinOperator:
    """The Hermitian generator u . J of rotations about the axis u.

    u . J = (ux - i uy)/2 J+ + (ux + i uy)/2 J- + uz Jz is tridiagonal.  The
    operator is tagged with u (SpinOperator.axis), so generator_unitary and
    the survival kernel in metrics rotate it through the Wigner basis.
    """
    ux, uy, uz = u.u
    half = _ladder(j.twice_j) / 2.0
    bands = {0: uz * j.m_values(), 1: complex(ux, -uy) * half, -1: complex(ux, uy) * half}
    mat = _banded(j.dim, bands)
    op = SpinOperator._owned(j, mat, label=f"u.J[{ux:g},{uy:g},{uz:g}]")
    op._axis_tag = (u, op.matrix)
    return op


@lru_cache(maxsize=4)
def _wigner_basis(twice_j: int) -> np.ndarray:
    """The real orthogonal basis D' = R D of the Wigner d-matrices of spin J.

    D holds the eigenvectors of the real tridiagonal Jx, eigenvalues -J, ..., J
    ascending, and R = diag((-1)^floor(k/2)).  Jy = P Jx P^dag with
    P = diag(i^k), so d(beta) = exp(-i beta Jy) = P D exp(-i beta L) D^T P^dag
    with L = diag(-J, ..., J); by parity its entries are real, and
    d(beta) = D' cos(beta L) D'^T + T D' sin(beta L) D'^T with
    T = diag(+1 on odd k, -1 on even k).  The column signs of D cancel.
    See Feng, Wang, Yang & Jin, Phys. Rev. E 92, 043307 (2015).
    """
    half = _ladder(twice_j) / 2.0
    _, basis = np.linalg.eigh(_banded(twice_j + 1, {1: half, -1: half}, dtype=float))
    basis[2::4] *= -1.0
    basis[3::4] *= -1.0
    return _frozen(basis)


def _euler_angles(u: RotationAxis) -> tuple[float, float]:
    """(alpha, beta) with u = (sin b cos a, sin b sin a, cos b), so that
    u . J = exp(-i a Jz) d(b) Jz d(b)^T exp(i a Jz)."""
    ux, uy, uz = u.u
    return math.atan2(uy, ux), math.atan2(math.hypot(ux, uy), uz)


def _wigner_small_d(j: SpinJ, beta: float) -> np.ndarray:
    """The real matrix d(beta) = exp(-i beta Jy) from one real GEMM of half height.

    Its upper ceil(d/2) rows are M D'^T with M_kn = D'_kn (cos beta l_n +
    T_k sin beta l_n) (see _wigner_basis); the lower rows follow from
    d_{-m,-m'} = (-1)^(m-m') d_{m,m'}: the upper rows with both axes flipped
    and a checkerboard sign.
    """
    basis = _wigner_basis(j.twice_j)
    dim = j.dim
    top = (dim + 1) // 2
    lam = j.m_values()[::-1]
    c, s = np.cos(beta * lam), np.sin(beta * lam)
    scaled = np.empty((top, dim))
    np.multiply(basis[0:top:2], c - s, out=scaled[0::2])
    np.multiply(basis[1:top:2], c + s, out=scaled[1::2])
    out = np.empty((dim, dim))
    np.matmul(scaled, basis.T, out=out[:top])
    out[top:] = out[: dim - top, ::-1][::-1]
    # entry (i, k) of the lower rows takes (-1)^(i - k); row `top` has parity p
    p = top % 2
    out[top + p :: 2, 1::2] *= -1.0
    out[top + 1 - p :: 2, 0::2] *= -1.0
    return out


def _is_polar(u: RotationAxis) -> bool:
    """u = (0, 0, +-1) exactly, where u . J = uz Jz is diagonal."""
    return u.u[0] == 0.0 and u.u[1] == 0.0


def _axis_rotation(j: SpinJ, theta: float, u: RotationAxis) -> np.ndarray:
    """exp(-i theta u . J) as one Wigner D-matrix D_a d(b) D_c, D_x = diag(e^{-i x m}).

    The ZYZ angles are read off the spin-1/2 image of the rotation,
    A = cos(theta/2) - i uz sin(theta/2) = e^{-i(a+c)/2} cos(b/2) and
    B = (uy - i ux) sin(theta/2) = e^{i(a-c)/2} sin(b/2), not off the 3x3
    rotation, so the element of SU(2) is kept, and with it the sign at
    half-integer J when |theta| > pi (Edmonds, Angular Momentum in Quantum
    Mechanics, section 4.1).  Off the poles that is one real d(b)
    (_wigner_small_d) whose columns and rows take the phases of D_c and D_a;
    at the poles the result is the exact diagonal.
    """
    m = j.m_values()
    if _is_polar(u):
        return _banded(j.dim, {0: np.exp(-1j * theta * (u.u[2] * m))})
    ux, uy, uz = u.u
    half_cos, half_sin = math.cos(theta / 2.0), math.sin(theta / 2.0)
    arg_a = math.atan2(-uz * half_sin, half_cos)
    arg_b = math.atan2(-ux * half_sin, uy * half_sin)
    a, c = arg_b - arg_a, -arg_a - arg_b
    b = 2.0 * math.atan2(math.hypot(ux, uy) * abs(half_sin), math.hypot(half_cos, uz * half_sin))
    out = np.multiply(_wigner_small_d(j, b), np.exp(-1j * c * m))
    out *= np.exp(-1j * a * m)[:, None]
    return out


def _axis_spectrum(psi: SpinState, u: RotationAxis) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of u . J in ascending order (exactly -J, ..., J, or uz m at
    the poles) and the weights |<v|psi>|^2 of psi on their eigenvectors v.

    Off the poles the weights are |d^T exp(i a Jz) psi|^2, with
    d^T y = D' (cos(beta L) D'^T y + sin(beta L) D'^T T y): two passes over D'.
    """
    j = psi.j
    m = j.m_values()
    if _is_polar(u):
        evals = u.u[2] * m
        order = np.argsort(evals)
        return evals[order], (np.abs(psi.amplitudes) ** 2)[order]
    alpha, beta = _euler_angles(u)
    basis = _wigner_basis(j.twice_j)
    lam = m[::-1]
    y = np.exp(1j * alpha * m) * psi.amplitudes
    ty = y.copy()
    ty[0::2] *= -1.0
    a = basis.T @ np.column_stack([y.real, y.imag, ty.real, ty.imag])
    mixed = np.cos(beta * lam)[:, None] * a[:, :2] + np.sin(beta * lam)[:, None] * a[:, 2:]
    dty = basis @ mixed
    return lam, (dty[:, 0] ** 2 + dty[:, 1] ** 2)[::-1]


def spin_moments(psi: SpinState) -> tuple[np.ndarray, np.ndarray]:
    """Means and symmetrized covariance matrix of (Jx, Jy, Jz) in psi, in O(d).

    With a the amplitudes and c the ladder vector, every moment is a
    shifted amplitude product:
    <J+> = sum c_k a_k* a_{k+1}, <J+^2> = sum c_k c_{k+1} a_k* a_{k+2},
    <J+ Jz + Jz J+>/2 = sum c_k (m_k + m_{k+1})/2 a_k* a_{k+1}, and
    <Jx^2 + Jy^2> = J(J+1) - <Jz^2>.  Each sum is divided by the computed
    sum |a|^2, so round-off in the normalization does not leak into them.
    """
    a = psi.amplitudes
    c = _ladder(psi.j.twice_j)
    m = psi.j.m_values()
    prob = np.abs(a) ** 2
    norm = float(np.sum(prob))
    up = c * a[1:]
    jp = np.vdot(a[:-1], up) / norm
    jp2 = np.vdot(a[:-2], c[:-1] * up[1:]) / norm
    jzjp = np.vdot(a[:-1], (m[:-1] - 0.5) * up) / norm
    jz = float(prob @ m) / norm
    jz2 = float(prob @ (m * m)) / norm
    # <Jx^2> - <Jy^2> = Re<J+^2> and <Jx Jy + Jy Jx>/2 = Im<J+^2>/2
    perp = psi.j.j * (psi.j.j + 1.0) - jz2
    sxy = jp2.imag / 2.0
    second = np.array(
        [
            [(perp + jp2.real) / 2.0, sxy, jzjp.real],
            [sxy, (perp - jp2.real) / 2.0, jzjp.imag],
            [jzjp.real, jzjp.imag, jz2],
        ]
    )
    means = np.array([jp.real, jp.imag, jz])
    return means, second - np.outer(means, means)


def generator_unitary(g: SpinOperator, theta: float) -> SpinOperator:
    """exp(-i * theta * G) for Hermitian G.

    An axis generator (SpinOperator.axis) is rotated through the cached real
    Wigner basis (_axis_rotation); any other G goes through its
    eigendecomposition.  Either way the result is unitary to far better than
    the 1e-10 contract.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if not g.is_hermitian():
        raise ValueError(f"generator {g.label!r} is not Hermitian")
    axis = g.axis
    if axis is not None:
        mat = _axis_rotation(g.j, theta, axis)
    else:
        w, v = np.linalg.eigh(g.matrix)
        mat = (v * np.exp(-1j * theta * w)) @ v.conj().T
    return SpinOperator._owned(g.j, mat, label=f"exp(-i*{theta:g}*{g.label or 'G'})")


def rotation_unitary(j: SpinJ, theta: float, u: RotationAxis) -> SpinOperator:
    """The rotation exp(-i * theta * u . J) about the unit axis u."""
    return generator_unitary(axis_generator(j, u), theta)


def apply(op: SpinOperator, psi: SpinState) -> np.ndarray:
    """Matrix-vector product op|psi> as a raw, unnormalized vector."""
    if op.j != psi.j:
        raise ValueError(f"dimension mismatch: operator 2J={op.j.twice_j}, state 2J={psi.j.twice_j}")
    return op.matrix @ psi.amplitudes


def expectation_and_variance(psi: SpinState, g: SpinOperator) -> tuple[float, float]:
    """Mean <G> and variance <G^2> - <G>^2 of a Hermitian G in the state psi.

    The variance is computed as ||G psi||^2 - <G>^2 and clamped at zero to
    absorb -1e-12-scale round-off (downstream code takes square roots).
    """
    if not g.is_hermitian():
        raise ValueError(f"operator {g.label!r} is not Hermitian")
    gpsi = apply(g, psi)
    mean = float(np.real(np.vdot(psi.amplitudes, gpsi)))
    second = float(np.real(np.vdot(gpsi, gpsi)))
    return mean, max(second - mean * mean, 0.0)
