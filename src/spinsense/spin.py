"""Spin-J states, angular-momentum operator matrices, and rotation unitaries.

Basis convention: amplitude index 0 corresponds to m = J and the index
increases as m decreases down to -J.  J is stored as the integer 2J so
half-integer spins are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

NORM_TOL = 1e-12
# the largest |amplitude| a state normalized to within NORM_TOL can have
_MAX_AMPLITUDE = math.sqrt(1.0 + NORM_TOL)
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
AXIS_TOL = 1e-12
# Largest 2J for which a dense (2J+1)^2 complex matrix is built: 268 MB at 4096.
MAX_DENSE_TWICE_J = 4096


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _checked_matrix(j: SpinJ, mat: np.ndarray) -> np.ndarray:
    """mat itself, frozen, once its shape fits j."""
    if mat.shape != (j.dim, j.dim):
        raise ValueError(f"matrix must be {j.dim}x{j.dim}, got shape {mat.shape}")
    return _frozen(mat)


def _hermitian_defect(m: np.ndarray) -> tuple[float, float]:
    """(max |M - M^dag|, max |M|) of a square matrix."""
    return float(np.max(np.abs(m - m.conj().T))), float(np.max(np.abs(m)))


def check_tolerance(tol: float) -> None:
    """Reject a tolerance that is not a positive finite number (NaN included);
    a bool is not one, even where it would pass for 1.0."""
    if isinstance(tol, (bool, np.bool_)) or not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def _integer(value, name: str, error: type[Exception] = ValueError) -> int:
    """value as an int: the first input rule, for every integer from outside
    the library.  A bool is not an integer, even where it would pass for 1,
    and neither is a float, even 2.0, nor numpy's bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite_array(values, dtype, what: str) -> np.ndarray:
    """values as a new array of dtype, every entry a finite number: the second
    input rule.  An all-boolean input is not numbers, even where True would
    pass for 1.0, and a complex input to a real dtype is refused, not cast."""
    kind = np.asarray(values).dtype.kind
    if kind == "b":
        raise ValueError(f"{what} must be numbers, not booleans")
    if kind == "c" and np.dtype(dtype).kind != "c":
        raise ValueError(f"{what} must be real, got complex numbers")
    arr = np.array(values, dtype=dtype)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def _json_fields(doc, what: str, *names: str) -> list:
    """The fields `names` of a `what` document, which must be a JSON object that
    has them all: the third input rule.  A name ending in [] is a field that
    must be a list (amplitudes, codewords, shells, matrix rows)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} document must be a JSON object")
    values = []
    for name in names:
        key = name.removesuffix("[]")
        if key not in doc:
            raise ValueError(f"{what} document missing field {key!r}")
        if key != name and not isinstance(doc[key], list):
            raise ValueError(f"{what} document field {key!r} must be a list, got {type(doc[key]).__name__}")
        values.append(doc[key])
    return values


@dataclass(frozen=True)
class SpinJ:
    """Total angular momentum, stored as 2J so half-integer values stay exact."""

    twice_j: int

    def __post_init__(self):
        twice_j = _integer(self.twice_j, "twice_j", TypeError)
        if twice_j < 0:
            raise ValueError(f"twice_j must be non-negative, got {twice_j}")
        object.__setattr__(self, "twice_j", twice_j)

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
        twice_m = _integer(twice_m, "twice_m")
        if (self.twice_j - twice_m) % 2 != 0 or abs(twice_m) > self.twice_j:
            raise ValueError(f"2m={twice_m} is not a level of 2J={self.twice_j}")
        return (self.twice_j - twice_m) // 2


@dataclass(frozen=True)
class SpinState:
    """Normalized pure spin-J state with amplitudes ordered m = J down to -J."""

    j: SpinJ
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _finite_array(self.amplitudes, complex, "amplitudes")
        if amps.shape != (self.j.dim,):
            raise ValueError(
                f"amplitude vector must have length {self.j.dim}, got shape {amps.shape}"
            )
        # one |amp| above 1 already breaks the norm; it is caught here, before
        # any square could overflow (a hypot gives inf, with no warning)
        mag = np.abs(amps)
        if mag.max() > _MAX_AMPLITUDE:
            i = int(np.argmax(mag > _MAX_AMPLITUDE))
            raise ValueError(
                f"state not normalized: |amp| = {float(mag[i])!r} > 1 "
                f"at m_times_2={int(self.j.twice_m_values()[i])}"
            )
        norm_sq = float(np.sum(mag**2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

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
        twice_j, entries = _json_fields(doc, "spin state", "twice_j", "amplitudes[]")
        j = SpinJ(twice_j)
        amps = np.zeros(j.dim, dtype=complex)
        seen = set()
        for entry in entries:
            try:
                twice_m, re, im = entry["m_times_2"], entry["re"], entry["im"]
                value = complex(re, im)
            except (KeyError, TypeError) as exc:
                raise ValueError(f"bad amplitude entry {entry!r}: {exc}") from None
            twice_m = _integer(twice_m, "m_times_2")
            # a bool is not an amplitude part either, even where it would pass for 1.0
            if isinstance(re, bool) or isinstance(im, bool):
                raise ValueError(f"re and im must be numbers, got {re!r} and {im!r}")
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


@dataclass(frozen=True)
class SpinOperator:
    """Labeled complex operator on a spin-J space.

    The constructor copies the matrix it is given; the copy is frozen.  The
    standard operators, u . J, the tensor components and the rotations of u . J
    keep instead the data they are built from, their form (_BandForm,
    _RotationForm): `apply` and the checks read the form, and `matrix` is built
    from it, frozen, when it is first read.
    """

    j: SpinJ
    matrix: np.ndarray
    label: str = ""
    # the form, see above; None on an operator built from its matrix
    _form: _BandForm | _RotationForm | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        mat = _finite_array(self.matrix, complex, f"operator {self.label!r} matrix entries")
        object.__setattr__(self, "matrix", _checked_matrix(self.j, mat))

    def __getattr__(self, name):
        # only reached while the attribute is unset: `matrix` of an operator
        # with a form, before its first read; the one write after construction
        form = self.__dict__.get("_form")
        if name != "matrix" or form is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        mat = form.dense()
        # checked as a matrix given to the constructor is, but with no d x d copy
        if not np.isfinite(mat).all():
            raise ValueError(f"operator {self.label!r} matrix entries must be finite")
        mat = self.__dict__["matrix"] = _checked_matrix(self.j, mat)
        return mat

    @classmethod
    def _from_form(cls, j: SpinJ, form: _BandForm | _RotationForm, label: str) -> "SpinOperator":
        """An operator that keeps its form; its matrix is built on first read."""
        op = cls.__new__(cls)
        op.__dict__.update(j=j, label=label, _form=form)
        return op

    @property
    def axis(self) -> RotationAxis | None:
        """The axis u if this operator is u . J, built by axis_generator or as
        the standard Jx, Jy or Jz, else None."""
        return self._form.axis if isinstance(self._form, _BandForm) else None

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        """max |M - M^dag| <= tol * max(1, max |M|); a banded operator reads
        its bands instead, to the same two numbers."""
        check_tolerance(tol)
        form = self._form
        banded = isinstance(form, _BandForm)
        defect, size = form.hermitian_defect() if banded else _hermitian_defect(self.matrix)
        return bool(defect <= tol * max(1.0, size))

    def is_unitary(self, tol: float = UNITARY_TOL) -> bool:
        """max |U^dag U - I| <= tol.

        A rotation that keeps its form compares instead a bound on
        ||U^dag U - I||_2, which is at least every |entry| of U^dag U - I,
        with tol (_RotationForm.unitary_bound).
        """
        check_tolerance(tol)
        form = self._form
        if isinstance(form, _RotationForm):
            return bool(form.unitary_bound() <= tol)
        # (U^dag U)_jj = sum_i |U_ij|^2, so one |U_ij|^2 above 1 + tol decides
        # the check before the product could overflow
        big = float(np.max(np.abs(self.matrix)))
        if big * big > 1.0 + tol:
            return False
        # Past the guard no single product U_ki^* U_kj overflows, so only a sum
        # over d terms can, and by Cauchy-Schwarz every partial sum of
        # (U^dag U)_ij is at most sqrt((U^dag U)_ii (U^dag U)_jj) in size.  An
        # inf or nan entry so means a diagonal entry above the float maximum,
        # itself >= 1 + tol: the verdict is False, and inf > tol and nan <= tol
        # both give False.
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.matrix.conj().T @ self.matrix
            gram.flat[:: self.j.dim + 1] -= 1.0
            return bool(float(np.max(np.abs(gram))) <= tol)

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
        twice_j, re, im = _json_fields(doc, "operator", "twice_j", "matrix_re[]", "matrix_im[]")
        re, im = _number_matrix(re), _number_matrix(im)
        if re.shape != im.shape:
            raise ValueError("matrix_re and matrix_im shapes differ")
        return cls(SpinJ(twice_j), re + 1j * im, label=str(doc.get("label", "")))


def _number_matrix(rows: list) -> np.ndarray:
    """A JSON matrix, a list of rows, as floats; a boolean entry is not a
    number, even where it would pass for 1.0 or 0.0 (as for SpinState
    amplitude parts)."""
    if not all(isinstance(row, list) for row in rows):
        raise ValueError("matrix_re and matrix_im rows must be lists")
    entries = np.asarray(rows, dtype=object)
    if any(isinstance(v, bool) for v in entries.flat):
        raise ValueError("matrix_re and matrix_im entries must be numbers, not booleans")
    return entries.astype(float)


@dataclass(frozen=True)
class RotationAxis:
    """Unit 3-vector (ux, uy, uz) specifying a rotation direction."""

    u: np.ndarray

    def __post_init__(self):
        vec = _finite_array(self.u, float, "axis components")
        if vec.shape != (3,):
            raise ValueError(f"axis must be a 3-vector, got shape {vec.shape}")
        if abs(np.linalg.norm(vec) - 1.0) > AXIS_TOL:
            raise ValueError(f"axis must be a unit vector, |u| = {np.linalg.norm(vec)!r}")
        object.__setattr__(self, "u", _frozen(vec))

    @classmethod
    def from_vector(cls, v: Iterable[float]) -> "RotationAxis":
        """Normalize an arbitrary nonzero 3-vector into an axis."""
        vec = _finite_array(list(v), float, "axis components")
        big = float(np.max(np.abs(vec), initial=0.0))
        if big == 0.0:
            raise ValueError("cannot normalize the zero vector into an axis")
        # scaled first by the power of two at the largest |component|, so the
        # norm neither overflows nor underflows; that scaling is exact (short of
        # subnormal components), so ordinary input keeps the bits of vec / |vec|
        vec = np.ldexp(vec, -math.frexp(big)[1])
        return cls(vec / np.linalg.norm(vec))

    @classmethod
    def x(cls) -> "RotationAxis":
        return cls(np.array([1.0, 0.0, 0.0]))

    @classmethod
    def y(cls) -> "RotationAxis":
        return cls(np.array([0.0, 1.0, 0.0]))

    @classmethod
    def z(cls) -> "RotationAxis":
        return cls(np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True)
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


class _SpinTable(NamedTuple):
    """The per-spin constants of the O(d) kernels, read-only (_spin_table):
    m in index order (SpinJ.m_values), m^2, the ladder vector c (_ladder),
    c[:-1], and m[:-1] - 1/2, the mean of m_k and m_{k+1}."""

    m: np.ndarray
    m_sq: np.ndarray
    c: np.ndarray
    c_head: np.ndarray
    m_mid: np.ndarray


# How many spins _spin_table keeps: a workload sweeps a few sizes, or a few
# dozen small ones.  At 2J <= MAX_DENSE_TWICE_J an entry is at most 131 kB.
_TABLE_CACHE_SIZE = 32


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _cached_spin_table(twice_j: int) -> _SpinTable:
    m = _frozen(SpinJ(twice_j).m_values())
    c = _frozen(_ladder(twice_j))
    return _SpinTable(m, _frozen(m * m), c, c[:-1], _frozen(m[:-1] - 0.5))


def _spin_table(twice_j: int) -> _SpinTable:
    """The constants of spin J (_SpinTable), built the first time a 2J is used
    and kept for the last _TABLE_CACHE_SIZE spins up to MAX_DENSE_TWICE_J;
    above it, where an entry grows past 131 kB, built afresh on every call."""
    if twice_j > MAX_DENSE_TWICE_J:
        return _cached_spin_table.__wrapped__(twice_j)
    return _cached_spin_table(twice_j)


def _check_dense_limit(twice_j: int) -> None:
    """Raise before a d x d array is allocated above 2J = MAX_DENSE_TWICE_J."""
    if twice_j > MAX_DENSE_TWICE_J:
        raise ValueError(f"2J = {twice_j} exceeds the dense-matrix limit 2J <= {MAX_DENSE_TWICE_J}")


def _banded(dim: int, bands: dict) -> np.ndarray:
    """Dense complex dim x dim matrix (2J <= MAX_DENSE_TWICE_J checked first) with bands[q]
    on the entries (i, i + q); a band holds dim - |q| values, or one scalar for all of them."""
    _check_dense_limit(dim - 1)
    mat = np.zeros((dim, dim), dtype=complex)
    flat = mat.reshape(-1)
    for q, values in bands.items():
        if q >= 0:
            # stop at the band's last row: past it the stride runs on into the next rows
            flat[q : max(dim - q, 0) * dim : dim + 1] = values
        else:
            flat[-q * dim :: dim + 1] = values
    return mat


def _rows(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v shaped to scale the rows of x, a vector or a d x k block."""
    return v if x.ndim == 1 else v[:, None]


def _standard_bands(j: SpinJ, label: str) -> dict:
    """The bands of I, Jx, Jy, Jz, J+, J- or J^2, keyed by offset (see _banded).

    Jz is diagonal with entries m; J+ carries the ladder vector one step up
    the ladder; Jx = (J+ + J-)/2 and Jy = (J+ - J-)/(2i).  J^2 is J(J+1)
    times the identity in closed form.
    """
    if label == "Jz":
        return {0: _spin_table(j.twice_j).m}
    if label in ("I", "J^2"):
        return {0: np.full(j.dim, 1.0 if label == "I" else j.j * (j.j + 1.0))}
    c = _spin_table(j.twice_j).c
    half = c / 2.0
    ladders = {"Jx": {1: half, -1: half}, "Jy": {1: -1j * half, -1: 1j * half}, "J+": {1: c}, "J-": {-1: c}}
    return ladders[label]


# the axes of Jx, Jy and Jz, shared by every standard operator: a RotationAxis is immutable
_STANDARD_AXES = {"Jx": RotationAxis.x(), "Jy": RotationAxis.y(), "Jz": RotationAxis.z()}


def _standard_operator(j: SpinJ, label: str) -> SpinOperator:
    """The standard operator with this label, kept as its bands (_standard_bands);
    Jx, Jy and Jz also keep their axis x, y or z (SpinOperator.axis)."""
    form = _BandForm(j.dim, _standard_bands(j, label), _STANDARD_AXES.get(label))
    return SpinOperator._from_form(j, form, label)


def build_spin_operators(j: SpinJ) -> SpinOperatorSet:
    """Jx, Jy, Jz, J+, J- and J^2, each kept as its bands (_standard_operator)."""
    labels = ("Jx", "Jy", "Jz", "J+", "J-", "J^2")
    return SpinOperatorSet(*[_standard_operator(j, label) for label in labels])


class _BandForm:
    """A banded operator as its bands {q: values on the entries (i, i + q)}
    (see _banded), and the axis u when it is u . J (axis_generator, or the
    standard Jx, Jy and Jz)."""

    __slots__ = ("dim", "bands", "axis")

    def __init__(self, dim: int, bands: dict, axis: RotationAxis | None = None):
        self.dim = dim
        self.bands = {q: _frozen(band) for q, band in bands.items()}
        self.axis = axis

    def dense(self) -> np.ndarray:
        return _banded(self.dim, self.bands)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """M x for x of shape (d,) or (d, k), one slice-add per band off the diagonal."""
        diag = self.bands.get(0)
        y = _rows(diag, x) * x if diag is not None else np.zeros(x.shape, dtype=complex)
        for q, band in self.bands.items():
            if q > 0:
                y[:-q] += _rows(band, x) * x[q:]
            elif q < 0:
                y[-q:] += _rows(band, x) * x[:q]
        return y

    def hermitian_defect(self) -> tuple[float, float]:
        """_hermitian_defect of the dense matrix, to the bit, in O(d): band q >= 0
        of M - M^dag is b_q - conj(b_-q) (a missing band is 0, so its entries
        are |b_q| themselves), band -q holds the same moduli, and every other
        entry is 0; so is a real diagonal minus its conjugate."""
        defect = size = 0.0
        for q, band in self.bands.items():
            big = np.abs(band).max(initial=0.0)
            size = max(size, big)
            partner = self.bands.get(-q)
            if partner is None:
                defect = max(defect, big)
            elif q > 0 or (q == 0 and np.iscomplexobj(band)):
                defect = max(defect, np.abs(band - partner.conj()).max(initial=0.0))
        return float(defect), float(size)


def axis_generator(j: SpinJ, u: RotationAxis) -> SpinOperator:
    """The Hermitian generator u . J of rotations about the axis u.

    u . J = (ux - i uy)/2 J+ + (ux + i uy)/2 J- + uz Jz is tridiagonal, and the
    operator keeps its three bands (_BandForm).  SpinOperator.axis is u, so
    generator_unitary and the survival kernel in metrics rotate it through
    the Wigner basis.
    """
    ux, uy, uz = u.u
    table = _spin_table(j.twice_j)
    half = table.c / 2.0
    bands = {0: uz * table.m, 1: complex(ux, -uy) * half, -1: complex(ux, uy) * half}
    return SpinOperator._from_form(j, _BandForm(j.dim, bands, u), f"u.J[{ux:g},{uy:g},{uz:g}]")


# a column of the recurrence is scaled by 2**-300 once it passes 2**300.  This
# first changes q at 2J = 1024 (not at 1023); without it the norm of a column
# overflows from 2J = 1024 on, and q is non-finite from 2J = 2034
_RESCALE = 2.0**300


class _WignerBasis(NamedTuple):
    """The real orthogonal basis D' = R D of the Wigner d-matrices of spin J,
    kept as its independent quarter (_wigner_basis); every array is frozen.

    `q` is 2 x t x h': q[0] holds the top t = ceil(d/2) rows of the columns
    with lambda_n <= 0 and sigma_n = +1, q[1] those with sigma_n = -1, in
    ascending n, the shorter one padded with a zero column.  `fold` holds
    the signs that fold a d x k block onto the top rows and unfold it again,
    `twice_lam` the 2 lambda_n of each column, and `weight` 1, or 1/2 for
    the lambda = 0 column, which is its own image.
    """

    q: np.ndarray
    fold: np.ndarray
    twice_lam: np.ndarray
    weight: np.ndarray


def _parity_columns(twice_j: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns n < ceil(d/2) with sigma_n = (-1)^(2J - n) = +1, and those with -1."""
    n = np.arange(twice_j // 2 + 1)
    return n[twice_j % 2 :: 2], n[1 - twice_j % 2 :: 2]


@lru_cache(maxsize=4)
def _wigner_basis(twice_j: int) -> _WignerBasis:
    """The real orthogonal basis D' = R D of the Wigner d-matrices of spin J,
    as its independent quarter (_WignerBasis).

    D holds the eigenvectors of the real tridiagonal Jx, eigenvalues
    lambda_n = n - J ascending, and R = diag((-1)^floor(k/2)).  Jy = P Jx P^dag
    with P = diag(i^k), so d(beta) = exp(-i beta Jy) = P D exp(-i beta L) D^T P^dag
    with L = diag(-J, ..., J); by parity its entries are real.  See Feng,
    Wang, Yang & Jin, Phys. Rev. E 92, 043307 (2015).

    Each eigenvector follows from the three-term recurrence of Jx (Schulten
    & Gordon, J. Math. Phys. 16, 1961 (1975)): x_0 = 1, x_1 = lambda / e_0
    and e_{k-1} x_{k-1} + e_k x_{k+1} = lambda x_k, with e_k = c_k / 2.  It
    runs from row 0 to the centre, for all columns at once; from the edge
    the solution grows, so this direction is stable.  A column that passes
    2^300 is scaled by 2^-300, exactly, short of edge entries that may
    underflow.  Jx commutes with the row reversal, so row d-1-k of column n
    is sigma_n = (-1)^(2J-n) times row k of D; at odd d the centre entry of
    a sigma_n = -1 column is 0, and it is set so.  S = diag((-1)^k) takes an
    eigenvector of R Jx R for lambda to one for -lambda, so column 2J - n is
    S times column n.  The columns are normalized with the mirrored rows
    counted, and D' follows from its top ceil(d/2) rows of the columns with
    lambda <= 0 by exact sign flips (_wigner_small_d).  The recurrence runs in q
    itself, which is kept (d^2 / 4 floats, 32 MB at 2J = 4096); the build
    peaks at about 1.5 q.nbytes, q and the squares of one parity block.
    """
    _check_dense_limit(twice_j)
    dim, top, low = twice_j + 1, twice_j // 2 + 1, (twice_j + 1) // 2
    e = _spin_table(twice_j).c / 2.0
    columns = _parity_columns(twice_j)
    width = (top + 1) // 2
    q = np.zeros((2, top, width))
    twice_lam = np.zeros((2, width, 1))
    weight = np.ones((2, width, 1))
    for c, n in enumerate(columns):
        q[c, 0, : len(n)] = 1.0
        twice_lam[c, : len(n), 0] = 2 * n - twice_j
        # the lambda = 0 column is its own image, S x = x to the bit (x_k = 0 at
        # odd k, since x_1 = 0 / e_0): the fold reads it twice, at half weight
        weight[c, : len(n), 0] = np.where(2 * n == twice_j, 0.5, 1.0)
    # row k of both parity blocks; the pad column starts at 0 with lambda = 0 and stays 0
    x, lam = q.transpose(1, 0, 2), twice_lam[:, :, 0] / 2.0
    if top > 1:
        x[1] = lam / e[0]
    for k in range(1, top - 1):
        row = np.multiply(lam, x[k], out=x[k + 1])
        row -= e[k - 1] * x[k - 1]
        row /= e[k]
        if np.abs(row).max() > _RESCALE:
            x[: k + 2, np.abs(row) > _RESCALE] *= 1.0 / _RESCALE
    if dim % 2:
        q[1, -1] = 0.0
    # each top row stands for two rows of D', the centre row for one
    counts = np.where(np.arange(top) < low, 2.0, 1.0)
    for block, n in zip(q, columns):
        norm = counts @ (block * block)
        norm[len(n) :] = 1.0
        block /= np.sqrt(norm)
    q[:, 2::4] *= -1.0
    q[:, 3::4] *= -1.0

    # fold[0] and fold[1] scale the top rows and the reversed bottom rows of a
    # block into the inputs of q[c]^T for the columns n (part 0) and their
    # images 2J - n (part 1); the unfold takes back the same signs
    sign = np.where(np.arange(top) % 2, -1.0, 1.0)
    row = np.arange(top)
    rho = np.where((row // 2 + (dim - 1 - row) // 2) % 2, -1.0, 1.0)
    rho[low:] = 0.0  # the centre row is read once, from the top
    parity = 1.0 if dim % 2 else -1.0  # S of the reversed rows: (-1)^(d-1) S
    fold = np.empty((2, 2, 2, 1, top))
    fold[0, :, 0, 0] = 1.0
    fold[0, :, 1, 0] = sign
    fold[1, 0, 0, 0] = rho
    fold[1, 1, 0, 0] = -rho
    fold[1, 0, 1, 0] = parity * sign * rho
    fold[1, 1, 1, 0] = -parity * sign * rho

    return _WignerBasis(*map(_frozen, (q, fold, twice_lam, weight)))


def _wigner_small_d(j: SpinJ, beta: float, y: np.ndarray | None = None) -> np.ndarray:
    """d(beta) y for a real d x n block y, or the real matrix d(beta) = exp(-i beta Jy)
    itself when y is None, as D' W D'^T (see _wigner_basis): z = D'^T y, then
    d(beta) y = D' W z, where W pairs n with 2J - n,
    (W z)_n = cos(beta lambda_n) z_n + sin(beta lambda_n) z_{2J-n}.  W is
    orthogonal, since column 2J - n of D' is S times column n.

    A block is folded onto the top t rows, u+- = y_top +- rho y_bottom
    (y_bottom in reversed row order, rho_i = R_i R_{d-1-i}), and the two
    passes read the quarter q (_WignerBasis): z_n = q_n^T u_sigma_n, and for
    the image 2J - n, S u+- folds to s u+- at odd d and to s u-+ at even d.
    The unfold is the transpose of the fold.  The matrix takes its top
    t rows a block at a time, row k as column k of d(-beta), whose z is row k
    of D' read off q, and the other rows by d_{-m',-m} = (-1)^(m'-m) d_{m'm}.
    """
    basis = _wigner_basis(j.twice_j)
    q, fold = basis.q, basis.fold
    dim, top, width = j.dim, q.shape[1], q.shape[2]
    if y is None:
        out = np.empty((dim, dim))
        # at most 16 blocks, of at least 16 rows: a block's temporaries are about
        # 8 x rows x d floats, and up to 2J = 31 one block makes the whole matrix
        step = max(16, -(-top // 16))
        for start in range(0, top, step):
            rows = slice(start, min(start + step, top))
            # row k of D': q[c, k] for the columns n, s_k q[c, k] for their images
            z = q[:, rows].transpose(0, 2, 1)[..., None] * fold[0, 0, :, 0, rows].T
            out[rows] = _turned(basis, z.reshape(2, width, -1), -beta, dim)
        alternate = np.where(np.arange(dim) % 2, -1.0, 1.0)
        bottom = out[top:]
        np.multiply(out[: dim - top][::-1, ::-1], alternate, out=bottom)
        bottom *= alternate[top:, None]
        return out
    # the elementwise steps run with the row index innermost, the products with
    # (column of y, n or 2J - n) innermost: OpenBLAS on one thread ran q (W z)
    # in that layout in about 40 % of the time of the transposed one at
    # 2J = 1000, and z_n and z_{2J-n} side by side are one complex number
    yt = y.T.copy()
    # the folded inputs, parity c by part (n or 2J - n) by column of y by row
    g = fold[0] * yt[:, :top]
    g += fold[1] * yt[:, : -top - 1 : -1]
    z = q.transpose(0, 2, 1) @ np.ascontiguousarray(g.transpose(0, 3, 2, 1)).reshape(2, top, -1)
    return _turned(basis, z, beta, dim).T


def _turned(basis: _WignerBasis, z: np.ndarray, beta: float, dim: int) -> np.ndarray:
    """(D' W z)^T for z = D'^T y in the layout of _wigner_small_d: parity c by
    column n by (column of y, n or 2J - n)."""
    q, fold = basis.q, basis.fold
    top = q.shape[1]
    # W turns each pair (z_n, z_{2J-n}) by beta lambda_n: z_n + i z_{2J-n} times e^{-i beta lambda_n}
    w = z.view(complex) * (np.exp(basis.twice_lam * (-0.5j * beta)) * basis.weight)
    r = np.ascontiguousarray((q @ w.view(float)).reshape(2, top, -1, 2).transpose(0, 3, 2, 1))
    # the unfold: top rows (s = 0) and reversed bottom rows (s = 1)
    out = np.einsum("scpkt,cpkt->skt", fold, r)
    # the bottom d - t rows, reversed back: none at 2J = 0
    return np.concatenate((out[0], out[1, :, : dim - top][:, ::-1]), axis=1)


def _is_polar(u: RotationAxis) -> bool:
    """u = (0, 0, +-1) exactly, where u . J = uz Jz is diagonal."""
    return u.u[0] == 0.0 and u.u[1] == 0.0


@lru_cache(maxsize=4)
def _basis_certificate(twice_j: int) -> float:
    """e = ||D'^T D' - I||_F of the cached basis D' of spin J (_wigner_basis),
    from Gram products of its quarter q, with no d x d array.  See
    _RotationForm.unitary_bound for what it bounds.

    With w = 2 on the mirrored rows and 1 on the centre row, the inner
    product of columns n and m of D' is q_n^T diag(w) q_m when sigma_n =
    sigma_m and 0 otherwise, since the centre entry of a sigma = -1 column is
    0; the images S q_n have the same products among themselves.  Between a
    column and an image it is q_n^T diag(w s) q_m, s = (-1)^k, between columns
    of the same parity at odd d and of opposite parity at even d, and 0
    otherwise.  The lambda = 0 column has no image of its own.

    The blocks are formed at half their value, G = P + M - o o^T/2 - I/2 with
    P and M the plain products over the rows where s = +1 and s = -1 and o the
    centre row, so no weighted copy of q is made, a quarter of the columns at
    a time in two buffers of about q.nbytes / 8.  The certificate keeps a
    float and peaks 0.25 q.nbytes above q, 0.45 at odd d with the product of
    o.  Its round-off is that of the products; the order of summation moves e
    by a few per cent of itself, far below the 1e-10 contract.
    """
    basis = _wigner_basis(twice_j)
    q = basis.q
    width = q.shape[2]
    even, odd = q[:, 0::2], q[:, 1::2]
    # the lambda = 0 column, the one of weight 1/2, enters no block with an image of its own
    imaged = basis.weight[:, :, 0] == 1.0
    span = -(-width // 4)
    buffers = np.empty((2, 2 * width * span))
    sums = np.zeros(3)  # of G^2, of the blocks between columns and images, of G^2 between images
    for start in range(0, width, span):
        cols = slice(start, min(start + span, width))
        shape = (2, width, cols.stop - start)
        gram, cross = (b[: math.prod(shape)].reshape(shape) for b in buffers)
        np.matmul(even.transpose(0, 2, 1), even[:, :, cols], out=gram)
        np.matmul(odd.transpose(0, 2, 1), odd[:, :, cols], out=cross)
        gram += cross
        if twice_j % 2:
            np.matmul(q[0, 0::2].T, q[1, 0::2, cols], out=cross[0])
            np.matmul(q[0, 1::2].T, q[1, 1::2, cols], out=cross[1])
            cross = np.subtract(cross[0], cross[1], out=cross[0])
        else:
            cross *= -2.0
            cross += gram
            # o is 0 in the sigma = -1 block, and its row t - 1 has s = (-1)^(t-1)
            half = np.multiply.outer(q[0, -1], 0.5 * q[0, -1, cols])
            gram[0] -= half
            (np.subtract if q.shape[1] % 2 else np.add)(cross[0], half, out=cross[0])
        for c, n in enumerate(_parity_columns(twice_j)):
            diag = np.arange(start, min(cols.stop, len(n)))
            gram[c, diag, diag - start] -= 0.5
        sums[0] += np.vdot(gram, gram)
        if twice_j % 2 == 0:
            cross *= imaged[:, None, cols]
            gram *= imaged[:, :, None]
            gram *= imaged[:, None, cols]
            sums[2] += np.vdot(gram, gram)
        sums[1] += np.vdot(cross, cross)
    # E is 2 G among the columns and among the images, and 2 G' both ways between
    # them, G' the cross blocks; at odd d the images lack the lambda = 0 column
    return math.sqrt(sums @ ((8.0, 16.0, 0.0) if twice_j % 2 else (4.0, 8.0, 4.0)))


def _phase_defect(phases: np.ndarray) -> float:
    """max | |D_k|^2 - 1 | of a phase vector D."""
    return float(np.max(np.abs(phases.real * phases.real + phases.imag * phases.imag - 1.0)))


class _RotationForm:
    """exp(-i theta u . J) as the data of one Wigner D-matrix D_a d(b) D_c,
    D_x = diag(e^{-i x m}): the phase vectors D_a (`outer`) and D_c (`inner`)
    and the angle b, over the cached real basis D' of spin J (_wigner_basis).

    The ZYZ angles are read off the spin-1/2 image of the rotation,
    A = cos(theta/2) - i uz sin(theta/2) = e^{-i(a+c)/2} cos(b/2) and
    B = (uy - i ux) sin(theta/2) = e^{i(a-c)/2} sin(b/2), not off the 3x3
    rotation, so the element of SU(2) is kept, and with it the sign at
    half-integer J when |theta| > pi (Edmonds, Angular Momentum in Quantum
    Mechanics, section 4.1).  At the poles the rotation is the diagonal
    `outer` alone, and `inner` is None.
    """

    __slots__ = ("j", "outer", "inner", "beta")

    def __init__(self, j: SpinJ, theta: float, u: RotationAxis):
        m = _spin_table(j.twice_j).m
        self.j = j
        if _is_polar(u):
            self.outer = _frozen(np.exp(-1j * theta * (u.u[2] * m)))
            self.inner = self.beta = None
            return
        ux, uy, uz = u.u
        half_cos, half_sin = math.cos(theta / 2.0), math.sin(theta / 2.0)
        arg_a = math.atan2(-uz * half_sin, half_cos)
        arg_b = math.atan2(-ux * half_sin, uy * half_sin)
        a, c = arg_b - arg_a, -arg_a - arg_b
        self.beta = 2.0 * math.atan2(math.hypot(ux, uy) * abs(half_sin), math.hypot(half_cos, uz * half_sin))
        self.outer, self.inner = _frozen(np.exp(-1j * a * m)), _frozen(np.exp(-1j * c * m))

    def dense(self) -> np.ndarray:
        """The matrix: one real d(b) (_wigner_small_d) whose columns and rows
        take the phases of D_c and D_a, or at the poles the exact diagonal."""
        if self.inner is None:
            return _banded(self.j.dim, {0: self.outer})
        out = np.multiply(_wigner_small_d(self.j, self.beta), self.inner)
        out *= self.outer[:, None]
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U x = D_a d(b) (D_c x) for x of shape (d,) or (d, k), with d(b) applied
        to the real block [Re, Im] of D_c x (_wigner_small_d): no d x d array."""
        if self.inner is None:
            return _rows(self.outer, x) * x
        y = np.ascontiguousarray(_rows(self.inner, x) * x)
        # Re and Im of each column of y side by side, a d x 2k view
        w = _wigner_small_d(self.j, self.beta, y.view(float).reshape(self.j.dim, -1))
        return _rows(self.outer, x) * (w[:, 0::2] + 1j * w[:, 1::2]).reshape(x.shape)

    def unitary_bound(self) -> float:
        """A bound on ||U^dag U - I||_2 for U = D_a M D_c, M = d(b)
        (_wigner_small_d), as the stored data define it, in O(d) once the
        basis certificate is cached.

        M = D' W D'^T with W orthogonal (_wigner_small_d), so with
        E = D'^T D' - I,

            M^T M - I = (D' D'^T - I) + D' W^T E W D'^T,

        where ||D' D'^T - I|| = ||E|| (D' is square) and ||D'||^2 = ||I + E||
        <= 1 + ||E||.  The Frobenius norm e = ||E||_F (_basis_certificate)
        bounds the spectral one, so

            eps_M = ||M^T M - I|| <= e (2 + e),   ||M||^2 <= 1 + eps_M.

        M is real, so with delta_x = max | |D_x|^2 - 1 |, ||D_x||^2 <= 1 + delta_x and

            U^dag U - I = D_c^* (M^T M - I) D_c + (D_c^* D_c - I)
                          + D_c^* M^T (D_a^* D_a - I) M D_c,
            ||U^dag U - I|| <= (1 + delta_c)(eps_M + (1 + eps_M) delta_a) + delta_c.

        At the poles U^dag U - I = diag(|D_a|^2 - 1), and the bound is delta_a,
        exact.  The bound holds in exact arithmetic on the stored data; the
        round-off of its own O(d) terms is about 1e-16, and that of one product
        by `apply` about d * 1e-16 relative, both far below the 1e-10 contract.
        """
        delta_a = _phase_defect(self.outer)
        if self.inner is None:
            return delta_a
        e = _basis_certificate(self.j.twice_j)
        eps_m = e * (2.0 + e)
        delta_c = _phase_defect(self.inner)
        return (1.0 + delta_c) * (eps_m + (1.0 + eps_m) * delta_a) + delta_c


def _axis_spectrum(psi: SpinState, u: RotationAxis) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of u . J in ascending order (exactly -J, ..., J, or uz m at
    the poles) and the weights |<v|psi>|^2 of psi on their eigenvectors v.

    Off the poles u = (sin b cos a, sin b sin a, cos b), so
    u . J = exp(-i a Jz) d(b) Jz d(b)^T exp(i a Jz), and the weights are
    |d(-b) exp(i a Jz) psi|^2, since d(b)^T = d(-b) (_wigner_small_d).
    """
    j = psi.j
    m = _spin_table(j.twice_j).m
    if _is_polar(u):
        evals = u.u[2] * m
        order = np.argsort(evals)
        return evals[order], (np.abs(psi.amplitudes) ** 2)[order]
    ux, uy, uz = u.u
    alpha, beta = math.atan2(uy, ux), math.atan2(math.hypot(ux, uy), uz)
    y = np.exp(1j * alpha * m) * psi.amplitudes
    # [Re, Im] of y as a d x 2 view
    v = _wigner_small_d(j, -beta, y.view(float).reshape(-1, 2))
    return m[::-1], (v[:, 0] ** 2 + v[:, 1] ** 2)[::-1]


def spin_moments(psi: SpinState) -> tuple[np.ndarray, np.ndarray]:
    """Means and symmetrized covariance matrix of (Jx, Jy, Jz) in psi, in O(d).

    With a the amplitudes and c the ladder vector, every moment is a
    shifted amplitude product:
    <J+> = sum c_k a_k* a_{k+1}, <J+^2> = sum c_k c_{k+1} a_k* a_{k+2},
    <J+ Jz + Jz J+>/2 = sum c_k (m_k + m_{k+1})/2 a_k* a_{k+1}, and
    <Jx^2 + Jy^2> = J(J+1) - <Jz^2>.  Each sum is divided by the computed
    sum |a|^2, so round-off in the normalization does not leak into them.
    The constants come from the cached table of the spin (_spin_table), and
    the nine entries of the covariance, second moment minus product of
    means, are Python floats until the one array is made.
    """
    a = psi.amplitudes
    j = psi.j.j
    table = _spin_table(psi.j.twice_j)
    prob = np.abs(a) ** 2
    norm = float(prob.sum())
    up = table.c * a[1:]
    jp = complex(np.vdot(a[:-1], up) / norm)
    jp2 = complex(np.vdot(a[:-2], table.c_head * up[1:]) / norm)
    jzjp = complex(np.vdot(a[:-1], table.m_mid * up) / norm)
    jz = float(prob @ table.m) / norm
    jz2 = float(prob @ table.m_sq) / norm
    # <Jx^2> - <Jy^2> = Re<J+^2> and <Jx Jy + Jy Jx>/2 = Im<J+^2>/2
    perp = j * (j + 1.0) - jz2
    sxy = jp2.imag / 2.0
    x, y = jp.real, jp.imag
    cov = np.array(
        [
            (perp + jp2.real) / 2.0 - x * x,
            sxy - x * y,
            jzjp.real - x * jz,
            sxy - y * x,
            (perp - jp2.real) / 2.0 - y * y,
            jzjp.imag - y * jz,
            jzjp.real - jz * x,
            jzjp.imag - jz * y,
            jz2 - jz * jz,
        ]
    ).reshape(3, 3)
    return np.array([x, y, jz]), cov


def generator_unitary(g: SpinOperator, theta: float) -> SpinOperator:
    """exp(-i * theta * G) for Hermitian G.

    An axis generator (SpinOperator.axis) gives a rotation that keeps its
    form, one Wigner D-matrix over the cached real basis (_RotationForm); any
    other G goes through its eigendecomposition.  Either way the result is
    unitary to far better than the 1e-10 contract.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    if not g.is_hermitian():
        raise ValueError(f"generator {g.label!r} is not Hermitian")
    label = f"exp(-i*{theta:g}*{g.label or 'G'})"
    axis = g.axis
    if axis is not None:
        return SpinOperator._from_form(g.j, _RotationForm(g.j, theta, axis), label)
    w, v = np.linalg.eigh(g.matrix)
    return SpinOperator(g.j, (v * np.exp(-1j * theta * w)) @ v.conj().T, label)


def rotation_unitary(j: SpinJ, theta: float, u: RotationAxis) -> SpinOperator:
    """The rotation exp(-i * theta * u . J) about the unit axis u."""
    return generator_unitary(axis_generator(j, u), theta)


def _apply_block(op: SpinOperator, x: np.ndarray) -> np.ndarray:
    """op x for x of shape (d,) or (d, k): the form where op keeps one (SpinOperator)."""
    form = op._form
    return op.matrix @ x if form is None else form.apply(x)


def apply(op: SpinOperator, psi: SpinState) -> np.ndarray:
    """Matrix-vector product op|psi> as a raw, unnormalized vector (_apply_block)."""
    if op.j != psi.j:
        raise ValueError(f"dimension mismatch: operator 2J={op.j.twice_j}, state 2J={psi.j.twice_j}")
    return _apply_block(op, psi.amplitudes)


def expectation_and_variance(psi: SpinState, g: SpinOperator) -> tuple[float, float]:
    """Mean <G> and variance <G^2> - <G>^2 of a Hermitian G in the state psi.

    The variance is computed as ||G psi||^2 - <G>^2 and clamped at zero to
    absorb -1e-12-scale round-off (downstream code takes square roots).  A G
    so large that <G> or ||G psi||^2 overflows is rejected.
    """
    if not g.is_hermitian():
        raise ValueError(f"operator {g.label!r} is not Hermitian")
    gpsi = apply(g, psi)
    mean = float(np.real(np.vdot(psi.amplitudes, gpsi)))
    second = float(np.real(np.vdot(gpsi, gpsi)))
    if not (math.isfinite(mean) and math.isfinite(second)):
        raise ValueError(f"operator {g.label!r} is too large: <G> or ||G psi||^2 is not finite")
    return mean, max(second - mean * mean, 0.0)
