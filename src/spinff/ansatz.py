"""Physically realizable two-spin operator basis for regularization terms.

The candidate driving Hamiltonian combines symmetric exchange couplings,
symmetric cross-exchange couplings and a uniform magnetic field:

    J1 x1x2 + J2 y1y2 + J3 z1z2
  + W1 (x1y2 + y1x2) + W2 (y1z2 + z1y2) + W3 (z1x2 + x1z2)
  + (s1 + s2) . (Bx, By, Bz) / 2

with nine real coefficients.  In the |uu>, |ud>, |du>, |dd> basis By, W1
and W2 feed the imaginary part of the matrix; the other six feed its real
part.  The matrix is Hermitian and traceless by construction.

An extended basis adds the three antisymmetric cross terms
(xy - yx etc.); physical solutions leave their coefficients at zero, which
is kept as a regression check.
The two-level term H11 sz + Re H12 sx - Im H12 sy uses the basis (sz, sx, -sy).
"""

from dataclasses import dataclass, field

import numpy as np

COEFF_NAMES = ("J1", "J2", "J3", "W1", "W2", "W3", "Bx", "By", "Bz")
IMAG_NAMES = ("By", "W1", "W2")                      # imaginary-part carriers
REAL_NAMES = ("J1", "J2", "J3", "W3", "Bx", "Bz")    # real-part carriers
ANTISYM_NAMES = ("D1", "D2", "D3")                   # xy-yx, yz-zy, zx-xz
LZ_NAMES = ("H11", "ReH12", "ImH12")                 # two-level term

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_ID = np.eye(2, dtype=complex)
_P = {"x": _SX, "y": _SY, "z": _SZ}


def _two(a, b):
    return np.kron(_P[a], _P[b])


def _field(a):
    return 0.5 * (np.kron(_P[a], _ID) + np.kron(_ID, _P[a]))


def _build_basis():
    ops = {
        "J1": _two("x", "x"),
        "J2": _two("y", "y"),
        "J3": _two("z", "z"),
        "W1": _two("x", "y") + _two("y", "x"),
        "W2": _two("y", "z") + _two("z", "y"),
        "W3": _two("z", "x") + _two("x", "z"),
        "Bx": _field("x"),
        "By": _field("y"),
        "Bz": _field("z"),
    }
    return np.array([ops[name] for name in COEFF_NAMES])


def _build_antisym_basis():
    ops = {
        "D1": _two("x", "y") - _two("y", "x"),
        "D2": _two("y", "z") - _two("z", "y"),
        "D3": _two("z", "x") - _two("x", "z"),
    }
    return np.array([ops[name] for name in ANTISYM_NAMES])


BASIS = _build_basis()                  # (9, 4, 4)
ANTISYM_BASIS = _build_antisym_basis()  # (3, 4, 4)
LZ_BASIS = np.array([_SZ, _SX, -_SY])   # (3, 2, 2), ordered as LZ_NAMES


@dataclass(frozen=True)
class AnsatzCoefficients:
    """Nine real coefficients plus the mask of which ones were free.

    Coefficients outside ``selection`` are pinned to exactly 0.
    """

    values: dict = field(default_factory=dict)
    selection: tuple = ()

    def __post_init__(self):
        clean = {}
        for name in COEFF_NAMES:
            v = float(self.values.get(name, 0.0))
            if not np.isfinite(v):
                raise ValueError(f"coefficient {name} is not finite")
            if name not in self.selection and v != 0.0:
                raise ValueError(f"pinned coefficient {name} must be 0, got {v}")
            clean[name] = v
        object.__setattr__(self, "values", clean)
        object.__setattr__(self, "selection", tuple(self.selection))

    def as_array(self):
        return np.array([self.values[name] for name in COEFF_NAMES])

    def __getitem__(self, name):
        return self.values[name]


def ansatz_matrix(coefficients):
    """4x4 Hermitian traceless matrix of the coefficient combination.

    Accepts an AnsatzCoefficients, a name->value mapping, or a length-9
    array ordered as COEFF_NAMES.
    """
    if isinstance(coefficients, AnsatzCoefficients):
        vec = coefficients.as_array()
    elif isinstance(coefficients, dict):
        unknown = set(coefficients) - set(COEFF_NAMES)
        if unknown:
            raise ValueError(f"unknown coefficient names {sorted(unknown)}")
        vec = np.array([float(coefficients.get(n, 0.0)) for n in COEFF_NAMES])
    else:
        vec = np.asarray(coefficients, dtype=float)
        if vec.shape != (9,):
            raise ValueError("expected 9 coefficients")
    return np.tensordot(vec, BASIS, axes=1)


def matrices_from_rows(values, basis=None):
    """Batched version: (N, k) coefficient rows -> (N, dim, dim) matrices."""
    if basis is None:
        basis = BASIS
    return np.tensordot(np.asarray(values, dtype=float), basis, axes=(1, 0))
