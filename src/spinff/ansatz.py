"""Physically realizable two-spin operator basis for regularization terms.

The candidate driving Hamiltonian combines symmetric exchange couplings,
symmetric cross-exchange couplings and a uniform magnetic field:

    J1 x1x2 + J2 y1y2 + J3 z1z2
  + W1 (x1y2 + y1x2) + W2 (y1z2 + z1y2) + W3 (z1x2 + x1z2)
  + (s1 + s2) . (Bx, By, Bz) / 2

with nine real coefficients.  In the |uu>, |ud>, |du>, |dd> basis By, W1
and W2 feed the imaginary part of the matrix; the other six feed its real
part.  The nine operators span the traceless SWAP-invariant two-spin
operators (3^2 + 1^2 - 1 = 9), orthogonally in the trace inner product.  A
set of coefficients is a float row ordered as ``COEFF_NAMES``.
The two-level term H11 sz + Re H12 sx - Im H12 sy uses the basis (sz, sx, -sy).
``models.ANSATZ`` assigns each model kind one of these two tables.
"""

import numpy as np

COEFF_NAMES = ("J1", "J2", "J3", "W1", "W2", "W3", "Bx", "By", "Bz")
IMAG_NAMES = ("By", "W1", "W2")                      # imaginary-part carriers
REAL_NAMES = ("J1", "J2", "J3", "W3", "Bx", "Bz")    # real-part carriers
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


BASIS = _build_basis()                  # (9, 4, 4)
LZ_BASIS = np.array([_SZ, _SX, -_SY])   # (3, 2, 2), ordered as LZ_NAMES


def matrices_from_rows(values, basis):
    """(N, k) coefficient rows -> (N, dim, dim) matrices sum_k values[:, k] basis[k]."""
    return np.tensordot(np.asarray(values, dtype=float), basis, axes=(1, 0))
