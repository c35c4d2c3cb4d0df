import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinff.ansatz import BASIS, COEFF_NAMES, matrices_from_rows

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)

_P = {"x": np.array([[0, 1], [1, 0]], dtype=complex),
      "y": np.array([[0, -1j], [1j, 0]]),
      "z": np.diag([1.0 + 0j, -1.0])}
_SWAP = np.eye(4)[[0, 2, 1, 3]]


def _matrix(**named):
    """The ansatz matrix of the named coefficients, the others 0."""
    row = np.zeros(len(COEFF_NAMES))
    for name, value in named.items():
        row[COEFF_NAMES.index(name)] = value
    return matrices_from_rows([row])[0]


def test_zero_coefficients_give_zero_matrix():
    assert np.all(matrices_from_rows(np.zeros((1, 9)))[0] == 0)


def test_w2_only_pattern():
    w = 0.37
    H = _matrix(W2=w)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 1] = expect[0, 2] = -1j * w
    expect[1, 0] = expect[2, 0] = 1j * w
    expect[1, 3] = expect[2, 3] = 1j * w
    expect[3, 1] = expect[3, 2] = -1j * w
    np.testing.assert_allclose(H, expect, atol=0)


def test_equal_xx_yy_exchange_fills_middle_block():
    j = 0.8
    H = _matrix(J1=j, J2=j)
    assert H[1, 2] == H[2, 1] == pytest.approx(2 * j)
    assert H[0, 3] == H[3, 0] == 0
    assert np.all(np.diag(H) == 0)


def test_field_and_exchange_corners():
    H = _matrix(J3=0.5, Bz=0.2, Bx=1.0, By=2.0)
    assert H[0, 0] == pytest.approx(0.7)
    assert H[3, 3] == pytest.approx(0.3)
    assert H[0, 1] == pytest.approx(0.5 - 1.0j)


@given(st.lists(finite, min_size=9, max_size=9))
def test_always_hermitian_and_traceless(values):
    H = matrices_from_rows([values])[0]
    np.testing.assert_allclose(H, H.conj().T, atol=0)
    assert abs(np.trace(H)) < 1e-12 * max(1.0, np.max(np.abs(values)))


def test_basis_matrices_are_hermitian():
    for B in BASIS:
        np.testing.assert_allclose(B, B.conj().T, atol=0)


def test_the_nine_operators_span_the_swap_invariant_traceless_operators():
    # 3^2 + 1^2 - 1 = 9: the Hermitian operators that commute with SWAP are a
    # 3x3 block on the triplet and a 1x1 block on the singlet, less the identity
    np.testing.assert_allclose(BASIS, BASIS.conj().transpose(0, 2, 1), atol=0)
    np.testing.assert_array_equal(np.trace(BASIS, axis1=1, axis2=2), 0)
    np.testing.assert_array_equal(_SWAP @ BASIS @ _SWAP, BASIS)
    gram = np.einsum("aij,bji->ab", BASIS, BASIS)
    np.testing.assert_array_equal(gram, np.diag([4, 4, 4, 8, 8, 8, 2, 2, 2]))

    def project(H):
        x = np.einsum("aij,ji->a", BASIS, H) / np.diag(gram).real
        return x, matrices_from_rows([x.real])[0]

    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = A + A.conj().T
        H = (H + _SWAP @ H @ _SWAP) / 2         # SWAP-invariant
        H -= np.trace(H).real / 4 * np.eye(4)   # traceless
        x, rebuilt = project(H)
        assert np.max(np.abs(x.imag)) < 1e-15
        assert np.max(np.abs(rebuilt - H)) < 1e-14 * np.max(np.abs(H))
    # a SWAP-odd operator, x (x) y - y (x) x, lies outside the span: it projects to 0
    odd = np.kron(_P["x"], _P["y"]) - np.kron(_P["y"], _P["x"])
    np.testing.assert_array_equal(_SWAP @ odd @ _SWAP, -odd)
    np.testing.assert_array_equal(project(odd)[0], 0)
