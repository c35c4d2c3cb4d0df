import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinff import (
    ModelSpec,
    analytic_eigenvalues,
    eigensystem,
    hamiltonian,
    state_and_derivative,
)
from spinff import models
from spinff.ansatz import BASIS, COEFF_NAMES
from spinff.models import (
    REQUIRED_COUPLINGS,
    default_anchor,
    eigensystem_batch,
    sector_hamiltonians,
    state_and_derivative_batch,
    tracked_state,
)
from spinff.errors import (
    ConfigError,
    ConsistencyError,
    DegeneracyError,
    DomainError,
    GaugeError,
)
from spinff.cdsolver import tracked_sector
from spinff.tables import lz_upper_derivative

# tracked state per model for derivative checks (lz: the upper level)
TRACKED = {"lz": 1, "tfim": 0, "qa": 0, "gen": 0}

ALL_MODELS = {
    "lz": (ModelSpec.lz(), (-4.0, 4.0)),
    "tfim": (ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5)), (0.0, 2.5)),
    "qa": (ModelSpec.qa(), (0.1, 9.9)),
    "gen": (ModelSpec.gen(), (0.1, 24.9)),
}


# ---------------------------------------------------------------------------
# Hamiltonian matrices

def test_lz_matrix_at_origin(lz_model):
    H = hamiltonian(lz_model, 0.0)
    np.testing.assert_allclose(H, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_tfim_zero_couplings_gives_zero_matrix():
    model = ModelSpec.tfim(j=(0.0, 0.0), bx=(0.0, 0.0))
    assert np.all(hamiltonian(model, 1.23) == 0)


def test_qa_matrix_entries(qa_model):
    H = hamiltonian(qa_model, 0.0)  # Bx = 10
    assert H[0, 0] == pytest.approx(-1.1)
    assert H[3, 3] == pytest.approx(-0.9)
    assert H[0, 1] == H[1, 3] == pytest.approx(-5.0)
    assert H[0, 3] == 0


def test_gen_matrix_entries(gen_model):
    H = hamiltonian(gen_model, 0.0)  # Bz = 25
    assert H[0, 0] == pytest.approx(33.0)
    assert H[3, 3] == pytest.approx(-17.0)
    assert H[0, 1] == pytest.approx(0.5 - 0.5j)
    assert H[1, 0] == pytest.approx(0.5 + 0.5j)


def test_hamiltonian_is_hermitian_everywhere():
    for model, (lo, hi) in ALL_MODELS.values():
        for R in np.linspace(lo, hi, 7):
            H = hamiltonian(model, R)
            np.testing.assert_allclose(H, H.conj().T, atol=0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        ModelSpec("xy", constants={})


def test_nonfinite_coupling_rejected():
    with pytest.raises(DomainError):
        ModelSpec.lz(delta=float("nan"))
    with pytest.raises(DomainError):
        hamiltonian(ModelSpec.lz(), float("inf"))
    # finite R, overflowing coupling: the error names the coupling and the first such R
    with np.errstate(over="ignore"), pytest.raises(DomainError,
                                                   match=r"coupling 'Bx' .* at R=-1e\+308$"):
        hamiltonian(ModelSpec.qa(b0=1e308), np.array([0.0, -1e308]))


def test_hamiltonian_over_R_array_matches_pointwise():
    for model, (lo, hi) in ALL_MODELS.values():
        R = np.linspace(lo, hi, 12).reshape(3, 4)
        H = hamiltonian(model, R)
        assert H.shape == (3, 4, model.dim, model.dim)
        for idx in np.ndindex(R.shape):
            assert np.array_equal(H[idx], hamiltonian(model, R[idx]))


# an independent construction from Pauli Kronecker products, per model
_PAULI = {"x": np.array([[0, 1], [1, 0]]), "y": np.array([[0, -1j], [1j, 0]]),
          "z": np.array([[1, 0], [0, -1]])}
_ZZ = np.kron(_PAULI["z"], _PAULI["z"])


def _field(axis):
    return 0.5 * (np.kron(_PAULI[axis], np.eye(2)) + np.kron(np.eye(2), _PAULI[axis]))


KRONECKER = {
    "lz": lambda c: c["Bz"] * _PAULI["z"] / 2 + c["Delta"] * _PAULI["x"] / 2,
    "tfim": lambda c: c["J"] * _ZZ - c["Bx"] * _field("x"),
    "qa": lambda c: -c["J"] * _ZZ - c["Bz"] * _field("z") - c["Bx"] * _field("x"),
    "gen": lambda c: (c["J"] * _ZZ + c["Bx"] * _field("x") + c["By"] * _field("y")
                      + c["Bz"] * _field("z")),
}
SWAP = np.eye(4)[[0, 2, 1, 3]]
FLIP = np.eye(4)[[3, 2, 1, 0]]       # X (x) X
# sector widths: the triplet and the singlet, tfim's triplet split by the flip
SECTOR_WIDTHS = {"lz": [2], "tfim": [2, 1, 1], "qa": [3, 1], "gen": [3, 1]}
_COUPLING = st.floats(min_value=-50.0, max_value=50.0, allow_subnormal=False)


@given(st.sampled_from(sorted(REQUIRED_COUPLINGS)), st.data())
def test_hamiltonian_and_slope_matrix_are_the_kronecker_construction(kind, data):
    names = REQUIRED_COUPLINGS[kind]
    affine = {name: (data.draw(_COUPLING), data.draw(_COUPLING)) for name in names}
    constant = data.draw(st.sets(st.sampled_from(names)))
    model = ModelSpec(kind, constants={name: affine[name][0] for name in constant},
                      schedule_map={name: affine[name] for name in names if name not in constant})
    slopes = {name: 0.0 if name in constant else b for name, (a, b) in affine.items()}
    R = np.array(data.draw(st.lists(_COUPLING, min_size=1, max_size=5)))
    expect = KRONECKER[kind]({name: (a + slopes[name] * R)[:, None, None]
                              for name, (a, b) in affine.items()})
    assert np.array_equal(hamiltonian(model, R), expect)
    assert np.array_equal(model.slope_matrix, KRONECKER[kind](slopes))
    assert model.is_real == (kind != "gen")


def test_two_spin_models_and_ansatz_operators_commute_with_swap():
    for name, (model, (lo, hi)) in ALL_MODELS.items():
        if model.dim == 4:
            H = hamiltonian(model, np.linspace(lo, hi, 7))
            assert np.all(H @ SWAP - SWAP @ H == 0), name
            assert np.all(model.slope_matrix @ SWAP - SWAP @ model.slope_matrix == 0), name
    for name, op in zip(COEFF_NAMES, BASIS):
        assert np.all(op @ SWAP - SWAP @ op == 0), name


def test_ansatz_operators_are_even_or_odd_under_the_flip():
    # the sectors' symmetries are SWAP and the flip; conjugation by the flip
    # maps every ansatz operator to +- itself (by SWAP to itself, above): a
    # flip-odd one (W1, W3, By, Bz) maps each flip sector into the other
    assert len(models.SYMMETRIES[4]) == 2
    for perm, S in zip(models.SYMMETRIES[4], (SWAP, FLIP)):
        assert np.array_equal(np.eye(4)[list(perm)], S)
    for name, op in zip(COEFF_NAMES, BASIS):
        sign = -1 if name in ("W1", "W3", "By", "Bz") else 1
        assert np.array_equal(FLIP @ op @ FLIP, sign * op), name


# ---------------------------------------------------------------------------
# eigen-systems

def test_lz_eigensystem_at_origin(lz_model):
    w, V = eigensystem(lz_model, 0.0)
    assert w.tolist() == pytest.approx([-0.5, 0.5])
    ground = V[:, 0].real
    expect = np.array([1.0, -1.0]) / np.sqrt(2)
    assert min(np.max(np.abs(ground - expect)), np.max(np.abs(ground + expect))) < 1e-12


def test_tfim_ground_state_symmetry(tfim_model):
    for R in (0.0, 1.0, 2.5):
        w, V = eigensystem(tfim_model, R)
        c = tfim_model.couplings(R)
        assert w[0] == pytest.approx(-np.hypot(c["J"], c["Bx"]), abs=1e-12)
        amp = V[:, 0]
        assert abs(amp[1] - amp[2]) < 1e-12
        assert abs(amp[0] - amp[3]) < 1e-12
        assert np.max(np.abs(amp.imag)) < 1e-14


def test_qa_initial_entangled_amplitudes(qa_model):
    # truncated four-digit reference values for the Bx = 10 ground state
    amp = eigensystem(qa_model, 0.0)[1][:, 0].real
    expect = [0.5300, 0.4744, 0.4744, 0.5184]
    assert np.max(np.abs(amp - expect)) < 1e-4


def test_qa_eigenvector_symmetry_c2_c3(qa_model):
    for R in (1.0, 5.0, 9.0):
        for amp in eigensystem(qa_model, R)[1].T:
            assert abs(amp[1] - amp[2]) < 1e-12 or abs(amp[1] + amp[2]) < 1e-12


def test_gen_antisymmetric_level_is_minus_J(gen_model):
    # the (ud - du) combination decouples; its energy is -J, not +J
    vals = analytic_eigenvalues(gen_model, 12.5)
    w = eigensystem(gen_model, 12.5)[0]
    assert np.max(np.abs(vals - w)) < 1e-10 * max(np.abs(w))
    assert any(abs(x + 8.0) < 1e-10 for x in w)
    assert not any(abs(x - 8.0) < 1e-6 for x in w)


def test_analytic_matches_numeric_everywhere():
    for name, (model, (lo, hi)) in ALL_MODELS.items():
        for R in np.linspace(lo, hi, 11):
            w = eigensystem(model, float(R))[0]
            vals = analytic_eigenvalues(model, float(R))
            scale = max(1.0, np.max(np.abs(w)))
            assert np.max(np.abs(vals - w)) / scale < 1e-10, name


def test_analytic_eigenvalues_over_R_array_match_pointwise():
    for name, (model, (lo, hi)) in ALL_MODELS.items():
        R = np.linspace(lo, hi, 9)
        vals = analytic_eigenvalues(model, R)
        assert vals.shape == (9, model.dim)
        for k, r in enumerate(R):
            np.testing.assert_allclose(vals[k], analytic_eigenvalues(model, float(r)),
                                       rtol=1e-14, atol=1e-14, err_msg=name)


def _moving_a_level(monkeypatch, model, level, size, scale):
    """Make ``block_eigh`` return level ``level`` (counted over the sectors in order)
    moved by size * scale, scale one per point."""
    widths = np.cumsum([P.shape[1] for P in model.sectors])
    sector = int(np.searchsorted(widths, level % model.dim, "right"))
    index = level % model.dim - (widths[sector - 1] if sector else 0)
    solve, calls = models.block_eigh, []

    def moved(H):
        w, V = solve(H)
        if len(calls) % len(model.sectors) == sector:
            w = w.copy()
            w[index] += size * scale
        calls.append(len(H))
        return w, V

    monkeypatch.setattr(models, "block_eigh", moved)


def test_analytic_eigenvalues_run_no_eigensolve(monkeypatch):
    numeric = {name: np.linalg.eigvalsh(hamiltonian(model, np.linspace(lo, hi, 7)))
               for name, (model, (lo, hi)) in ALL_MODELS.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("the closed form ran an eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for name, (model, (lo, hi)) in ALL_MODELS.items():
        vals = analytic_eigenvalues(model, np.linspace(lo, hi, 7))
        scale = np.maximum(1.0, np.abs(numeric[name]).max(axis=1, keepdims=True))
        assert np.max(np.abs(vals - numeric[name]) / scale) < 1e-10, name
        assert analytic_eigenvalues(model, lo).shape == (model.dim,)
        # the state layer's eigenpairs run no eigensolve either, and are still
        # checked: one level moved by 1e-3 is refused
        eigensystem_batch(model, [lo])
        with monkeypatch.context() as patch:
            _moving_a_level(patch, model, 0, 1e-3, 1.0)
            with pytest.raises(ConsistencyError, match="do not solve its Hamiltonian"):
                eigensystem_batch(model, [lo])


def test_tracked_state_takes_one_anchor_per_point(qa_model):
    R = np.array([1.0, 5.0, 9.0])
    anchors = np.array([0, 1, 3])
    batched = tracked_state(qa_model, R, 0, anchor=anchors)
    for k, (r, a) in enumerate(zip(R.tolist(), anchors.tolist())):
        single = tracked_state(qa_model, np.array([r]), 0, anchor=a)
        for got, want in zip(batched, single):
            np.testing.assert_allclose(got[k], want[0], rtol=0, atol=1e-14)
        assert batched[1][k, a].real > 0 and batched[1][k, a].imag == 0


def test_batched_path_runs_the_branch_check():
    # Hamiltonians of the wrong R must not pass for the right one
    model = ModelSpec.qa()
    R = np.array([2.0, 5.0])
    with pytest.raises(ConsistencyError):
        tracked_state(model, R, 0, blocks=sector_hamiltonians(model, R + 1.0))


def test_eigenpair_residuals():
    for model, (lo, hi) in ALL_MODELS.values():
        for R in np.linspace(lo, hi, 5):
            H = hamiltonian(model, float(R))
            scale = max(1.0, np.linalg.norm(H))
            w, V = eigensystem(model, float(R))
            for energy, amp in zip(w, V.T):
                assert abs(np.linalg.norm(amp) - 1.0) < 1e-12
                res = np.linalg.norm(H @ amp - energy * amp)
                assert res / scale < 1e-10


@given(st.floats(min_value=0.1, max_value=9.9))
def test_qa_eigenproblem_property(R):
    model = ModelSpec.qa()
    H = hamiltonian(model, R)
    w, V = eigensystem(model, R)
    for energy, amp in zip(w, V.T):
        res = np.linalg.norm(H @ amp - energy * amp)
        assert res < 1e-10 * max(1.0, np.linalg.norm(H))


def test_degenerate_gap_refused():
    model = ModelSpec.tfim(j=(0.0, 0.0), bx=(1.0, 0.0))  # middle levels cross
    with pytest.raises(DegeneracyError):
        tracked_state(model, np.array([0.5]), 1)
    # the gapped ground state is still fine
    tracked_state(model, np.array([0.5]), 0)


# ---------------------------------------------------------------------------
# derivatives and gauge

def central_difference(model, R, n, h=1e-5):
    """Plain central difference of the gauge-fixed eigensystem amplitudes."""
    plus = eigensystem(model, R + h)[1][:, n]
    minus = eigensystem(model, R - h)[1][:, n]
    return (plus - minus) / (2 * h)


def test_lz_derivative_matches_closed_form(lz_model):
    # the closed form is written in the gauge where C1 < 0; align signs
    for R in (0.0, 0.7, -2.0):
        C, dC = state_and_derivative(lz_model, R, 1)
        sign = -1.0 if C[0].real > 0 else 1.0
        expect = lz_upper_derivative(lz_model, R)
        assert np.max(np.abs(sign * dC.real - expect)) < 1e-6


def _derivative(model, R, n, **kw):
    """dC/dR of state n at one R: tracked_state at N = 1."""
    return tracked_state(model, np.array([float(R)]), n, **kw)[2][0]


def test_lz_derivative_values_at_origin(lz_model):
    # |dC/dR| = 1/(2 sqrt(2)) for both components at the crossing
    dC = _derivative(lz_model, 0.0, 1)
    mag = 1.0 / (2.0 * np.sqrt(2.0))
    assert abs(dC[0]) == pytest.approx(mag, abs=1e-8)
    assert abs(dC[1]) == pytest.approx(mag, abs=1e-8)
    assert np.sign(dC[0].real) != np.sign(dC[1].real)


def test_constant_couplings_have_zero_derivative():
    model = ModelSpec("tfim", schedule_map={"J": (0.4, 0.0), "Bx": (1.7, 0.0)})
    dC = _derivative(model, 1.0, 0)
    assert np.max(np.abs(dC)) < 1e-12


def test_tfim_normalization_identity(tfim_model):
    C, dC = state_and_derivative(tfim_model, 1.0, 0)
    assert abs(C[1] * dC[1] + C[3] * dC[3]).real < 1e-10


def test_normalization_derivative_identity_all_models():
    for model, (lo, hi) in ALL_MODELS.values():
        R = 0.5 * (lo + hi)
        C, dC = state_and_derivative(model, R, 0)
        assert abs(np.real(np.vdot(C, dC))) < 1e-6


def test_derivative_matches_central_difference_of_eigensystem():
    # the difference quotient's own error, h^2 |d3C/dR3| + eps/h, stays
    # near 1e-11 here, so the spectral derivative must agree far below 1e-6
    for name, (model, (lo, hi)) in ALL_MODELS.items():
        n = TRACKED[name]
        for R in np.linspace(lo, hi, 7):
            C, dC = state_and_derivative(model, R, n)
            np.testing.assert_allclose(C, eigensystem(model, R)[1][:, n],
                                       rtol=0, atol=1e-14)
            err = np.max(np.abs(dC - central_difference(model, R, n)))
            assert err < 1e-9, (name, R, err)


def test_richardson_step_stability(qa_model):
    # Richardson-extrapolated differences at two step sizes agree with each
    # other and with the spectral derivative
    def richardson(h):
        return (4 * central_difference(qa_model, 3.0, 0, h / 2)
                - central_difference(qa_model, 3.0, 0, h)) / 3
    base = richardson(3e-4)
    half = richardson(1.5e-4)
    assert np.max(np.abs(base - half)) < 1e-6
    spectral = _derivative(qa_model, 3.0, 0)
    assert np.max(np.abs(spectral - half)) < 1e-6


def test_plain_central_difference_mode(qa_model):
    spectral = _derivative(qa_model, 3.0, 0)
    plain = central_difference(qa_model, 3.0, 0, h=1e-6)
    assert np.max(np.abs(spectral - plain)) < 1e-6


def test_batched_derivative_refuses_degenerate_tracked_state():
    # Delta = 0 closes the two-level gap at R = 0
    with pytest.raises(DegeneracyError):
        state_and_derivative_batch(ModelSpec.lz(delta=0.0), [-1.0, 0.0, 1.0], 0)


def test_gauge_anchor_guard(qa_model):
    # near Bx -> 0 the last ground-state component collapses; a pinned
    # anchor there must be refused
    with pytest.raises(GaugeError):
        _derivative(qa_model, 10.0 - 1e-7, 0, anchor=3)


def test_batched_gauge_is_the_scalar_gauge(gen_model):
    # at R = 15 the largest ground-state component of gen is not the last
    # one; the batched and scalar paths must still share the anchor
    C, _ = state_and_derivative(gen_model, 15.0, 0)
    assert np.argmax(np.abs(C)) != 3
    Cb, _, _, _ = state_and_derivative_batch(gen_model, [14.0, 15.0, 16.0], 0)
    np.testing.assert_allclose(Cb[1], C, rtol=0, atol=1e-14)
    _, V = eigensystem_batch(gen_model, [15.0])
    np.testing.assert_allclose(V[0, :, 0], C, rtol=0, atol=1e-14)


def test_gen_designated_anchor_is_last_component(gen_model):
    ground = eigensystem(gen_model, 0.0)[1][:, 0]
    assert default_anchor(gen_model, ground) == 3
    assert ground[3].imag == pytest.approx(0.0, abs=1e-15)
    assert ground[3].real > 0


# ---------------------------------------------------------------------------
# SWAP-sector eigensolve against the full 4x4 eigh

_SECTOR_COUPLING = st.floats(min_value=-5.0, max_value=5.0, allow_subnormal=False)


@given(st.sampled_from(["tfim", "qa", "gen"]), st.data())
def test_sector_eigensolve_is_the_full_eigh(kind, data):
    names = REQUIRED_COUPLINGS[kind]
    model = ModelSpec(kind, schedule_map={
        name: (data.draw(_SECTOR_COUPLING), data.draw(_SECTOR_COUPLING)) for name in names})
    R = np.array(data.draw(st.lists(_SECTOR_COUPLING, min_size=1, max_size=5)))
    w, V = models._eigh_model(model, R)
    w_ref, V_ref = np.linalg.eigh(hamiltonian(model, R))
    scale = np.maximum(1.0, np.abs(w_ref).max(axis=1))
    assert np.all(np.abs(w - w_ref).max(axis=1) <= 1e-12 * scale)
    # every level apart from the others: the same vector up to a phase,
    # and its tracked state has the same right-hand side up to that phase
    other = ~np.eye(4, dtype=bool)
    gap = np.where(other, np.abs(w_ref[:, :, None] - w_ref[:, None, :]), np.inf).min(axis=2)
    overlap = np.abs(np.einsum("kam,kam->km", np.conj(V_ref), V))
    apart = gap > 1e-6 * scale[:, None]
    assert np.all(np.abs(overlap[apart] - 1.0) <= 1e-12)
    slope = np.conj(np.swapaxes(V_ref, 1, 2)) @ model.slope_matrix @ V_ref
    for m in range(4):
        k = gap[:, m] > 1e-2 * scale
        if not k.any():
            continue
        _, C, _, rhs = tracked_state(model, R[k], m)
        phase = np.einsum("ka,ka->k", np.conj(V_ref[k, :, m]), C)
        denom = np.where(other[m], w_ref[k, m, None] - w_ref[k], np.inf)
        dv = np.einsum("kab,kb->ka", V_ref[k], slope[k, :, m] / denom)
        bound = 1e-9 * np.abs(model.slope_matrix).max() / gap[k, m] ** 2 * scale[k] + 1e-12
        assert np.all(np.abs(rhs * np.conj(phase)[:, None] - 1j * dv).max(axis=1) <= bound)


@given(st.sampled_from(sorted(REQUIRED_COUPLINGS)), st.data())
def test_sectors_block_diagonalize_every_hamiltonian(kind, data):
    # the sectors come from the kind's operator table alone, so this covers
    # every preset: orthonormal and complete, and P^T op Q = 0 for distinct
    # sectors P, Q, so also P^T H Q = 0 at every R of random affine couplings
    names = REQUIRED_COUPLINGS[kind]
    model = ModelSpec(kind, schedule_map={
        name: (data.draw(_SECTOR_COUPLING), data.draw(_SECTOR_COUPLING)) for name in names})
    assert [P.shape[1] for P in model.sectors] == SECTOR_WIDTHS[kind]
    P = np.concatenate(model.sectors, axis=1)
    np.testing.assert_allclose(P.T @ P, np.eye(model.dim), rtol=0, atol=1e-15)
    R = np.array(data.draw(st.lists(_SECTOR_COUPLING, min_size=1, max_size=5)))
    H = hamiltonian(model, R)
    bound = 1e-15 * max(1.0, np.abs(H).max())
    for a, Pa in enumerate(model.sectors):
        for b, Pb in enumerate(model.sectors):
            if a != b:
                assert np.all(Pa.T @ model.operators @ Pb == 0), (a, b)
                assert np.abs(Pa.T @ H @ Pb).max() <= bound, (a, b)


# exact zeros make double roots inside a block (qa and tfim at Bx = 0, ...)
_AFFINE = st.one_of(st.just(0.0), _SECTOR_COUPLING)


@st.composite
def _affine_models(draw):
    kind = draw(st.sampled_from(sorted(models.OPERATORS)))
    return ModelSpec(kind, schedule_map={name: (draw(_AFFINE), draw(_AFFINE))
                                         for name in REQUIRED_COUPLINGS[kind]})


def _scaled(model, size):
    return ModelSpec(model.kind, schedule_map={
        name: (size * a, size * b) for name, a, b in zip(REQUIRED_COUPLINGS[model.kind],
                                                         *model.coupling_affine)})


@given(_affine_models(), st.lists(_AFFINE, min_size=1, max_size=5), st.integers(0, 3))
@example(ModelSpec.qa(j=4.867241616140628, bz=0.0, b0=0.0), [0.0], 0)
def test_closed_form_spectrum_of_random_affine_couplings(model, R, level):
    R = np.array(R)
    ref = np.linalg.eigvalsh(hamiltonian(model, R))
    vals = analytic_eigenvalues(model, R)
    scale = np.maximum(1.0, np.abs(ref).max(axis=1))
    err = np.abs(vals - ref).max(axis=1) / scale
    assert np.all(err <= 1e-7)
    apart = np.diff(ref, axis=1).min(axis=1) > 1e-3 * scale
    assert np.all(err[apart] <= 1e-12)
    # the eigen-residual check accepts the state layer's eigenpairs at a double
    # root, and refuses them with one level moved by 1e-6 scale, point by point
    w, V = eigensystem_batch(model, R)
    assert np.all(np.abs(w - ref).max(axis=1) <= 1e-12 * scale)
    for k in range(len(R)):
        with pytest.MonkeyPatch.context() as patch:
            _moving_a_level(patch, model, level, 1e-6, scale[k])
            with pytest.raises(ConsistencyError, match="do not solve its Hamiltonian"):
                eigensystem_batch(model, R[k : k + 1])
    # couplings of 1e-131, where the cube of Smith's p underflows
    tiny = _scaled(model, 1e-131)
    vals = analytic_eigenvalues(tiny, R)
    assert np.all(np.isfinite(vals))
    w, V = eigensystem_batch(tiny, R)
    assert np.all(np.isfinite(V)) and np.all(np.abs(w - vals) <= 1e-12)


# planted spectra: generic, near-double (gaps down to 1e-16), double, triple,
# and gaps just below and above GAP_MIN
_PLANTED = st.sampled_from([None, 1e-16, 1e-12, 1e-9, 0.0, "triple", 0.5e-8, 2e-8])


@given(st.sampled_from([2, 3]), st.booleans(), _PLANTED, st.integers(0, 2**32 - 1),
       st.floats(0.1, 10.0), st.integers(1, 4))
def test_block_eigensolver_is_numpy_eigh(b, complex_, planted, seed, size, count):
    # Q diag(E) Q^H with random Q and energies in [-size, size], one planted pair
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(count, b, b)) + (1j * rng.normal(size=(count, b, b)) if complex_ else 0)
    Q = np.linalg.qr(Z)[0]
    E = rng.uniform(-size, size, (count, b))
    if planted == "triple":
        E[:] = E[:, :1]
    elif planted in (0.5e-8, 2e-8):
        E[:, 1] = E[:, 0] + planted
    elif planted is not None:
        E[:, 1] = E[:, 0] + planted * size
    H = (Q * E[:, None, :]) @ np.conj(np.swapaxes(Q, 1, 2))
    H = (H + np.conj(np.swapaxes(H, 1, 2))) / 2
    w_ref, V_ref = np.linalg.eigh(H)
    w, V = models.block_eigh(np.ascontiguousarray(H.transpose(1, 2, 0)))
    order = np.argsort(w, axis=0, kind="stable")
    w, V = np.take_along_axis(w, order, 0).T, np.take_along_axis(V, order[None], 1).transpose(2, 0, 1)
    scale = np.maximum(1.0, np.abs(w_ref).max(axis=1))
    assert np.all(np.abs(w - w_ref).max(axis=1) <= 1e-12 * scale)
    # orthonormal, and the same vectors up to a phase wherever a level is apart
    gram = np.conj(np.swapaxes(V, 1, 2)) @ V
    assert np.abs(gram - np.eye(b)).max() <= 1e-13
    other = ~np.eye(b, dtype=bool)
    gap = np.where(other, np.abs(w_ref[:, :, None] - w_ref[:, None, :]), np.inf).min(axis=2)
    overlap = np.abs(np.einsum("kam,kam->km", np.conj(V_ref), V))
    apart = gap > 1e-6 * scale[:, None]
    assert np.all(np.abs(overlap[apart] - 1.0) <= 1e-12)
    # a planted gap of 0.5e-8 is refused below GAP_MIN, one of 2e-8 is not, as by eigh
    if planted in (0.5e-8, 2e-8):
        refused = np.diff(w, axis=1).min(axis=1) < models.GAP_MIN
        assert np.array_equal(refused, np.diff(w_ref, axis=1).min(axis=1) < models.GAP_MIN)
        assert np.all(refused == (planted < models.GAP_MIN))
    # each block has the bits it has alone
    for k in range(count):
        w_k, V_k = models.block_eigh(np.ascontiguousarray(H[k : k + 1].transpose(1, 2, 0)))
        assert np.array_equal(w_k[order[:, k], 0], w[k])
        assert np.array_equal(V_k[:, order[:, k], 0], V[k])


def test_tracked_state_follows_its_level_across_the_sectors():
    # J = 0.3 + 0.2 R changes sign at R = -1.5: level 1 is (|uu> - |dd>)/sqrt2
    # (the flip-odd triplet sector) below it and the singlet above, within one batch
    model = ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5))
    R = np.array([-3.0, -2.5, 0.0, 1.0])
    w, C, dC, rhs = tracked_state(model, R, 1)
    odd, singlet = np.array([1, 0, 0, -1]) / np.sqrt(2), np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(np.abs(C @ odd), [1, 1, 0, 0], rtol=0, atol=1e-15)
    assert np.allclose(np.abs(C @ singlet), [0, 0, 1, 1], rtol=0, atol=1e-15)
    sectors = [tracked_sector(model, R[[k]], C[[k]], rhs[[k]])[0] for k in range(len(R))]
    assert sectors == [1, 1, 2, 2]
    for k, r in enumerate(R.tolist()):
        single = tracked_state(model, np.array([r]), 1)
        for got, want in zip((w, C, dC, rhs), single):
            assert np.array_equal(got[k], want[0])
    np.testing.assert_array_equal(C, eigensystem_batch(model, R)[1][:, :, 1])


# ---------------------------------------------------------------------------
# adiabatic phase rate

def _phase_rate(model, R, n):
    """d(xi)/dR = i <C|dC/dR> from tracked_state at N = 1.

    Normalization makes Re <C|dC/dR> vanish, so the imaginary part of the
    rate is a gauge residue; it must stay below 1e-10.
    """
    _, (C,), (dC,), _ = tracked_state(model, np.array([float(R)]), n)
    rate = 1j * np.vdot(C, dC)
    assert abs(rate.imag) < 1e-10, (model.kind, R, n)
    return float(rate.real)


def test_phase_rate_vanishes_for_real_models(tfim_model, qa_model):
    assert _phase_rate(tfim_model, 1.0, 0) == pytest.approx(0.0, abs=1e-10)
    assert _phase_rate(qa_model, 5.0, 0) == pytest.approx(0.0, abs=1e-10)
    assert _phase_rate(ModelSpec.lz(), 0.3, 1) == pytest.approx(0.0, abs=1e-10)


def test_gen_phase_rate_against_plain_difference(gen_model):
    # independent check: plain central difference of the anchored family
    rate = _phase_rate(gen_model, 0.0, 0)
    C = eigensystem(gen_model, 0.0)[1][:, 0]
    oracle = np.real(1j * np.vdot(C, central_difference(gen_model, 0.0, 0)))
    assert rate == pytest.approx(oracle, abs=1e-8)
    # constant component phases make it vanish here too
    assert abs(rate) < 1e-10
