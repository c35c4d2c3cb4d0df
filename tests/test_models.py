import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinff import (
    ModelSpec,
    analytic_eigenvalues,
    eigensystem,
    hamiltonian,
    state_and_derivative,
)
from spinff.models import (
    default_anchor,
    eigensystem_batch,
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
    # finite R, overflowing coupling: the error names the coupling
    with np.errstate(over="ignore"), pytest.raises(DomainError, match="coupling 'Bx'"):
        hamiltonian(ModelSpec.qa(b0=1e308), np.array([0.0, -1e308]))


def test_hamiltonian_over_R_array_matches_pointwise():
    for model, (lo, hi) in ALL_MODELS.values():
        R = np.linspace(lo, hi, 12).reshape(3, 4)
        H = hamiltonian(model, R)
        assert H.shape == (3, 4, model.dim, model.dim)
        for idx in np.ndindex(R.shape):
            assert np.array_equal(H[idx], hamiltonian(model, R[idx]))


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
            vals = analytic_eigenvalues(model, float(R), numeric=w)
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
        # a spectrum handed in is still checked
        with pytest.raises(ConsistencyError):
            analytic_eigenvalues(model, lo, numeric=numeric[name][0] + 1e-3)


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
        state_and_derivative_batch(model, R, 0, H=hamiltonian(model, R + 1.0))


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
        eigensystem(model, 0.5, n=1)
    # the gapped ground state is still fine
    eigensystem(model, 0.5, n=0)


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
