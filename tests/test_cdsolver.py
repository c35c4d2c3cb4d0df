import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinff import (
    ModelSpec,
    Schedule,
    admissible_selections,
    ansatz_matrix,
    drb_counterdiabatic,
    enumerate_grid,
    enumerate_solutions,
    fast_forward_hamiltonian,
    hamiltonian,
    reduce_system,
    solve_dense,
    solve_lz,
    solve_selection,
)
from spinff import models
from spinff.ansatz import ANTISYM_BASIS, BASIS, COEFF_NAMES, LZ_BASIS, matrices_from_rows
from spinff.cdsolver import (
    DEFAULT_TOL,
    DENSE_RCOND,
    REASONS,
    CoefficientPath,
    SolverTolerances,
    _cluster,
    _min_norm_solve,
    enumeration_grid,
)
from spinff.errors import ConfigError, ConsistencyError, DegeneracyError
from spinff.models import state_and_derivative
from spinff.schedule import advanced_parameter, velocity
from spinff.tables import lz_h12_imag, tfim_polar_rate, tfim_w2


# ---------------------------------------------------------------------------
# right-hand side

def _rhs(model, R, n):
    """i dC/dR - i <C|dC/dR> C at one R: tracked_state at N = 1."""
    return models.tracked_state(model, np.array([float(R)]), n)[3][0]


def test_rhs_orthogonal_to_state():
    cases = [
        (ModelSpec.lz(), 0.7, 1),
        (ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5)), 1.0, 0),
        (ModelSpec.qa(), 5.0, 0),
        (ModelSpec.gen(), 12.5, 0),
    ]
    for model, R, n in cases:
        C, _ = state_and_derivative(model, R, n)
        rhs = _rhs(model, R, n)
        assert abs(np.vdot(C, rhs)) < 1e-10


def test_rhs_zero_for_constant_couplings():
    model = ModelSpec("qa", constants={"J": 1.0, "Bz": 0.1, "Bx": 4.0})
    assert np.max(np.abs(_rhs(model, 2.0, 0))) < 1e-12


# ---------------------------------------------------------------------------
# two-level model

def test_lz_solution_closed_form(lz_model):
    for R in (-2.0, 0.0, 0.7, 3.0):
        (h11, re_h12, im_h12), residual = solve_lz(lz_model, R)
        assert abs(h11) < 1e-10
        assert abs(re_h12) < 1e-10
        assert abs(im_h12 - lz_h12_imag(lz_model, R)) < 1e-10
        assert residual < 1e-10


def test_lz_state_independence(lz_model):
    a, _ = solve_lz(lz_model, 0.7, n=0)
    b, _ = solve_lz(lz_model, 0.7, n=1)
    assert abs(complex(*a[1:]) - complex(*b[1:])) < 1e-10
    assert abs(a[0] - b[0]) < 1e-10


def test_lz_drb_agreement(lz_model):
    for R in (-1.0, 0.4, 2.0):
        H = drb_counterdiabatic(lz_model, R)
        x, _ = solve_lz(lz_model, R)
        assert np.max(np.abs(H - matrices_from_rows([x], LZ_BASIS)[0])) < 1e-10


# ---------------------------------------------------------------------------
# transverse Ising

def test_tfim_reduced_system_structure(tfim_model):
    rs = reduce_system(tfim_model, 1.0, 0, ("J3", "W2"))
    C = rs.state_vector
    M = rs.coefficient_matrix
    # outer row: J3 couples through C1(=C4), W2 through -2i C2
    assert M[0, 0] == pytest.approx(C[0].real)
    assert M[0, 1] == pytest.approx(-2j * C[1], abs=1e-14)
    # middle row: J3 -> -C2, W2 -> +2i C4
    assert M[1, 0] == pytest.approx(-C[1].real)
    assert M[1, 1] == pytest.approx(2j * C[3], abs=1e-14)


def test_tfim_selection_size_guard(tfim_model):
    with pytest.raises(ConfigError):
        reduce_system(tfim_model, 1.0, 0, ("J3", "W2", "Bx"))


def test_merged_row_symmetry_guard(qa_model, monkeypatch):
    # feed the reducer a state that breaks the C2 = C3 degeneracy
    import spinff.cdsolver as cd

    def crooked(model, R, n, **kw):
        C = np.array([[0.6, 0.5, 0.4, 0.48]], dtype=complex)
        C /= np.linalg.norm(C)
        zero = np.zeros_like(C)
        return np.zeros((1, 4)), C, zero, zero

    monkeypatch.setattr(cd.models, "tracked_state", crooked)
    from spinff.errors import ConsistencyError

    with pytest.raises(ConsistencyError):
        reduce_system(qa_model, 5.0, 0, ("W2", "By", "Bz"))


def test_qa_reduced_system_structure(qa_model):
    # first row couples the selection as Bz*C1 - i(By + 2 W2)*C2
    rs = reduce_system(qa_model, 5.0, 0, ("W2", "By", "Bz"))
    C = rs.state_vector
    M = rs.coefficient_matrix  # columns ordered as the given selection
    assert M[0, 2] == pytest.approx(C[0].real)           # Bz -> C1
    assert M[0, 1] == pytest.approx(-1j * C[1], abs=1e-14)   # By -> -i C2
    assert M[0, 0] == pytest.approx(-2j * C[1], abs=1e-14)   # W2 -> -2i C2


def test_gen_reduced_system_structure(gen_model):
    # first row: (-i By + 2 W3) C2 - 2i W1 C4
    rs = reduce_system(gen_model, 12.5, 0, ("W3", "By", "W1"))
    C = rs.state_vector
    M = rs.coefficient_matrix
    names = rs.unknown_names
    col = {n: M[:, i] for i, n in enumerate(names)}
    assert col["W3"][0] == pytest.approx(2 * C[1], abs=1e-14)
    assert col["By"][0] == pytest.approx(-1j * C[1], abs=1e-14)
    assert col["W1"][0] == pytest.approx(-2j * C[3], abs=1e-14)


def test_tfim_j3_solution_and_closed_form(tfim_model):
    for R in (0.0, 1.0, 2.5):
        rs = reduce_system(tfim_model, R, 0, ("J3", "W2"))
        res = solve_selection(rs)
        assert res.accepted
        assert abs(res.coefficients["J3"]) < 1e-10
        w2 = res.coefficients["W2"]
        assert abs(w2 - tfim_w2(tfim_model, R)) < 1e-10
        assert abs(w2 - tfim_polar_rate(tfim_model, R)) < 1e-9


def test_tfim_four_selections_degenerate(tfim_model):
    report = enumerate_solutions(tfim_model, 1.0)
    assert report.accepted_counts == [4]
    assert report.group_counts == [1]
    values = report.coefficients[0, report.reason[0] == 0, COEFF_NAMES.index("W2")]
    assert np.ptp(values) < 1e-8


def test_tfim_state_independent_solution(tfim_model):
    # the ground and highest states give the same driving coefficients
    lo = solve_selection(reduce_system(tfim_model, 1.0, 0, ("J3", "W2")))
    hi = solve_selection(reduce_system(tfim_model, 1.0, 3, ("J3", "W2")))
    assert abs(lo.coefficients["W2"] - hi.coefficients["W2"]) < 1e-10


def test_tfim_drb_equality(tfim_model):
    res = solve_selection(reduce_system(tfim_model, 1.0, 0, ("J3", "W2")))
    H = drb_counterdiabatic(tfim_model, 1.0)
    assert np.max(np.abs(H - ansatz_matrix(res.coefficients))) < 1e-10


# ---------------------------------------------------------------------------
# annealing model

def test_qa_first_group_solution(qa_model):
    # the (W2, By, Bz) selection: Bz comes out zero by the normalization
    # identity, leaving the (By, W2) driving pair
    rs = reduce_system(qa_model, 5.0, 0, ("W2", "By", "Bz"))
    res = solve_selection(rs)
    assert res.accepted
    sol = res.coefficients
    assert abs(sol["Bz"]) < 1e-9
    C, dC = state_and_derivative(qa_model, 5.0, 0)
    a, b, c = 1j * dC[0], 1j * dC[1], 1j * dC[3]
    by = -1j * (a * C[3] + 2 * b * C[1] + c * C[0]) / (2 * C[1] * (C[0] - C[3]))
    w2 = -1j * (-a * C[3] + 2 * b * C[1] - c * C[0]) / (4 * C[1] * (C[0] + C[3]))
    assert sol["By"] == pytest.approx(by.real, abs=1e-9)
    assert sol["W2"] == pytest.approx(w2.real, abs=1e-9)


def test_qa_eighteen_accepted_three_groups(qa_model):
    report = enumerate_solutions(qa_model, 5.0)
    assert len(report.selections) == 18
    assert report.accepted_counts == [18]
    assert report.group_counts == [3]
    pairs = set()
    for sol in report.coefficients[0, report.reason[0] == 0]:
        nonzero = tuple(sorted(COEFF_NAMES[i] for i in np.flatnonzero(np.abs(sol) > 1e-8)))
        pairs.add(nonzero)
    assert pairs == {("By", "W1"), ("By", "W2"), ("W1", "W2")}


def test_qa_grid_consistency(qa_model, qa_schedule):
    grid = enumerate_grid(qa_model, enumeration_grid(qa_schedule, 10))
    assert all(c == 18 for c in grid.accepted_counts)
    assert all(g == 3 for g in grid.group_counts)
    assert grid.partition_consistent


def _greedy_groups(coefficients, accepted, tol):
    # the first-member rule one point at a time: an accepted solution joins
    # the first group whose first member lies within tol, or opens one
    gids = np.full(accepted.shape, -1)
    for k in range(len(accepted)):
        reps = []
        for s in np.flatnonzero(accepted[k]):
            v = coefficients[k, s]
            g = next((i for i, rep in enumerate(reps) if np.max(np.abs(rep - v)) < tol),
                     len(reps))
            if g == len(reps):
                reps.append(v)
            gids[k, s] = g
    return gids


def test_array_clustering_is_the_per_point_greedy_rule():
    tol = DEFAULT_TOL.group_tol
    base = np.linspace(-1.0, 1.0, 9)
    step = np.zeros(9)
    step[4] = 1.0
    # per point: an accepted solution, a rejected one between, then one at
    # 0.99 tol and one at 1.01 tol from the first; the point order varies
    offsets = np.array([[0.0, 0.5, 1.0 - 0.01, 1.0 + 0.01],
                        [0.0, 0.5, 1.0 + 0.01, 1.0 - 0.01],
                        [1.0 + 0.01, 0.5, 0.0, 1.0 - 0.01]]) * tol
    coefficients = base + offsets[..., None] * step
    accepted = np.array([[True, False, True, True]] * 3)
    gids = _cluster(coefficients, accepted, tol)
    np.testing.assert_array_equal(gids, _greedy_groups(coefficients, accepted, tol))
    np.testing.assert_array_equal(gids, [[0, -1, 0, 1], [0, -1, 1, 0], [0, -1, 1, 0]])
    # a solution within tol of a later member but not of the first opens a group
    chain = base + np.array([[0.0, 0.6, 1.2]])[..., None] * tol * step
    np.testing.assert_array_equal(_cluster(chain, np.ones((1, 3), bool), tol), [[0, 0, 1]])
    # many points on a lattice of tol / 2, where ties at exactly tol abound
    rng = np.random.default_rng(7)
    lattice = rng.integers(0, 4, size=(40, 12, 9)) * (0.5 * tol)
    accepted = rng.random((40, 12)) < 0.7
    np.testing.assert_array_equal(_cluster(lattice, accepted, tol),
                                  _greedy_groups(lattice, accepted, tol))


def test_real_only_selection_rejected(qa_model):
    rs = reduce_system(qa_model, 5.0, 0, ("J1", "J2", "J3"))
    res = solve_selection(rs)
    assert not res.accepted
    assert res.reason in ("singular", "not_real")


@given(st.integers(min_value=0, max_value=17))
def test_qa_template_selection_always_accepted(k):
    model = ModelSpec.qa()
    selection = admissible_selections(model)[k]
    res = solve_selection(reduce_system(model, 3.7, 0, selection))
    assert res.accepted
    assert res.residual < 1e-10
    assert res.max_imag < 1e-9


@given(
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=-0.3, max_value=0.3),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_tfim_closed_form_over_random_couplings(j0, j1, b0, b1, R):
    # J = 0 makes C2 = C4 and the {J3, W2} system legitimately singular
    assume(abs(j0 + j1 * R) > 0.05)
    model = ModelSpec.tfim(j=(j0, j1), bx=(b0, b1))
    res = solve_selection(reduce_system(model, R, 0, ("J3", "W2")))
    assert res.accepted
    assert abs(res.coefficients["J3"]) < 1e-9
    assert abs(res.coefficients["W2"] - tfim_w2(model, R)) < 1e-9


@given(st.floats(min_value=0.2, max_value=9.8))
def test_qa_drb_is_hermitian_traceless(R):
    H = drb_counterdiabatic(ModelSpec.qa(), R)
    assert np.max(np.abs(H - H.conj().T)) < 1e-14
    assert abs(np.trace(H)) < 1e-12


def test_coefficient_path_refuses_singular_grid_point(qa_model):
    # R = 10 puts Bx exactly at zero where the reduced system is singular;
    # the batched path refuses it by name instead of patching a value in
    path = CoefficientPath(qa_model, ("W2", "By", "Bz"))
    with pytest.raises(ConsistencyError, match=r"R=10\.0"):
        path.values(np.array([5.0, 10.0]))
    vals = path.values(np.array([5.0]))
    res = solve_selection(reduce_system(qa_model, 5.0, 0, ("W2", "By", "Bz")))
    expect = [res.coefficients[n] for n in ("W2", "By", "Bz")]
    assert np.max(np.abs(vals[0] - expect)) < 1e-10


def _same(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.mark.parametrize(
    "model, R",
    [
        (ModelSpec.qa(), 5.0),
        (ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5)), 1.0),
        (ModelSpec.gen(), 12.5),
        (ModelSpec.gen(bx=np.sqrt(2.0), by=0.0), 12.5),
    ],
    ids=["qa", "tfim", "gen", "gen-field-along-x"],
)
def test_enumeration_matches_per_selection_solves(model, R):
    report = enumerate_solutions(model, R)
    assert list(report.selections) == admissible_selections(model)
    for s, selection in enumerate(report.selections):
        single = solve_selection(reduce_system(model, R, 0, selection))
        reason, residual = report.reason[0, s], report.residual[0, s]
        assert REASONS[reason] == single.reason, selection
        assert (reason == 0) == single.accepted
        assert _same(report.cond[0, s], single.cond), selection
        assert _same(report.max_imag[0, s], single.max_imag), selection
        if single.accepted:
            np.testing.assert_array_equal(
                report.coefficients[0, s],
                single.coefficients.as_array(),
            )
            assert abs(residual - single.residual) <= 1e-15
        else:
            assert _same(residual, single.residual), selection


def test_rank_deficient_selection_with_real_family_is_singular():
    # documented policy: W1+W2+By has rank 2 here and an exact real
    # least-squares solution family, yet it is reported singular
    model = ModelSpec.gen(bx=np.sqrt(2.0), by=0.0)
    rs = reduce_system(model, 12.5, 0, ("W1", "W2", "By"))
    assert np.linalg.matrix_rank(rs.coefficient_matrix) == 2
    res = solve_selection(rs)
    assert not res.accepted
    assert res.reason == "singular"


# ---------------------------------------------------------------------------
# entanglement-generation model

def test_gen_enumeration_has_no_sparse_real_solution(gen_model):
    # With Bx = By the transverse field points along (1,1); no three-name
    # selection then solves with real coefficients.  The eighty-four formal
    # solves split into singular and complex-valued ones.
    report = enumerate_solutions(gen_model, 12.5)
    assert len(report.selections) == 84
    assert report.accepted_counts == [0]
    reasons = {REASONS[code] for code in report.reason[0]}
    assert reasons == {"singular", "not_real"}


def test_gen_named_selections_are_complex_not_tiny(gen_model):
    # the two selections with the smallest imaginary defect still miss
    # realness by ten orders of magnitude more than the filter allows
    for sel in (("W1", "W3", "By"), ("W1", "W2", "Bx")):
        rs = reduce_system(gen_model, 12.5, 0, sel)
        res = solve_selection(rs)
        assert not res.accepted
        assert res.reason == "not_real"
        assert res.max_imag > 1e-3


def test_gen_dense_solution_is_real_and_exact(gen_model):
    for R in (2.0, 12.5, 23.0):
        x, residual = solve_dense(gen_model, R)
        assert residual < 1e-10
        C, _ = state_and_derivative(gen_model, R, 0)
        rhs = _rhs(gen_model, R, 0)
        H = ansatz_matrix(x)
        assert np.linalg.norm(H @ C - rhs) < 1e-10


def test_gen_dense_action_matches_drb_but_matrix_differs(gen_model):
    R = 12.5
    H_drb = drb_counterdiabatic(gen_model, R)
    H_sol = ansatz_matrix(solve_dense(gen_model, R)[0])
    C, _ = state_and_derivative(gen_model, R, 0)
    assert np.linalg.norm((H_drb - H_sol) @ C) < 1e-9
    assert np.max(np.abs(H_drb - H_sol)) > 1e-3


def test_qa_drb_action_matches_but_matrix_differs(qa_model):
    R = 5.0
    res = solve_selection(reduce_system(qa_model, R, 0, ("W2", "By", "Bz")))
    H_sol = ansatz_matrix(res.coefficients)
    H_drb = drb_counterdiabatic(qa_model, R)
    C, _ = state_and_derivative(qa_model, R, 0)
    assert np.linalg.norm((H_drb - H_sol) @ C) < 1e-9
    assert np.max(np.abs(H_drb - H_sol)) > 1e-3


def test_antisymmetric_couplings_solve_to_zero():
    cases = [
        (ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5)), 1.0),
        (ModelSpec.qa(), 5.0),
        (ModelSpec.gen(), 12.5),
    ]
    # minimum-norm real solve of the full problem over the nine ansatz
    # operators plus the three antisymmetric cross terms
    basis = np.concatenate([BASIS, ANTISYM_BASIS])
    for model, R in cases:
        C, _ = state_and_derivative(model, R, 0)
        rhs = _rhs(model, R, 0)
        A = np.einsum("kab,b->ak", basis, C)
        M = np.concatenate([A.real, A.imag])
        x = np.linalg.lstsq(M, np.concatenate([rhs.real, rhs.imag]), rcond=1e-8)[0]
        assert np.max(np.abs(x[len(BASIS):])) < 1e-8, model.kind


# ---------------------------------------------------------------------------
# state-independent operator

def test_drb_diagonal_vanishes_in_eigenbasis(qa_model):
    from spinff import eigensystem

    H = drb_counterdiabatic(qa_model, 5.0)
    for amp in eigensystem(qa_model, 5.0)[1].T:
        assert abs(np.vdot(amp, H @ amp)) < 1e-10


def test_drb_zero_for_constant_couplings():
    model = ModelSpec("qa", constants={"J": 1.0, "Bz": 0.1, "Bx": 4.0})
    assert np.max(np.abs(drb_counterdiabatic(model, 1.0))) < 1e-12


def test_drb_matches_per_level_sum():
    # the defining sum i * sum_n (|dn><n| - |n><n|dn><n|), one level at a time
    cases = [
        (ModelSpec.lz(), (-3.0, 0.3, 2.0)),
        (ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5)), (0.3, 1.0, 2.0)),
        (ModelSpec.qa(), (0.3, 5.0, 9.5)),
        (ModelSpec.gen(), (0.3, 7.7, 12.5)),
    ]
    for model, Rs in cases:
        for R in Rs:
            H = np.zeros((model.dim, model.dim), dtype=complex)
            for n in range(model.dim):
                C, dC = state_and_derivative(model, R, n)
                H += 1j * (np.outer(dC, C.conj()) - np.vdot(C, dC) * np.outer(C, C.conj()))
            H = 0.5 * (H + H.conj().T)
            assert np.max(np.abs(drb_counterdiabatic(model, R) - H)) < 1e-12, (model.kind, R)


def test_drb_uses_one_eigensolve(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting(a):
        calls.append(a)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    drb_counterdiabatic(ModelSpec.gen(), 7.7)
    assert len(calls) == 1


def test_drb_refuses_degenerate_levels():
    from spinff.errors import DegeneracyError

    with pytest.raises(DegeneracyError):
        drb_counterdiabatic(ModelSpec.lz(delta=0.0), 0.0)


# ---------------------------------------------------------------------------
# batched kernels against their per-point bodies

GRIDS = {
    "lz": (ModelSpec.lz(), np.linspace(-4.0, 4.0, 9)),
    "tfim": (ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5)), np.linspace(0.1, 2.4, 8)),
    "qa": (ModelSpec.qa(), np.linspace(0.3, 9.5, 8)),
    "gen": (ModelSpec.gen(), np.linspace(0.3, 24.7, 11)),
}


def _drb_at_point(model, R):
    # drb_counterdiabatic at one R, as written before it took R arrays
    w, V = models._eigh_model(model, np.array([R]))
    w, V = w[0], V[0]
    denom = w[None, :] - w[:, None]
    assert np.min(np.abs(denom[~np.eye(model.dim, dtype=bool)])) >= models.GAP_MIN
    np.fill_diagonal(denom, 1.0)
    K = 1j * (np.conj(V.T) @ model.slope_matrix @ V) / denom
    np.fill_diagonal(K, 0.0)
    H = V @ K @ np.conj(V.T)
    return 0.5 * (H + H.conj().T)


def _min_norm_at_point(model, R, n, basis):
    # the minimum-norm solve at one R, as written before it took R arrays
    _, C, _, rhs = models.tracked_state(model, np.array([float(R)]), n)
    C, rhs = C[0], rhs[0]
    A = np.einsum("kab,b->ak", basis, C)
    M = np.concatenate([A.real, A.imag])
    x = np.einsum("ij,j->i", np.linalg.pinv(M, rcond=DENSE_RCOND),
                  np.concatenate([rhs.real, rhs.imag]))
    return x, float(np.linalg.norm(matrices_from_rows([x], basis)[0] @ C - rhs))


@pytest.mark.parametrize("kind", sorted(GRIDS))
def test_batched_drb_is_the_per_point_operator(kind):
    model, R = GRIDS[kind]
    H = drb_counterdiabatic(model, R)
    assert H.shape == R.shape + (model.dim, model.dim)
    for k, r in enumerate(R.tolist()):
        np.testing.assert_allclose(H[k], _drb_at_point(model, r), rtol=0, atol=1e-14)
    # shaped like hamiltonian: a scalar gives one matrix, a 2-d R a 2-d stack
    np.testing.assert_array_equal(drb_counterdiabatic(model, R[0]), H[0])
    np.testing.assert_array_equal(drb_counterdiabatic(model, R[:8].reshape(2, 4)),
                                  H[:8].reshape(2, 4, model.dim, model.dim))


def test_batched_drb_refusal_names_the_degenerate_point():
    with pytest.raises(DegeneracyError, match="at R=0.0 "):
        drb_counterdiabatic(ModelSpec.lz(delta=0.0), np.array([-1.0, 0.0, 1.0]))


@pytest.mark.parametrize("kind, n", [("lz", 1), ("lz", 0), ("qa", 0), ("gen", 0), ("gen", 2)])
def test_min_norm_grid_solve_is_the_per_point_solve(kind, n):
    model, R = GRIDS[kind]
    basis = LZ_BASIS if model.dim == 2 else BASIS
    x, residual = _min_norm_solve(model, R, n)
    assert x.shape == (len(R), len(basis)) and residual.shape == R.shape
    for k, r in enumerate(R.tolist()):
        x_k, residual_k = _min_norm_at_point(model, r, n, basis)
        np.testing.assert_allclose(x[k], x_k, rtol=0, atol=1e-15)
        assert abs(residual[k] - residual_k) < 1e-20
        # solve_lz and solve_dense are the one-point case
        if model.dim == 2:
            x_1, residual_1 = solve_lz(model, r, n)
            assert [*x_1, residual_1] == [*x[k], residual[k]]
        else:
            x_1, residual_1 = solve_dense(model, r, n)
            assert x_1.tolist() == x[k].tolist()
            assert residual_1 == residual[k]


def test_min_norm_grid_solve_refuses_a_large_residual():
    model, R = GRIDS["gen"]
    with pytest.raises(ConsistencyError, match="minimum-norm solve left residual .* at R="):
        _min_norm_solve(model, R, 0, SolverTolerances(residual_tol=1e-300))


# ---------------------------------------------------------------------------
# driving Hamiltonian

def test_ff_hamiltonian_equals_bare_at_endpoints(qa_model, qa_schedule):
    sel = ("W2", "By", "Bz")
    H0 = hamiltonian(qa_model, qa_schedule.R0)
    np.testing.assert_array_equal(
        fast_forward_hamiltonian(qa_model, qa_schedule, sel, 0.0), H0
    )
    H_end = fast_forward_hamiltonian(qa_model, qa_schedule, sel, qa_schedule.T_FF)
    np.testing.assert_allclose(
        H_end, hamiltonian(qa_model, advanced_parameter(qa_schedule, qa_schedule.T_FF)),
        atol=0,
    )


def test_ff_hamiltonian_is_bare_where_R_reaches_the_sweep_end(qa_model, qa_schedule):
    # the last stage midpoint of a 2e5-step run: v is still above the zero
    # threshold, but R rounds to R_final, where Bx = 0 makes the reduced
    # system exactly singular; the drive is left out there
    sel = ("W2", "By", "Bz")
    t = 399_999 * (qa_schedule.T_FF / 400_000)
    R = advanced_parameter(qa_schedule, t)
    assert R == qa_schedule.R_final
    assert velocity(qa_schedule, t) > 1e-9
    with pytest.raises(ConsistencyError):
        CoefficientPath(qa_model, sel).values(np.array([R]))
    np.testing.assert_array_equal(
        fast_forward_hamiltonian(qa_model, qa_schedule, sel, t),
        hamiltonian(qa_model, qa_schedule.R_final),
    )


def test_lz_driving_field_component(lz_model):
    # the transverse driving component is -v * Delta / (R^2 + Delta^2)
    sched = Schedule(-2.5, 10.0, 0.5)
    t = 0.2
    H = fast_forward_hamiltonian(lz_model, sched, None, t)
    R = advanced_parameter(sched, t)
    v = velocity(sched, t)
    By = -2.0 * H[0, 1].imag  # H = (Bx sx + By sy + Bz sz)/2
    assert By == pytest.approx(-v * 1.0 / (R**2 + 1.0), abs=1e-8)
    assert 2 * H[0, 0].real == pytest.approx(R)


def test_qa_midpoint_ff_hamiltonian(qa_model, qa_schedule):
    t = 0.5 * qa_schedule.T_FF
    R = advanced_parameter(qa_schedule, t)
    assert velocity(qa_schedule, t) == pytest.approx(2 * qa_schedule.v_bar)
    res = solve_selection(reduce_system(qa_model, R, 0, ("W2", "By", "Bz")))
    expect = hamiltonian(qa_model, R) + 2 * qa_schedule.v_bar * ansatz_matrix(
        res.coefficients
    )
    got = fast_forward_hamiltonian(qa_model, qa_schedule, ("W2", "By", "Bz"), t)
    assert np.max(np.abs(got - expect)) < 1e-8


def test_coefficient_path_matches_pointwise(qa_model, lz_model, tfim_model, gen_model):
    Rs = np.array([2.0, 5.0, 8.0])
    cases = [(qa_model, ("W2", "By", "Bz")), (tfim_model, ("J3", "W2"))]
    for model, sel in cases:
        vals = CoefficientPath(model, sel).values(Rs)
        for i, R in enumerate(Rs):
            res = solve_selection(reduce_system(model, float(R), 0, sel))
            expect = [res.coefficients[n] for n in sel]
            assert np.max(np.abs(vals[i] - expect)) < 1e-10, (model.kind, R)
    vals = CoefficientPath(lz_model, None).values(Rs)
    for i, R in enumerate(Rs):
        expect, _ = solve_lz(lz_model, float(R), n=0)
        assert np.max(np.abs(vals[i] - expect)) < 1e-10, ("lz", R)
    vals = CoefficientPath(gen_model, "dense").values(Rs)
    for i, R in enumerate(Rs):
        expect, _ = solve_dense(gen_model, float(R))
        assert np.max(np.abs(vals[i] - expect)) < 1e-10, ("gen", R)
