
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spinff import (
    ModelSpec,
    Schedule,
    admissible_selections,
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
from spinff import cdsolver, models
from spinff.ansatz import BASIS, COEFF_NAMES, matrices_from_rows
from spinff.cdsolver import (
    COND_MAX,
    GROUP_TOL,
    REASONS,
    CoefficientPath,
    _accept,
    _cluster,
    _condition_number,
    _min_norm_solve,
    enumeration_grid,
    solve_grid,
)
from spinff.config import load_preset
from spinff.errors import ConfigError, ConsistencyError, DegeneracyError
from spinff.models import level, state_and_derivative
from spinff.schedule import advanced_parameter, velocity
from spinff.tables import lz_h12_imag, tfim_polar_rate, tfim_w2


# ---------------------------------------------------------------------------
# right-hand side

def _rhs(model, R, n):
    """i dC/dR - i <C|dC/dR> C of state n at one R: tracked_state of its level at N = 1."""
    return models.tracked_state(model, np.array([float(R)]), level(model, R, n))[3][0]


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
        assert np.max(np.abs(H - matrices_from_rows([x], lz_model.ansatz[1])[0])) < 1e-10


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


def _crooked_state(part, points, column, monkeypatch):
    """Patch tracked_state to add 1e-6 to amplitude ``column`` of C (part 1) or
    of the right-hand side (part 3) at the R values in ``points``."""
    original = models.tracked_state

    def crooked(model, R, level, **kw):
        out = list(original(model, R, level, **kw))
        out[part] = out[part].copy()
        out[part][np.isin(R, points), column] += 1e-6
        return tuple(out)

    monkeypatch.setattr(cdsolver.models, "tracked_state", crooked)


def test_merged_row_symmetry_guard(qa_model, monkeypatch):
    # the triplet's reduced systems drop row 2, row 1's twin; a state that
    # breaks C2 = C3 is no triplet vector: a selection's solve of it is not
    # real, and the minimum-norm solve's full-row residual, which takes
    # row 2, refuses it
    _crooked_state(1, [5.0], 2, monkeypatch)
    result = solve_selection(reduce_system(qa_model, 5.0, 0, ("W2", "By", "Bz")))
    assert (result.accepted, result.reason) == (False, "not_real")
    with pytest.raises(ConsistencyError, match=r"residual .* at R=5\.0;"):
        _min_norm_solve(qa_model, np.array([5.0]), (0, 0))


@pytest.mark.parametrize("preset, n, sector, rows", [
    ("qa", 0, 0, (0, 1, 3)), ("gen", 0, 0, (0, 1, 3)), ("tfim", 0, 0, (0, 1)), ("lz", 1, 0, (0, 1)),
    ("qa", 2, 1, (1,)), ("tfim", 1, 2, (1,)), ("tfim", 2, 1, (0,)),
], ids=["qa", "gen", "tfim", "lz", "qa-singlet", "tfim-singlet", "tfim-flip-odd"])
def test_reduced_rows_are_read_off_the_sectors(preset, n, sector, rows):
    # each sector column's first nonzero amplitude: the triplet's C2 = C3
    # drops row 3, tfim's flip-even C1 = C4 also row 4
    config = load_preset(preset)
    s, _ = level(config.model, config.schedule.R0, n)
    assert (s, config.model.sector_rows[s]) == (sector, rows)


@pytest.mark.parametrize("preset", ["gen", "lz", "qa", "tfim"])
def test_tracked_state_has_no_component_outside_its_sector(preset):
    # C and the right-hand side of every level (s, j) are P x by construction:
    # each symmetry S of the model maps them to sigma times themselves exactly,
    # sigma sector s's sign under S.  So nothing lies outside the sector, and
    # each row a reduced system drops (the triplet's C3, tfim's flip-even C4)
    # is its twin's exactly
    config = load_preset(preset)
    model = config.model
    R = np.append(enumeration_grid(config.schedule, 5), config.schedule.R0)
    symmetries = [list(perm) for perm in models.SYMMETRIES.get(model.dim, ())
                  if np.array_equal(model.operators[:, perm][:, :, perm], model.operators)]
    assert len(symmetries) == {"lz": 0, "qa": 1, "gen": 1, "tfim": 2}[preset]
    for s, P in enumerate(model.sectors):
        signs = [1.0 if np.array_equal(P[perm], P) else -1.0 for perm in symmetries]
        for perm, sign in zip(symmetries, signs):
            assert np.array_equal(P[perm], sign * P)
        for j in range(P.shape[1]):
            _, C, _, rhs = models.tracked_state(model, R, (s, j))
            for X in (C, rhs):
                for perm, sign in zip(symmetries, signs):
                    assert np.array_equal(X[:, perm], sign * X), (s, j, perm)


def test_coefficient_path_refuses_a_state_outside_its_sector(qa_model, monkeypatch):
    # a state or right-hand side with a singlet part leaves the triplet; the
    # path solves the triplet's rows alone, the full-row residual of its
    # minimum-norm solve names the first R where either does, and the
    # selection grid rejects those points
    R = np.array([2.0, 5.0, 8.0])
    with monkeypatch.context() as m:
        _crooked_state(3, [8.0], 2, m)
        with pytest.raises(ConsistencyError, match=r"residual 1\.000e-06 at R=8\.0;"):
            _min_norm_solve(qa_model, R, (0, 0))
        grid = solve_grid(qa_model, R, [("W2", "By", "Bz")])
        assert [REASONS[r] for r in grid.reason[:, 0]] == ["", "", "residual"]
    _crooked_state(1, [5.0, 8.0], 1, monkeypatch)
    with pytest.raises(ConsistencyError, match=r"residual .* at R=5\.0;"):
        _min_norm_solve(qa_model, R, (0, 0))
    grid = solve_grid(qa_model, R, [("W2", "By", "Bz")])
    assert [REASONS[r] for r in grid.reason[:, 0]] == ["", "not_real", "not_real"]


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
        assert abs(res.coefficients[COEFF_NAMES.index("J3")]) < 1e-10
        w2 = res.coefficients[COEFF_NAMES.index("W2")]
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
    w2 = COEFF_NAMES.index("W2")
    assert abs(lo.coefficients[w2] - hi.coefficients[w2]) < 1e-10


def test_tfim_drb_equality(tfim_model):
    res = solve_selection(reduce_system(tfim_model, 1.0, 0, ("J3", "W2")))
    H = drb_counterdiabatic(tfim_model, 1.0)
    assert np.max(np.abs(H - matrices_from_rows([res.coefficients], BASIS)[0])) < 1e-10


# ---------------------------------------------------------------------------
# annealing model

def test_qa_first_group_solution(qa_model):
    # the (W2, By, Bz) selection: Bz comes out zero by the normalization
    # identity, leaving the (By, W2) driving pair
    rs = reduce_system(qa_model, 5.0, 0, ("W2", "By", "Bz"))
    res = solve_selection(rs)
    assert res.accepted
    sol = dict(zip(COEFF_NAMES, res.coefficients))
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
    tol = GROUP_TOL
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
    gids = _cluster(coefficients, accepted)
    np.testing.assert_array_equal(gids, _greedy_groups(coefficients, accepted, tol))
    np.testing.assert_array_equal(gids, [[0, -1, 0, 1], [0, -1, 1, 0], [0, -1, 1, 0]])
    # a solution within tol of a later member but not of the first opens a group
    chain = base + np.array([[0.0, 0.6, 1.2]])[..., None] * tol * step
    np.testing.assert_array_equal(_cluster(chain, np.ones((1, 3), bool)), [[0, 0, 1]])
    # many points on a lattice of tol / 2, where ties at exactly tol abound
    rng = np.random.default_rng(7)
    lattice = rng.integers(0, 4, size=(40, 12, 9)) * (0.5 * tol)
    accepted = rng.random((40, 12)) < 0.7
    np.testing.assert_array_equal(_cluster(lattice, accepted),
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
    assert abs(res.coefficients[COEFF_NAMES.index("J3")]) < 1e-9
    assert abs(res.coefficients[COEFF_NAMES.index("W2")] - tfim_w2(model, R)) < 1e-9


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
    expect = [res.coefficients[COEFF_NAMES.index(n)] for n in ("W2", "By", "Bz")]
    assert np.max(np.abs(vals[0] - expect)) < 1e-10


def test_coefficient_path_names_a_singular_point_mid_batch(qa_model):
    # Bx = 0 at R = 10 between two regular points: the batched solve raises,
    # the regular points are solved together and R = 10 is named
    path = CoefficientPath(qa_model, ("W2", "By", "Bz"))
    with pytest.raises(ConsistencyError, match=r"singular .* at R=10\.0"):
        path.values(np.array([5.0, 10.0, 7.0]))


def test_coefficient_path_selection_solve_is_the_per_point_solve(qa_model, monkeypatch):
    # the batched solve is bitwise each point's own solve
    path = CoefficientPath(qa_model, ("W2", "By", "Bz"))
    R = np.array([2.0, 5.0, 7.5, 12.0, 15.0, 18.0])
    x = path.values(R)
    for r, row in zip(R, x):
        assert np.array_equal(path.values(np.array([r]))[0], row), r
    # exactly singular systems (a zero column, a zero matrix) mid-stack: the
    # refusal names the first of them
    columns = cdsolver._columns

    def singular(*args):
        M = columns(*args).copy()       # (rows, coefficients, points)
        M[:, 1, 2] = 0.0
        M[..., 4] = 0.0
        return M

    monkeypatch.setattr(cdsolver, "_columns", singular)
    with pytest.raises(ConsistencyError, match=r"singular .* at R=7\.5$"):
        path.values(R)


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
            # the result's coefficients are the census row: (9,) floats, COEFF_NAMES order
            assert single.coefficients.dtype == float
            np.testing.assert_array_equal(report.coefficients[0, s], single.coefficients,
                                          strict=True)
            assert abs(residual - single.residual) <= 1e-15
        else:
            assert single.coefficients is None
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
# condition numbers

def _with_singular_values(rng, s, count):
    """(count, m, m) complex matrices with singular values s and random singular vectors."""
    def unitary():
        q, _ = np.linalg.qr(rng.normal(size=(count, len(s), len(s)))
                            + 1j * rng.normal(size=(count, len(s), len(s))))
        return q
    return unitary() @ (np.asarray(s)[:, None] * unitary().conj().swapaxes(-1, -2))


@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), st.floats(0.0, 4.0),
       st.floats(0.0, 1.0))
def test_condition_number_is_the_svd_cond(m, seed, log_cond, split):
    # cond <= 1e4.  Both the closed form and the SVD err by about eps cond
    # (measured <= 3e-12), so bound 1e-10 -- unless two singular values lie
    # within 1 %: there the trigonometric form loses up to about sqrt(eps)
    # (measured <= 5e-9), so bound 2e-8
    s = [1.0, 10 ** (-log_cond * split), 10 ** -log_cond]
    s = np.array(s if m == 3 else s[::2])
    M = _with_singular_values(np.random.default_rng(seed), s, 8)
    svd = np.linalg.cond(M)
    bound = 2e-8 if np.any(s[1:] / s[:-1] > 0.99) else 1e-10
    assert np.max(np.abs(_condition_number(M) / svd - 1)) <= bound


@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
def test_adjugate_solve_is_numpy_solve(m, seed, log_cond):
    # well-conditioned complex systems, cond <= 1e3: adj(M) b / det M is the LU
    # solve within 1e-12 cond; a repeated column makes det exactly 0, and the
    # solve is refused (not finite), whatever the other columns
    rng = np.random.default_rng(seed)
    s = np.geomspace(1.0, 10 ** -log_cond, m)
    M = _with_singular_values(rng, s, 8)
    b = rng.normal(size=(8, m)) + 1j * rng.normal(size=(8, m))
    ref = np.linalg.solve(M, b[..., None])[..., 0]
    x = cdsolver._solve_square(np.moveaxis(M, (-1, -2), (0, 1)), b.T).T
    err = np.abs(x - ref).max(axis=1) / np.abs(ref).max(axis=1)
    assert np.all(err <= 1e-12 * np.linalg.cond(M))
    j, k = rng.choice(m, 2, replace=False)
    M[..., k] = M[..., j]
    x = cdsolver._solve_square(np.moveaxis(M, (-1, -2), (0, 1)), b.T)
    assert not np.any(np.all(np.isfinite(x), axis=0))


@pytest.mark.parametrize("s", [(1.0, 1.0, 1e-2), (1.0, 1e-2, 1e-2), (1.0, 1.0, 1e-6),
                               (1.0, 1.0, 1.0)])
def test_condition_number_where_singular_values_coincide(s):
    # the trigonometric form's worst case: a double largest eigenvalue of
    # the Gram matrix of M (s1 = s2) or of adj M (s2 = s3)
    M = _with_singular_values(np.random.default_rng(0), s, 500)
    assert np.max(np.abs(_condition_number(M) / np.linalg.cond(M) - 1)) <= 2e-8


def test_exactly_singular_systems_have_infinite_cond():
    rng = np.random.default_rng(1)
    for m in (2, 3):
        base = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        cases = [np.zeros((m, m))]
        for j in range(m):
            cases.append(base.copy())
            cases[-1][:, j] = 0
            for k in set(range(m)) - {j}:
                cases.append(base.copy())
                cases[-1][:, k] = base[:, j]
        assert np.all(np.isinf(_condition_number(np.stack(cases)))), m
        # rank deficient to rounding: the cofactor expansion a.(b x c)
        # would rate most rank-1 3x3 matrices well conditioned
        u, v = rng.normal(size=(2, 1000, m)) + 1j * rng.normal(size=(2, 1000, m))
        deficient = [u[:, :, None] * v[:, None, :]]
        if m == 3:
            deficient.append(np.stack([u, v, 0.3 * u - 0.7j * v], axis=-1))
        for M in deficient:
            assert np.all(_condition_number(M) > 1e14), m


def test_repeated_coefficient_is_singular_with_infinite_cond(qa_model):
    R = np.array([2.0, 5.0])
    _, C, _, rhs = models.tracked_state(qa_model, R, (0, 0))
    rows = qa_model.sector_rows[0]
    k, j = COEFF_NAMES.index("W2"), COEFF_NAMES.index("Bz")
    idx = np.array([[k, k, j], [j, k, j]])
    _, reason, cond, max_imag, _ = _accept(qa_model, idx, C, rhs, rows)
    assert np.all(np.isinf(cond))
    assert np.all(reason == REASONS.index("singular"))
    assert np.all(np.isnan(max_imag))


def test_system_just_above_cond_max_is_singular(qa_model, monkeypatch):
    rng = np.random.default_rng(2)
    cond_max = COND_MAX
    for factor in (1.01, 0.99):
        M = _with_singular_values(rng, [1.0, 0.3, 1 / (factor * cond_max)], 50)
        cond = _condition_number(M)
        assert np.max(np.abs(cond / (factor * cond_max) - 1)) <= 1e-4
        assert np.all((cond > cond_max) == (factor > 1))
    # on the qa states: the worst-conditioned selection at R = 5, with
    # COND_MAX just below and just above its cond
    grid = solve_grid(qa_model, [5.0], admissible_selections(qa_model))
    s = int(np.argmax(grid.cond[0]))
    assert grid.reason[0, s] == 0
    for factor, reason in ((1 - 1e-9, "singular"), (1 + 1e-9, "")):
        monkeypatch.setattr(cdsolver, "COND_MAX", grid.cond[0, s] * factor)
        one = solve_grid(qa_model, [5.0], [grid.selections[s]])
        assert REASONS[one.reason[0, 0]] == reason


@pytest.mark.parametrize("preset", ["gen", "qa", "tfim"])
def test_preset_grid_cond_is_the_svd_cond(preset, monkeypatch):
    config = load_preset(preset)
    R = enumeration_grid(config.schedule, config.grid)
    pair = level(config.model, config.schedule.R0, config.state)
    grid = enumerate_grid(config.model, R, pair)
    names, basis = config.model.ansatz
    idx = np.array([[names.index(name) for name in sel] for sel in grid.selections])
    rows = list(config.model.sector_rows[pair[0]])
    # the (N, S, rows, m) reduced matrices (B_k C)[rows], built here by einsum
    svd = np.linalg.cond(np.einsum("skab,nb->nsak", basis[idx][:, :, rows], grid.state))
    moderate = svd <= 1e8
    assert moderate.any()
    np.testing.assert_allclose(grid.cond[moderate], svd[moderate], rtol=1e-12, atol=0)
    assert np.all(grid.cond[~moderate] > COND_MAX)
    # the filter with the SVD cond in its place keeps every reason and group
    monkeypatch.setattr(cdsolver, "_condition_number", lambda M, U=None: np.linalg.cond(M))
    ref = enumerate_grid(config.model, R, pair)
    for name in ("reason", "group_id", "coefficients", "max_imag", "residual"):
        np.testing.assert_array_equal(getattr(grid, name), getattr(ref, name), err_msg=name)


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
        H = matrices_from_rows([x], BASIS)[0]
        assert np.linalg.norm(H @ C - rhs) < 1e-10


def test_gen_dense_action_matches_drb_but_matrix_differs(gen_model):
    R = 12.5
    H_drb = drb_counterdiabatic(gen_model, R)
    H_sol = matrices_from_rows([solve_dense(gen_model, R)[0]], BASIS)[0]
    C, _ = state_and_derivative(gen_model, R, 0)
    assert np.linalg.norm((H_drb - H_sol) @ C) < 1e-9
    assert np.max(np.abs(H_drb - H_sol)) > 1e-3


def test_qa_drb_action_matches_but_matrix_differs(qa_model):
    R = 5.0
    res = solve_selection(reduce_system(qa_model, R, 0, ("W2", "By", "Bz")))
    H_sol = matrices_from_rows([res.coefficients], BASIS)[0]
    H_drb = drb_counterdiabatic(qa_model, R)
    C, _ = state_and_derivative(qa_model, R, 0)
    assert np.linalg.norm((H_drb - H_sol) @ C) < 1e-9
    assert np.max(np.abs(H_drb - H_sol)) > 1e-3


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
    # one closed-form block eigensolve per sector, each over the one point
    calls = []
    solve = models.block_eigh

    def counting(H):
        calls.append(H.shape)
        return solve(H)

    monkeypatch.setattr(models, "block_eigh", counting)
    model = ModelSpec.gen()
    drb_counterdiabatic(model, 7.7)
    assert calls == [(P.shape[1], P.shape[1], 1) for P in model.sectors]


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
    # drb_counterdiabatic at one R, as written before it took R arrays, on
    # numpy's eigensolve of the whole Hamiltonian
    w, V = np.linalg.eigh(hamiltonian(model, R))
    denom = w[None, :] - w[:, None]
    assert np.min(np.abs(denom[~np.eye(model.dim, dtype=bool)])) >= models.GAP_MIN
    np.fill_diagonal(denom, 1.0)
    K = 1j * (np.conj(V.T) @ model.slope_matrix @ V) / denom
    np.fill_diagonal(K, 0.0)
    H = V @ K @ np.conj(V.T)
    return 0.5 * (H + H.conj().T)


def _min_norm_at_point(model, R, n, basis):
    # the minimum-norm solve at one R on the path's sector rows as the Gram
    # solve x = M^T (M M^T + n n^T)^-1 r, with the rows' left null vector n
    # where the ansatz maps the sector into itself, and its full-row residual
    sector, _ = pair = level(model, R, n)
    _, C, _, rhs = models.tracked_state(model, np.array([float(R)]), pair)
    rows, C, rhs = list(model.sector_rows[sector]), C[0], rhs[0]
    A = np.einsum("kab,b->ak", basis, C)[rows]
    M = np.concatenate([A.real, A.imag])
    G = M @ M.T
    P = model.sectors[sector]
    if all(np.abs(Q.T @ basis @ P).max() <= 1e-10 for Q in model.sectors if Q is not P):
        w = (P != 0).sum(axis=0)
        null = np.concatenate([-w * C[rows].imag, w * C[rows].real])
        assert np.abs(null @ M).max() <= 1e-14
        G += np.outer(null, null)
    x = M.T @ np.linalg.solve(G, np.concatenate([rhs[rows].real, rhs[rows].imag]))
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


def test_qa_drb_where_the_singlet_meets_the_triplet_solves_every_level():
    # at R = 10 (Bx = 0) the singlet meets the top triplet level, and at 9.9999 it
    # is 5e-9 from it; they never couple, and no two levels of one sector are
    # near: the operator exists and solves the defining equation of every level
    model = ModelSpec.qa()
    R = np.array([9.9999, 10.0])
    H = drb_counterdiabatic(model, R)
    for s, P in enumerate(model.sectors):
        for j in range(P.shape[1]):
            _, C, _, rhs = models.tracked_state(model, R, (s, j))
            assert np.abs(np.einsum("kab,kb->ka", H, C) - rhs).max() <= 1e-10, (s, j)


def test_zero_field_qa_spectrum_is_exact_and_its_drb_is_a_degeneracy():
    # H = -J s1z s2z: a double root inside the triplet block and one across
    # the sectors; the eigensolve is right, and DRB refuses only the gap
    model = ModelSpec.qa(j=1.24, bz=0.0, b0=0.0)
    w, _ = models.eigensystem_batch(model, [0.0])
    np.testing.assert_allclose(w, [[-1.24, -1.24, 1.24, 1.24]], rtol=1e-15, atol=0)
    with pytest.raises(DegeneracyError, match=r"gap 0\.000e\+00 at R=0\.0 "):
        drb_counterdiabatic(model, 0.0)


@pytest.mark.parametrize("kind, n", [("lz", 1), ("lz", 0), ("qa", 0), ("gen", 0), ("gen", 2)])
def test_min_norm_grid_solve_is_the_per_point_solve(kind, n):
    model, R = GRIDS[kind]
    basis = model.ansatz[1]
    pair = level(model, R[0], n)
    x, residual = _min_norm_solve(model, R, pair)
    assert x.shape == (len(R), len(basis)) and residual.shape == R.shape
    for k, r in enumerate(R.tolist()):
        x_k, residual_k = _min_norm_at_point(model, r, n, basis)
        np.testing.assert_allclose(x[k], x_k, rtol=0, atol=1e-15 * max(1.0, np.abs(x_k).max()))
        assert abs(residual[k] - residual_k) < 1e-15
        # each point has the bits it has alone
        x_1, residual_1 = _min_norm_solve(model, R[k : k + 1], pair)
        assert x_1[0].tolist() == x[k].tolist() and residual_1[0] == residual[k]
        # solve_lz and solve_dense are the one-point case
        if model.dim == 2:
            x_1, residual_1 = solve_lz(model, r, n)
            assert [*x_1, residual_1] == [*x[k], residual[k]]
        else:
            x_1, residual_1 = solve_dense(model, r, n)
            assert x_1.tolist() == x[k].tolist()
            assert residual_1 == residual[k]


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in sorted(GRIDS)
                                     for n in range(GRIDS[kind][0].dim)])
def test_min_norm_path_is_the_full_row_min_norm_solve(kind, n):
    # the path solves the sector's rows only; its x is the minimum-norm
    # solution of all the rows, and solves them within RESIDUAL_TOL
    model, R = GRIDS[kind]
    basis = model.ansatz[1]
    pair = level(model, R[0], n)
    _, C, _, rhs = models.tracked_state(model, R, pair)
    x = CoefficientPath(model, None, pair).values(R)
    for k in range(len(R)):
        A = np.einsum("kab,b->ak", basis, C[k])
        M = np.concatenate([A.real, A.imag])
        ref = np.linalg.pinv(M, rcond=1e-8) @ np.concatenate([rhs[k].real, rhs[k].imag])
        assert np.max(np.abs(x[k] - ref)) <= 1e-14 * max(1.0, np.linalg.norm(x[k])), R[k]
        residual = np.linalg.norm(matrices_from_rows([x[k]], basis)[0] @ C[k] - rhs[k])
        assert residual <= cdsolver.RESIDUAL_TOL, R[k]


def test_min_norm_refuses_an_ill_conditioned_gram_matrix(qa_model):
    # without their left null vector the triplet rows' Gram matrix M M^T is
    # singular (rank 5 of 6): the minimum-norm solve refuses, naming the first R
    path = CoefficientPath(qa_model, "dense")
    R = np.array([2.0, 5.0])
    path.values(R)
    path.weights = None
    with pytest.raises(ConsistencyError, match=r"Gram matrix .* at R=2\.0$"):
        path.values(R)


@pytest.mark.parametrize("preset, n", [(name, n) for name in ("gen", "lz", "qa", "tfim")
                                       for n in range(load_preset(name).model.dim)])
def test_min_norm_values_over_a_grid_are_the_point_values(preset, n):
    # on solve-cd's grid, each point's coefficients round alike whatever else
    # shares the batch, and a zero coefficient is +0.0 (CSVs would print -0.0)
    config = load_preset(preset)
    R = enumeration_grid(config.schedule, config.grid)
    path = CoefficientPath(config.model, None, level(config.model, config.schedule.R0, n))
    x = path.values(R)
    assert not np.any(np.signbit(x) & (x == 0))
    for k in range(len(R)):
        assert np.array_equal(path.values(R[k : k + 1])[0], x[k]), R[k]


def test_a_registered_kind_solves_through_its_own_ansatz_table(monkeypatch):
    # a throwaway kind: the two-level Hamiltonian with its own two-operator
    # ansatz (sx, sy); nothing but the tables names it
    sx, sy, sz = (models.ANSATZ["lz"][name] for name in ("ReH12", "ImH12", "H11"))
    operators = {"Bz": sz / 2, "Delta": sx / 2}
    monkeypatch.setitem(models.OPERATORS, "toy", operators)
    monkeypatch.setitem(models.ANSATZ, "toy", {"X": sx, "Y": sy})
    monkeypatch.setitem(models.REQUIRED_COUPLINGS, "toy", tuple(operators))
    monkeypatch.setitem(models.SECTORS, "toy", models._sectors(np.array(list(operators.values()))))
    model = ModelSpec("toy", constants={"Delta": 1.0}, schedule_map={"Bz": (0.0, 1.0)})
    R = np.linspace(-3.0, 3.0, 7)
    for n in (0, 1):
        pair = level(model, R[0], n)
        dense = CoefficientPath(model, None, pair)
        square = CoefficientPath(model, ("Y", "X"), pair)
        assert dense.names == square.names == ("X", "Y")
        x = dense.values(R)
        np.testing.assert_allclose(square.values(R), x, rtol=0, atol=1e-12)
        # the two-level term is state independent: sy alone, the DRB operator
        assert np.abs(x[:, 0]).max() <= 1e-12
        np.testing.assert_allclose(dense.matrices(R), drb_counterdiabatic(model, R),
                                   rtol=0, atol=1e-12)
    with pytest.raises(ConfigError, match="unknown ansatz coefficient.* H11 .*has X,Y"):
        CoefficientPath(model, ("H11", "Y"))


def test_min_norm_grid_solve_refuses_a_large_residual(monkeypatch):
    model, R = GRIDS["gen"]
    monkeypatch.setattr(cdsolver, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(ConsistencyError, match="minimum-norm solve left residual .* at R="):
        _min_norm_solve(model, R, (0, 0))


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
    expect = (hamiltonian(qa_model, R)
              + 2 * qa_schedule.v_bar * matrices_from_rows([res.coefficients], BASIS)[0])
    got = fast_forward_hamiltonian(qa_model, qa_schedule, ("W2", "By", "Bz"), t)
    assert np.max(np.abs(got - expect)) < 1e-8


def test_coefficient_path_matches_pointwise(qa_model, lz_model, tfim_model, gen_model):
    Rs = np.array([2.0, 5.0, 8.0])
    cases = [(qa_model, ("W2", "By", "Bz")), (tfim_model, ("J3", "W2"))]
    for model, sel in cases:
        vals = CoefficientPath(model, sel).values(Rs)
        for i, R in enumerate(Rs):
            res = solve_selection(reduce_system(model, float(R), 0, sel))
            expect = [res.coefficients[COEFF_NAMES.index(n)] for n in sel]
            assert np.max(np.abs(vals[i] - expect)) < 1e-10, (model.kind, R)
    vals = CoefficientPath(lz_model, None).values(Rs)
    for i, R in enumerate(Rs):
        expect, _ = solve_lz(lz_model, float(R), n=0)
        assert np.max(np.abs(vals[i] - expect)) < 1e-10, ("lz", R)
    vals = CoefficientPath(gen_model, "dense").values(Rs)
    for i, R in enumerate(Rs):
        expect, _ = solve_dense(gen_model, float(R))
        assert np.max(np.abs(vals[i] - expect)) < 1e-10, ("gen", R)
