"""Acceptance criteria, one test per criterion (split where parts differ).

Each check prints an `ACCEPTANCE n [label]: PASS/FAIL` line (visible with
pytest -s, or in the failure output otherwise).

The two entanglement-generation targets are derived here without using
spinff's own numbers:

* criterion 2 (terminal populations): at the endpoint Bz = 0 the
  swap-symmetric ground state lives in the two-level block that pairs
  T0 = (|ud> + |du>)/sqrt(2) (energy -J) with the field-aligned
  combination of |uu> and |dd> (energy +J), coupled by
  B_perp = sqrt(Bx^2 + By^2).  Hence
  |C2|^2 = |C3|^2 = (1 + J/sqrt(J^2 + B_perp^2))/4 and
  |C1|^2 = |C4|^2 = (1 - J/sqrt(J^2 + B_perp^2))/4; the idealized 1/2 is
  only the J -> infinity limit (0.496183 at J = 8, Bx = By = 1).
* criterion 3 (entanglement-generation solution count): an independent
  census takes C from numpy's eigh and the right-hand side from the
  spectral formula i sum_{m != n} |m><m|dH/dR|n>/(E_n - E_m) (Berry,
  J. Phys. A 42, 365303 (2009)), then asks for each of the eighty-four
  three-coefficient subsets whether the real 8x3 least-squares system of
  all four rows has a solution.  With Bx = By none has one (best residual
  ~5e-3), so the enumeration must accept none either; the dense
  minimum-norm solution over all nine couplings is real and exact, which
  is what the bundled run uses.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from spinff import (
    ModelSpec,
    Schedule,
    ansatz_matrix,
    drb_counterdiabatic,
    enumerate_grid,
    enumerate_solutions,
    evolve,
    ff_state_residual,
    reduce_system,
    solve_dense,
    solve_lz,
    solve_selection,
    verify_table,
)
from spinff.ansatz import COEFF_NAMES, LZ_BASIS, matrices_from_rows
from spinff.cdsolver import DEFAULT_TOL, enumeration_grid
from spinff.models import state_and_derivative
from spinff.propagator import _phases
from spinff.tables import lz_h12_imag, tfim_polar_rate, tfim_w2

QA_MODEL = ModelSpec.qa(j=1.0, bz=0.1, b0=10.0)
QA_SCHED = Schedule(0.0, 100.0, 0.1)
QA_SELECTION = ("W2", "By", "Bz")
GEN_J, GEN_BX, GEN_BY, GEN_B0 = 8.0, 1.0, 1.0, 25.0      # Bz = GEN_B0 - R
GEN_MODEL = ModelSpec.gen(j=GEN_J, bx=GEN_BX, by=GEN_BY, b0=GEN_B0)
GEN_SCHED = Schedule(0.0, 250.0, 0.1)
TFIM_MODEL = ModelSpec.tfim(j=(0.5, 0.0), bx=(3.0, -1.0))
TFIM_SCHED = Schedule(0.0, 20.0, 0.1)
LZ_MODEL = ModelSpec.lz(delta=1.0)
LZ_SCHED = Schedule(-5.0, 100.0, 0.1)

RUNTIME_LIMIT = 10.0


# Two-spin operators built from Pauli matrices in the |uu>, |ud>, |du>, |dd>
# basis, independently of spinff.ansatz; names follow the ansatz docstring.
_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _pair(a, b):
    return np.kron(_PAULI[a], _PAULI[b])


def _uniform(a):
    return 0.5 * (np.kron(_PAULI[a], np.eye(2)) + np.kron(np.eye(2), _PAULI[a]))


ORACLE_OPS = {
    "J1": _pair("x", "x"),
    "J2": _pair("y", "y"),
    "J3": _pair("z", "z"),
    "W1": _pair("x", "y") + _pair("y", "x"),
    "W2": _pair("y", "z") + _pair("z", "y"),
    "W3": _pair("z", "x") + _pair("x", "z"),
    "Bx": _uniform("x"),
    "By": _uniform("y"),
    "Bz": _uniform("z"),
}


def gen_oracle_state(R):
    """Ground-state eigenvector and i(1 - |C><C|) dC/dR of the gen model.

    C comes from a dense eigensolve of H = J z1z2 + B.(s1 + s2)/2 with
    Bz = GEN_B0 - R; the right-hand side from the spectral formula with
    dH/dR = -(z1 + z2)/2, so no finite-difference stencil is involved.
    """
    H = (GEN_J * ORACLE_OPS["J3"] + GEN_BX * ORACLE_OPS["Bx"]
         + GEN_BY * ORACLE_OPS["By"] + (GEN_B0 - R) * ORACLE_OPS["Bz"])
    dH = -ORACLE_OPS["Bz"]
    E, V = np.linalg.eigh(H)
    C = V[:, 0]
    rhs = 1j * sum(V[:, m] * (V[:, m].conj() @ dH @ C) / (E[0] - E[m])
                   for m in range(1, 4))
    return C, rhs


def real_lstsq_residual(names, C, rhs):
    """Residual of the best real combination of `names` against rhs.

    Stacks real and imaginary parts of all four rows into a real 8 x k
    least-squares problem, so rank-deficient subsets are covered too.
    """
    cols = np.array([ORACLE_OPS[name] @ C for name in names]).T
    A = np.vstack([cols.real, cols.imag])
    b = np.concatenate([rhs.real, rhs.imag])
    x = np.linalg.lstsq(A, b, rcond=None)[0]
    return float(np.linalg.norm(A @ x - b))


def report(criterion, label, ok, detail):
    line = f"ACCEPTANCE {criterion} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def qa_run():
    start = time.perf_counter()
    traj = evolve(QA_MODEL, QA_SCHED, QA_SELECTION)  # default: steps from the error estimate
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def qa_run_half_step():
    return evolve(QA_MODEL, QA_SCHED, QA_SELECTION, dt=QA_SCHED.T_FF / 200_000)


@pytest.fixture(scope="module")
def gen_run():
    start = time.perf_counter()
    traj = evolve(GEN_MODEL, GEN_SCHED, "dense")
    return traj, time.perf_counter() - start


@pytest.fixture(scope="module")
def qa_grid():
    return enumeration_grid(QA_SCHED, 50)


# --------------------------------------------------------------------------
# criterion 1: annealing experiment reproduction

def test_criterion_1_qa_experiment(qa_run):
    traj, runtime = qa_run
    reference = np.array([0.5300, 0.4744, 0.4744, 0.5184])
    amp_err = float(np.max(np.abs(traj.psi[0].real - reference)))
    min_fid = traj.min_fidelity
    p1 = float(traj.terminal_populations[0])
    ok = amp_err < 1e-4 and min_fid >= 1 - 1e-6 and p1 >= 0.999 and runtime < RUNTIME_LIMIT
    line = report(1, "qa experiment", ok,
                  f"amp_err={amp_err:.2e} (<1e-4), 1-min_fid={1 - min_fid:.2e} "
                  f"(<1e-6), terminal |C1|^2={p1:.6f} (>=0.999), "
                  f"runtime={runtime:.1f}s (<10s)")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 2: entanglement-generation reproduction

def test_criterion_2_gen_fidelity_and_runtime(gen_run):
    traj, runtime = gen_run
    min_fid = traj.min_fidelity
    p4_initial = float(traj.populations[0][3])
    ok = min_fid >= 1 - 1e-6 and runtime < RUNTIME_LIMIT
    line = report(2, "gen fidelity", ok,
                  f"1-min_fid={1 - min_fid:.2e} (<1e-6), runtime={runtime:.1f}s "
                  f"(<10s); initial |C4|^2={p4_initial:.4f}")
    assert ok, line


def test_criterion_2_gen_terminal_populations(gen_run):
    traj, _ = gen_run
    p = traj.terminal_populations
    b_perp2 = GEN_BX**2 + GEN_BY**2
    c = GEN_J / np.sqrt(GEN_J**2 + b_perp2)
    expected = np.array([1 - c, 1 + c, 1 + c, 1 - c]) / 4
    dev = float(np.max(np.abs(p - expected)))
    ok = dev <= 1e-8
    line = report(
        2, "gen terminal populations", ok,
        f"|C_j|^2={np.array2string(p, precision=6)}, closed form "
        f"(1 -/+ J/sqrt(J^2+Bx^2+By^2))/4 = "
        f"{np.array2string(expected, precision=6)} at J={GEN_J}, "
        f"Bx={GEN_BX}, By={GEN_BY}, Bz=0; max deviation {dev:.2e} (<=1e-8)"
    )
    assert ok, line


# --------------------------------------------------------------------------
# criterion 3: solution counts and degeneracy

def test_criterion_3_qa_counts(qa_grid):
    grid = enumerate_grid(QA_MODEL, qa_grid)
    counts = set(grid.accepted_counts)
    groups = set(grid.group_counts)
    ok = counts == {18} and groups == {3} and grid.partition_consistent
    line = report(3, "qa counts", ok,
                  f"accepted per point {sorted(counts)} (=18), groups "
                  f"{sorted(groups)} (=3), partition consistent "
                  f"{grid.partition_consistent}, 50-point grid")
    assert ok, line


def test_criterion_3_tfim_counts():
    grid = enumerate_grid(TFIM_MODEL, enumeration_grid(TFIM_SCHED, 50))
    counts = set(grid.accepted_counts)
    groups = set(grid.group_counts)
    ok = counts == {4} and groups == {1} and grid.partition_consistent
    line = report(3, "tfim counts", ok,
                  f"accepted per point {sorted(counts)} (=4), groups "
                  f"{sorted(groups)} (=1)")
    assert ok, line


def test_criterion_3_gen_count():
    R = 12.5
    tol = DEFAULT_TOL.residual_tol
    C, rhs = gen_oracle_state(R)
    census = {
        sel: real_lstsq_residual(sel, C, rhs)
        for sel in combinations(ORACLE_OPS, 3)
    }
    census_set = {sel for sel, res in census.items() if res <= tol}
    grid = enumerate_solutions(GEN_MODEL, R)
    accepted = {sel for sel, code in zip(grid.selections, grid.reason[0]) if code == 0}
    dense = dict(zip(COEFF_NAMES, solve_dense(GEN_MODEL, R)[0]))
    dense_residual = float(np.linalg.norm(
        sum(dense[name] * op for name, op in ORACLE_OPS.items()) @ C - rhs))
    closest = ", ".join(
        f"{'+'.join(sel)} ({res:.1e})"
        for sel, res in sorted(census.items(), key=lambda kv: kv[1])[:2]
    )
    ok = accepted == census_set and not census_set and dense_residual < tol
    line = report(
        3, "gen count", ok,
        f"enumeration accepts {sorted(accepted)}, eigh/spectral census of "
        f"84 real 8x3 systems accepts {sorted(census_set)} (both must be "
        f"empty for Bx=By); closest selections {closest} against "
        f"residual_tol={tol:.0e}; dense solution residual against the "
        f"census state {dense_residual:.2e} (<{tol:.0e})"
    )
    assert ok, line


# --------------------------------------------------------------------------
# criterion 4: closed-form table verification

def test_criterion_4_table(qa_grid):
    verification = verify_table(QA_MODEL, qa_grid)
    worst = max(e.max_residual for e in verification.entries)
    gids = [e.group_id for e in verification.entries]
    layout_ok = (
        gids[:6] == [gids[0]] * 6
        and gids[6:12] == [gids[6]] * 6
        and gids[12:] == [gids[12]] * 6
        and len(set(gids)) == 3
    )
    ok = verification.passed and layout_ok
    line = report(4, "table", ok,
                  f"max residual {worst:.2e} (<1e-9) over 18 entries x 50 R, "
                  f"groups match enumeration: {verification.groups_match_enumeration}")
    assert ok, line


# --------------------------------------------------------------------------
# criterion 5: closed-form oracles and state-independence

def test_criterion_5_closed_form_oracles():
    worst_lz = 0.0
    for R in enumeration_grid(LZ_SCHED, 9):
        x, _ = solve_lz(LZ_MODEL, float(R))
        h11, re_h12, im_h12 = x
        worst_lz = max(worst_lz, abs(im_h12 - lz_h12_imag(LZ_MODEL, float(R))),
                       abs(re_h12), abs(h11))
        H = drb_counterdiabatic(LZ_MODEL, float(R))
        worst_lz = max(worst_lz, float(np.max(np.abs(
            H - matrices_from_rows([x], LZ_BASIS)[0]))))

    worst_w2, worst_polar, worst_drb = 0.0, 0.0, 0.0
    for R in enumeration_grid(TFIM_SCHED, 9):
        res = solve_selection(reduce_system(TFIM_MODEL, float(R), 0, ("J3", "W2")))
        w2 = res.coefficients["W2"]
        worst_w2 = max(worst_w2, abs(w2 - tfim_w2(TFIM_MODEL, float(R))))
        worst_polar = max(worst_polar, abs(w2 - tfim_polar_rate(TFIM_MODEL, float(R))))
        H = drb_counterdiabatic(TFIM_MODEL, float(R))
        worst_drb = max(worst_drb, float(np.max(np.abs(
            H - ansatz_matrix(res.coefficients)))))

    ok = worst_lz < 1e-10 and worst_w2 < 1e-10 and worst_polar < 1e-9 \
        and worst_drb < 1e-10
    line = report(5, "closed forms", ok,
                  f"lz vs i*Delta/(2Q^2) and DRB: {worst_lz:.2e} (<1e-10); "
                  f"tfim W2 closed form: {worst_w2:.2e} (<1e-10); polar "
                  f"identity: {worst_polar:.2e} (<1e-9); tfim DRB equality: "
                  f"{worst_drb:.2e} (<1e-10)")
    assert ok, line


def test_criterion_5_state_dependent_actions():
    def qa_solution(R):
        res = solve_selection(reduce_system(QA_MODEL, R, 0, QA_SELECTION))
        return ansatz_matrix(res.coefficients)

    def gen_solution(R):
        return ansatz_matrix(solve_dense(GEN_MODEL, R)[0])

    details = []
    ok = True
    for label, model, sched, solution in (
        ("qa", QA_MODEL, QA_SCHED, qa_solution),
        ("gen", GEN_MODEL, GEN_SCHED, gen_solution),
    ):
        worst_action = 0.0
        for R in enumeration_grid(sched, 5):
            C, _ = state_and_derivative(model, float(R), 0)
            H = drb_counterdiabatic(model, float(R))
            worst_action = max(worst_action,
                               float(np.linalg.norm((H - solution(float(R))) @ C)))
        R_mid = sched.R0 + 0.5 * sched.v_bar * sched.T_FF
        gap = float(np.max(np.abs(drb_counterdiabatic(model, R_mid)
                                  - solution(R_mid))))
        ok = ok and worst_action < 1e-9 and gap > 1e-3
        details.append(f"{label}: action err {worst_action:.2e} (<1e-9), "
                       f"matrix gap {gap:.2e} (>1e-3)")
    line = report(5, "state-dependent actions", ok, "; ".join(details))
    assert ok, line


# --------------------------------------------------------------------------
# criterion 6: fast-forward state residual

def test_criterion_6_ff_residual():
    cases = [
        ("tfim", TFIM_MODEL, TFIM_SCHED, ("J3", "W2")),
        ("qa", QA_MODEL, QA_SCHED, QA_SELECTION),
        ("gen", GEN_MODEL, GEN_SCHED, "dense"),
    ]
    details = []
    ok = True
    for label, model, sched, solution in cases:
        worst_abs, worst_ratio = 0.0, (np.inf, 0.0)
        for frac in (0.25, 0.5, 0.75):
            t = frac * sched.T_FF
            r_abs = ff_state_residual(model, sched, solution, 0, t, 1e-6)
            worst_abs = max(worst_abs, r_abs)
            r1 = ff_state_residual(model, sched, solution, 0, t, 1e-4)
            r2 = ff_state_residual(model, sched, solution, 0, t, 5e-5)
            ratio = r1 / r2
            worst_ratio = (min(worst_ratio[0], ratio), max(worst_ratio[1], ratio))
        ok = ok and worst_abs < 1e-6 and 3.0 < worst_ratio[0] and worst_ratio[1] < 5.0
        details.append(f"{label}: residual(1e-6)={worst_abs:.2e} (<1e-6), "
                       f"halving ratio in [{worst_ratio[0]:.2f}, {worst_ratio[1]:.2f}]"
                       f" (~4)")
    line = report(6, "ff-state residual", ok, "; ".join(details))
    assert ok, line


# --------------------------------------------------------------------------
# criterion 7: numerical hygiene

def test_criterion_7_hygiene(qa_run, qa_run_half_step):
    traj, _ = qa_run
    half = qa_run_half_step
    drift = traj.max_norm_drift
    terminal_gap = float(np.max(np.abs(traj.psi[-1] - half.psi[-1])))
    xi = {
        "lz": abs(_phases(LZ_MODEL, LZ_SCHED, 0, [LZ_SCHED.T_FF])[0, 0]),
        "tfim": abs(_phases(TFIM_MODEL, TFIM_SCHED, 0, [TFIM_SCHED.T_FF])[0, 0]),
        "qa": abs(_phases(QA_MODEL, QA_SCHED, 0, [QA_SCHED.T_FF])[0, 0]),
    }
    worst_xi = max(xi.values())
    ok = drift < 1e-8 and terminal_gap < 1e-8 and worst_xi < 1e-8
    line = report(7, "hygiene", ok,
                  f"norm drift {drift:.2e} (<1e-8) at default dt, step-halving "
                  f"terminal change {terminal_gap:.2e} (<1e-8), accumulated "
                  f"adiabatic phase max {worst_xi:.2e} (<1e-8) for lz/tfim/qa")
    assert ok, line
