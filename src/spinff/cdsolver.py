"""Solver for state-dependent regularization terms under the two-spin ansatz.

The defining linear problem for the tracked eigenvector C(R) reads

    Htilde C = i dC/dR - i (C^dag dC/dR) C        (hbar = 1)

with Htilde restricted to the nine-coefficient ansatz.  The two-spin
models share the swap symmetry C2 = C3, which makes the middle rows of
the 4x4 problem degenerate; the transverse Ising model additionally has
C1 = C4.  A *selection* picks which ansatz coefficients stay free (the
rest pinned to zero) so the reduced system becomes square.  Solutions are
accepted only when the reduced matrix is regular and every solved
coefficient is real; the survivors cluster into degenerate groups.

Sparse selections do not exhaust the solution set: the full nine-variable
problem is rank deficient and carries a multi-parameter family of real
solutions (the state-independent counter-diabatic operator is one member
whenever it fits the ansatz).  ``solve_dense`` returns the minimum-norm
member of that family, which is what the entanglement-generation model
needs: with a transverse field of generic orientation none of its sparse
selections is real, see acceptance criterion 3 and the README note on the
entanglement-generation model.
"""

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import models
from .ansatz import (
    ANTISYM_BASIS,
    ANTISYM_NAMES,
    BASIS,
    COEFF_NAMES,
    IMAG_NAMES,
    REAL_NAMES,
    AnsatzCoefficients,
    ansatz_matrix,
    matrices_from_rows,
)
from .errors import ConfigError, ConsistencyError, DegeneracyError
from .schedule import advanced_parameter, velocity

SYMMETRY_TOL = 1e-10
DRB_DIAG_TOL = 1e-10
DENSE_RCOND = 1e-8
VELOCITY_EPS = 1e-12   # relative threshold below which v(t) counts as zero


@dataclass(frozen=True)
class SolverTolerances:
    cond_max: float = 1e10
    imag_tol: float = 1e-9
    residual_tol: float = 1e-10
    group_tol: float = 1e-8


DEFAULT_TOL = SolverTolerances()


@dataclass(frozen=True)
class ReducedSystem:
    coefficient_matrix: np.ndarray   # (m, k) complex
    rhs: np.ndarray                  # (m,) complex
    unknown_names: tuple
    state_index: int
    state_vector: np.ndarray         # full C, for residual recomputation
    rhs_full: np.ndarray             # full 4-component right-hand side
    merged_rows: tuple


@dataclass(frozen=True)
class CDSolution:
    coefficients: AnsatzCoefficients
    residual: float
    group_id: int = -1

    @property
    def selection(self):
        return self.coefficients.selection


@dataclass(frozen=True)
class SelectionResult:
    selection: tuple
    accepted: bool
    reason: str = ""                # "", "singular", "not_real", "residual"
    solution: CDSolution = None
    cond: float = np.nan
    max_imag: float = np.nan
    residual: float = np.nan


@dataclass(frozen=True)
class EnumerationReport:
    model_kind: str
    R: float
    state_index: int
    results: tuple                   # SelectionResult per admissible selection
    groups: tuple                    # one representative 9-vector per group

    @property
    def accepted(self):
        return tuple(r for r in self.results if r.accepted)

    @property
    def n_accepted(self):
        return len(self.accepted)

    @property
    def n_groups(self):
        return len(self.groups)


def _state_rhs(model, R, n):
    """Tracked state C and i dC/dR - i (C^dag dC/dR) C at scalar R."""
    C, dC = models.state_and_derivative(model, R, n)
    return C, 1j * dC - 1j * np.vdot(C, dC) * C


def rhs_vector(model, R, n):
    """i dC/dR - i (C^dag dC/dR) C for the tracked state; orthogonal to C."""
    return _state_rhs(model, R, n)[1]


def _merged_rows(model):
    if model.kind == "tfim":
        return (0, 1)
    return (0, 1, 3)


def _selection_indices(selection):
    try:
        idx = [COEFF_NAMES.index(name) for name in selection]
    except ValueError as exc:
        raise ConfigError(f"unknown ansatz coefficient in {selection}") from exc
    if len(set(idx)) != len(idx):
        raise ConfigError(f"repeated coefficient in selection {selection}")
    return idx


def canonical_selection(selection):
    """Selection tuple ordered by the ansatz name order."""
    idx = _selection_indices(selection)
    return tuple(COEFF_NAMES[i] for i in sorted(idx))


def _check_merged_rows(model, R, C, rhs_full):
    """Raise ConsistencyError unless the rows the reduction merges coincide."""
    if abs(C[1] - C[2]) > SYMMETRY_TOL:
        raise ConsistencyError(f"C2 != C3 at R={R}: {abs(C[1] - C[2]):.3e}")
    if abs(rhs_full[1] - rhs_full[2]) > SYMMETRY_TOL:
        raise ConsistencyError(
            f"degenerate middle rows differ at R={R}: "
            f"{abs(rhs_full[1] - rhs_full[2]):.3e}"
        )
    if model.kind == "tfim":
        if abs(C[0] - C[3]) > SYMMETRY_TOL:
            raise ConsistencyError(f"C1 != C4 at R={R}: {abs(C[0] - C[3]):.3e}")
        if abs(rhs_full[0] - rhs_full[3]) > SYMMETRY_TOL:
            raise ConsistencyError(
                f"degenerate outer rows differ at R={R}: "
                f"{abs(rhs_full[0] - rhs_full[3]):.3e}"
            )


def _reduced(model, n, selection, C, rhs_full):
    rows = _merged_rows(model)
    idx = _selection_indices(selection)
    if len(idx) != len(rows):
        raise ValueError(
            f"selection size {len(idx)} does not match system size {len(rows)}"
        )
    cols = (BASIS[idx] @ C)[:, list(rows)].T
    return ReducedSystem(
        coefficient_matrix=cols,
        rhs=rhs_full[list(rows)],
        unknown_names=tuple(selection),
        state_index=n,
        state_vector=C,
        rhs_full=rhs_full,
        merged_rows=rows,
    )


def reduce_system(model, R, n, selection):
    """Square reduced system for the selected free coefficients.

    Exploits the row degeneracies of the symmetric eigenvectors; raises
    ConsistencyError when the rows that must coincide do not.
    """
    if model.dim != 4:
        raise ConfigError("reduced ansatz systems exist for two-spin models only")
    C, rhs_full = _state_rhs(model, R, n)
    _check_merged_rows(model, R, C, rhs_full)
    return _reduced(model, n, selection, C, rhs_full)


def solve_selection(rs, tol=DEFAULT_TOL):
    """Solve a reduced system; accept only regular, real solutions.

    The residual is recomputed against the full (unreduced) problem.
    """
    M = rs.coefficient_matrix
    cond = float(np.linalg.cond(M))
    sel = tuple(rs.unknown_names)
    if not np.isfinite(cond) or cond > tol.cond_max:
        return SelectionResult(sel, False, "singular", cond=cond)
    x = np.linalg.solve(M, rs.rhs)
    max_imag = float(np.max(np.abs(x.imag)))
    if max_imag > tol.imag_tol:
        return SelectionResult(sel, False, "not_real", cond=cond, max_imag=max_imag)
    coeffs = AnsatzCoefficients(dict(zip(sel, x.real)), sel)
    residual = float(
        np.linalg.norm(ansatz_matrix(coeffs) @ rs.state_vector - rs.rhs_full)
    )
    if residual > tol.residual_tol:
        return SelectionResult(
            sel, False, "residual", cond=cond, max_imag=max_imag, residual=residual
        )
    return SelectionResult(
        sel,
        True,
        solution=CDSolution(coeffs, residual),
        cond=cond,
        max_imag=max_imag,
        residual=residual,
    )


def admissible_selections(model):
    """Per-model iteration domain for the selection enumeration.

    tfim: W2 paired with each real-part candidate that respects the
    C1 = C4 symmetry.  qa: two imaginary-part carriers with one real-part
    carrier.  gen: every 3-subset of the nine coefficients.
    """
    if model.kind == "tfim":
        return [canonical_selection((p, "W2")) for p in ("J1", "J2", "J3", "Bx")]
    if model.kind == "qa":
        out = []
        for pair in combinations(IMAG_NAMES, 2):
            for real_name in REAL_NAMES:
                out.append(canonical_selection(pair + (real_name,)))
        return out
    if model.kind == "gen":
        return [tuple(sel) for sel in combinations(COEFF_NAMES, 3)]
    raise ConfigError(f"enumeration is not defined for model {model.kind!r}")


def _cluster(vectors, group_tol):
    """Group indices for rows whose nonzero patterns coincide within tol."""
    reps, ids = [], []
    for v in vectors:
        for gid, rep in enumerate(reps):
            if np.max(np.abs(rep - v)) < group_tol:
                ids.append(gid)
                break
        else:
            reps.append(v)
            ids.append(len(reps) - 1)
    return ids, reps


def enumerate_solutions(model, R, n=0, tol=DEFAULT_TOL, *, state=None):
    """Solve every admissible selection at R and cluster the accepted ones.

    All selections share one tracked state and right-hand side; ``state``
    passes in that (C, rhs) pair when the caller already holds it.
    """
    selections = admissible_selections(model)
    C, rhs_full = _state_rhs(model, R, n) if state is None else state
    _check_merged_rows(model, R, C, rhs_full)
    results = []
    accepted_vectors = []
    accepted_pos = []
    for selection in selections:
        res = solve_selection(_reduced(model, n, selection, C, rhs_full), tol)
        results.append(res)
        if res.accepted:
            accepted_pos.append(len(results) - 1)
            accepted_vectors.append(res.solution.coefficients.as_array())
    ids, reps = _cluster(accepted_vectors, tol.group_tol)
    for pos, gid in zip(accepted_pos, ids):
        res = results[pos]
        results[pos] = replace(
            res, solution=replace(res.solution, group_id=gid)
        )
    return EnumerationReport(
        model_kind=model.kind,
        R=float(R),
        state_index=n,
        results=tuple(results),
        groups=tuple(reps),
    )


def enumeration_grid(schedule, count):
    """Midpoint R grid over the schedule excursion (endpoints excluded)."""
    span = schedule.v_bar * schedule.T_FF
    return schedule.R0 + span * (np.arange(count) + 0.5) / count


@dataclass(frozen=True)
class GridEnumeration:
    reports: tuple
    partition_consistent: bool

    @property
    def accepted_counts(self):
        return [r.n_accepted for r in self.reports]

    @property
    def group_counts(self):
        return [r.n_groups for r in self.reports]


def enumerate_grid(model, R_values, n=0, tol=DEFAULT_TOL):
    """Pointwise enumeration over a grid with partition-consistency check."""
    reports = [enumerate_solutions(model, R, n, tol) for R in R_values]
    consistent = True
    if reports:
        def partition(report):
            return tuple(
                (r.selection, r.solution.group_id if r.accepted else None)
                for r in report.results
            )
        first = partition(reports[0])
        consistent = all(partition(rep) == first for rep in reports[1:])
    return GridEnumeration(tuple(reports), consistent)


# ---------------------------------------------------------------------------
# dense (all-coefficient) solutions

def _dense_real_system(model, R, n, basis):
    C, rhs = _state_rhs(model, R, n)
    cols = np.array([B @ C for B in basis]).T      # (4, k)
    Mr = np.vstack([cols.real, cols.imag])          # (8, k)
    rr = np.concatenate([rhs.real, rhs.imag])
    return C, rhs, Mr, rr


def solve_dense(model, R, n=0, tol=DEFAULT_TOL):
    """Minimum-norm real solution over all nine ansatz coefficients.

    The full system is consistent (the state-independent counter-diabatic
    operator solves it within the ansatz span) but rank deficient; the
    pseudoinverse picks the smallest-coefficient member of the solution
    family.  This is the route for models whose sparse selections all fail
    the realness filter.
    """
    if model.dim != 4:
        raise ConfigError("dense ansatz solutions exist for two-spin models only")
    C, rhs, Mr, rr = _dense_real_system(model, R, n, BASIS)
    x = np.linalg.pinv(Mr, rcond=DENSE_RCOND) @ rr
    coeffs = AnsatzCoefficients(dict(zip(COEFF_NAMES, x)), COEFF_NAMES)
    residual = float(np.linalg.norm(ansatz_matrix(coeffs) @ C - rhs))
    if residual > tol.residual_tol:
        raise ConsistencyError(
            f"dense solve left residual {residual:.3e} at R={R}; "
            "the right-hand side is outside the ansatz span"
        )
    return CDSolution(coeffs, residual)


def antisym_extension_values(model, R, n=0):
    """Solved coefficients of the antisymmetric cross terms (should vanish).

    Solves the full four-row problem over the twelve-operator extended
    basis and returns the three antisymmetric coefficients.
    """
    basis = np.concatenate([BASIS, ANTISYM_BASIS])
    _, _, Mr, rr = _dense_real_system(model, R, n, basis)
    x = np.linalg.pinv(Mr, rcond=DENSE_RCOND) @ rr
    return dict(zip(ANTISYM_NAMES, x[len(COEFF_NAMES):]))


# ---------------------------------------------------------------------------
# single-spin (2x2) regularization

@dataclass(frozen=True)
class LZSolution:
    """Traceless Hermitian 2x2 regularization: H11 real, H12 complex."""

    h11: float
    h12: complex
    residual: float

    def matrix(self):
        return np.array(
            [[self.h11, self.h12], [np.conj(self.h12), -self.h11]], dtype=complex
        )


def solve_lz(model, R, n=1, tol=DEFAULT_TOL):
    """Regularization term for the two-level model (either state)."""
    if model.dim != 2:
        raise ConfigError("solve_lz applies to the two-level model")
    C, rhs = _state_rhs(model, R, n)
    # unknowns (h11, Re h12, Im h12); rows: h11 C1 + h12 C2, conj(h12) C1 - h11 C2
    A = np.array(
        [
            [C[0].real, C[1].real, -C[1].imag],
            [C[0].imag, C[1].imag, C[1].real],
            [-C[1].real, C[0].real, C[0].imag],
            [-C[1].imag, C[0].imag, -C[0].real],
        ]
    )
    b = np.array([rhs[0].real, rhs[0].imag, rhs[1].real, rhs[1].imag])
    x = np.linalg.pinv(A, rcond=DENSE_RCOND) @ b
    sol = LZSolution(float(x[0]), complex(x[1], x[2]), 0.0)
    residual = float(np.linalg.norm(sol.matrix() @ C - rhs))
    if residual > tol.residual_tol:
        raise ConsistencyError(f"two-level solve left residual {residual:.3e}")
    return LZSolution(sol.h11, sol.h12, residual)


# ---------------------------------------------------------------------------
# state-independent counter-diabatic operator

def drb_counterdiabatic(model, R):
    """State-independent counter-diabatic operator (per unit velocity).

    i * sum_n (|dn><n| - |n><n|dn><n|), gauge independent, so one
    eigensolve gives it through the spectral formula: its eigenbasis
    elements are i <m|dH/dR|n> / (E_n - E_m) off the diagonal and zero on
    it.  Refuses any level pair closer than GAP_MIN, and checks that the
    diagonal in the eigenbasis vanishes.
    """
    R = float(R)
    w, V = models._eigh_model(model, np.array([R]))
    w, V = w[0], V[0]
    denom = w[None, :] - w[:, None]                 # E_n - E_m at [m, n]
    gap = float(np.min(np.abs(denom[~np.eye(model.dim, dtype=bool)])))
    if gap < models.GAP_MIN:
        raise DegeneracyError(
            f"eigenvalue gap {gap:.3e} at R={R} is below gap_min={models.GAP_MIN:.1e}"
        )
    np.fill_diagonal(denom, 1.0)
    K = 1j * (np.conj(V.T) @ model.slope_matrix @ V) / denom
    np.fill_diagonal(K, 0.0)
    H = V @ K @ np.conj(V.T)
    H = 0.5 * (H + H.conj().T)
    for n in range(model.dim):
        C = V[:, n]
        diag = abs(np.vdot(C, H @ C))
        if diag > DRB_DIAG_TOL:
            raise ConsistencyError(
                f"counter-diabatic operator has diagonal element {diag:.3e} "
                f"in eigenbasis (state {n}) at R={R}"
            )
    return H


# ---------------------------------------------------------------------------
# coefficient paths and the driving Hamiltonian

class CoefficientPath:
    """Evaluates regularization coefficients along R for a fixed strategy.

    ``selection`` is a tuple of ansatz names, the string "dense" for the
    minimum-norm all-coefficient solution, or ignored for the two-level
    model (which has its own closed 2x2 form).  Evaluation is vectorized
    over arrays of R values; no accept/reject filtering happens here (the
    selection is validated once, where it is chosen).
    """

    def __init__(self, model, selection=None, n=0):
        self.model = model
        self.n = n
        if model.dim == 2:
            self.mode = "lz"
            self.names = ("H11", "ReH12", "ImH12")
        elif selection == "dense" or selection is None:
            self.mode = "dense"
            self.names = COEFF_NAMES
        else:
            self.mode = "selection"
            self.names = canonical_selection(selection)
            self._idx = _selection_indices(self.names)

    def _state_rhs(self, R_array, H):
        C, dC, _, _ = models.state_and_derivative_batch(self.model, R_array, self.n, H=H)
        L = np.einsum("nd,nd->n", np.conj(C), dC)
        rhs = 1j * dC - 1j * L[:, None] * C
        return C, rhs

    def values(self, R_array, *, H=None):
        """(N, k) coefficient values at each R.

        ``H`` optionally holds the model Hamiltonians at R_array, built by
        the caller, for the eigensolve.
        """
        R_array = np.asarray(R_array, dtype=float)
        C, rhs = self._state_rhs(R_array, H)
        if self.mode == "lz":
            A = np.stack(
                [
                    np.stack([C[:, 0].real, C[:, 1].real, -C[:, 1].imag], axis=1),
                    np.stack([C[:, 0].imag, C[:, 1].imag, C[:, 1].real], axis=1),
                    np.stack([-C[:, 1].real, C[:, 0].real, C[:, 0].imag], axis=1),
                    np.stack([-C[:, 1].imag, C[:, 0].imag, -C[:, 0].real], axis=1),
                ],
                axis=1,
            )
            b = np.concatenate([rhs.real, rhs.imag], axis=1)[:, [0, 2, 1, 3]]
            return np.einsum("nij,nj->ni", np.linalg.pinv(A, rcond=DENSE_RCOND), b)
        if self.mode == "dense":
            # merged rows suffice: the swap-degenerate middle rows coincide,
            # and for a consistent system the minimum-norm member is the same
            rows = list(_merged_rows(self.model))
            cols = np.einsum("kab,nb->nak", BASIS, C)[:, rows, :]  # (N, 3, 9)
            b = rhs[:, rows]
            Mr = np.concatenate([cols.real, cols.imag], axis=1)    # (N, 6, 9)
            rr = np.concatenate([b.real, b.imag], axis=1)
            return np.einsum("nij,nj->ni", np.linalg.pinv(Mr, rcond=DENSE_RCOND), rr)
        rows = list(_merged_rows(self.model))
        cols = np.einsum("kab,nb->nak", BASIS[self._idx], C)   # (N, 4, k)
        M = cols[:, rows, :]
        b = rhs[:, rows]
        # A stage point can land exactly on a coefficient singularity (for
        # instance Bx = 0 at the end of an annealing sweep, where the
        # velocity is already negligible).  Exactly singular systems would
        # abort the whole batched solve; patch those few points with the
        # bounded minimum-norm solution instead.
        dets = np.linalg.det(M)
        bad = ~np.isfinite(dets) | (np.abs(dets) < 1e-40)
        if np.any(bad):
            M = M.copy()
            M[bad] = np.eye(len(rows))
        x = np.linalg.solve(M, b[..., None])[..., 0]
        if np.any(bad):
            patched = np.linalg.pinv(cols[bad][:, rows, :], rcond=1e-6)
            x[bad] = np.einsum("nij,nj->ni", patched, b[bad])
        return x.real

    def matrices(self, R_array):
        """(N, dim, dim) regularization matrices (velocity not applied)."""
        return self.matrices_from_values(self.values(R_array))

    def matrices_from_values(self, vals):
        """Regularization matrices of (N, k) values returned by ``values``."""
        if self.mode == "lz":
            N = vals.shape[0]
            H = np.zeros((N, 2, 2), dtype=complex)
            H[:, 0, 0] = vals[:, 0]
            H[:, 1, 1] = -vals[:, 0]
            H[:, 0, 1] = vals[:, 1] + 1j * vals[:, 2]
            H[:, 1, 0] = vals[:, 1] - 1j * vals[:, 2]
            return H
        if self.mode == "dense":
            return matrices_from_rows(vals)
        return matrices_from_rows(vals, BASIS[self._idx])


def coefficient_path(model, solution, n=0):
    """Normalize a solution-like argument into a CoefficientPath."""
    if isinstance(solution, CoefficientPath):
        return solution
    if isinstance(solution, CDSolution):
        sel = solution.selection
        sel = "dense" if tuple(sel) == COEFF_NAMES else sel
        return CoefficientPath(model, sel, n)
    if isinstance(solution, LZSolution) or solution is None and model.dim == 2:
        return CoefficientPath(model, None, n)
    return CoefficientPath(model, solution, n)


def fast_forward_hamiltonian(model, schedule, solution, t, n=0):
    """H0 at the advanced parameter plus velocity times the regularization.

    Exactly H0 wherever the velocity vanishes (both protocol endpoints),
    which also sidesteps the coefficient singularities that can sit there.
    """
    R = advanced_parameter(schedule, t)
    v = velocity(schedule, t)
    H = models.hamiltonian(model, R)
    if abs(v) <= VELOCITY_EPS * max(schedule.v_bar, 1.0):
        return H
    path = coefficient_path(model, solution, n)
    return H + v * path.matrices(np.array([R]))[0]
