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
entanglement-generation model.  The two-level model is the same problem
over the basis (sz, sx, -sy).

Two batched kernels solve every system built by ``_operator_columns``:
``_min_norm`` (pseudoinverse of the stacked real and imaginary rows) and
``_accept`` (square reduced systems at one R, filtered).  ``CoefficientPath``
solves one selection along R unfiltered and refuses, naming R, a point where
that system is exactly singular or a coefficient is not finite.
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
    LZ_BASIS,
    LZ_NAMES,
    REAL_NAMES,
    AnsatzCoefficients,
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
    """Rows left after merging the symmetry-degenerate ones (two-level: all)."""
    if model.kind in ("tfim", "lz"):
        return (0, 1)
    return (0, 1, 3)


def _operator_columns(basis, C, rows):
    """(basis_k C)[rows] as the columns of (..., len(rows), k) matrices.

    ``basis`` (..., k, d, d) and ``C`` (..., d) broadcast over leading axes.
    """
    return np.einsum("...kab,...b->...ak", basis, C)[..., list(rows), :]


def _min_norm(basis, C, rhs, rows):
    """Minimum-norm real coefficients of ``basis`` solving the rows, batched.

    The real and imaginary parts of the rows form one real system.
    """
    A = _operator_columns(basis, C, rows)
    b = rhs[..., list(rows)]
    Mr = np.concatenate([A.real, A.imag], axis=-2)
    rr = np.concatenate([b.real, b.imag], axis=-1)
    return np.einsum("...ij,...j->...i", np.linalg.pinv(Mr, rcond=DENSE_RCOND), rr)


def _solve_each(M, b):
    """Batched M x = b; the rows of exactly singular systems come back NaN."""
    try:
        return np.linalg.solve(M, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan, dtype=complex)
        for i in range(len(M)):
            try:
                x[i] = np.linalg.solve(M[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return x


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


def reduce_system(model, R, n, selection):
    """Square reduced system for the selected free coefficients.

    Exploits the row degeneracies of the symmetric eigenvectors; raises
    ConsistencyError when the rows that must coincide do not.
    """
    if model.dim != 4:
        raise ConfigError("reduced ansatz systems exist for two-spin models only")
    rows = _merged_rows(model)
    idx = _selection_indices(selection)
    if len(idx) != len(rows):
        raise ValueError(
            f"selection size {len(idx)} does not match system size {len(rows)}"
        )
    C, rhs_full = _state_rhs(model, R, n)
    _check_merged_rows(model, R, C, rhs_full)
    return ReducedSystem(
        coefficient_matrix=_operator_columns(BASIS[idx], C, rows),
        rhs=rhs_full[list(rows)],
        unknown_names=tuple(selection),
        state_index=n,
        state_vector=C,
        rhs_full=rhs_full,
        merged_rows=rows,
    )


def _accept(selections, M, b, F, rhs_full, tol):
    """Solve and filter a stack of square reduced systems M x = b at one state.

    F (S, dim, m) holds M's columns over all rows, for the full residual.
    Rejections in order: "singular" (cond above cond_max or not finite),
    "not_real" (imaginary part above imag_tol), "residual".
    """
    cond = np.linalg.cond(M)
    regular = np.isfinite(cond) & (cond <= tol.cond_max)
    x = np.zeros(b.shape, dtype=complex)
    if np.any(regular):
        x[regular] = np.linalg.solve(M[regular], b[regular][..., None])[..., 0]
    max_imag = np.where(regular, np.max(np.abs(x.imag), axis=1), np.nan)
    real = max_imag <= tol.imag_tol
    full = (F @ x.real[..., None])[..., 0] - rhs_full
    residual = np.where(real, np.linalg.norm(full, axis=1), np.nan)
    reasons = np.select([~regular, ~real, residual > tol.residual_tol],
                        ["singular", "not_real", "residual"], "")
    results = []
    for s, sel in enumerate(selections):
        solution = None
        if not reasons[s]:
            coeffs = AnsatzCoefficients(dict(zip(sel, x[s].real)), sel)
            solution = CDSolution(coeffs, float(residual[s]))
        results.append(SelectionResult(
            sel, solution is not None, str(reasons[s]), solution,
            float(cond[s]), float(max_imag[s]), float(residual[s]),
        ))
    return results


def solve_selection(rs, tol=DEFAULT_TOL):
    """Solve a reduced system; accept only regular, real solutions.

    The residual is recomputed against the full (unreduced) problem.  A
    rank-deficient reduced system is reported "singular" even where a real
    solution family exists (for instance W1+W2+By of the entanglement
    model with its field along x); the dense solve covers such families.
    """
    sel = tuple(rs.unknown_names)
    C = rs.state_vector
    F = _operator_columns(BASIS[_selection_indices(sel)], C, range(len(C)))
    return _accept(
        [sel], rs.coefficient_matrix[None], rs.rhs[None], F[None], rs.rhs_full, tol
    )[0]


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
    rows = list(_merged_rows(model))
    idx = [_selection_indices(sel) for sel in selections]
    F = _operator_columns(BASIS[idx], C, range(len(C)))      # (S, dim, m)
    b = np.broadcast_to(rhs_full[rows], (len(selections), len(rows)))
    results = _accept(selections, F[:, rows, :], b, F, rhs_full, tol)
    accepted = [i for i, res in enumerate(results) if res.accepted]
    ids, reps = _cluster(
        [results[i].solution.coefficients.as_array() for i in accepted], tol.group_tol
    )
    for i, gid in zip(accepted, ids):
        solution = replace(results[i].solution, group_id=gid)
        results[i] = replace(results[i], solution=solution)
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
    x, residual = _min_norm_solve(model, R, n, BASIS, tol)
    coeffs = AnsatzCoefficients(dict(zip(COEFF_NAMES, x)), COEFF_NAMES)
    return CDSolution(coeffs, residual)


def _min_norm_solve(model, R, n, basis, tol):
    """Minimum-norm coefficients at R and their residual; refuses a large one."""
    C, rhs = _state_rhs(model, R, n)
    x = _min_norm(basis, C, rhs, range(model.dim))
    residual = float(np.linalg.norm(matrices_from_rows([x], basis)[0] @ C - rhs))
    if residual > tol.residual_tol:
        raise ConsistencyError(
            f"minimum-norm solve left residual {residual:.3e} at R={R}; "
            "the right-hand side is outside the ansatz span"
        )
    return x, residual


def antisym_extension_values(model, R, n=0):
    """Solved coefficients of the antisymmetric cross terms (should vanish).

    Solves the full four-row problem over the twelve-operator extended
    basis and returns the three antisymmetric coefficients.
    """
    basis = np.concatenate([BASIS, ANTISYM_BASIS])
    C, rhs = _state_rhs(model, R, n)
    x = _min_norm(basis, C, rhs, range(model.dim))
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
        values = [[self.h11, self.h12.real, self.h12.imag]]
        return matrices_from_rows(values, LZ_BASIS)[0]


def solve_lz(model, R, n=1, tol=DEFAULT_TOL):
    """Regularization term for the two-level model (either state)."""
    if model.dim != 2:
        raise ConfigError("solve_lz applies to the two-level model")
    x, residual = _min_norm_solve(model, R, n, LZ_BASIS, tol)
    return LZSolution(float(x[0]), complex(x[1], x[2]), residual)


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
    model (minimum-norm over its (sz, sx, -sy) basis).  Evaluation is
    vectorized over arrays of R values; no accept/reject filtering happens
    here (the selection is validated once, where it is chosen).
    """

    def __init__(self, model, selection=None, n=0):
        self.model = model
        self.n = n
        self.rows = _merged_rows(model)
        if model.dim == 2:
            self.mode = "lz"
            self.names = LZ_NAMES
            self.basis = LZ_BASIS
        elif selection == "dense" or selection is None:
            self.mode = "dense"
            self.names = COEFF_NAMES
            self.basis = BASIS
        else:
            self.mode = "selection"
            self.names = canonical_selection(selection)
            self.basis = BASIS[_selection_indices(self.names)]

    def values(self, R_array, *, H=None):
        """(N, k) coefficient values at each R.

        ``H`` optionally holds the model Hamiltonians at R_array, built by
        the caller, for the eigensolve.  Raises ConsistencyError at the
        first R where the reduced system is exactly singular or a
        coefficient is not finite.
        """
        R_array = np.asarray(R_array, dtype=float)
        C, dC, _, _ = models.state_and_derivative_batch(self.model, R_array, self.n, H=H)
        rhs = 1j * dC - 1j * np.einsum("nd,nd->n", np.conj(C), dC)[:, None] * C
        if self.mode == "selection":
            M = _operator_columns(self.basis, C, self.rows)
            x = _solve_each(M, rhs[:, list(self.rows)]).real
        else:
            # for the dense mode the merged rows suffice: the swap-degenerate
            # middle rows coincide, and for a consistent system the
            # minimum-norm member is the same
            x = _min_norm(self.basis, C, rhs, self.rows)
        bad = ~np.all(np.isfinite(x), axis=1)
        if np.any(bad):
            raise ConsistencyError(
                f"reduced system is singular or a coefficient is not finite "
                f"at R={float(R_array[np.argmax(bad)])!r}"
            )
        return x

    def matrices(self, R_array):
        """(N, dim, dim) regularization matrices (velocity not applied)."""
        return self.matrices_from_values(self.values(R_array))

    def matrices_from_values(self, vals):
        """Regularization matrices of (N, k) values returned by ``values``."""
        return matrices_from_rows(vals, self.basis)


def coefficient_path(model, solution, n=0):
    """Normalize a solution-like argument into a CoefficientPath."""
    if isinstance(solution, CoefficientPath):
        return solution
    if isinstance(solution, CDSolution):
        sel = solution.selection
        sel = "dense" if tuple(sel) == COEFF_NAMES else sel
        return CoefficientPath(model, sel, n)
    return CoefficientPath(model, solution, n)


def is_driven(schedule, R, v):
    """Where v * Htilde(R) applies: v above zero, R strictly inside the sweep.

    R can round to its end value while v is still above VELOCITY_EPS (qa at
    2e5 steps: v = 1.2e-8 where Bx = 0 exactly); the bare H0 holds there.
    """
    v_min = VELOCITY_EPS * max(schedule.v_bar, 1.0)
    return (v > v_min) & (R > schedule.R0) & (R < schedule.R_final)


def fast_forward_hamiltonian(model, schedule, solution, t, n=0):
    """H0 at the advanced parameter plus velocity times the regularization.

    Exactly H0 wherever the point is not driven (both protocol endpoints),
    which also sidesteps the coefficient singularities that can sit there.
    """
    R = advanced_parameter(schedule, t)
    v = velocity(schedule, t)
    H = models.hamiltonian(model, R)
    if not is_driven(schedule, R, v):
        return H
    path = coefficient_path(model, solution, n)
    return H + v * path.matrices(np.array([R]))[0]
