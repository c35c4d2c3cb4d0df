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

Every state and right-hand side comes from ``models.tracked_state``.  Two
batched kernels solve every system built by ``_operator_columns``:
``_min_norm`` (pseudoinverse of the stacked real and imaginary rows) and
``_accept`` (square reduced systems over (R, selection), filtered, as
arrays), which ``solve_grid``/``enumerate_grid`` run over an R grid; the
scalar functions are their one-point case.  ``CoefficientPath`` solves one
selection along R unfiltered and refuses, naming R, a point where that
system is exactly singular or a coefficient is not finite.
"""

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import models
from .ansatz import (
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
REASONS = ("", "singular", "not_real", "residual")   # rejection reasons by code


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
class SelectionResult:
    selection: tuple
    accepted: bool
    reason: str = ""                # one of REASONS
    coefficients: AnsatzCoefficients = None     # None unless accepted
    cond: float = np.nan
    max_imag: float = np.nan
    residual: float = np.nan


def _merged_rows(model):
    """Rows left after merging the symmetry-degenerate ones (two-level: all)."""
    if model.kind in ("tfim", "lz"):
        return (0, 1)
    return (0, 1, 3)


def _operator_columns(basis, C, rows=None):
    """(basis_k C)[rows] as the columns of (..., len(rows), k) matrices.

    ``basis`` (..., k, d, d) and ``C`` (..., d) broadcast over leading axes;
    ``rows`` defaults to all d.
    """
    F = np.einsum("...kab,...b->...ak", basis, C)
    return F if rows is None else F[..., list(rows), :]


def _min_norm(A, b):
    """Minimum-norm real x solving the complex rows A x = b, batched.

    The real and imaginary parts of the rows form one real system.
    """
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


def _square_indices(model, selections):
    """(S, m) coefficient indices of selections squaring the reduced system, else ConfigError."""
    if model.dim != 4:
        raise ConfigError("reduced ansatz systems exist for two-spin models only")
    m = len(_merged_rows(model))
    for sel in selections:
        if len(sel) != m:
            raise ConfigError(f"selection {','.join(sel)} has {len(sel)} coefficients; "
                              f"the {model.kind} reduced system needs {m}")
    return np.array([_selection_indices(sel) for sel in selections])


def _check_merged_rows(model, R, C, rhs_full):
    """Raise ConsistencyError unless the rows the reduction merges coincide.

    C and rhs_full are (N, dim) over the 1-d R; the error names the first
    offending R.
    """
    checks = [("C2 != C3", C, 1, 2), ("degenerate middle rows differ", rhs_full, 1, 2)]
    if model.kind == "tfim":
        checks += [("C1 != C4", C, 0, 3), ("degenerate outer rows differ", rhs_full, 0, 3)]
    for label, X, i, j in checks:
        diff = np.abs(X[:, i] - X[:, j])
        if np.any(diff > SYMMETRY_TOL):
            k = int(np.argmax(diff > SYMMETRY_TOL))
            raise ConsistencyError(f"{label} at R={R[k]}: {diff[k]:.3e}")


def reduce_system(model, R, n, selection):
    """Square reduced system for the selected free coefficients.

    Exploits the row degeneracies of the symmetric eigenvectors; raises
    ConsistencyError when the rows that must coincide do not.
    """
    (idx,) = _square_indices(model, [selection])
    rows = _merged_rows(model)
    _, (C,), _, (rhs_full,) = models.tracked_state(model, np.array([float(R)]), n)
    _check_merged_rows(model, [R], C[None], rhs_full[None])
    return ReducedSystem(
        coefficient_matrix=_operator_columns(BASIS[idx], C, rows),
        rhs=rhs_full[list(rows)],
        unknown_names=tuple(selection),
        state_index=n,
        state_vector=C,
        rhs_full=rhs_full,
        merged_rows=rows,
    )


def _accept(idx, C, rhs, rows, tol):
    """Solve and filter the square reduced systems of S selections at N states.

    idx (S, m) holds each selection's coefficient indices, C and rhs (N, dim)
    the states and full right-hand sides; the systems keep the merged
    ``rows``, the residual takes all rows.  Rejections in order: "singular"
    (cond above cond_max or not finite), "not_real" (imaginary part above
    imag_tol), "residual".  Returns (N, S) arrays: coefficients (N, S, 9),
    zero unless accepted; reason codes into REASONS (0: accepted); cond;
    max_imag and residual, NaN where not reached.
    """
    F = _operator_columns(BASIS[idx], C[:, None, :], range(C.shape[1]))   # (N, S, dim, m)
    M = F[..., list(rows), :]
    cond = np.linalg.cond(M)
    regular = np.isfinite(cond) & (cond <= tol.cond_max)
    x = np.zeros(M.shape[:-1], dtype=complex)
    if np.any(regular):
        b = np.broadcast_to(rhs[:, None, list(rows)], x.shape)
        x[regular] = np.linalg.solve(M[regular], b[regular][..., None])[..., 0]
    max_imag = np.where(regular, np.max(np.abs(x.imag), axis=-1), np.nan)
    real = max_imag <= tol.imag_tol
    full = (F @ x.real[..., None])[..., 0] - rhs[:, None, :]
    residual = np.where(real, np.linalg.norm(full, axis=-1), np.nan)
    reason = np.select([~regular, ~real, residual > tol.residual_tol], [1, 2, 3], 0)
    coefficients = np.zeros(reason.shape + (len(COEFF_NAMES),))
    coefficients[:, np.arange(len(idx))[:, None], idx] = np.where(
        reason[..., None] == 0, x.real, 0.0)
    return coefficients, reason, cond, max_imag, residual


def solve_selection(rs, tol=DEFAULT_TOL):
    """Solve a reduced system; accept only regular, real solutions.

    The residual is recomputed against the full (unreduced) problem.  A
    rank-deficient reduced system is reported "singular" even where a real
    solution family exists (for instance W1+W2+By of the entanglement
    model with its field along x); the dense solve covers such families.
    """
    sel = tuple(rs.unknown_names)
    x, reason, cond, max_imag, residual = (
        a[0, 0] for a in _accept(np.array([_selection_indices(sel)]), rs.state_vector[None],
                                 rs.rhs_full[None], rs.merged_rows, tol))
    coefficients = (AnsatzCoefficients(dict(zip(COEFF_NAMES, x)), sel) if reason == 0
                    else None)
    return SelectionResult(sel, bool(reason == 0), REASONS[reason], coefficients,
                           float(cond), float(max_imag), float(residual))


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


def enumerate_solutions(model, R, n=0, tol=DEFAULT_TOL):
    """``enumerate_grid`` at the one point R: a one-point GridEnumeration."""
    return enumerate_grid(model, [R], n, tol)


def enumeration_grid(schedule, count):
    """Midpoint R grid over the schedule excursion (endpoints excluded)."""
    span = schedule.v_bar * schedule.T_FF
    return schedule.R0 + span * (np.arange(count) + 0.5) / count


@dataclass(frozen=True)
class GridEnumeration:
    """Selections solved at every point of an R grid, as (N, S) arrays.

    The arrays are ``_accept``'s, with ``group_id`` -1 where rejected;
    ``state``, ``derivative`` and ``rhs`` are the tracked (N, dim) arrays.
    """

    model_kind: str
    state_index: int
    R: np.ndarray
    selections: tuple
    coefficients: np.ndarray
    reason: np.ndarray
    cond: np.ndarray
    max_imag: np.ndarray
    residual: np.ndarray
    group_id: np.ndarray
    state: np.ndarray
    derivative: np.ndarray
    rhs: np.ndarray

    @property
    def accepted_counts(self):
        return (self.reason == 0).sum(axis=1).tolist()

    @property
    def group_counts(self):
        return (self.group_id.max(axis=1, initial=-1) + 1).tolist()

    @property
    def partition_consistent(self):
        """Every point puts the same selections into the same groups."""
        return bool(np.all(self.group_id == self.group_id[:1]))


def solve_grid(model, R_values, selections, n=0, tol=DEFAULT_TOL):
    """Every selection at every point of an R grid, unclustered (group ids -1).

    One ``tracked_state`` call covers the grid and one ``_accept`` call
    every (R, selection) pair.
    """
    idx = _square_indices(model, selections)
    R = np.atleast_1d(np.asarray(R_values, dtype=float))
    _, C, dC, rhs = models.tracked_state(model, R, n)
    _check_merged_rows(model, R, C, rhs)
    arrays = _accept(idx, C, rhs, _merged_rows(model), tol)
    return GridEnumeration(model.kind, n, R, tuple(selections), *arrays,
                           np.full(arrays[1].shape, -1), C, dC, rhs)


def enumerate_grid(model, R_values, n=0, tol=DEFAULT_TOL):
    """Every admissible selection at every point of an R grid, clustered."""
    grid = solve_grid(model, R_values, admissible_selections(model), n, tol)
    return replace(grid, group_id=_cluster(grid.coefficients, grid.reason == 0, tol.group_tol))


def _cluster(coefficients, accepted, group_tol):
    """Group ids (N, S) of the accepted solutions, -1 where rejected.

    At each point, selection by selection, an accepted solution joins the
    first group whose representative (its first member) lies within
    group_tol in every coefficient, or opens a new group; all points at once.
    """
    reps = np.zeros_like(coefficients)          # reps[k, g]: group g's first member
    count = np.zeros(len(coefficients), dtype=int)
    gid = np.full(accepted.shape, -1)
    for s in np.flatnonzero(accepted.any(axis=0)):
        v = coefficients[:, s]
        G = count.max() + 1
        near = np.max(np.abs(reps[:, :G] - v[:, None]), axis=-1) < group_tol
        near &= np.arange(G) < count[:, None]
        g = np.where(near.any(axis=1), np.argmax(near, axis=1), count)
        gid[:, s] = np.where(accepted[:, s], g, -1)
        new = gid[:, s] == count
        reps[new, count[new]] = v[new]
        count += new
    return gid


# ---------------------------------------------------------------------------
# dense (all-coefficient) solutions

def solve_dense(model, R, n=0, tol=DEFAULT_TOL):
    """Minimum-norm real solution over all nine ansatz coefficients.

    The full system is consistent (the state-independent counter-diabatic
    operator solves it within the ansatz span) but rank deficient; the
    pseudoinverse picks the smallest-coefficient member of the solution
    family.  This is the route for models whose sparse selections all fail
    the realness filter.  Returns (x, residual) of ``_min_norm_solve`` at R.
    """
    if model.dim != 4:
        raise ConfigError("dense ansatz solutions exist for two-spin models only")
    (x,), (residual,) = _min_norm_solve(model, [float(R)], n, tol)
    return x, residual


def _min_norm_solve(model, R, n=0, tol=DEFAULT_TOL):
    """Minimum-norm coefficients (N, k) over a 1-d R and their residuals (N,).

    The basis is the nine-term ansatz for the two-spin models and (sz, sx,
    -sy) for the two-level one; ``solve_dense`` and ``solve_lz`` are the
    one-point case.  Refuses, naming the first R, a residual above
    tol.residual_tol.
    """
    basis = LZ_BASIS if model.dim == 2 else BASIS
    R = np.asarray(R, dtype=float)
    _, C, _, rhs = models.tracked_state(model, R, n)
    x = _min_norm(_operator_columns(basis, C), rhs)
    residual = np.linalg.norm((matrices_from_rows(x, basis) @ C[..., None])[..., 0] - rhs,
                              axis=-1)
    bad = residual > tol.residual_tol
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ConsistencyError(
            f"minimum-norm solve left residual {residual[k]:.3e} at R={R[k]}; "
            "the right-hand side is outside the ansatz span"
        )
    return x, residual


def solve_lz(model, R, n=1, tol=DEFAULT_TOL):
    """(H11, Re H12, Im H12) of the two-level term at R (either state), and the residual."""
    if model.dim != 2:
        raise ConfigError("solve_lz applies to the two-level model")
    (x,), (residual,) = _min_norm_solve(model, [float(R)], n, tol)
    return x, residual


# ---------------------------------------------------------------------------
# state-independent counter-diabatic operator

def drb_counterdiabatic(model, R):
    """State-independent counter-diabatic operator (per unit velocity).

    i * sum_n (|dn><n| - |n><n|dn><n|), gauge independent, so one
    eigensolve per point gives it through the spectral formula: its
    eigenbasis elements are i <m|dH/dR|n> / (E_n - E_m) off the diagonal
    and zero on it.  R is a scalar or an array, and the result is shaped
    like ``models.hamiltonian``'s.  Refuses any level pair closer than
    GAP_MIN, and checks that the diagonal in the eigenbasis vanishes; both
    errors name the first offending R.
    """
    flat = np.ravel(np.asarray(R, dtype=float))
    w, V = models._eigh_model(model, flat)
    denom = w[:, None, :] - w[:, :, None]           # E_n - E_m at [k, m, n]
    diagonal = np.eye(model.dim, dtype=bool)
    gap = np.abs(denom[:, ~diagonal]).min(axis=1)
    if np.any(gap < models.GAP_MIN):
        k = int(np.argmax(gap < models.GAP_MIN))
        raise DegeneracyError(
            f"eigenvalue gap {gap[k]:.3e} at R={flat[k]} is below GAP_MIN={models.GAP_MIN:.1e}"
        )
    denom[:, diagonal] = 1.0
    Vh = np.conj(np.swapaxes(V, -1, -2))
    K = 1j * (Vh @ model.slope_matrix @ V) / denom
    K[:, diagonal] = 0.0
    H = V @ K @ Vh
    H = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
    diag = np.abs(np.einsum("kam,kab,kbm->km", np.conj(V), H, V))   # |<n|H|n>|
    if np.any(diag > DRB_DIAG_TOL):
        k, n = np.unravel_index(np.argmax(diag > DRB_DIAG_TOL), diag.shape)
        raise ConsistencyError(
            f"counter-diabatic operator has diagonal element {diag[k, n]:.3e} "
            f"in eigenbasis (state {n}) at R={flat[k]}"
        )
    return H.reshape(np.shape(R) + H.shape[1:])


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
            self.basis = BASIS[_square_indices(model, [self.names])[0]]

    def values(self, R_array, *, state=None):
        """(N, k) coefficient values at each R.

        ``state`` optionally holds ``models.tracked_state`` of state n at
        R_array, computed by the caller.  Raises ConsistencyError at the
        first R where the reduced system is exactly singular or a
        coefficient is not finite.
        """
        R_array = np.asarray(R_array, dtype=float)
        if state is None:
            state = models.tracked_state(self.model, R_array, self.n)
        _, C, _, rhs = state
        M, b = _operator_columns(self.basis, C, self.rows), rhs[:, list(self.rows)]
        # for the dense mode the merged rows suffice: the swap-degenerate
        # middle rows coincide, and for a consistent system the minimum-norm
        # member is the same
        x = _solve_each(M, b).real if self.mode == "selection" else _min_norm(M, b)
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


def is_driven(schedule, R, v):
    """Where v * Htilde(R) applies: v above zero, R strictly inside the sweep.

    R can round to its end value while v is still above VELOCITY_EPS (qa at
    2e5 steps: v = 1.2e-8 where Bx = 0 exactly); the bare H0 holds there.
    """
    v_min = VELOCITY_EPS * max(schedule.v_bar, 1.0)
    return (v > v_min) & (R > schedule.R0) & (R < schedule.R_final)


def fast_forward_hamiltonian(model, schedule, solution, t, n=0):
    """H0 at the advanced parameter plus velocity times the regularization.

    t is a scalar or an array, and the result is shaped like
    ``models.hamiltonian``'s.  Exactly H0 wherever the point is not driven
    (both protocol endpoints), which also sidesteps the coefficient
    singularities that can sit there.
    """
    t = np.asarray(t, dtype=float)
    R, v = advanced_parameter(schedule, t.ravel()), velocity(schedule, t.ravel())
    H = models.hamiltonian(model, R)
    live = is_driven(schedule, R, v)
    if np.any(live):
        path = CoefficientPath(model, solution, n)
        H[live] += v[live, None, None] * path.matrices(R[live])
    return H.reshape(t.shape + H.shape[1:])
