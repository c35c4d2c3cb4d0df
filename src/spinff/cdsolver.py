"""Solver for state-dependent regularization terms under the two-spin ansatz.

The defining linear problem for the tracked eigenvector C(R) reads

    Htilde C = i dC/dR - i (C^dag dC/dR) C        (hbar = 1)

with Htilde restricted to the nine-coefficient ansatz.  C, dC/dR and
the right-hand side are the four amplitudes of ``models.tracked_state``;
``tracked_sector`` keeps the rows that fix a vector of their symmetry
sector (triplet: rows 1, 2, 4, as C2 = C3; tfim's flip-even block: rows 1,
2, as also C1 = C4).  A *selection* picks which ansatz coefficients stay
free (the rest pinned to zero) so the reduced system becomes square.
Solutions are accepted only when the reduced matrix is regular and every
solved coefficient is real; the survivors cluster into degenerate groups.

Sparse selections do not exhaust the solution set: the full nine-variable
problem is rank deficient and carries a multi-parameter family of real
solutions (the state-independent counter-diabatic operator is one member
whenever it fits the ansatz).  ``solve_dense`` returns the minimum-norm
member of that family, which is what the entanglement-generation model
needs: with a transverse field of generic orientation none of its sparse
selections is real, see acceptance criterion 3 and the README note on the
entanglement-generation model.  The two-level model is the same problem
over the basis (sz, sx, -sy).

Every state and right-hand side comes from ``models.tracked_state`` and
every system from ``_operator_columns`` on ``tracked_sector``'s rows.
``CoefficientPath``, what ``evolve`` drives with, solves along R
unfiltered: a selection's square systems, or the one minimum-norm solve,
``_min_norm`` (pseudoinverse of the stacked real and imaginary rows) over
the model's whole ansatz, to which ``_min_norm_solve`` (``solve_dense``
and ``solve_lz`` at one R) adds a full-row residual check.  The census runs
``_accept`` (square reduced systems over (R, selection), filtered, as
arrays) in ``solve_grid``/``enumerate_grid``.  It filters each 2x2 or 3x3
system by its 2-norm condition number, taken in closed form from the
system's Gram and adjugate matrices, not by an SVD: their largest
eigenvalues are roots of ``models.closed_form_eigenvalues``.  cond is inf
where det = 0 or the system is singular to working precision.
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
    matrices_from_rows,
)
from .errors import ConfigError, ConsistencyError, DegeneracyError
from .schedule import advanced_parameter, velocity

SYMMETRY_TOL = 1e-10
DRB_DIAG_TOL = 1e-10
DENSE_RCOND = 1e-8
VELOCITY_EPS = 1e-12   # relative threshold below which v(t) counts as zero
EPS = np.finfo(float).eps
COND_MAX = 1e10        # largest condition number of an accepted reduced system
IMAG_TOL = 1e-9        # largest imaginary part of an accepted coefficient
RESIDUAL_TOL = 1e-10   # largest full-system residual of an accepted solution
GROUP_TOL = 1e-8       # largest coefficient distance within a degenerate group
REASONS = ("", "singular", "not_real", "residual")   # rejection reasons by code


@dataclass(frozen=True)
class ReducedSystem:
    coefficient_matrix: np.ndarray   # (m, k) complex
    rhs: np.ndarray                  # (m,) complex
    unknown_names: tuple
    state_vector: np.ndarray         # full C, for residual recomputation
    rhs_full: np.ndarray             # full 4-component right-hand side
    rows: tuple                      # the reduced rows of ``tracked_sector``


@dataclass(frozen=True)
class SelectionResult:
    selection: tuple
    accepted: bool
    reason: str = ""                # one of REASONS
    coefficients: np.ndarray = None  # (9,) row ordered as COEFF_NAMES, None unless accepted
    cond: float = np.nan
    max_imag: float = np.nan
    residual: float = np.nan


def _operator_columns(basis, C, rows=None):
    """(basis_k C)[rows] as the columns of (..., len(rows), k) matrices.

    ``basis`` (..., k, d, d) and ``C`` (..., d) broadcast over leading axes;
    ``rows`` defaults to all d.
    """
    F = np.einsum("...kab,...b->...ak", basis, C)
    return F if rows is None else F[..., list(rows), :]


def _min_norm(A, b):
    """Minimum-norm real x solving the complex rows A x = b, batched.

    The real and imaginary rows form one real system M; pinv(M) r adds one term
    of r at a time, as ``propagator._mul`` does, so each x rounds alike in any stack.
    """
    Mr = np.concatenate([A.real, A.imag], axis=-2)
    rr = np.concatenate([b.real, b.imag], axis=-1)
    P = np.linalg.pinv(Mr, rcond=DENSE_RCOND)
    x = np.zeros(P.shape[:-1])   # from +0.0, as a sum starts: a zero prints 0.0, not -0.0
    for j in range(rr.shape[-1]):
        x += P[..., j] * rr[..., None, j]
    return x


def _squared_norms(V):
    """|V[k]|^2 of the vectors V (k, n, ...), summed one axis at a time.

    A sum over several axes at once may take its terms in an order that
    depends on the stack's shape; this one rounds alike for any stack.
    """
    return (V.real ** 2 + V.imag ** 2).sum(axis=1)


def _norm2_squared(V):
    """Squared spectral norm of the matrices whose k = 2 or 3 columns are V (k, n, ...).

    It is the largest eigenvalue of their Gram matrix, the last root of
    ``models.closed_form_eigenvalues``; for k = 3 it loses up to about 1e-8
    relative accuracy where the two largest eigenvalues coincide.
    """
    pairs = ((0, 1),) if len(V) == 2 else ((0, 1), (0, 2), (1, 2))
    upper = [(V[i].conj() * V[j]).sum(axis=0) for i, j in pairs]
    return models.closed_form_eigenvalues(_squared_norms(V), upper)[-1]


def _cross(V):
    """Cross products V[1] x V[2], V[2] x V[0], V[0] x V[1] of the vectors V (3, 3, ...).

    Both products of a component keep their operand order, so two equal
    vectors give exact zeros.
    """
    W, X = V.take([1, 2, 0], axis=0), V.take([2, 0, 1], axis=0)
    return (W.take([1, 2, 0], axis=1) * X.take([2, 0, 1], axis=1)
            - X.take([1, 2, 0], axis=1) * W.take([2, 0, 1], axis=1))


def _condition_number(M):
    """2-norm condition numbers of a (..., m, m) stack, m = 2 or 3; inf if singular.

    cond = sigma_max(M) sigma_max(adj M) / |det M|, in closed form.  For
    m = 2, sigma_max(adj M) = sigma_max(M).  For m = 3 the rows of adj M
    are the cross products of M's columns, and |det M| = |adj(adj M)| / |M|
    (Frobenius norms), since adj(adj M) = det(M) M.  Its error is that of a
    backward-stable det, about eps cond relative; the cofactor expansion
    a.(b x c) errs by up to eps cond^2 and rates some rank-1 matrices as
    well conditioned.  A zero or repeated column gives det exactly 0.  A
    system singular to working precision (cond >= 1/eps) gets cond inf.
    The largest Gram eigenvalue (``_norm2_squared``) loses up to about 1e-8
    relative accuracy where two singular values of M coincide (s1 = s2 in
    the Gram matrix of M, s2 = s3 in that of adj M).
    """
    V = np.moveaxis(M, (-1, -2), (0, 1))   # V[k] is column k
    if len(V) == 2:
        det = abs(V[0, 0] * V[1, 1] - V[1, 0] * V[0, 1])
        num = _norm2_squared(V)
    else:
        U = _cross(V)                      # rows of adj M
        size = _squared_norms(V).sum(axis=0)
        det = np.sqrt(np.divide(_squared_norms(_cross(U)).sum(axis=0), size,
                                out=np.zeros_like(size), where=size > 0))
        num = np.sqrt(_norm2_squared(V) * _norm2_squared(U))
    # inf where 1/cond <= eps: singular to working precision (LAPACK xGESVX), det = 0 included
    return np.divide(num, det, out=np.full_like(num, np.inf), where=det > EPS * num)


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


def _square_indices(model, selections, rows):
    """(S, m) coefficient indices of the selections; ConfigError unless each squares ``rows``."""
    if model.dim != 4:
        raise ConfigError("reduced ansatz systems exist for two-spin models only")
    for sel in selections:
        if len(sel) != len(rows):
            raise ConfigError(f"selection {','.join(sel)} has {len(sel)} coefficients; "
                              f"the tracked state's reduced system needs {len(rows)}")
    return np.array([_selection_indices(sel) for sel in selections])


def tracked_sector(model, R, C, rhs):
    """(sector, rows) of the tracked states C and right-hand sides rhs (N, dim) over the 1-d R.

    ``sector`` indexes ``model.sectors``, the one holding C[0]; more than SYMMETRY_TOL of a
    state or right-hand side outside it raises ConsistencyError naming the first such R.
    ``rows`` holds each sector column's first nonzero amplitude: they fix a sector vector.
    """
    sector = int(np.argmax([np.abs(C[0] @ P).max() for P in model.sectors]))
    P = model.sectors[sector]
    X = np.concatenate([C, rhs])                 # the states, then the right-hand sides
    outside = np.linalg.norm(X - X @ P @ P.T, axis=1)
    if np.any(outside > SYMMETRY_TOL):
        k = int(np.argmax(outside > SYMMETRY_TOL))
        label = "state" if k < len(C) else "right-hand side"
        raise ConsistencyError(f"{label} leaves symmetry sector {sector} at R={R[k % len(C)]}: "
                               f"{outside[k]:.3e} outside")
    return sector, tuple((P != 0).argmax(axis=0).tolist())


def reduce_system(model, R, n, selection):
    """Square reduced system for the selected free coefficients, on ``tracked_sector``'s rows."""
    R = np.array([float(R)])
    _, C, _, rhs = models.tracked_state(model, R, n)
    _, rows = tracked_sector(model, R, C, rhs)
    (idx,) = _square_indices(model, [selection], rows)
    return ReducedSystem(_operator_columns(BASIS[idx], C[0], rows), rhs[0, list(rows)],
                         tuple(selection), C[0], rhs[0], rows)


def _accept(idx, C, rhs, rows):
    """Solve and filter the square reduced systems of S selections at N states.

    idx (S, m) holds each selection's coefficient indices, C and rhs (N, dim)
    the states and full right-hand sides; the systems keep the reduced
    ``rows``, the residual takes all rows.  Rejections in order: "singular"
    (cond above COND_MAX or not finite), "not_real" (imaginary part above
    IMAG_TOL), "residual" (above RESIDUAL_TOL).  cond is the 2-norm
    condition number of each system in closed form (``_condition_number``),
    inf where det = 0 or cond >= 1/eps.
    Returns (N, S) arrays: coefficients (N, S, 9), zero unless accepted;
    reason codes into REASONS (0: accepted); cond; max_imag and residual,
    NaN where not reached.
    """
    F = _operator_columns(BASIS[idx], C[:, None, :], range(C.shape[1]))   # (N, S, dim, m)
    M = F[..., list(rows), :]
    cond = _condition_number(M)
    regular = np.isfinite(cond) & (cond <= COND_MAX)
    x = np.zeros(M.shape[:-1], dtype=complex)
    if np.any(regular):
        b = np.broadcast_to(rhs[:, None, list(rows)], x.shape)
        x[regular] = np.linalg.solve(M[regular], b[regular][..., None])[..., 0]
    max_imag = np.where(regular, np.max(np.abs(x.imag), axis=-1), np.nan)
    real = max_imag <= IMAG_TOL
    full = (F @ x.real[..., None])[..., 0] - rhs[:, None, :]
    residual = np.where(real, np.linalg.norm(full, axis=-1), np.nan)
    reason = np.select([~regular, ~real, residual > RESIDUAL_TOL], [1, 2, 3], 0)
    coefficients = np.zeros(reason.shape + (len(COEFF_NAMES),))
    coefficients[:, np.arange(len(idx))[:, None], idx] = np.where(
        reason[..., None] == 0, x.real, 0.0)
    return coefficients, reason, cond, max_imag, residual


def solve_selection(rs):
    """Solve a reduced system; accept only regular, real solutions.

    The residual is recomputed against the full (unreduced) problem.  A
    rank-deficient reduced system is reported "singular" even where a real
    solution family exists (for instance W1+W2+By of the entanglement
    model with its field along x); the dense solve covers such families.
    """
    sel = tuple(rs.unknown_names)
    x, reason, cond, max_imag, residual = (
        a[0, 0] for a in _accept(np.array([_selection_indices(sel)]), rs.state_vector[None],
                                 rs.rhs_full[None], rs.rows))
    return SelectionResult(sel, bool(reason == 0), REASONS[reason], x if reason == 0 else None,
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


def enumerate_solutions(model, R, n=0):
    """``enumerate_grid`` at the one point R: a one-point GridEnumeration."""
    return enumerate_grid(model, [R], n)


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


def solve_grid(model, R_values, selections, n=0):
    """Every selection at every point of an R grid, unclustered (group ids -1).

    One ``tracked_state`` call covers the grid and one ``_accept`` call
    every (R, selection) pair.
    """
    R = np.atleast_1d(np.asarray(R_values, dtype=float))
    _, C, dC, rhs = models.tracked_state(model, R, n)
    _, rows = tracked_sector(model, R, C, rhs)
    arrays = _accept(_square_indices(model, selections, rows), C, rhs, rows)
    return GridEnumeration(R, tuple(selections), *arrays,
                           np.full(arrays[1].shape, -1), C, dC, rhs)


def enumerate_grid(model, R_values, n=0):
    """Every admissible selection at every point of an R grid, clustered."""
    grid = solve_grid(model, R_values, admissible_selections(model), n)
    return replace(grid, group_id=_cluster(grid.coefficients, grid.reason == 0))


def _cluster(coefficients, accepted):
    """Group ids (N, S) of the accepted solutions, -1 where rejected.

    At each point, selection by selection, an accepted solution joins the
    first group whose representative (its first member) lies within
    GROUP_TOL in every coefficient, or opens a new group; all points at once.
    """
    reps = np.zeros_like(coefficients)          # reps[k, g]: group g's first member
    count = np.zeros(len(coefficients), dtype=int)
    gid = np.full(accepted.shape, -1)
    for s in np.flatnonzero(accepted.any(axis=0)):
        v = coefficients[:, s]
        G = count.max() + 1
        near = np.max(np.abs(reps[:, :G] - v[:, None]), axis=-1) < GROUP_TOL
        near &= np.arange(G) < count[:, None]
        g = np.where(near.any(axis=1), np.argmax(near, axis=1), count)
        gid[:, s] = np.where(accepted[:, s], g, -1)
        new = gid[:, s] == count
        reps[new, count[new]] = v[new]
        count += new
    return gid


# ---------------------------------------------------------------------------
# dense (all-coefficient) solutions

def solve_dense(model, R, n=0):
    """Minimum-norm real solution over all nine ansatz coefficients.

    The full system is consistent (the state-independent counter-diabatic
    operator solves it within the ansatz span) but rank deficient; the
    pseudoinverse picks the smallest-coefficient member of the solution
    family.  This is the route for models whose sparse selections all fail
    the realness filter.  Returns (x, residual) of ``_min_norm_solve`` at R.
    """
    if model.dim != 4:
        raise ConfigError("dense ansatz solutions exist for two-spin models only")
    (x,), (residual,) = _min_norm_solve(model, [float(R)], n)
    return x, residual


def _min_norm_solve(model, R, n=0):
    """``CoefficientPath``'s minimum-norm values (N, k) over a 1-d R, and their residuals (N,).

    The residual takes all of the model's rows, not only the sector's
    reduced ones; ``solve_dense`` and ``solve_lz`` are the one-point case.
    Refuses, naming the first R, a residual above RESIDUAL_TOL.
    """
    _, C, _, rhs = state = models.tracked_state(model, R, n)
    path = CoefficientPath(model, None, n)
    x = path.values(R, state=state)
    residual = np.linalg.norm((matrices_from_rows(x, path.basis) @ C[..., None])[..., 0] - rhs,
                              axis=-1)
    bad = residual > RESIDUAL_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ConsistencyError(
            f"minimum-norm solve left residual {residual[k]:.3e} at R={R[k]}; "
            "the right-hand side is outside the ansatz span"
        )
    return x, residual


def solve_lz(model, R, n=1):
    """(H11, Re H12, Im H12) of the two-level term at R (either state), and the residual."""
    if model.dim != 2:
        raise ConfigError("solve_lz applies to the two-level model")
    (x,), (residual,) = _min_norm_solve(model, [float(R)], n)
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

    ``selection`` is a tuple of ansatz names, or None or "dense" for the
    minimum-norm member over the model's ansatz: the nine two-spin
    operators, or (sz, sx, -sy) for the two-level model, which takes no
    selection but None (ConfigError).  Evaluation is vectorized over arrays
    of R values; no accept/reject filtering happens here (the selection is
    validated once, where it is chosen).
    """

    def __init__(self, model, selection=None, n=0):
        self.model, self.n = model, n
        if model.dim == 2 and selection is not None:
            raise ConfigError(f"the two-level model takes no selection, got {selection}")
        if selection is None or selection == "dense":
            self.mode = "dense"
            self.names, self.basis = ((LZ_NAMES, LZ_BASIS) if model.dim == 2
                                      else (COEFF_NAMES, BASIS))
        else:
            self.mode = "selection"
            self.names = canonical_selection(selection)
            self.basis = BASIS[_selection_indices(self.names)]

    def values(self, R_array, *, state=None):
        """(N, k) coefficient values at each R.

        ``state`` optionally holds ``models.tracked_state`` of state n at
        R_array, computed by the caller.  Raises ConsistencyError at the
        first R where a state leaves its sector (``tracked_sector``), the
        reduced system is exactly singular or a coefficient is not finite.
        """
        R_array = np.asarray(R_array, dtype=float)
        if state is None:
            state = models.tracked_state(self.model, R_array, self.n)
        _, C, _, rhs = state
        _, rows = tracked_sector(self.model, R_array, C, rhs)
        M, b = _operator_columns(self.basis, C, rows), rhs[:, list(rows)]
        # the minimum-norm solve takes the reduced rows too; on tfim's flip-even
        # block it leaves the flip-odd coefficients at 0 to rounding
        if self.mode == "dense":
            x = _min_norm(M, b)
        else:
            _square_indices(self.model, [self.names], rows)
            try:
                x = np.linalg.solve(M, b[..., None])[..., 0].real
            except np.linalg.LinAlgError:
                # the LU of solve has sign 0 where it raises: refuse there
                x = np.where(np.linalg.slogdet(M)[0][:, None] == 0, np.nan, 0.0)
        bad = ~np.all(np.isfinite(x), axis=1)
        if np.any(bad):
            raise ConsistencyError(
                f"reduced system is singular or a coefficient is not finite "
                f"at R={float(R_array[np.argmax(bad)])!r}"
            )
        return x

    def matrices(self, R_array):
        """(N, dim, dim) regularization matrices (velocity not applied)."""
        return matrices_from_rows(self.values(R_array), self.basis)


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
