"""Solver for state-dependent regularization terms under the two-spin ansatz.

The defining linear problem for the tracked eigenvector C(R) reads

    Htilde C = i dC/dR - i (C^dag dC/dR) C        (hbar = 1)

with Htilde restricted to the nine-coefficient ansatz.  C, dC/dR and
the right-hand side are the four amplitudes of ``models.tracked_state`` of
a level (s, j), vectors of sector s by construction; the reduced systems
keep the rows that fix a vector of that sector, ``ModelSpec.sector_rows``
(triplet: rows 1, 2, 4, as C2 = C3; tfim's flip-even block: rows 1, 2, as
also C1 = C4).  A *selection* picks which ansatz coefficients stay
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
every system from ``_operator_columns`` on its sector's rows.  A function
that takes a level n names it once, by ``models.level``; the rest take (s, j).
``CoefficientPath``, what ``evolve`` drives with, solves along R
unfiltered: a selection's square systems, or the one minimum-norm solve,
``_min_norm`` (the Gram solve x = M^T (M M^T + n n^T)^-1 r of the stacked
real and imaginary rows M, n their left null vector where they have one)
over the model's whole ansatz, to which ``_min_norm_solve`` (``solve_dense``
and ``solve_lz`` at one R) adds a full-row residual check.  The census runs
``_accept`` (square reduced systems over (R, selection), filtered, as
arrays) in ``solve_grid``/``enumerate_grid``.  Every square system is
solved as adj(M) b / det M (``_solve_square``), and the census filters it
by its 2-norm condition number, taken in closed form from the system's
Gram and adjugate matrices: their largest eigenvalues are roots of
``models.closed_form_eigenvalues``.  cond is inf where det = 0 or the
system is singular to working precision.  No LU, SVD or eigensolve runs:
every kernel is elementwise over the points.
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
VELOCITY_EPS = 1e-12   # relative threshold below which v(t) counts as zero
EPS = np.finfo(float).eps
COND_MAX = 1e10        # largest condition number of an accepted reduced system
IMAG_TOL = 1e-9        # largest imaginary part of an accepted coefficient
RESIDUAL_TOL = 1e-10   # largest full-system residual of an accepted solution
GROUP_TOL = 1e-8       # largest coefficient distance within a degenerate group
GRAM_COND_MAX = 1e8    # largest condition bound of a minimum-norm solve's Gram matrix
REASONS = ("", "singular", "not_real", "residual")   # rejection reasons by code


@dataclass(frozen=True)
class ReducedSystem:
    coefficient_matrix: np.ndarray   # (m, k) complex
    rhs: np.ndarray                  # (m,) complex
    unknown_names: tuple
    state_vector: np.ndarray         # full C, for residual recomputation
    rhs_full: np.ndarray             # full 4-component right-hand side
    rows: tuple                      # the reduced rows of the state's sector


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
    return np.einsum("...kab,...b->...ak", basis if rows is None else basis[..., list(rows), :], C)


def _min_norm(A, b, null=None):
    """Minimum-norm real x (k, N) solving the complex rows A x = b, A (m, k, N), b (m, N).

    The real and imaginary rows form one real system M (2m, k, N), and
    x = M^T (M M^T + n n^T)^-1 r for the stacked right-hand side r.  ``null``
    is M's left null vector n (2m, N) where its rank is 2m - 1 (None where M
    has full row rank).  The Gram matrix is solved by a Cholesky factor L in
    component layout, elementwise over N, so each x rounds alike in any
    stack.  Also returns (max L_jj / min L_jj)^2 (N,), a lower bound on the
    Gram matrix's condition number (NaN where it is not positive definite).
    """
    M = np.concatenate([A.real, A.imag])
    r = np.concatenate([b.real, b.imag])
    G = sum(M[:, k, None] * M[None, :, k] for k in range(M.shape[1]))
    if null is not None:
        G += null[:, None] * null[None]
    L = np.zeros_like(G)
    with np.errstate(invalid="ignore", divide="ignore"):   # refused by the caller
        for j in range(len(r)):
            rest = G[j:, j] - sum(L[j:, q] * L[j, q] for q in range(j))
            L[j, j] = np.sqrt(rest[0])
            L[j + 1:, j] = rest[1:] / L[j, j]
        y = list(r)
        for i in range(len(y)):                     # L z = r, then L^T y = z
            y[i] = (y[i] - sum(L[i, q] * y[q] for q in range(i))) / L[i, i]
        for i in reversed(range(len(y))):
            y[i] = (y[i] - sum(L[q, i] * y[q] for q in range(i + 1, len(y)))) / L[i, i]
        x = np.zeros(M.shape[1:])   # from +0.0, as a sum starts: a zero prints 0.0, not -0.0
        for i in range(len(y)):
            x += M[i] * y[i]
        diagonal = L[range(len(r)), range(len(r))]
        return x, (diagonal.max(axis=0) / diagonal.min(axis=0)) ** 2


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
    """Cross products V[1] x V[2], V[2] x V[0], V[0] x V[1] of the vectors V (3, 3, ...),
    by ``models._cross3``: two equal vectors give exact zeros."""
    return [models._cross3(V[1], V[2]), models._cross3(V[2], V[0]), models._cross3(V[0], V[1])]


def _adjugate(V):
    """(U, det M) of the matrices M whose m = 2 or 3 columns are V (m, m, ...): U[i][j] is
    entry (i, j) of adj(M), its rows ``_cross`` for m = 3, and det M = tr(adj(M) M) / m,
    which a zero or repeated column makes exactly 0."""
    if len(V) == 2:
        return ([[V[1, 1], -V[1, 0]], [-V[0, 1], V[0, 0]]],
                V[0, 0] * V[1, 1] - V[1, 0] * V[0, 1])
    U = _cross(V)
    # summed one term at a time, each row's first: a repeated column cancels exactly,
    # and a complex sum over an axis rounds apart at N = 1
    return U, sum(sum(U[k][r] * V[k, r] for r in range(3)) for k in range(3)) / 3


def _solve_square(V, b, adjugate=None):
    """x (m, ...) = adj(M) b / det M for the matrices M whose m = 2 or 3 columns are
    V (m, m, ...) and the right-hand sides b (m, ...); ``adjugate`` optionally holds
    ``_adjugate(V)`` already built.  x is not finite where det M = 0."""
    U, det = _adjugate(V) if adjugate is None else adjugate
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.array([sum((u[j] * b[j] for j in range(1, len(b))), u[0] * b[0]) / det
                         for u in U])


def _condition_number(M, U=None):
    """2-norm condition numbers of a (..., m, m) stack, m = 2 or 3; inf if singular.

    cond = sigma_max(M) sigma_max(adj M) / |det M|, in closed form.  For
    m = 2, sigma_max(adj M) = sigma_max(M).  For m = 3 the rows of adj M
    are the cross products of M's columns, and |det M| = |adj(adj M)| / |M|
    (Frobenius norms), since adj(adj M) = det(M) M.  Its error is that of a
    backward-stable det, about eps cond relative; the cofactor expansion
    a.(b x c) errs by up to eps cond^2 and rates some rank-1 matrices as
    well conditioned.  A zero or repeated column gives det exactly 0.  A
    system singular to working precision (cond >= 1/eps) gets cond inf.
    ``U`` optionally holds the rows of adj M (``_adjugate``) already built (m = 3).
    The largest Gram eigenvalue (``_norm2_squared``) loses up to about 1e-8
    relative accuracy where two singular values of M coincide (s1 = s2 in
    the Gram matrix of M, s2 = s3 in that of adj M).
    """
    V = np.moveaxis(M, (-1, -2), (0, 1))   # V[k] is column k
    if len(V) == 2:
        det = abs(V[0, 0] * V[1, 1] - V[1, 0] * V[0, 1])
        num = _norm2_squared(V)
    else:
        U = np.array(_cross(V) if U is None else U)     # rows of adj M
        size = _squared_norms(V).sum(axis=0)
        det = np.sqrt(np.divide(_squared_norms(np.array(_cross(U))).sum(axis=0), size,
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


def reduce_system(model, R, n, selection):
    """Square reduced system for the selected free coefficients of state n at R."""
    level = models.level(model, R, n)
    _, C, _, rhs = models.tracked_state(model, np.array([float(R)]), level)
    rows = model.sector_rows[level[0]]
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
    V = np.moveaxis(M, (-1, -2), (0, 1))
    adjugate = _adjugate(V)
    cond = _condition_number(M, adjugate[0])
    regular = np.isfinite(cond) & (cond <= COND_MAX)
    x = _solve_square(V, np.moveaxis(rhs[:, None, list(rows)], -1, 0), adjugate)
    x = np.where(regular[..., None], np.moveaxis(x, 0, -1), 0.0)
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
    """``enumerate_grid`` of state n at the one point R: a one-point GridEnumeration."""
    return enumerate_grid(model, [R], models.level(model, R, n))


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


def solve_grid(model, R_values, selections, level=(0, 0)):
    """Every selection at every point of an R grid, unclustered (group ids -1).

    One ``tracked_state`` call of ``level`` (s, j) covers the grid and one
    ``_accept`` call every (R, selection) pair.
    """
    R = np.atleast_1d(np.asarray(R_values, dtype=float))
    _, C, dC, rhs = models.tracked_state(model, R, level)
    rows = model.sector_rows[level[0]]
    arrays = _accept(_square_indices(model, selections, rows), C, rhs, rows)
    return GridEnumeration(R, tuple(selections), *arrays,
                           np.full(arrays[1].shape, -1), C, dC, rhs)


def enumerate_grid(model, R_values, level=(0, 0)):
    """Every admissible selection at every point of an R grid, clustered (``solve_grid``)."""
    grid = solve_grid(model, R_values, admissible_selections(model), level)
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
    Gram solve of ``_min_norm`` picks the smallest-coefficient member of the
    solution family.  This is the route for models whose sparse selections all fail
    the realness filter.  Returns (x, residual) of ``_min_norm_solve`` at R.
    """
    if model.dim != 4:
        raise ConfigError("dense ansatz solutions exist for two-spin models only")
    (x,), (residual,) = _min_norm_solve(model, [float(R)], models.level(model, R, n))
    return x, residual


def _min_norm_solve(model, R, level=(0, 0)):
    """``CoefficientPath``'s minimum-norm values (N, k) over a 1-d R, and their residuals (N,).

    The residual takes all of the model's rows, not only the sector's
    reduced ones; ``solve_dense`` and ``solve_lz`` are the one-point case.
    Refuses, naming the first R, a residual above RESIDUAL_TOL.
    """
    _, C, _, rhs = state = models.tracked_state(model, R, level)
    path = CoefficientPath(model, None, level)
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
    (x,), (residual,) = _min_norm_solve(model, [float(R)], models.level(model, R, n))
    return x, residual


# ---------------------------------------------------------------------------
# state-independent counter-diabatic operator

def drb_counterdiabatic(model, R):
    """State-independent counter-diabatic operator (per unit velocity).

    i * sum_n (|dn><n| - |n><n|dn><n|), gauge independent, so one
    eigensolve per point and sector gives it through the spectral formula.
    dH/dR couples no two sectors, so it is a sum over the sectors: in the
    eigenbasis of each block its elements are i <m|dH/dR|n> / (E_n - E_m)
    off the diagonal and zero on it.  R is a scalar or an array, and the
    result is shaped like ``models.hamiltonian``'s.  Refuses two levels of
    one sector closer than GAP_MIN, and checks that the diagonal in the
    eigenbasis vanishes; both errors name the first offending R.
    """
    flat = np.ravel(np.asarray(R, dtype=float))
    solved = [models._sector_eigh(model, flat, s) for s in range(len(model.sectors))]
    w = np.concatenate([w for w, _ in solved]).T                  # (N, dim), sector by sector
    V = np.concatenate([models._apply(P, V) for P, (_, V) in zip(model.sectors, solved)],
                       axis=1).transpose(2, 0, 1)                 # V[:, :, m] = P v of level m
    sector = np.repeat(np.arange(len(solved)), [len(w) for w, _ in solved])
    # two distinct levels of one sector: the only pairs the operator couples
    in_sector = (sector[:, None] == sector) & ~np.eye(model.dim, dtype=bool)
    denom = w[:, None, :] - w[:, :, None]           # E_n - E_m at [k, m, n]
    gap = np.abs(denom[:, in_sector]).min(axis=1, initial=np.inf)
    if np.any(gap < models.GAP_MIN):
        k = int(np.argmax(gap < models.GAP_MIN))
        raise DegeneracyError(
            f"eigenvalue gap {gap[k]:.3e} at R={flat[k]} is below GAP_MIN={models.GAP_MIN:.1e}"
        )
    denom[:, ~in_sector] = 1.0
    Vh = np.conj(np.swapaxes(V, -1, -2))
    K = 1j * (Vh @ model.slope_matrix @ V) / denom
    K[:, ~in_sector] = 0.0
    H = V @ K @ Vh
    H = 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))
    diag = np.abs(np.einsum("kam,kab,kbm->km", np.conj(V), H, V))   # |<n|H|n>|
    if np.any(diag > DRB_DIAG_TOL):
        k, n = np.unravel_index(np.argmax(diag > DRB_DIAG_TOL), diag.shape)
        raise ConsistencyError(
            f"counter-diabatic operator has diagonal element {diag[k, n]:.3e} "
            f"in eigenbasis at R={flat[k]}"
        )
    return H.reshape(np.shape(R) + H.shape[1:])


# ---------------------------------------------------------------------------
# coefficient paths and the driving Hamiltonian

class CoefficientPath:
    """Evaluates regularization coefficients along R for a fixed strategy.

    ``selection`` is a tuple of ansatz names, or None or "dense" for the
    minimum-norm member over the model's ansatz: the nine two-spin
    operators, or (sz, sx, -sy) for the two-level model, which takes no
    selection but None (ConfigError).  ``level`` (s, j) is the tracked
    level, level j of sector s (default: level 0 of sector 0, the ground
    state of every model kind); the systems keep sector s's rows, and a
    selection must square them (ConfigError).  Evaluation is vectorized
    over arrays of R values; no accept/reject filtering happens here.
    """

    def __init__(self, model, selection=None, level=(0, 0)):
        self.model, self.level = model, level
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
        P = model.sectors[level[0]]
        self.rows = model.sector_rows[level[0]]
        if self.mode == "selection":
            _square_indices(model, [self.names], self.rows)
        # where the ansatz maps the sector into itself (Q^T B P = 0 for the other sectors
        # Q): the amplitudes each reduced row stands for, which weight the left null
        # vector of the minimum-norm rows, as Im <C|Htilde|C> = 0; else None
        self.weights = ((P != 0).sum(axis=0) if all(np.abs(Q.T @ self.basis @ P).max()
                        <= SYMMETRY_TOL for Q in model.sectors if Q is not P) else None)
        # the nonzero basis entries on the sector's rows (``_columns``)
        T = self.basis[:, list(self.rows)]                   # (k, m, dim)
        self._terms = [(r, k, [(d, T[k, r, d]) for d in np.flatnonzero(T[k, r])])
                       for r in range(len(self.rows)) for k in range(len(T))]

    def values(self, R_array, *, state=None):
        """(N, k) coefficient values at each R.

        ``state`` optionally holds ``models.tracked_state`` of the level at
        R_array, computed by the caller.  Raises ConsistencyError at the
        first R where the reduced system is exactly singular (det = 0), the
        minimum-norm Gram matrix exceeds GRAM_COND_MAX or a coefficient is
        not finite.
        """
        R_array = np.asarray(R_array, dtype=float)
        if state is None:
            state = models.tracked_state(self.model, R_array, self.level)
        _, C, _, rhs = state
        Cr, b = C.T[list(self.rows)], rhs.T[list(self.rows)]
        M = self._columns(C.T)
        # the minimum-norm solve takes the reduced rows too; on tfim's flip-even
        # block it leaves the flip-odd coefficients at 0 to rounding
        if self.mode == "dense":
            null = None
            if self.weights is not None:
                w = self.weights[:, None]
                null = np.concatenate([-w * Cr.imag, w * Cr.real])
            x, cond = _min_norm(M, b, null)
            bad = ~(cond <= GRAM_COND_MAX)
            if np.any(bad):
                k = int(np.argmax(bad))
                raise ConsistencyError(
                    f"minimum-norm Gram matrix has cond >= {cond[k]:.3e} (GRAM_COND_MAX="
                    f"{GRAM_COND_MAX:.0e}) at R={float(R_array[k])!r}")
        else:
            x = _solve_square(np.swapaxes(M, 0, 1), b).real
        bad = ~np.all(np.isfinite(x), axis=0)
        if np.any(bad):
            raise ConsistencyError(
                f"reduced system is singular or a coefficient is not finite "
                f"at R={float(R_array[np.argmax(bad)])!r}"
            )
        return x.T

    def _columns(self, C):
        """(rows, k, N) reduced systems (basis_k C)[rows] of the states C (dim, N).

        Each entry adds the products of its nonzero basis entries with C in the
        order of the amplitudes, one component array at a time, in component layout.
        """
        M = np.empty((len(self.rows), len(self.basis), C.shape[1]), dtype=complex)
        for r, k, entry in self._terms:
            if entry:
                (d, value), *rest = entry
                M[r, k] = value * C[d]
                for d, value in rest:
                    M[r, k] += value * C[d]
            else:
                M[r, k] = 0.0
        return M

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
    """H0 at the advanced parameter plus velocity times the regularization of state n.

    State n is named at R0 (``models.level``).  t is a scalar or an array,
    and the result is shaped like ``models.hamiltonian``'s.  Exactly H0
    wherever the point is not driven (both protocol endpoints), which also
    sidesteps the coefficient singularities that can sit there.
    """
    t = np.asarray(t, dtype=float)
    R, v = advanced_parameter(schedule, t.ravel()), velocity(schedule, t.ravel())
    H = models.hamiltonian(model, R)
    live = is_driven(schedule, R, v)
    if np.any(live):
        path = CoefficientPath(model, solution, models.level(model, schedule.R0, n))
        H[live] += v[live, None, None] * path.matrices(R[live])
    return H.reshape(t.shape + H.shape[1:])
