"""Time-dependent Schroedinger propagation under the driving Hamiltonian.

The integrator is the fourth-order commutator-free Magnus scheme
CF4:2 (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006);
Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)), built from the
Hamiltonian at each step's start, midpoint and end (the stage grid of
2*steps+1 points).  Each of its exponentials is a degree-6 Taylor sum
with per-matrix scaling and squaring, not an eigensolve.  Because the
equation is linear the whole run reduces to a product of per-step
transfer matrices, folded per sample interval (chunk) in time order.

Every step runs on the b x b block P^H H_FF P of the initial state's
sector (``cdsolver.tracked_sector``): b = 3 for the qa and gen triplet,
2 for tfim's flip-even block and the two-level model, 1 for a singlet or
(|uu>-|dd>)/sqrt2.  The block drops the drive's flip-odd part, 0 to
rounding on tfim.  The state is expanded, P psi_b, only at the samples.
Once the drive is added, every matrix stack is (b, b, N), matrix axes
first, and ``_mul`` multiplies two stacks as b**3 elementwise
multiply-adds over N (a stacked matmul costs about as much per 3x3
matrix as per 4x4); psi advances one chunk at a time.

The stage grid is walked in blocks of whole chunks, at most
BLOCK_STAGE_POINTS stage points each (a chunk wider than that is
split): each block builds its stage Hamiltonians once, solves the
regularization coefficients on them, builds and folds the step
matrices and emits its sample rows, so memory does not grow with the
step count.

The scheme is unitary to rounding, so norm drift does not measure the
step size.  Each block also folds the product of steps of 2*dt over
consecutive step pairs; the distance of the two block-end states over
15 estimates the error of the fine steps (step doubling at fourth
order), summed over blocks into a StepSizeError bound.  No
renormalization is applied anywhere.

Each pass is fixed-step.  Without an explicit dt, ``evolve`` chooses
the step count from this estimate by step doubling (extrapolation
step-size control, Hairer, Norsett & Wanner, Solving ODEs I, II.4):
passes at N0, 2 N0, 4 N0, ... steps over the same N0 chunks.  The even
stage points of a pass are those of the pass before, whose coefficient
rows it reuses, and its 2h product over a chunk is that pass's transfer
matrix of the chunk.

The fidelity tracks |<psi(t), C_n(R(t))>| against the instantaneous
eigenvector; with an exact regularization term it stays at 1 up to
integration noise.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import models
from .ansatz import matrices_from_rows
from .cdsolver import CoefficientPath, fast_forward_hamiltonian, is_driven, tracked_sector
from .errors import DomainError, StepSizeError
from .schedule import advanced_parameter, step_count, velocity

NORM_DRIFT_MAX = 1e-6
STEP_ERROR_MAX = 1e-6       # bound on the summed step-doubling error estimate
STEP_TOL = 1e-10            # estimate the default step count aims at
DEFAULT_STEPS = 8000        # fallback step count of a default run (samples if larger)
DEFAULT_SAMPLES = 1000
MIN_SAMPLES = 200
PHASE_NODES = 128
PROBE_NODES = 4             # Gauss nodes on each half of an ff_state_residual probe triple
BLOCK_STAGE_POINTS = 2048   # stage points evolve holds at once
TAYLOR_THETA = 0.0178       # ||X||_1 at which the degree-6 remainder theta**7/7! is below 2**-53


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered samples of a fast-forward run."""

    t: np.ndarray                 # (S,) strictly increasing, 0 .. T_FF
    R_adv: np.ndarray             # (S,)
    psi: np.ndarray               # (S, dim) complex state samples
    norm: np.ndarray              # (S,)
    fidelity: np.ndarray          # (S,)
    energies: np.ndarray          # (S, dim) instantaneous spectrum
    coefficients: np.ndarray      # (S, k) regularization coefficients
    coefficient_names: tuple
    velocity: np.ndarray          # (S,)
    dt: float
    steps: int
    step_error: float             # step-doubling estimate of the error in psi, summed over blocks

    @property
    def populations(self):
        return np.abs(self.psi) ** 2

    @property
    def min_fidelity(self):
        return float(np.min(self.fidelity))

    @property
    def max_norm_drift(self):
        return float(np.max(np.abs(self.norm - 1.0)))

    @property
    def terminal_populations(self):
        return self.populations[-1]


# What a pass keeps for the pass at twice its step count (same chunks; its even
# stage points are these): the coefficient rows on the stage grid (2*steps+1, k;
# zero where undriven, None if no point is driven), each chunk's block transfer
# matrix (b, b, chunks), and the spectrum and eigenvector n at the samples.  R
# and v are recomputed: point 2j of the next pass sits at 2j fl(T/(4N)) =
# j fl(T/(2N)), the same u bit for bit.  No Hamiltonian or step stack is kept.
_Stages = namedtuple("_Stages", "rows G energies targets")


def _stage_block(schedule, steps, s0, s1):
    """R and v on stage points 2*s0 .. 2*s1 (step points and midpoints)."""
    u = np.arange(2 * s0, 2 * s1 + 1) * (schedule.T_FF / (2 * steps))
    return advanced_parameter(schedule, u, clamp=True), velocity(schedule, u, clamp=True)


def _mul(A, B):
    """A[..., k] @ B[..., k] over two (b, b, N) stacks; each depends on its own pair only."""
    # B[None, k] keeps ndims equal: numpy rounds 1-element complex products of unequal ndims apart
    C = A[:, 0, None] * B[None, 0]
    for k in range(1, len(B)):
        C += A[:, k, None] * B[None, k]
    return C


def _expm_hermitian(K, h):
    """exp(-ihK) for a (b, b, N) stack of Hermitian K, by a Taylor sum; no eigensolve.

    Each X = -ihK is scaled by its own 2**-s so that ||X 2**-s||_1 <= TAYLOR_THETA,
    summed to degree 6 by Paterson-Stockmeyer (three products) and squared s
    times (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)), so
    each exponential depends on its own matrix only, not on the rest of the stack.
    """
    d = range(len(K))
    norm = h * np.abs(K).sum(axis=0).max(axis=0)
    s = np.ceil(np.log2(np.maximum(norm / TAYLOR_THETA, 1.0))).astype(int)
    X = K * (-1j * h * np.exp2(-s))
    X2 = _mul(X, X)
    X3 = _mul(X2, X)
    # exp(X) ~ (I + X + X^2/2) + X^3 (I/6 + X/24 + X^2/120 + X^3/720),
    # summed in place to hold few stacks at once
    B = X3 * (1.0 / 720.0)
    B += X2 * (1.0 / 120.0)
    B += X * (1.0 / 24.0)
    B[d, d] += 1.0 / 6.0
    E = _mul(X3, B)
    del X3, B
    X2 *= 0.5
    E += X2
    E += X
    E[d, d] += 1.0
    for j in range(s.max(initial=0)):
        sq = s > j
        E[:, :, sq] = _mul(E[:, :, sq], E[:, :, sq])
    return E


def _cf4_step_matrices(H, h):
    """CF4:2 transfer matrices (b, b, steps) of the steps on a (b, b, 2*steps+1) stage grid.

    With the Simpson moments a1 = (H_s + 4 H_m + H_e)/6 and a2 = (H_e - H_s)/12 of
    each step, U = exp(-ih(a1/2 + 2 a2)) exp(-ih(a1/2 - 2 a2)), each factor by
    ``_expm_hermitian``; the right one acts first (the reverse order is second order).
    """
    H_s, H_m, H_e = H[..., 0:-1:2], H[..., 1::2], H[..., 2::2]
    # in place where possible: these stacks set the peak memory of a block
    half_a1 = H_s + 4.0 * H_m
    half_a1 += H_e
    half_a1 /= 12.0
    two_a2 = H_e - H_s
    two_a2 /= 6.0
    left = half_a1 + two_a2
    half_a1 -= two_a2
    del two_a2
    right = _expm_hermitian(half_a1, h)
    del half_a1
    return _mul(_expm_hermitian(left, h), right)


def _product(M):
    """Time-ordered product M[..., -1] @ ... @ M[..., 0] of a (b, b, N) stack, N >= 1."""
    while M.shape[-1] > 1:
        odd = M[..., M.shape[-1] // 2 * 2 :]    # an unpaired last matrix carries over
        M = np.concatenate([_mul(M[..., 1::2], M[..., 0:-1:2]), odd], axis=-1)
    return M[..., 0]


def _coarse_product(H, fine, h):
    """Product of the 2h steps over the step pairs of a stage block, unpaired last step fine."""
    pairs = fine.shape[-1] // 2
    coarse = _cf4_step_matrices(H[..., : 4 * pairs + 1 : 2], 2.0 * h)
    return _product(np.concatenate([coarse, fine[..., 2 * pairs :]], axis=-1))


def evolve(model, schedule, solution, n=0, dt=None, samples=DEFAULT_SAMPLES):
    """Integrate the TDSE from the gauge-fixed eigenvector n at R0.

    ``solution`` selects the regularization strategy (a selection tuple,
    "dense", or None for the two-level model); coefficients
    are re-solved along the advanced-parameter path.  Returns a Trajectory
    with at least MIN_SAMPLES uniform samples.

    Without ``dt`` the step count is chosen by step doubling: passes at
    N0 = max(samples, MIN_SAMPLES) steps, then 2 N0, 4 N0, ..., each built
    on the one before.  The first pass whose estimate is at most STEP_TOL
    is kept, and is the same trajectory as a run with that dt.  The first
    pass at max(DEFAULT_STEPS, samples) steps or more ends the search; a
    run at an explicit dt is that one pass.  Each finished pass is held to
    STEP_ERROR_MAX and NORM_DRIFT_MAX here, once (``_refusal``): the last
    pass raises StepSizeError, an earlier one that exceeds either is not kept.
    """
    if dt is None:
        cap, steps = max(DEFAULT_STEPS, samples), max(samples, MIN_SAMPLES)
    else:
        cap = steps = step_count(schedule, dt)
    base = None
    while True:
        last = steps >= cap
        traj, base = _evolve(model, schedule, solution, n, steps, samples, base, last)
        refusal = _refusal(traj)
        if last and refusal:
            raise StepSizeError(refusal)
        if last or (traj.step_error <= STEP_TOL and not refusal):
            return traj
        steps *= 2
        del traj    # not held through the next pass


def _refusal(traj):
    """Why a pass's steps are too coarse (STEP_ERROR_MAX, NORM_DRIFT_MAX), or None."""
    for what, value, bound in (("estimated step error", traj.step_error, STEP_ERROR_MAX),
                               ("norm drift", traj.max_norm_drift, NORM_DRIFT_MAX)):
        if value > bound:
            return f"{what} {value:.3e} exceeds {bound:.0e}; use a smaller dt than {traj.dt:.3e}"
    return None


def _evolve(model, schedule, solution, n, steps, samples, base=None, last=True):
    """``evolve`` at a fixed step count: (Trajectory, _Stages or None).

    ``base`` is the record of the pass at steps / 2 over the same chunks:
    its coefficient rows, chunk products and sample states
    are reused, so only the new stage points are solved.  A pass that is
    not ``last`` returns its own record.
    """
    dt = schedule.T_FF / steps
    n_chunks = min(steps, max(MIN_SAMPLES, samples))

    # sample intervals (chunks) of near-equal step counts; sample k sits on
    # step bounds[k], i.e. on stage point 2 * bounds[k]
    sizes = np.full(n_chunks, steps // n_chunks)
    sizes[: steps % n_chunks] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    width = int(sizes.max())
    # a block is `group` whole chunks, or `span` steps of one wider chunk
    group = max(1, BLOCK_STAGE_POINTS // (2 * width))
    span = min(width, max(1, BLOCK_STAGE_POINTS // 2))

    # initial state: gauge-fixed eigenvector n at R0, held to the gap guard,
    # so that it lies in one sector; the run is evolved on that block
    _, C0, _, rhs0 = models.tracked_state(model, np.array([schedule.R0]), n)
    sector, _ = tracked_sector(model, [schedule.R0], C0, rhs0)
    P = model.sectors[sector]
    dim = model.dim
    eye = np.eye(P.shape[1], dtype=complex)
    psi_b = np.empty((n_chunks + 1, P.shape[1]), dtype=complex)
    psi_b[0] = C0[0] @ P
    psi_s = np.empty((n_chunks + 1, dim), dtype=complex)
    psi_s[0] = psi_b[0] @ P.T
    R_s = np.empty(n_chunks + 1)
    v_s = np.empty(n_chunks + 1)
    # spectrum and eigenvector n at the samples: the samples are the same
    # points in every pass, solved by the first pass's stage eigensolve
    if base is None:
        w_s = np.empty((n_chunks + 1, dim))
        C_s = np.empty((n_chunks + 1, dim), dtype=complex)
    else:
        w_s, C_s = base.energies, base.targets
    if not last:
        G_all = np.empty(eye.shape + (n_chunks,), dtype=complex)
    path = coeffs = rows_all = None
    step_error = 0.0

    for j0 in range(0, n_chunks, group):
        j1 = min(j0 + group, n_chunks)
        G = None
        coarse = eye
        for l0 in range(0, width, span):
            l = np.arange(l0, min(l0 + span, width))
            # the block's step matrices (b, b, chunk, step), eye past each chunk's end
            valid = l[None, :] < sizes[j0:j1, None]
            Mpad = np.broadcast_to(eye[..., None, None], eye.shape + valid.shape).copy()
            # in row-major order the valid entries are steps s0 .. s1-1; a
            # segment can hold padding only, when a wide chunk is one step short
            s0 = bounds[j0] + l0
            s1 = min(bounds[j1 - 1] + l[-1] + 1, bounds[j1])
            if s1 > s0:
                Rs, vs = _stage_block(schedule, steps, s0, s1)
                blocks = models.sector_hamiltonians(model, Rs)
                H = blocks[sector]
                live = is_driven(schedule, Rs, vs)
                k = np.arange(np.searchsorted(bounds, s0), np.searchsorted(bounds, s1, "right"))
                pos = 2 * (bounds[k] - s0)
                rows = None
                if np.any(live):
                    if path is None:
                        path = CoefficientPath(model, solution, n)
                        drive = P.T @ path.basis @ P
                        coeffs = np.zeros((n_chunks + 1, len(path.names)))
                        if not last:
                            rows_all = np.zeros((2 * steps + 1, len(path.names)))
                    rows = np.zeros((len(Rs), len(path.names)))
                    new = live.copy()
                    if base is not None:
                        # the even points are solved in base (zero rows where undriven)
                        new[0::2] = False
                        if base.rows is not None:
                            rows[0::2] = base.rows[s0 : s1 + 1]
                    if np.any(new):
                        state = models.tracked_state(model, Rs[new], n,
                                                     blocks=[b[new] for b in blocks])
                        rows[new] = path.values(Rs[new], state=state)
                        if base is None:
                            at = live[pos]
                            idx = np.searchsorted(np.flatnonzero(live), pos[at])
                            w_s[k[at]], C_s[k[at]] = state[0][idx], state[1][idx]
                        del state   # not held through the step matrices, the block's peak
                    H[live] += vs[live, None, None] * matrices_from_rows(rows[live], drive)
                H = H.transpose(1, 2, 0).copy()     # (b, b, stage points) from here on
                fine = _cf4_step_matrices(H, dt)
                Mpad[:, :, valid] = fine
                if base is None:
                    coarse = _coarse_product(H, fine, dt) @ coarse
                del fine    # not held through the next block's step matrices

                # sample rows on the block's stage points
                R_s[k], v_s[k] = Rs[pos], vs[pos]
                if rows is not None:
                    coeffs[k] = rows[pos]
                if not last and rows is not None:
                    rows_all[2 * s0 : 2 * s1 + 1] = rows
            # fold chunk-wise: one stack product per intra-chunk index after the first
            for i in range(len(l)):
                G = Mpad[..., i] if G is None else _mul(Mpad[..., i], G)

        if base is not None:
            # each chunk of base is two steps here: its product is the 2h one
            coarse = _product(base.G[..., j0:j1])
        if not last:
            G_all[..., j0:j1] = G
        psi_coarse = coarse @ psi_b[j0]
        for j, g in enumerate(np.moveaxis(G, -1, 0).copy(), j0):    # contiguous b x b each
            np.matmul(g, psi_b[j], out=psi_b[j + 1])
        psi_s[j0 + 1 : j1 + 1] = psi_b[j0 + 1 : j1 + 1] @ P.T
        # fourth order: the fine error is |fine - coarse| / (2**4 - 1)
        step_error += float(np.linalg.norm(psi_b[j1] - psi_coarse)) / 15.0

    if base is None:
        # the undriven samples, at least the one at R0, had no stage eigensolve
        rest = ~is_driven(schedule, R_s, v_s)
        w, V = models.eigensystem_batch(model, R_s[rest])
        w_s[rest], C_s[rest] = w, V[:, :, n]
    t_s = bounds * dt
    t_s[-1] = schedule.T_FF
    fid = np.abs(np.einsum("sd,sd->s", np.conj(C_s), psi_s))
    if path is None:
        coeffs = np.zeros((len(t_s), 0))

    traj = Trajectory(
        t=t_s,
        R_adv=R_s,
        psi=psi_s,
        norm=np.linalg.norm(psi_s, axis=1),
        fidelity=fid,
        energies=w_s,
        coefficients=coeffs,
        coefficient_names=tuple(path.names) if path is not None else (),
        velocity=v_s,
        dt=dt,
        steps=steps,
        step_error=step_error,
    )
    if last:
        return traj, None
    return traj, _Stages(rows_all, G_all, w_s, C_s)


@lru_cache(maxsize=None)
def _legendre_rule(count):
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _phases(model, schedule, n, t_values):
    """(adiabatic, dynamical) phases accumulated up to each time.

    One ``tracked_state`` call over the Gauss nodes of all the times gives
    the rate v i <C|dC/dR> and the energy of state n.
    """
    t = np.asarray(t_values, dtype=float)[:, None]
    x, w = _legendre_rule(PHASE_NODES)
    tau = (0.5 * t * (x + 1.0)).ravel()
    energies, C, dC, _ = models.tracked_state(
        model, advanced_parameter(schedule, tau, clamp=True), n)
    rate = np.real(1j * np.einsum("nd,nd->n", np.conj(C), dC))
    rate = (velocity(schedule, tau, clamp=True) * rate).reshape(-1, PHASE_NODES)
    terms = zip(0.5 * t * w, rate, energies[:, n].reshape(-1, PHASE_NODES))
    return np.array([(np.dot(wk, rk), np.dot(wk, ek)) for wk, rk, ek in terms]).T


def ff_state(model, schedule, n, t_values, anchor=None):
    """Analytic fast-forward states at the given times, consistent gauge.

    Combines the instantaneous eigenvector at the advanced parameter with
    the accumulated dynamical and adiabatic phases.  Every sample holds
    ``anchor`` (one index, or one per sample) real and positive, by
    default the largest component of the middle sample.
    """
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    Rs = advanced_parameter(schedule, t_values, clamp=True)
    if anchor is None:
        anchor = _largest_component(model, Rs[[len(Rs) // 2]], n)
    _, vecs, _, _ = models.tracked_state(model, Rs, n, anchor=anchor)
    adiabatic, dynamical = _phases(model, schedule, n, t_values)
    return vecs * np.exp(1j * (adiabatic - dynamical))[:, None]


def _largest_component(model, R, n):
    """Index of the largest component of state n at each point of a 1-d R."""
    return np.argmax(np.abs(models.eigensystem_batch(model, R)[1][:, :, n]), axis=1)


def ff_state_residual(model, schedule, solution, n, t, dt_probe=1e-6):
    """TDSE residual of the analytic fast-forward state at probe times t.

    Finite-differences the state in time with step dt_probe and returns
    || i dpsi/dt - H_FF psi ||, which shrinks as dt_probe^2: a float for
    scalar t, else an array shaped like t.  The three probes around each t
    hold one anchor, the largest component at t, as ``ff_state`` of that
    triple alone would.  A global phase drops out of the residual, so each
    triple measures its phases from its first time t - dt_probe: one
    ``tracked_state`` call covers the probes and PROBE_NODES Gauss nodes on
    each half of every triple, where ``ff_state`` integrates from 0.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 < t) & (t < schedule.T_FF)):
        raise DomainError("probe time must be interior to (0, T_FF)")
    dt_probe = float(dt_probe)
    tk = t.ravel()
    ts = np.stack([tk - dt_probe, tk, tk + dt_probe], axis=1)      # (K, 3)
    width = np.diff(ts, axis=1)                                    # (K, 2) halves
    x, w = _legendre_rule(PROBE_NODES)
    tau = (ts[:, :2, None] + 0.5 * width[..., None] * (x + 1.0)).ravel()
    # the probes hold the largest component at t, the phase rate the
    # default gauge at t, as ff_state's phase integral does
    v = models.eigensystem_batch(model, advanced_parameter(schedule, tk, clamp=True))[1][:, :, n]
    anchors = np.concatenate([np.repeat(np.argmax(np.abs(v), axis=1), 3),
                              np.repeat(models.default_anchor(model, v), 2 * PROBE_NODES)])
    energies, C, dC, _ = models.tracked_state(
        model, advanced_parameter(schedule, np.append(ts, tau), clamp=True), n, anchor=anchors)
    k = ts.size                                                    # probes first, then nodes
    rate = (velocity(schedule, tau, clamp=True)
            * np.real(1j * np.einsum("nd,nd->n", np.conj(C[k:]), dC[k:])) - energies[k:, n])
    step = 0.5 * width * (rate.reshape(width.shape + (-1,)) @ w)
    phase = np.concatenate([np.zeros((len(tk), 1)), np.cumsum(step, axis=1)], axis=1)
    psi = C[:k].reshape(ts.shape + (-1,)) * np.exp(1j * phase)[..., None]
    dpsi = (psi[:, 2] - psi[:, 0]) / (2.0 * dt_probe)
    H = fast_forward_hamiltonian(model, schedule, solution, tk, n)
    residual = np.linalg.norm(1j * dpsi - (H @ psi[:, 1, :, None])[..., 0], axis=-1)
    return float(residual[0]) if t.ndim == 0 else residual.reshape(t.shape)
