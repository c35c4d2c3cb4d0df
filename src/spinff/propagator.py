"""Time-dependent Schroedinger propagation under the driving Hamiltonian.

The integrator is the fourth-order commutator-free Magnus scheme
CF4:2 (Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006);
Alvermann & Fehske, J. Comput. Phys. 230, 5930 (2011)), built from the
Hamiltonian at each step's start, midpoint and end (its stage points).
Each of its exponentials is a degree-6 Taylor sum with per-matrix
scaling and squaring, not an eigensolve.  Because the equation is
linear, each sample interval (chunk) reduces to a product of per-step
transfer matrices, folded in time order, and psi advances once over
the chunk products.

Level n at R0 is named there, once, as level j of sector s
(``models.level``), and every step runs on the b x b block P^H H_FF P of
sector s: b = 3 for the qa and gen triplet, 2 for tfim's flip-even block
and the two-level model, 1 for a singlet or (|uu>-|dd>)/sqrt2.  The block
drops the drive's flip-odd part, 0 to rounding on tfim.  The state is
expanded, P psi_b, only at the samples.
Every matrix stack is (b, b, N), matrix axes first, from the stage blocks
of ``models.sector_hamiltonians`` on, and ``models._mul`` multiplies two
stacks as b**3 elementwise multiply-adds over N (a stacked matmul costs
about as much per 3x3 matrix as per 4x4).

Each chunk is a fixed-step run on its own grid; chunks may differ in
step count.  A pass walks its steps in time order, in blocks of about
BLOCK_STAGE_POINTS // 2 steps cut wherever the chunk bounds fall: each
builds and solves its stage points once and builds and folds its step
matrices, so memory does not grow with the step count.

The scheme is unitary to rounding, so norm drift does not measure the
step size.  The error is estimated by step doubling at fourth order,
per chunk pair: |(G_pair - G_2h) C| / 15, with G_2h the pair's steps
paired two by two from its first (an odd one out at h), no 2h step cut
by a block, and C the tracked eigenvector at the pair's start.  The sum
over the pairs bounds the error at every sample, and is held to
STEP_ERROR_MAX.  No renormalization is applied anywhere.

Without an explicit dt, ``evolve`` spends steps where this estimate is
(local extrapolation with step-size control, Hairer, Norsett & Wanner,
Solving ODEs I, II.4): every chunk starts at one step, and the pairs
with the largest estimates double their steps, round by round, until
the predicted sum is at most STEP_TOL.  A doubled chunk keeps its stage
points, bit for bit, as its even ones and reuses their coefficient
rows; its previous product is the 2h one of its new estimate.

The fidelity tracks |<psi(t), C_n(R(t))>| against the instantaneous
eigenvector; with an exact regularization term it stays at 1 up to
integration noise.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import models
from .models import _mul
from .ansatz import matrices_from_rows
from .cdsolver import CoefficientPath, fast_forward_hamiltonian, is_driven
from .errors import DomainError, StepSizeError
from .schedule import advanced_parameter, step_count, velocity

NORM_DRIFT_MAX = 1e-6
STEP_ERROR_MAX = 1e-6       # bound on the summed step-doubling error estimate
STEP_TOL = 1e-10            # estimate the default refinement aims at
DEFAULT_STEPS = 8000        # step cap of a default run (samples if larger), as N0 chunks of 2**k
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
    coefficients: np.ndarray      # (S, k) regularization coefficients
    coefficient_names: tuple
    velocity: np.ndarray          # (S,)
    dt: float                     # T_FF / steps, the mean step
    steps: int                    # steps over the whole run
    chunk_steps: np.ndarray       # (S - 1,) steps of each sample interval
    step_error: float             # chunk-pair step-doubling estimates, summed: bounds every sample

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


def _stage_block(schedule, M, keys):
    """R and v on the stage points ``keys`` of the grid of M steps: point k at k fl(T_FF/(2M)).

    Scaling M and the keys by one power of two gives the same u bit for bit,
    so a chunk that doubles its steps keeps its points as its even ones.
    """
    u = keys * (schedule.T_FF / (2 * M))
    return advanced_parameter(schedule, u, clamp=True), velocity(schedule, u, clamp=True)


def _expm_hermitian(K, h):
    """exp(-ihK) for a (b, b, N) stack of Hermitian K, by a Taylor sum; no eigensolve.

    h is one step or one per matrix.  Each X = -ihK is scaled by its own 2**-s
    so that ||X 2**-s||_1 <= TAYLOR_THETA, summed to degree 6 by
    Paterson-Stockmeyer (three products) and squared s times (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)), so each exponential
    depends on its own matrix only, not on the rest of the stack.
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


def _cf4_step_matrices(H_s, H_m, H_e, h):
    """CF4:2 transfer matrices (b, b, N) of N steps of width h (one, or one per step).

    H_s, H_m and H_e hold each step's Hamiltonian at its start, midpoint and
    end.  With the Simpson moments a1 = (H_s + 4 H_m + H_e)/6 and
    a2 = (H_e - H_s)/12, U = exp(-ih(a1/2 + 2 a2)) exp(-ih(a1/2 - 2 a2)), each
    factor by ``_expm_hermitian``; the right one acts first (the reverse
    order is second order).
    """
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


def _fold(M, counts, G):
    """G[..., g] <- P_g @ G[..., g] for the (b, b, runs) stack G, P_g the time-ordered
    product of the g-th run of counts[g] consecutive matrices of the (b, b, N) stack M.

    Each product is folded one matrix at a time, so a run split over two
    calls gives the same bits as in one.
    """
    valid = np.arange(counts.max()) < counts[:, None]
    # (b, b, step, run), so that each step's stack is contiguous
    pad = np.broadcast_to(np.eye(len(M), dtype=M.dtype)[..., None, None],
                          M.shape[:2] + valid.shape[::-1]).copy()
    pad.transpose(0, 1, 3, 2)[:, :, valid] = M
    for step in pad.transpose(2, 0, 1, 3):
        G = _mul(step, G)
    return G


def evolve(model, schedule, solution, n=0, dt=None, samples=DEFAULT_SAMPLES):
    """Integrate the TDSE from the gauge-fixed eigenvector n at R0 (``models.level``).

    ``solution`` selects the regularization strategy (a selection tuple,
    "dense", or None for the two-level model); coefficients
    are re-solved along the advanced-parameter path.  Returns a Trajectory
    of max(samples, MIN_SAMPLES) chunks, fewer only at a ``dt`` of fewer steps.

    Without ``dt`` the N0 = max(samples, MIN_SAMPLES) chunks start at one
    step and double by pairs (``_pick``), each at most to the smallest power
    of two at which the N0 chunks hold max(DEFAULT_STEPS, samples) steps;
    ``_evolve`` at the run's ``chunk_steps`` replays it.  With ``dt`` the run
    is one pass of T_FF/dt uniform steps on min(steps, max(MIN_SAMPLES,
    samples)) chunks of near-equal step counts.  Either way the finished run
    is held once to STEP_ERROR_MAX and NORM_DRIFT_MAX (``_refusal``) and
    raises StepSizeError if it exceeds either.
    """
    if dt is None:
        n0 = max(samples, MIN_SAMPLES)
        top = 1
        while n0 * top < max(DEFAULT_STEPS, samples):
            top *= 2
        level = models.level(model, schedule.R0, n)
        run = _Run(model, schedule, solution, level, np.ones(n0, dtype=int), top)
        while len(pairs := _pick(run.error, run.sizes[: 2 * len(run.error) : 2] < top)):
            run.refine(pairs)
        traj = run.trajectory()
    else:
        steps = step_count(schedule, dt)
        n_chunks = min(steps, max(MIN_SAMPLES, samples))
        sizes = np.full(n_chunks, steps // n_chunks)
        sizes[: steps % n_chunks] += 1
        traj = _evolve(model, schedule, solution, n, sizes, uniform=True)
    refusal = _refusal(traj)
    if refusal:
        raise StepSizeError(refusal)
    return traj


def _pick(error, room):
    """The pairs to refine next, in increasing order: those with ``room`` below
    the per-chunk cap, largest estimate first, until the sum predicted with
    error/16 for each refined pair is at most STEP_TOL (all of them if no
    choice gets there).  None once the sum itself is at most STEP_TOL."""
    excess = error.sum() - STEP_TOL
    if excess <= 0:
        return np.empty(0, dtype=int)
    order = np.flatnonzero(room)
    order = order[np.argsort(-error[order], kind="stable")]
    gain = np.cumsum(error[order]) * (15.0 / 16.0)
    return np.sort(order[: np.searchsorted(gain, excess) + 1])


def _refusal(traj):
    """Why a run's steps are too coarse (STEP_ERROR_MAX, NORM_DRIFT_MAX), or None."""
    finest = np.min(np.diff(traj.t) / traj.chunk_steps)
    for what, value, bound in (("estimated step error", traj.step_error, STEP_ERROR_MAX),
                               ("norm drift", traj.max_norm_drift, NORM_DRIFT_MAX)):
        if value > bound:
            return f"{what} {value:.3e} exceeds {bound:.0e}; use a smaller dt than {finest:.3e}"
    return None


def _evolve(model, schedule, solution, n, sizes, uniform=False):
    """The Trajectory of one fixed-step pass of state n over chunks of sizes[j] steps.

    ``uniform``: the chunks are consecutive runs of one grid of sum(sizes)
    steps (a run at an explicit dt).  Otherwise they are len(sizes) equal
    sample intervals, chunk j at step T_FF / (len(sizes) sizes[j]) (powers
    of two), which replays a default run from its ``chunk_steps``.
    """
    top = None if uniform else int(np.max(sizes))
    level = models.level(model, schedule.R0, n)
    return _Run(model, schedule, solution, level, sizes, top).trajectory()


class _Run:
    """The chunks (sample intervals) of a run of ``level`` (s, j), each a fixed-step CF4:2
    run on its own grid.

    Stage point k lies at u = k fl(T_FF/(2M)); chunk j spans the points
    bounds[j] .. bounds[j+1] at stride (bounds[j+1] - bounds[j]) / (2 sizes[j]).
    With ``top`` the chunks are equal, M is len(sizes) * top, and the run
    keeps the coefficient row of every driven stage point it has solved,
    by key, for ``refine``; without it they lie on one uniform grid of
    sum(sizes) steps.  Chunks 2p and 2p+1 are
    pair p (an odd last chunk joins the last pair), whose ``error`` is
    |(G_pair - G_2h) C_b| / 15, C_b the tracked eigenvector at the pair's
    first sample in block coordinates, G_2h its steps paired two by two
    from its first.  The constructor makes the first pass, which solves
    every driven stage point, fills the sample rows and folds each pair's
    2h steps; psi advances once, in ``trajectory``.
    """

    def __init__(self, model, schedule, solution, level, sizes, top=None):
        self.model, self.schedule, self.solution, self.level = model, schedule, solution, level
        self.sizes = np.array(sizes, dtype=np.int64)
        N = len(self.sizes)
        if top is None:
            self.bounds = 2 * np.concatenate([[0], np.cumsum(self.sizes)])
            self.M = int(self.sizes.sum())
        else:
            self.bounds = np.arange(N + 1) * (2 * top)
            self.M = N * top
        self.pair = np.minimum(np.arange(N) // 2, N // 2 - 1)
        self.keep_rows = top is not None
        self.path = self.coeffs = self.row_keys = self.rows = None

        self.sector = level[0]
        self.P = model.sectors[self.sector]
        self.eye = np.eye(self.P.shape[1], dtype=complex)
        self.G = self._identity(N)
        self.R_s, self.v_s = _stage_block(schedule, self.M, self.bounds)
        # the tracked eigenvector at the samples: here at the undriven ones, R0
        # among them, and at the others from the first pass's stage eigensolve
        self.C_s = np.empty((N + 1, model.dim), dtype=complex)
        rest = ~is_driven(schedule, self.R_s, self.v_s)
        self.C_s[rest] = models.tracked_state(model, self.R_s[rest], level)[1]
        self.psi0 = self.C_s[0] @ self.P

        coarse = self._identity(N // 2)
        self._pass(np.arange(N), coarse)
        self.error = self._error(np.arange(N // 2), coarse)

    def _identity(self, count):
        return np.repeat(self.eye[..., None], count, axis=-1)

    def refine(self, pairs):
        """Double the steps of every chunk of ``pairs`` (increasing) and re-estimate
        each pair against its previous product."""
        before = self._products(pairs)
        chunks = self._chunks(pairs)
        self.sizes[chunks] *= 2
        self.G[..., chunks] = self.eye[..., None]
        self._pass(chunks)
        self.error[pairs] = self._error(pairs, before)

    def _chunks(self, pairs):
        """The chunks of ``pairs``, in increasing order."""
        mask = np.zeros(self.pair[-1] + 1, dtype=bool)
        mask[pairs] = True
        return np.flatnonzero(mask[self.pair])

    def _products(self, pairs):
        chunks = self._chunks(pairs)
        return _fold(self.G.take(chunks, -1), np.bincount(self.pair[chunks])[pairs],
                     self._identity(len(pairs)))

    def _error(self, pairs, coarse):
        C = self.C_s[2 * pairs] @ self.P
        D = np.einsum("ijp,pj->pi", self._products(pairs) - coarse, C)
        # fourth order: the fine error is |fine - coarse| / (2**4 - 1)
        return np.linalg.norm(D, axis=1) / 15.0

    def _pass(self, chunks, coarse=None):
        """Fold the steps of ``chunks`` (increasing) into G in time order, in blocks
        of BLOCK_STAGE_POINTS // 2 steps (one more where the cut would split a 2h
        step): each builds its stage Hamiltonians once, solves the coefficients
        on them and builds and folds the step matrices.

        The first pass (``coarse`` given) solves every driven point, fills the
        sample rows and folds into ``coarse`` each pair's steps two by two from
        its first, wherever the blocks fall, an odd one out at h; a later one
        solves only the midpoints.
        """
        model, schedule = self.model, self.schedule
        first_pass = coarse is not None
        sizes = self.sizes[chunks]
        stride = (self.bounds[chunks + 1] - self.bounds[chunks]) // (2 * sizes)
        # the pass's steps s in time order: chunk c holds end[c] - sizes[c] .. end[c] - 1,
        # and step s starts at key origin[c] + 2 stride[c] s
        end = np.cumsum(sizes)
        solved = []     # (keys, rows) of the pass's driven points, for a later refinement
        origin = self.bounds[chunks] - 2 * stride * (end - sizes)
        pair = self.pair[chunks]
        pair_first = (end - sizes)[np.searchsorted(pair, pair)]
        pair_end = end[np.searchsorted(pair, pair, "right") - 1]
        s1 = 0
        while s1 < end[-1]:
            s0, s1 = s1, min(s1 + max(1, BLOCK_STAGE_POINTS // 2), end[-1])
            c = np.searchsorted(end, s1 - 1, "right")
            if s1 < pair_end[c] and (s1 - pair_first[c]) % 2:
                s1 += 1     # not between the two steps of a 2h one
            s = np.arange(s0, s1)
            c = np.searchsorted(end, s, "right")
            # each step's start, mid and end keys, and their places in the block's
            # stage points; a step shares its start with the end of the one before
            d = stride[c]
            key = origin[c, None] + d[:, None] * (2 * s[:, None] + np.arange(3))
            new_point = np.ones(key.shape, dtype=bool)
            new_point[1:, 0] = key[1:, 0] != key[:-1, 2]
            at = np.cumsum(new_point).reshape(key.shape) - 1
            keys = key[new_point]

            R, v = _stage_block(schedule, self.M, keys)
            H = models.sector_hamiltonians(model, R)[self.sector].astype(complex)   # (b, b, points)
            live = is_driven(schedule, R, v)
            if np.any(live):
                if self.path is None:
                    self._start_path()
                rows = np.zeros((len(R), len(self.path.names)))
                new = live.copy()
                if first_pass:
                    # the samples among the block's stage points
                    k = np.flatnonzero((self.bounds >= keys[0]) & (self.bounds <= keys[-1]))
                    pos = np.searchsorted(keys, self.bounds[k])
                else:
                    # the step ends are the pass before's points, their rows stored
                    new[at[:, ::2]] = False
                    old = live & ~new
                    rows[old] = self.rows[np.searchsorted(self.row_keys, keys[old])]
                if np.any(new):
                    state = models.tracked_state(model, R[new], self.level)
                    rows[new] = self.path.values(R[new], state=state)
                    if first_pass:
                        hit = live[pos]
                        idx = (np.cumsum(live) - 1)[pos[hit]]
                        self.C_s[k[hit]] = state[1][idx]
                    del state   # not held through the step matrices, the block's peak
                if self.keep_rows:
                    solved.append((keys[new], rows[new]))
                if first_pass:
                    self.coeffs[k] = rows[pos]
                drive = v[live, None, None] * matrices_from_rows(rows[live], self.drive)
                H[..., live] += drive.transpose(1, 2, 0)
            h = (schedule.T_FF / self.M) * d
            fine = _cf4_step_matrices(*(H.take(at[:, o], -1) for o in (0, 1, 2)), h)
            J = chunks[c[0] : c[-1] + 1]
            self.G[..., J] = _fold(fine, np.bincount(c - c[0]), self.G.take(J, -1))
            del fine    # not held through the 2h steps or the next block
            if first_pass:
                q = np.flatnonzero((s - pair_first[c]) % 2 == 0)
                w = 1 + (s[q] + 1 < pair_end[c[q]])   # 2h with the next step, if in the pair
                wide = _cf4_step_matrices(H.take(at[q, 0], -1), H.take(at[q, w], -1),
                                          H.take(at[q + w - 1, 2], -1), h[q] * w)
                p = pair[c[q]]
                span = slice(p[0], p[-1] + 1)
                coarse[..., span] = _fold(wide, np.bincount(p - p[0]), coarse[..., span])
        if solved:
            # blocks share their boundary point: each key once, in increasing order
            self.row_keys, first = np.unique(
                np.concatenate([self.row_keys] + [k for k, _ in solved]), return_index=True)
            self.rows = np.concatenate([self.rows] + [r for _, r in solved])[first]

    def _start_path(self):
        self.path = CoefficientPath(self.model, self.solution, self.level)
        self.drive = self.P.T @ self.path.basis @ self.P
        k = len(self.path.names)
        self.coeffs = np.zeros((len(self.sizes) + 1, k))
        if self.keep_rows:
            # the even points of a chunk that doubles are its points before
            self.row_keys, self.rows = np.empty(0, dtype=np.int64), np.zeros((0, k))

    def trajectory(self):
        """The samples of the run at its current chunk step counts; psi advances
        through the chunk transfer matrices here, once."""
        N = len(self.sizes)
        psi_b = np.empty((N + 1, len(self.eye)), dtype=complex)
        psi_b[0] = self.psi0
        rows = list(psi_b)
        for g, a, b in zip(np.moveaxis(self.G, -1, 0).copy(), rows, rows[1:]):  # contiguous b x b
            np.dot(g, a, out=b)
        psi_s = psi_b @ self.P.T
        t_s = self.bounds * (self.schedule.T_FF / (2 * self.M))
        t_s[-1] = self.schedule.T_FF
        steps = int(self.sizes.sum())
        return Trajectory(
            t=t_s,
            R_adv=self.R_s,
            psi=psi_s,
            norm=np.linalg.norm(psi_s, axis=1),
            fidelity=np.abs(np.einsum("sd,sd->s", np.conj(self.C_s), psi_s)),
            coefficients=self.coeffs if self.path is not None else np.zeros((N + 1, 0)),
            coefficient_names=tuple(self.path.names) if self.path is not None else (),
            velocity=self.v_s,
            dt=self.schedule.T_FF / steps,
            steps=steps,
            chunk_steps=self.sizes.copy(),
            step_error=float(self.error.sum()),
        )


@lru_cache(maxsize=None)
def _legendre_rule(count):
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _phases(model, schedule, level, t_values):
    """(adiabatic, dynamical) phases of ``level`` (s, j) accumulated up to each time.

    One ``tracked_state`` call over the Gauss nodes of all the times gives
    the rate v i <C|dC/dR> and the level's energy.
    """
    t = np.asarray(t_values, dtype=float)[:, None]
    x, w = _legendre_rule(PHASE_NODES)
    tau = (0.5 * t * (x + 1.0)).ravel()
    energies, C, dC, _ = models.tracked_state(
        model, advanced_parameter(schedule, tau, clamp=True), level)
    rate = np.real(1j * np.einsum("nd,nd->n", np.conj(C), dC))
    rate = (velocity(schedule, tau, clamp=True) * rate).reshape(-1, PHASE_NODES)
    terms = zip(0.5 * t * w, rate, energies[:, level[1]].reshape(-1, PHASE_NODES))
    return np.array([(np.dot(wk, rk), np.dot(wk, ek)) for wk, rk, ek in terms]).T


def ff_state(model, schedule, n, t_values, anchor=None):
    """Analytic fast-forward states at the given times, consistent gauge.

    Combines the instantaneous eigenvector of state n (named at R0) at the
    advanced parameter with the accumulated dynamical and adiabatic phases.
    Every sample holds ``anchor`` (one index, or one per sample) real and
    positive, by default the largest component of the middle sample.
    """
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    Rs = advanced_parameter(schedule, t_values, clamp=True)
    level = models.level(model, schedule.R0, n)
    if anchor is None:     # the largest component of the middle sample
        C = models.tracked_state(model, Rs[[len(Rs) // 2]], level)[1]
        anchor = np.argmax(np.abs(C), axis=1)
    _, vecs, _, _ = models.tracked_state(model, Rs, level, anchor=anchor)
    adiabatic, dynamical = _phases(model, schedule, level, t_values)
    return vecs * np.exp(1j * (adiabatic - dynamical))[:, None]


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
    level = models.level(model, schedule.R0, n)
    ts = np.stack([tk - dt_probe, tk, tk + dt_probe], axis=1)      # (K, 3)
    width = np.diff(ts, axis=1)                                    # (K, 2) halves
    x, w = _legendre_rule(PROBE_NODES)
    tau = (ts[:, :2, None] + 0.5 * width[..., None] * (x + 1.0)).ravel()
    # the probes hold the largest component at t, the phase rate the
    # default gauge at t, as ff_state's phase integral does
    v = models.tracked_state(model, advanced_parameter(schedule, tk, clamp=True), level)[1]
    anchors = np.concatenate([np.repeat(np.argmax(np.abs(v), axis=1), 3),
                              np.repeat(models.default_anchor(model, v), 2 * PROBE_NODES)])
    energies, C, dC, _ = models.tracked_state(
        model, advanced_parameter(schedule, np.append(ts, tau), clamp=True), level,
        anchor=anchors)
    k = ts.size                                                    # probes first, then nodes
    rate = (velocity(schedule, tau, clamp=True)
            * np.real(1j * np.einsum("nd,nd->n", np.conj(C[k:]), dC[k:]))
            - energies[k:, level[1]])
    step = 0.5 * width * (rate.reshape(width.shape + (-1,)) @ w)
    phase = np.concatenate([np.zeros((len(tk), 1)), np.cumsum(step, axis=1)], axis=1)
    psi = C[:k].reshape(ts.shape + (-1,)) * np.exp(1j * phase)[..., None]
    dpsi = (psi[:, 2] - psi[:, 0]) / (2.0 * dt_probe)
    H = fast_forward_hamiltonian(model, schedule, solution, tk, n)
    residual = np.linalg.norm(1j * dpsi - (H @ psi[:, 1, :, None])[..., 0], axis=-1)
    return float(residual[0]) if t.ndim == 0 else residual.reshape(t.shape)
