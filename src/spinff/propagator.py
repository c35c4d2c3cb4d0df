"""Time-dependent Schroedinger propagation under the driving Hamiltonian.

The integrator is the classical fixed-step fourth-order scheme with the
Hamiltonian evaluated at stage midpoints.  Because the equation is linear
the whole run reduces to a product of per-step transfer matrices, folded
per sample interval (chunk) in time order.  The stage grid is walked in
blocks of whole chunks, at most BLOCK_STAGE_POINTS stage points each (a
chunk wider than that is split): each block builds its stage
Hamiltonians once, solves the regularization coefficients on them,
builds the step matrices vectorized, folds them and emits its sample
rows.  So the default 1e5-step runs stay fast and memory does not grow
with the step count.  No renormalization is applied anywhere: norm drift
is a diagnostic of the step size.

The fidelity tracks |<psi(t), C_n(R(t))>| against the instantaneous
eigenvector; with an exact regularization term it stays at 1 up to
integration noise.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import models
from .cdsolver import coefficient_path, fast_forward_hamiltonian, is_driven
from .errors import DomainError, StepSizeError
from .schedule import advanced_parameter, velocity

NORM_DRIFT_MAX = 1e-6
DEFAULT_STEPS = 100_000
DEFAULT_SAMPLES = 1000
MIN_SAMPLES = 200
PHASE_NODES = 128
BLOCK_STAGE_POINTS = 4096   # stage points evolve holds at once


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
    state_index: int

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


def _steps_from_dt(schedule, dt):
    if dt is None:
        return DEFAULT_STEPS
    ratio = schedule.T_FF / dt
    steps = int(round(ratio))
    if steps < 2 or abs(ratio - steps) > 1e-9 * steps:
        raise DomainError(f"dt={dt} does not divide T_FF={schedule.T_FF}")
    return steps


def _stage_block(model, schedule, steps, s0, s1):
    """R, v and H0 on stage points 2*s0 .. 2*s1 (step points and midpoints)."""
    u = np.arange(2 * s0, 2 * s1 + 1) * (schedule.T_FF / (2 * steps))
    Rs = advanced_parameter(schedule, u, clamp=True)
    vs = velocity(schedule, u, clamp=True)
    return Rs, vs, models.hamiltonian(model, Rs)


def _rk4_step_matrices(H, dt):
    """Transfer matrices of the RK4 steps on a stage grid of 2*steps+1 points."""
    A = -1j * H
    eye = np.eye(H.shape[-1], dtype=complex)
    A_t, A_m, A_n = A[0:-1:2], A[1::2], A[2::2]
    half = 0.5 * dt
    B2 = A_m @ (eye + half * A_t)
    B3 = A_m @ (eye + half * B2)
    B4 = A_n @ (eye + dt * B3)
    return eye + (dt / 6.0) * (A_t + 2.0 * B2 + 2.0 * B3 + B4)


def evolve(model, schedule, solution, n=0, dt=None, samples=DEFAULT_SAMPLES):
    """Integrate the TDSE from the gauge-fixed eigenvector n at R0.

    ``solution`` selects the regularization strategy (a selection tuple,
    a CDSolution, "dense", or None for the two-level model); coefficients
    are re-solved along the advanced-parameter path.  Returns a Trajectory
    with at least MIN_SAMPLES uniform samples.
    """
    steps = _steps_from_dt(schedule, dt)
    dt = schedule.T_FF / steps
    n_chunks = max(MIN_SAMPLES, min(samples, steps))
    n_chunks = min(n_chunks, steps)
    dim = model.dim
    eye = np.eye(dim, dtype=complex)

    # sample intervals (chunks) of near-equal step counts; sample k sits on
    # step bounds[k], i.e. on stage point 2 * bounds[k]
    sizes = np.full(n_chunks, steps // n_chunks)
    sizes[: steps % n_chunks] += 1
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    width = int(sizes.max())
    # a block is `group` whole chunks, or `span` steps of one wider chunk
    group = max(1, BLOCK_STAGE_POINTS // (2 * width))
    span = min(width, max(1, BLOCK_STAGE_POINTS // 2))

    # initial state: gauge-fixed eigenvector at R0
    _, V0 = models.eigensystem_batch(model, np.array([schedule.R0]))
    psi = V0[0][:, n].copy()
    psi_s = np.empty((n_chunks + 1, dim), dtype=complex)
    psi_s[0] = psi
    norm_s = np.empty(n_chunks + 1)
    R_s = np.empty(n_chunks + 1)
    v_s = np.empty(n_chunks + 1)
    path = coeffs = None

    for j0 in range(0, n_chunks, group):
        j1 = min(j0 + group, n_chunks)
        G = np.broadcast_to(eye, (j1 - j0, dim, dim)).copy()
        for l0 in range(0, width, span):
            l = np.arange(l0, min(l0 + span, width))
            # step matrices of the block, padded with eye past each chunk's end
            valid = l[None, :] < sizes[j0:j1, None]
            Mpad = np.broadcast_to(eye, valid.shape + (dim, dim)).copy()
            # in row-major order the valid entries are steps s0 .. s1-1; a
            # segment can hold padding only, when a wide chunk is one step short
            s0 = bounds[j0] + l0
            s1 = min(bounds[j1 - 1] + l[-1] + 1, bounds[j1])
            if s1 > s0:
                Rs, vs, H = _stage_block(model, schedule, steps, s0, s1)
                live = is_driven(schedule, Rs, vs)
                rows = None
                if np.any(live):
                    if path is None:
                        path = coefficient_path(model, solution, n)
                        coeffs = np.zeros((n_chunks + 1, len(path.names)))
                    vals = path.values(Rs[live], H=H[live])
                    H[live] += vs[live, None, None] * path.matrices_from_values(vals)
                    rows = np.zeros((len(Rs), vals.shape[1]))
                    rows[live] = vals
                Mpad[valid] = _rk4_step_matrices(H, dt)

                # sample rows on the block's stage points
                k = np.arange(np.searchsorted(bounds, s0), np.searchsorted(bounds, s1, "right"))
                pos = 2 * (bounds[k] - s0)
                R_s[k], v_s[k] = Rs[pos], vs[pos]
                if rows is not None:
                    coeffs[k] = rows[pos]
            # fold chunk-wise: one batched matmul per intra-chunk index
            for i in range(len(l)):
                G = Mpad[:, i] @ G

        for j in range(j0, j1):
            psi = G[j - j0] @ psi
            psi_s[j + 1] = psi
        norm_s[j0 : j1 + 1] = np.linalg.norm(psi_s[j0 : j1 + 1], axis=1)
        drift = float(np.max(np.abs(norm_s[: j1 + 1] - 1.0)))
        if drift > NORM_DRIFT_MAX:
            raise StepSizeError(
                f"norm drift {drift:.3e} exceeds {NORM_DRIFT_MAX:.0e}; "
                f"use a smaller dt than {dt:.3e}"
            )

    t_s = bounds * dt
    t_s[-1] = schedule.T_FF
    w_s, V_s = models.eigensystem_batch(model, R_s)
    targets = V_s[:, :, n]
    fid = np.abs(np.einsum("sd,sd->s", np.conj(targets), psi_s))
    if path is None:
        coeffs = np.zeros((len(t_s), 0))

    return Trajectory(
        t=t_s,
        R_adv=R_s,
        psi=psi_s,
        norm=norm_s,
        fidelity=fid,
        energies=w_s,
        coefficients=coeffs,
        coefficient_names=tuple(path.names) if path is not None else (),
        velocity=v_s,
        dt=dt,
        state_index=n,
    )


def fidelity(psi, model, R_adv, n=0):
    """|overlap| between a state and the instantaneous eigenvector n."""
    psi = np.asarray(psi, dtype=complex)
    _, V = models.eigensystem_batch(model, np.array([float(R_adv)]))
    return float(abs(np.vdot(V[0][:, n], psi)))


@lru_cache(maxsize=None)
def _legendre_rule(count):
    """Gauss-Legendre nodes and weights on [-1, 1], computed on first use."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_nodes(t_end, count=PHASE_NODES):
    x, w = _legendre_rule(count)
    return 0.5 * t_end * (x + 1.0), 0.5 * t_end * w


def dynamical_phase(model, schedule, n, t, nodes=PHASE_NODES):
    """Integral of the instantaneous energy along the advanced path."""
    if t == 0.0:
        return 0.0
    tau, wts = _gauss_nodes(t, nodes)
    R_tau = advanced_parameter(schedule, tau, clamp=True)
    w, _ = models.eigensystem_batch(model, R_tau)
    return float(np.dot(wts, w[:, n]))


def adiabatic_phase(model, schedule, n, t, nodes=PHASE_NODES):
    """Accumulated phase from i <C|dC/dR> along the advanced path.

    Zero (to derivative noise) for models with real eigenvectors.
    """
    if t == 0.0:
        return 0.0
    tau, wts = _gauss_nodes(t, nodes)
    R_tau = advanced_parameter(schedule, tau, clamp=True)
    v_tau = velocity(schedule, tau, clamp=True)
    C, dC, _, _ = models.state_and_derivative_batch(model, R_tau, n)
    rate = np.real(1j * np.einsum("nd,nd->n", np.conj(C), dC))
    return float(np.dot(wts, v_tau * rate))


def ff_state(model, schedule, n, t_values, anchor=None):
    """Analytic fast-forward states at the given times, consistent gauge.

    Combines the instantaneous eigenvector at the advanced parameter with
    the accumulated dynamical and adiabatic phases.
    """
    t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
    Rs = advanced_parameter(schedule, t_values, clamp=True)
    w, V = models._eigh_model(model, Rs)
    vecs = V[:, :, n]
    if anchor is None:
        mid = len(t_values) // 2
        anchor = int(np.argmax(np.abs(vecs[mid])))
    vecs = models._fix_phase(vecs, np.full(len(t_values), anchor))
    if model.is_real:
        vecs = vecs.real.astype(complex)
    out = np.empty_like(vecs)
    for i, t in enumerate(t_values):
        theta = dynamical_phase(model, schedule, n, float(t))
        xi = adiabatic_phase(model, schedule, n, float(t))
        out[i] = vecs[i] * np.exp(-1j * theta + 1j * xi)
    return out


def ff_state_residual(model, schedule, solution, n, t, dt_probe=1e-6):
    """TDSE residual of the analytic fast-forward state at time t.

    Finite-differences the state in time with step dt_probe and returns
    || i dpsi/dt - H_FF psi ||, which shrinks as dt_probe^2.
    """
    if not 0.0 < t < schedule.T_FF:
        raise DomainError("probe time must be interior to (0, T_FF)")
    dt_probe = float(dt_probe)
    ts = np.array([t - dt_probe, t, t + dt_probe])
    psi = ff_state(model, schedule, n, ts)
    dpsi = (psi[2] - psi[0]) / (2.0 * dt_probe)
    H = fast_forward_hamiltonian(model, schedule, solution, t, n)
    return float(np.linalg.norm(1j * dpsi - H @ psi[1]))
