"""Time-dependent Schroedinger propagation under the driving Hamiltonian.

The integrator is the classical fixed-step fourth-order scheme with the
Hamiltonian evaluated at stage midpoints.  Because the equation is linear
the whole run reduces to a product of per-step transfer matrices; these
are built in one vectorized pass over the stage grid and folded in time
order, so the default 1e5-step runs stay fast.  No renormalization is
applied anywhere: norm drift is a diagnostic of the step size.

The fidelity tracks |<psi(t), C_n(R(t))>| against the instantaneous
eigenvector; with an exact regularization term it stays at 1 up to
integration noise.
"""

from dataclasses import dataclass

import numpy as np

from . import models
from .cdsolver import VELOCITY_EPS, coefficient_path, fast_forward_hamiltonian
from .errors import DomainError, StepSizeError
from .schedule import advanced_parameter, velocity

NORM_DRIFT_MAX = 1e-6
DEFAULT_STEPS = 100_000
DEFAULT_SAMPLES = 1000
MIN_SAMPLES = 200
PHASE_NODES = 128


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

    # stage grid: all step points and midpoints at spacing dt/2
    u = np.arange(2 * steps + 1) * (schedule.T_FF / (2 * steps))
    Rs = advanced_parameter(schedule, u, clamp=True)
    vs = velocity(schedule, u, clamp=True)
    H = models.hamiltonian(model, Rs)
    live = vs > VELOCITY_EPS * max(schedule.v_bar, 1.0)
    if np.any(live):
        path = coefficient_path(model, solution, n)
        H[live] += vs[live, None, None] * path.matrices(Rs[live])
        coeff_names = path.names
    else:
        path = None
        coeff_names = ()

    A = -1j * H
    eye = np.eye(dim, dtype=complex)
    A_t, A_m, A_n = A[0:-1:2], A[1::2], A[2::2]
    half = 0.5 * dt
    B2 = A_m @ (eye + half * A_t)
    B3 = A_m @ (eye + half * B2)
    B4 = A_n @ (eye + dt * B3)
    M = eye + (dt / 6.0) * (A_t + 2.0 * B2 + 2.0 * B3 + B4)

    # fold step matrices chunk-wise: one batched matmul per intra-chunk index
    sizes = np.full(n_chunks, steps // n_chunks)
    sizes[: steps % n_chunks] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    width = int(sizes.max())
    idx = starts[:, None] + np.arange(width)[None, :]
    valid = np.arange(width)[None, :] < sizes[:, None]
    Mpad = np.where(valid[:, :, None, None], M[np.minimum(idx, steps - 1)], eye)
    G = np.broadcast_to(eye, (n_chunks, dim, dim)).copy()
    for l in range(width):
        G = Mpad[:, l] @ G

    # initial state: gauge-fixed eigenvector at R0
    _, V0 = models.eigensystem_batch(model, np.array([schedule.R0]))
    psi = V0[0][:, n].copy()
    states = [psi]
    for j in range(n_chunks):
        psi = G[j] @ psi
        states.append(psi)
    psi_s = np.array(states)

    bounds = np.concatenate([[0], np.cumsum(sizes)])
    t_s = bounds * dt
    t_s[-1] = schedule.T_FF
    stage_pos = 2 * bounds  # sample points sit on the stage grid
    R_s = Rs[stage_pos]
    v_s = vs[stage_pos]
    norm_s = np.linalg.norm(psi_s, axis=1)
    drift = float(np.max(np.abs(norm_s - 1.0)))
    if drift > NORM_DRIFT_MAX:
        raise StepSizeError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_MAX:.0e}; "
            f"use a smaller dt than {dt:.3e}"
        )

    w_s, V_s = models.eigensystem_batch(model, R_s)
    targets = V_s[:, :, n]
    fid = np.abs(np.einsum("sd,sd->s", np.conj(targets), psi_s))

    if path is not None:
        coeffs = np.zeros((len(t_s), len(coeff_names)))
        live_s = live[stage_pos]
        if np.any(live_s):
            coeffs[live_s] = path.values(R_s[live_s])
    else:
        coeffs = np.zeros((len(t_s), 0))

    return Trajectory(
        t=t_s,
        R_adv=R_s,
        psi=psi_s,
        norm=norm_s,
        fidelity=fid,
        energies=w_s,
        coefficients=coeffs,
        coefficient_names=tuple(coeff_names),
        velocity=v_s,
        dt=dt,
        state_index=n,
    )


def fidelity(psi, model, R_adv, n=0):
    """|overlap| between a state and the instantaneous eigenvector n."""
    psi = np.asarray(psi, dtype=complex)
    _, V = models.eigensystem_batch(model, np.array([float(R_adv)]))
    return float(abs(np.vdot(V[0][:, n], psi)))


def _gauss_nodes(t_end, count=PHASE_NODES):
    x, w = np.polynomial.legendre.leggauss(count)
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
