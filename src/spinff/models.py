"""Spin models: Hamiltonians, analytic eigen-systems, gauge-fixed derivatives.

Four parametrized models are supported, each driven by a single scalar
control parameter R through affine coupling maps:

  lz    one spin in a sweeping field, H = (Bz(R) sigma_z + Delta sigma_x)/2
  tfim  two-spin transverse Ising, H = J(R) s1z s2z - (s1x+s2x) Bx(R)/2
  qa    two-spin annealer, H = -J s1z s2z - (s1z+s2z) Bz/2 - (s1x+s2x) Bx(R)/2
  gen   Ising + general field, H = J s1z s2z + (s1 + s2).B/2, Bz = Bz(R)

Eigen-systems come from a dense Hermitian solver; the closed-form
eigenvalues (including the cubic roots of the two-spin models) are kept
alongside and cross-checked, with the cube-root branch selected to match
the numeric spectrum.  Eigenvector derivatives come from one eigensolve per
point through the spectral formula
dn/dR = sum_{m != n} |m><m|dH/dR|n> / (E_n - E_m), exact because every
coupling is affine in R (so dH/dR is a constant matrix), then carried into
the gauge that keeps an anchor component real and positive.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    ConsistencyError,
    DegeneracyError,
    DomainError,
    GaugeError,
)

MODEL_KINDS = ("lz", "tfim", "qa", "gen")

# Couplings each Hamiltonian reads; any of them may be scheduled in R.
REQUIRED_COUPLINGS = {
    "lz": ("Bz", "Delta"),
    "tfim": ("J", "Bx"),
    "qa": ("J", "Bz", "Bx"),
    "gen": ("J", "Bx", "By", "Bz"),
}

GAP_MIN = 1e-8          # refuse gauge fixing below this eigenvalue gap
ANCHOR_MIN = 1e-6       # refuse derivatives when the gauge anchor is this small
BRANCH_TOL = 1e-8       # analytic vs numeric eigenvalue guard
CUBIC_IMAG_TOL = 1e-10  # cubic roots must be real to this level


@dataclass(frozen=True)
class ModelSpec:
    """One of the four Hamiltonian models plus its coupling map.

    ``constants`` holds R-independent couplings; ``schedule_map`` maps a
    coupling name to ``(offset, slope)`` so that its value is
    ``offset + slope * R``.  A name present in both resolves through the
    schedule map.
    """

    kind: str
    constants: dict = field(default_factory=dict)
    schedule_map: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}")
        for name in REQUIRED_COUPLINGS[self.kind]:
            if name not in self.schedule_map and name not in self.constants:
                raise ConfigError(f"model {self.kind!r} needs coupling {name!r}")
        for name, value in self.constants.items():
            if not np.isfinite(value):
                raise DomainError(f"constant {name!r} is not finite")
        for name, pair in self.schedule_map.items():
            offset, slope = pair
            if not (np.isfinite(offset) and np.isfinite(slope)):
                raise DomainError(f"schedule map for {name!r} is not finite")

    @property
    def dim(self):
        return 2 if self.kind == "lz" else 4

    @property
    def is_real(self):
        """True when the Hamiltonian matrix is real symmetric for all R."""
        return self.kind != "gen"

    def coupling(self, name, R):
        if name in self.schedule_map:
            offset, slope = self.schedule_map[name]
            return offset + slope * np.asarray(R, dtype=float)
        if name in self.constants:
            value = float(self.constants[name])
            return np.broadcast_to(value, np.shape(R)).copy() if np.ndim(R) else value
        raise ConfigError(f"model {self.kind!r} has no coupling {name!r}")

    def coupling_slope(self, name):
        """dc/dR for the named coupling (0 for constants)."""
        if name in self.schedule_map:
            return float(self.schedule_map[name][1])
        if name in self.constants:
            return 0.0
        raise ConfigError(f"model {self.kind!r} has no coupling {name!r}")

    def couplings(self, R):
        return {name: self.coupling(name, R) for name in REQUIRED_COUPLINGS[self.kind]}

    @cached_property
    def coupling_affine(self):
        """(offsets, slopes) of the required couplings: coupling = offset + slope * R."""
        pairs = [self.schedule_map[name] if name in self.schedule_map
                 else (self.constants[name], 0.0) for name in REQUIRED_COUPLINGS[self.kind]]
        offset, slope = np.array(pairs, dtype=float).T.copy()
        offset.flags.writeable = slope.flags.writeable = False
        return offset, slope

    @cached_property
    def slope_matrix(self):
        """dH/dR, a constant read-only matrix.

        Every Hamiltonian is linear in its couplings and every coupling is
        affine in R, so dH/dR is the Hamiltonian with each coupling replaced
        by its slope.
        """
        slopes = {name: self.coupling_slope(name) for name in REQUIRED_COUPLINGS[self.kind]}
        H = hamiltonian(ModelSpec(self.kind, constants=slopes), 0.0)
        H.flags.writeable = False
        return H

    # -- canonical parametrizations ------------------------------------

    @classmethod
    def lz(cls, delta=1.0, sweep=(0.0, 1.0)):
        return cls("lz", constants={"Delta": delta}, schedule_map={"Bz": tuple(sweep)})

    @classmethod
    def tfim(cls, j=(1.0, 0.0), bx=(1.0, 0.0)):
        """Transverse Ising with user-affine J(R) and Bx(R)."""
        return cls("tfim", schedule_map={"J": tuple(j), "Bx": tuple(bx)})

    @classmethod
    def qa(cls, j=1.0, bz=0.1, b0=10.0):
        """Annealing model with Bx = b0 - R."""
        return cls("qa", constants={"J": j, "Bz": bz}, schedule_map={"Bx": (b0, -1.0)})

    @classmethod
    def gen(cls, j=8.0, bx=1.0, by=1.0, b0=25.0):
        """Entanglement-generation model with Bz = b0 - R."""
        return cls(
            "gen",
            constants={"J": j, "Bx": bx, "By": by},
            schedule_map={"Bz": (b0, -1.0)},
        )


@dataclass(frozen=True)
class EigenState:
    """One gauge-fixed instantaneous eigenpair."""

    n: int
    energy: float
    amplitudes: np.ndarray
    gauge: str          # "real_positive" or "fixed_component_phase"
    anchor: int


def hamiltonian(model, R):
    """Hermitian model matrix at parameter R (scalar or array of R values).

    Returns shape ``(dim, dim)`` for scalar R, ``R.shape + (dim, dim)``
    otherwise.  Entries follow the usual two-spin basis ordering
    |uu>, |ud>, |du>, |dd>.
    """
    R = np.asarray(R, dtype=float)
    if not np.isfinite(R).all():
        raise DomainError("R is not finite")
    offset, slope = model.coupling_affine
    axes = offset.shape + (1,) * R.ndim
    c = offset.reshape(axes) + slope.reshape(axes) * R     # one R-shaped array per coupling
    finite = np.isfinite(c)
    if not finite.all():
        bad = np.argmin(finite.reshape(len(c), -1).all(axis=1))
        name = REQUIRED_COUPLINGS[model.kind][bad]
        raise DomainError(f"coupling {name!r} is not finite at R={R}")
    d = model.dim
    H = np.zeros(R.shape + (d, d), dtype=complex)
    if model.kind == "lz":
        Bz, Delta = c
        H[..., 0, 0] = 0.5 * Bz
        H[..., 1, 1] = -0.5 * Bz
        H[..., 0, 1] = 0.5 * Delta
        H[..., 1, 0] = 0.5 * Delta
    elif model.kind == "tfim":
        J, Bx = c
        H[..., 0, 0] = H[..., 3, 3] = J
        H[..., 1, 1] = H[..., 2, 2] = -J
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            H[..., i, j] = H[..., j, i] = -0.5 * Bx
    elif model.kind == "qa":
        J, Bz, Bx = c
        H[..., 0, 0] = -J - Bz
        H[..., 1, 1] = H[..., 2, 2] = J
        H[..., 3, 3] = -J + Bz
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            H[..., i, j] = H[..., j, i] = -0.5 * Bx
    else:  # gen
        J, Bx, By, Bz = c
        z = 0.5 * (Bx - 1j * By)
        H[..., 0, 0] = J + Bz
        H[..., 1, 1] = H[..., 2, 2] = -J
        H[..., 3, 3] = J - Bz
        for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
            H[..., i, j] = z
            H[..., j, i] = np.conj(z)
    return H


def _eigh_model(model, R, H=None):
    """Batched dense eigensolve; real path for the real-symmetric models.

    ``H`` passes in the model matrices at R when the caller already holds
    them, so they are not built a second time.
    """
    if H is None:
        H = hamiltonian(model, R)
    if model.is_real:
        w, V = np.linalg.eigh(H.real)
        return w, V.astype(complex)
    return np.linalg.eigh(H)


def _fix_phase(vectors, anchors):
    """Rotate each vector so its anchor component is real nonnegative.

    vectors: (..., d) with anchors broadcastable integer indices.
    """
    idx = np.arange(vectors.shape[0])
    pivot = vectors[idx, anchors]
    mag = np.abs(pivot)
    # Zero anchors leave the phase untouched; callers guard against this.
    unit = np.where(mag > 0, pivot / np.where(mag > 0, mag, 1.0), 1.0)
    return vectors * np.conj(unit)[:, None]


def default_anchor(model, amplitudes):
    """Gauge anchor: largest component, except gen pins the last component."""
    if model.kind == "gen" and abs(amplitudes[-1]) >= ANCHOR_MIN:
        return model.dim - 1
    return int(np.argmax(np.abs(amplitudes)))


def eigensystem(model, R, *, check=True, gap_min=GAP_MIN, n=None):
    """All instantaneous eigenpairs at R, sorted by energy and gauge-fixed.

    With ``check`` the closed-form eigenvalues are recomputed and compared
    against the numeric spectrum (cube-root branch included).  ``n``
    restricts the degeneracy guard to the tracked state; without it no
    gap check is performed (crossings between untracked states are fine).
    """
    R = float(R)
    w, V = _eigh_model(model, np.array([R]))
    w, V = w[0], V[0]
    if check:
        analytic_eigenvalues(model, R, numeric=w)
    if n is not None:
        gaps = [abs(w[m] - w[n]) for m in range(model.dim) if m != n]
        if min(gaps) < gap_min:
            raise DegeneracyError(
                f"eigenvalue gap {min(gaps):.3e} around state {n} at R={R} "
                f"is below gap_min={gap_min:.1e}"
            )
    states = []
    gauge = "real_positive" if model.is_real else "fixed_component_phase"
    for m in range(model.dim):
        vec = V[:, m]
        anchor = default_anchor(model, vec)
        vec = _fix_phase(vec[None, :], np.array([anchor]))[0]
        if model.is_real:
            vec = vec.real.astype(complex)
        states.append(EigenState(m, float(w[m]), vec, gauge, anchor))
    return states


def _cubic_candidates(model, R):
    """The three branch candidates for the symmetric-sector cubic roots."""
    c = model.couplings(R)
    J = c["J"]
    if model.kind == "qa":
        Bx, Bz = c["Bx"], c["Bz"]
        gp = Bx**2 / 3 + Bz**2 / 3 + 4 * J**2 / 9
        gm = Bx**2 * J / 3 - 2 * Bz**2 * J / 3 + 8 * J**3 / 27
        base = -J / 3
    else:  # gen
        Bz = c["Bz"]
        z2 = (c["Bx"] ** 2 + c["By"] ** 2) / 4
        gp = Bz**2 / 3 + 4 * z2 / 3 + 4 * J**2 / 9
        gm = 2 * Bz**2 * J / 3 - 4 * J * z2 / 3 - 8 * J**3 / 27
        base = J / 3
    u = gm + np.sqrt(complex(gm**2 - gp**3))
    r = abs(u) ** (1.0 / 3.0)
    theta = np.angle(u)
    out = []
    for k in range(3):
        beta = r * np.exp(1j * (theta + 2 * np.pi * k) / 3)
        pair_sum = beta + np.conj(beta)
        lam2 = base + pair_sum
        # the conjugate pair splits symmetrically around base - pair_sum/2
        split = np.sqrt(3.0) * (1j * (np.conj(beta) - beta))
        lam3 = base - 0.5 * pair_sum - 0.5 * split
        lam4 = base - 0.5 * pair_sum + 0.5 * split
        out.append((lam2, lam3, lam4))
    return out


def analytic_eigenvalues(model, R, *, numeric=None):
    """Closed-form eigenvalues, sorted ascending, branch-matched to numeric.

    Raises ConsistencyError when no cube-root branch reproduces the dense
    solver's spectrum, or when a cubic root picks up an imaginary part.
    """
    c = model.couplings(R)
    if model.kind == "lz":
        Q = np.hypot(c["Bz"], c["Delta"])
        vals = np.array([-Q / 2, Q / 2])
    elif model.kind == "tfim":
        J, Bx = c["J"], c["Bx"]
        s = np.hypot(J, Bx)
        vals = np.sort(np.array([-J, J, -s, s]))
    else:
        if numeric is None:
            numeric, _ = _eigh_model(model, np.array([float(R)]))
            numeric = numeric[0]
        asym = c["J"] if model.kind == "qa" else -c["J"]
        scale = max(1.0, float(np.max(np.abs(numeric))))
        best, best_err = None, np.inf
        for lam2, lam3, lam4 in _cubic_candidates(model, R):
            roots = np.array([lam2, lam3, lam4])
            if np.max(np.abs(roots.imag)) > CUBIC_IMAG_TOL * scale:
                continue
            vals_k = np.sort(np.concatenate([[asym], roots.real]))
            err = np.max(np.abs(vals_k - np.sort(numeric))) / scale
            if err < best_err:
                best, best_err = vals_k, err
        if best is None or best_err > BRANCH_TOL:
            raise ConsistencyError(
                f"cube-root branch mismatch for {model.kind} at R={R}: "
                f"best relative error {best_err:.3e}"
            )
        return best
    if numeric is not None:
        scale = max(1.0, float(np.max(np.abs(numeric))))
        err = np.max(np.abs(vals - np.sort(numeric))) / scale
        if err > BRANCH_TOL:
            raise ConsistencyError(
                f"analytic/numeric eigenvalue mismatch for {model.kind} "
                f"at R={R}: {err:.3e}"
            )
    return vals


def _transported_derivative(model, R, n, gap_min, H=None):
    """Energies, state n and its parallel-transport derivative over a 1-d R.

    The derivative is sum_{m != n} |m><m|dH/dR|n> / (E_n - E_m), in the
    phase convention of the eigensolver's vectors; raises DegeneracyError
    where the tracked state comes within gap_min of another level.
    """
    w, V = _eigh_model(model, R, H)
    gaps = np.abs(w - w[:, n, None])
    gaps[:, n] = np.inf
    gap = gaps.min(axis=1)
    if np.any(gap < gap_min):
        k = int(np.argmax(gap < gap_min))
        raise DegeneracyError(
            f"eigenvalue gap {gap[k]:.3e} around state {n} at R={R[k]} "
            f"is below gap_min={gap_min:.1e}"
        )
    v = V[:, :, n]
    coupling = np.einsum("kam,ka->km", np.conj(V), v @ model.slope_matrix.T)
    denom = w[:, n, None] - w
    denom[:, n] = 1.0
    coupling[:, n] = 0.0
    dv = np.einsum("kam,km->ka", V, coupling / denom)
    return w, v, dv


def _anchored(model, v, dv, anchors):
    """(C, dC/dR) in the gauge where each anchor component is real positive.

    C = v conj(u) with u the anchor phase of v, so dC picks up
    -i Im(dC_a / C_a) C on top of the transported derivative.
    """
    idx = np.arange(v.shape[0])
    pivot = v[idx, anchors]
    phase = (np.conj(pivot) / np.abs(pivot))[:, None]
    C, dC = v * phase, dv * phase
    dC -= 1j * (dC[idx, anchors] / C[idx, anchors]).imag[:, None] * C
    if model.is_real:
        C, dC = C.real.astype(complex), dC.real.astype(complex)
    return C, dC


def state_and_derivative(model, R, n, *, anchor=None, gap_min=GAP_MIN):
    """(C, dC/dR) for state n at scalar R in one consistent gauge.

    The gauge holds ``anchor`` (default: ``default_anchor``) real and
    positive; a near-zero anchor makes it undefined and is refused.
    """
    R = float(R)
    _, v, dv = _transported_derivative(model, np.array([R]), n, gap_min)
    if anchor is None:
        anchor = default_anchor(model, v[0])
    if abs(v[0, anchor]) < ANCHOR_MIN:
        raise GaugeError(
            f"gauge anchor component {anchor} has magnitude {abs(v[0, anchor]):.3e} "
            f"at R={R}; switch anchor"
        )
    C, dC = _anchored(model, v, dv, np.array([anchor]))
    return C[0], dC[0]


def eigenvector_derivative(model, R, n, *, anchor=None, gap_min=GAP_MIN):
    """d/dR of the gauge-fixed eigenvector of state n (see state_and_derivative)."""
    return state_and_derivative(model, R, n, anchor=anchor, gap_min=gap_min)[1]


PHASE_IMAG_TOL = 1e-10


def adiabatic_phase_rate(model, R, n, **kw):
    """d(xi)/dR = i <C|dC/dR>, a real number; zero for real eigenvectors.

    The real part of <C|dC/dR> must vanish by normalization; a residue
    above tolerance signals a broken gauge.
    """
    C, dC = state_and_derivative(model, R, n, **kw)
    overlap = np.vdot(C, dC)
    value = 1j * overlap
    if abs(value.imag) > PHASE_IMAG_TOL:
        raise GaugeError(
            f"adiabatic phase rate has imaginary residue {value.imag:.3e} "
            f"at R={R} (state {n})"
        )
    return float(value.real)


# ---------------------------------------------------------------------------
# batched pipeline used by the solver and propagator

def eigensystem_batch(model, R_array):
    """Energies and gauge-fixed eigenvectors over an array of R values.

    Returns (w, V) with shapes (N, dim) and (N, dim, dim); V[:, :, m] is
    state m, each vector phase-anchored at its largest component.
    """
    R_array = np.asarray(R_array, dtype=float)
    w, V = _eigh_model(model, R_array)
    for m in range(model.dim):
        g = V[:, :, m]
        anchors = np.argmax(np.abs(g), axis=1)
        V[:, :, m] = _fix_phase(g, anchors)
    return w, V


def state_and_derivative_batch(model, R_array, n, *, H=None):
    """Vectorized (C, dC/dR, E, all_energies) for state n over R_array.

    Each point is phase-anchored at its largest component; one eigensolve
    per point, with the same tracked-state gap guard as the scalar path.
    ``H`` optionally holds ``hamiltonian(model, R_array)`` already built.
    """
    R = np.asarray(R_array, dtype=float)
    w, v, dv = _transported_derivative(model, R, n, GAP_MIN, H)
    C, dC = _anchored(model, v, dv, np.argmax(np.abs(v), axis=1))
    return C, dC, w[:, n], w
