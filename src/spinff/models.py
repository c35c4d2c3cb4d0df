"""Spin models: Hamiltonians, analytic eigen-systems, gauge-fixed derivatives.

Four parametrized models are supported, each driven by a single scalar
control parameter R through affine coupling maps:

  lz    one spin in a sweeping field, H = (Bz(R) sigma_z + Delta sigma_x)/2
  tfim  two-spin transverse Ising, H = J(R) s1z s2z - (s1x+s2x) Bx(R)/2
  qa    two-spin annealer, H = -J s1z s2z - (s1z+s2z) Bz/2 - (s1x+s2x) Bx(R)/2
  gen   Ising + general field, H = J s1z s2z + (s1 + s2).B/2, Bz = Bz(R)

Every eigensolve goes through one batched dense Hermitian solver whose
spectrum is checked against the closed-form eigenvalues (including the
cubic roots of the two-spin models, from the principal cube root).  One
gauge rule, ``default_anchor``, keeps an anchor component of each
eigenvector real and positive.  ``tracked_state`` is the
one state layer: over an array of R it returns the energies, the tracked
eigenvector C, its derivative from the spectral formula
dn/dR = sum_{m != n} |m><m|dH/dR|n> / (E_n - E_m), exact because every
coupling is affine in R (so dH/dR is a constant matrix), and the right-hand
side i dC/dR - i <C|dC/dR> C of the defining equation; ``eigensystem_batch``
gives every level.  The other state functions are thin views of these two.
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

    def coupling_slope(self, name):
        """dc/dR for the named coupling (0 for constants)."""
        return float(self.coupling_affine[1][REQUIRED_COUPLINGS[self.kind].index(name)])

    def couplings(self, R):
        """Each required coupling at R (scalar or array), by name."""
        R = np.asarray(R, dtype=float)
        return {name: a + b * R for name, a, b in zip(REQUIRED_COUPLINGS[self.kind],
                                                      *self.coupling_affine)}

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
        slopes = dict(zip(REQUIRED_COUPLINGS[self.kind], self.coupling_affine[1]))
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
    """Batched dense eigensolve over a 1-d R, checked against the closed form.

    The real-symmetric models take the real path.  Every spectrum is
    compared with the closed form of ``analytic_eigenvalues``.
    ``H`` passes in the model matrices at R when the caller already holds
    them, so they are not built a second time.
    """
    if H is None:
        H = hamiltonian(model, R)
    w, V = np.linalg.eigh(H.real if model.is_real else H)
    analytic_eigenvalues(model, R, numeric=w)
    return w, V.astype(complex, copy=False)


def default_anchor(model, amplitudes):
    """Gauge anchor of each vector along the last axis.

    The largest component, except that gen pins its last component
    wherever that is at least ANCHOR_MIN.
    """
    mag = np.abs(amplitudes)
    anchor = np.argmax(mag, axis=-1)
    if model.kind == "gen":
        anchor = np.where(mag[..., -1] >= ANCHOR_MIN, model.dim - 1, anchor)
    return anchor


def _phase_to(vectors, anchors):
    """conj(p)/|p| for the anchor component p of each vector (last axis)."""
    pivot = np.take_along_axis(vectors, anchors[..., None], axis=-1)
    return np.conj(pivot) / np.abs(pivot)


def tracked_state(model, R, n, *, anchor=None, H=None):
    """(w, C, dC, rhs) of state n over a 1-d array of R values.

    w (N, dim) holds every energy; C, dC/dR and
    rhs = i dC/dR - i <C|dC/dR> C, the right-hand side of the defining
    equation, are (N, dim).  One eigensolve per point; the derivative is
    sum_{m != n} |m><m|dH/dR|n> / (E_n - E_m), carried into the gauge
    that holds ``anchor`` (one index, or one per point; default:
    ``default_anchor`` at each point) real and positive by -i Im(dC_a / C_a) C.
    Raises DegeneracyError where state n comes within GAP_MIN of another
    level, and GaugeError where the anchor component is below ANCHOR_MIN
    (only an explicit anchor can be).
    ``H`` optionally holds ``hamiltonian(model, R)`` already built.
    """
    R = np.asarray(R, dtype=float)
    w, V = _eigh_model(model, R, H)
    denom = w[:, n, None] - w
    denom[:, n] = np.inf
    gap = np.abs(denom).min(axis=1)
    if np.any(gap < GAP_MIN):
        k = int(np.argmax(gap < GAP_MIN))
        raise DegeneracyError(
            f"eigenvalue gap {gap[k]:.3e} around state {n} at R={R[k]} "
            f"is below GAP_MIN={GAP_MIN:.1e}"
        )
    denom[:, n] = 1.0
    v = V[:, :, n]
    coupling = np.einsum("kam,ka->km", np.conj(V), v @ model.slope_matrix.T)
    coupling[:, n] = 0.0
    dv = np.einsum("kam,km->ka", V, coupling / denom)
    anchors = default_anchor(model, v) if anchor is None else np.broadcast_to(anchor, len(R))
    idx = np.arange(len(R))
    small = np.abs(v[idx, anchors]) < ANCHOR_MIN
    if np.any(small):
        k = int(np.argmax(small))
        raise GaugeError(
            f"gauge anchor component {anchors[k]} has magnitude {abs(v[k, anchors[k]]):.3e} "
            f"at R={R[k]}; switch anchor"
        )
    phase = _phase_to(v, anchors)
    C, dC = v * phase, dv * phase
    dC -= 1j * (dC[idx, anchors] / C[idx, anchors]).imag[:, None] * C
    if model.is_real:
        C, dC = C.real.astype(complex), dC.real.astype(complex)
    rhs = 1j * dC - 1j * np.einsum("kd,kd->k", np.conj(C), dC)[:, None] * C
    return w, C, dC, rhs


def eigensystem_batch(model, R_array):
    """Energies and gauge-fixed eigenvectors of every state over an R array.

    Returns (w, V) with shapes (N, dim) and (N, dim, dim); V[:, :, m] is
    state m, each vector in the gauge of ``default_anchor``.  No gap guard:
    levels other than a tracked one may cross.
    """
    R = np.asarray(R_array, dtype=float)
    w, V = _eigh_model(model, R)
    vectors = np.swapaxes(V, 1, 2)          # (N, state, component)
    vectors = vectors * _phase_to(vectors, default_anchor(model, vectors))
    if model.is_real:
        vectors = vectors.real.astype(complex)
    return w, np.swapaxes(vectors, 1, 2)


def eigensystem(model, R, *, n=None):
    """(w, V) of ``eigensystem_batch`` at the one scalar R: (dim,) and (dim, dim).

    ``n`` names a tracked state, held to the guards of ``tracked_state``
    (gap to the other levels at least GAP_MIN); without it crossings are
    fine.
    """
    R = np.array([float(R)])
    if n is not None:
        tracked_state(model, R, n)
    w, V = eigensystem_batch(model, R)
    return w[0], V[0]


def _cubic_roots(model, R):
    """The symmetric-sector cubic roots (lam2, lam3, lam4), shape (3,) + R.shape.

    They come from the principal cube root; the other two branches give
    the same roots in another order.
    """
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
    u = gm + np.sqrt(np.asarray(gm**2 - gp**3, dtype=complex))
    # beta = r exp(i phi) is the principal cube root of u; the roots are
    # base + beta + conj(beta) and a pair split symmetrically around
    # base - Re(beta), real by construction
    r = np.abs(u) ** (1.0 / 3.0)
    phi = np.angle(u) / 3
    re, split = r * np.cos(phi), np.sqrt(3.0) * r * np.sin(phi)
    return np.stack([base + 2 * re, base - re - split, base - re + split])


def analytic_eigenvalues(model, R, *, numeric=None):
    """Closed-form eigenvalues over scalar or array R, sorted ascending.

    Returns R.shape + (dim,), from the closed form alone: no Hamiltonian
    is built and nothing is diagonalized.  Given ``numeric`` (R.shape +
    (dim,), such as the dense solver's spectrum), every point is compared
    with it and ConsistencyError, naming R, is raised where they differ by
    more than BRANCH_TOL relative to the spectrum's scale.
    """
    # levels lead, R trails, so the reductions run over the leading axis
    R = np.asarray(R, dtype=float)
    c = model.couplings(R)
    if model.kind == "lz":
        Q = np.hypot(c["Bz"], c["Delta"])
        roots = np.stack([-Q / 2, Q / 2])
    elif model.kind == "tfim":
        s = np.hypot(c["J"], c["Bx"])
        roots = np.stack([-c["J"], c["J"], -s, s])
    else:
        # the antisymmetric level, then the cubic roots
        cubic = _cubic_roots(model, R)
        asym = c["J"] if model.kind == "qa" else -c["J"]
        roots = np.concatenate([np.broadcast_to(asym, (1,) + cubic.shape[1:]), cubic])
    levels = np.sort(roots, axis=0)                           # (level,) + R.shape
    if numeric is None:
        return np.moveaxis(levels, 0, -1)
    numeric = np.moveaxis(np.sort(numeric, axis=-1), -1, 0)
    scale = np.maximum(1.0, np.maximum(np.abs(numeric[0]), np.abs(numeric[-1])))
    err = np.max(np.abs(levels - numeric), axis=0) / scale    # R.shape
    bad = ~(err <= BRANCH_TOL)
    if np.any(bad):
        k = np.unravel_index(np.argmax(bad), bad.shape)
        raise ConsistencyError(
            f"closed-form eigenvalues of {model.kind} do not match the dense "
            f"spectrum at R={R[k]}: relative error {err[k]:.3e}"
        )
    return np.moveaxis(levels, 0, -1)


def state_and_derivative(model, R, n, *, anchor=None):
    """(C, dC/dR) for state n at scalar R: ``tracked_state`` at one point."""
    _, C, dC, _ = tracked_state(model, np.array([float(R)]), n, anchor=anchor)
    return C[0], dC[0]


def state_and_derivative_batch(model, R_array, n, *, H=None):
    """(C, dC/dR, E_n, all energies) of state n over R_array (see tracked_state)."""
    w, C, dC, _ = tracked_state(model, np.asarray(R_array, dtype=float), n, H=H)
    return C, dC, w[:, n], w
