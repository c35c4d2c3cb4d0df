"""Spin models: Hamiltonians, analytic eigen-systems, gauge-fixed derivatives.

Four models, each a table in ``OPERATORS`` that maps couplings, affine in
one control parameter R, to operators of the ansatz basis (lz: sigma_z/2
and sigma_x/2); ``hamiltonian`` and ``ModelSpec.slope_matrix`` contract
the couplings or their slopes with it:

  lz    one spin in a sweeping field, H = (Bz(R) sigma_z + Delta sigma_x)/2
  tfim  two-spin transverse Ising, H = J(R) s1z s2z - (s1x+s2x) Bx(R)/2
  qa    two-spin annealer, H = -J s1z s2z - (s1z+s2z) Bz/2 - (s1x+s2x) Bx(R)/2
  gen   Ising + general field, H = J s1z s2z + (s1 + s2).B/2, Bz = Bz(R)

``ModelSpec.sectors`` holds the sectors H never couples: the joint
eigenspaces of the ``SYMMETRIES`` the table commutes with (lz: the
identity).  SWAP gives the triplet {|uu>, (|ud>+|du>)/sqrt2, |dd>} and the
singlet; tfim also commutes with the flip X (x) X, splitting its triplet
into {(|uu>+|dd>)/sqrt2, (|ud>+|du>)/sqrt2} and (|uu>-|dd>)/sqrt2.  Every
eigensolve is one batched Hermitian solve per block P^H H P wider than 1.  The
closed-form spectrum is the same for every model: ``closed_form_eigenvalues``
of each sector block, and each eigensolve is checked against it through the
characteristic polynomial's coefficients, which a double root leaves
accurate.  One gauge rule, ``default_anchor``, keeps an anchor component of
each expanded eigenvector real and positive.  ``tracked_state`` is the one
state layer: over an array of R it returns the energies, the tracked
eigenvector C, its derivative from the spectral formula
dn/dR = sum_{m != n} |m><m|dH/dR|n> / (E_n - E_m) over the levels of n's
sector (no other couples), exact because every coupling is affine in R (so
dH/dR is a constant matrix), and the right-hand side i dC/dR - i <C|dC/dR> C
of the defining equation; ``eigensystem_batch`` gives every level.  The
other state functions are thin views of these two.
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product

import numpy as np

from .ansatz import BASIS, COEFF_NAMES, LZ_BASIS
from .errors import (
    ConfigError,
    ConsistencyError,
    DegeneracyError,
    DomainError,
    GaugeError,
)

# H(R) = sum over couplings c(R) op_c; J3 is s1z s2z, Bx, By, Bz are (s1 + s2).e/2
_ANSATZ = dict(zip(COEFF_NAMES, BASIS))
OPERATORS = {
    "lz": {"Bz": LZ_BASIS[0] / 2, "Delta": LZ_BASIS[1] / 2},
    "tfim": {"J": _ANSATZ["J3"], "Bx": -_ANSATZ["Bx"]},
    "qa": {"J": -_ANSATZ["J3"], "Bz": -_ANSATZ["Bz"], "Bx": -_ANSATZ["Bx"]},
    "gen": {"J": _ANSATZ["J3"], "Bx": _ANSATZ["Bx"], "By": _ANSATZ["By"], "Bz": _ANSATZ["Bz"]},
}

# Couplings each Hamiltonian reads; any of them may be scheduled in R.
REQUIRED_COUPLINGS = {kind: tuple(table) for kind, table in OPERATORS.items()}

# Symmetries the sectors are built from, by model dimension: SWAP and the spin
# flip X (x) X, as permutations of |uu>, |ud>, |du>, |dd>; SECTORS holds each model's
# sectors: the joint eigenspaces of those its operator table commutes with (lz: the identity)
SYMMETRIES = {4: ((0, 2, 1, 3), (3, 2, 1, 0))}


def _sectors(ops):
    """Read-only isometries P (dim, b) of the sectors of an operator stack (k, dim, dim): per
    sign pattern (+ first) of the ``SYMMETRIES`` S mapping every operator to itself, the
    distinct nonzero columns of prod (I +- S)/2, normalized.
    """
    eye = np.eye(ops.shape[-1])
    S = [eye[list(perm)] for perm in SYMMETRIES.get(len(eye), ())
         if np.array_equal(ops[:, perm][:, :, perm], ops)]
    sectors = []
    for signs in product((1, -1), repeat=len(S)):
        V = reduce(np.matmul, [(eye + s * X) / 2 for s, X in zip(signs, S)], eye).T
        # each S permutes the basis: two columns are parallel or have disjoint support
        P = [v * np.sqrt(1 / (v @ v)) for k, v in enumerate(V) if v.any() and not (V[:k] @ v).any()]
        if P:
            sectors.append(np.array(P).T.copy())
            sectors[-1].flags.writeable = False
    return tuple(sectors)


SECTORS = {kind: _sectors(np.array(list(table.values()))) for kind, table in OPERATORS.items()}

GAP_MIN = 1e-8          # refuse gauge fixing below this eigenvalue gap
ANCHOR_MIN = 1e-6       # refuse derivatives when the gauge anchor is this small
BRANCH_TOL = 1e-8       # analytic vs numeric eigenvalue guard
_UPPER = {1: [], 2: [1], 3: [1, 2, 5]}   # flat row-major indices above a b x b diagonal


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
        if self.kind not in OPERATORS:
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

    @cached_property
    def operators(self):
        """(couplings, dim, dim) read-only stack of the model's operator table."""
        ops = np.array(list(OPERATORS[self.kind].values()))
        ops.flags.writeable = False
        return ops

    @property
    def dim(self):
        return self.operators.shape[-1]

    @cached_property
    def is_real(self):
        """True when the Hamiltonian matrix is real symmetric for all R."""
        return not self.operators.imag.any()

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
        """dH/dR, a constant read-only matrix: the coupling slopes contracted with the table."""
        H = _contract(self.operators, self.coupling_affine[1][None])[0]
        H.flags.writeable = False
        return H

    @property
    def sectors(self):
        """The isometries P (dim, b) of the sectors, which H never couples (``SECTORS``)."""
        return SECTORS[self.kind]

    @cached_property
    def block_operators(self):
        """Per sector, the read-only (couplings, b, b) block table P^H op P."""
        blocks = tuple(P.T @ self.operators @ P for P in self.sectors)
        for ops in blocks:
            ops.flags.writeable = False
        return blocks

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


def _contract(operators, c):
    """sum_k c[:, k] operators[k] for (N, k) real c: one real product, (N, dim, dim)."""
    k, d = operators.shape[:2]
    # batch-independent bits only where no entry sums two inexact products (model, block tables)
    return (c @ operators.view(float).reshape(k, -1)).view(complex).reshape(-1, d, d)


def _coupling_values(model, R):
    """(N, couplings) values at the points of R, refusing a non-finite one by name."""
    if not np.isfinite(R).all():
        raise DomainError("R is not finite")
    offset, slope = model.coupling_affine
    c = offset[:, None] + slope[:, None] * R.ravel()        # (couplings, N)
    finite = np.isfinite(c)
    if not finite.all():
        point = np.argmin(finite.all(axis=0))
        name = REQUIRED_COUPLINGS[model.kind][np.argmin(finite[:, point])]
        raise DomainError(f"coupling {name!r} is not finite at R={R.flat[point]}")
    return c.T


def hamiltonian(model, R):
    """Hermitian model matrix at parameter R (scalar or array of R values).

    Returns shape ``(dim, dim)`` for scalar R, ``R.shape + (dim, dim)``
    otherwise: the couplings at R contracted with the model's operator
    table, in the two-spin basis ordering |uu>, |ud>, |du>, |dd>.
    """
    R = np.asarray(R, dtype=float)
    return _contract(model.operators, _coupling_values(model, R)).reshape(
        R.shape + (model.dim,) * 2)


def sector_hamiltonians(model, R):
    """Per sector, the (N, b, b) blocks P^H H P of the Hamiltonian over a 1-d R."""
    c = _coupling_values(model, np.asarray(R, dtype=float))
    return [_contract(ops, c) for ops in model.block_operators]


def _sector_eigh(model, R, blocks=None):
    """Eigensolves of the sector blocks over a 1-d R: (w, solved, where).

    ``solved`` holds (energies (N, b), vectors (N, b, b)) per sector, a 1x1
    block's energy read off the block.  w (N, dim) is the whole spectrum,
    ascending and checked against ``analytic_eigenvalues``; level m is
    entry where[:, m] of the sectors' concatenated energies.  ``blocks``
    optionally holds ``sector_hamiltonians(model, R)`` already built.
    """
    solved = []
    for H in sector_hamiltonians(model, R) if blocks is None else blocks:
        if H.shape[-1] == 1:
            solved.append((H[..., 0].real, np.ones_like(H)))
        else:
            w, V = np.linalg.eigh(H.real if model.is_real else H)
            solved.append((w, V.astype(complex, copy=False)))
    energies = np.concatenate([w for w, _ in solved], axis=1)
    where = np.argsort(energies, axis=1, kind="stable")
    w = np.take_along_axis(energies, where, axis=1)
    analytic_eigenvalues(model, R, numeric=w)
    return w, solved, where


def _eigh_model(model, R):
    """(w (N, dim), V (N, dim, dim)) over a 1-d R: the sector eigensolves, expanded.

    V[:, :, m] is level m expanded to the dim amplitudes, P v.
    """
    w, solved, where = _sector_eigh(model, R)
    V = np.concatenate([P @ Vb for P, (_, Vb) in zip(model.sectors, solved)], axis=2)
    return w, np.take_along_axis(V, where[:, None, :], axis=2)


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


def tracked_state(model, R, n, *, anchor=None, blocks=None):
    """(w, C, dC, rhs) of state n over a 1-d array of R values.

    w (N, dim) holds every energy; C, dC/dR and
    rhs = i dC/dR - i <C|dC/dR> C, the right-hand side of the defining
    equation, are (N, dim).  One eigensolve per point and sector; the
    derivative is sum_{m != n} |m><m|dH/dR|n> / (E_n - E_m) over the
    levels m of n's sector, carried into the gauge
    that holds ``anchor`` (one index, or one per point; default:
    ``default_anchor`` at each point) real and positive by -i Im(dC_a / C_a) C.
    Raises DegeneracyError where state n comes within GAP_MIN of another
    level of any sector, and GaugeError where the anchor component is below
    ANCHOR_MIN (only an explicit anchor can be).
    ``blocks`` optionally holds ``sector_hamiltonians(model, R)`` already built.
    """
    R = np.asarray(R, dtype=float)
    w, solved, where = _sector_eigh(model, R, blocks)
    denom = w[:, n, None] - w
    denom[:, n] = np.inf
    gap = np.abs(denom).min(axis=1)
    if np.any(gap < GAP_MIN):
        k = int(np.argmax(gap < GAP_MIN))
        raise DegeneracyError(
            f"eigenvalue gap {gap[k]:.3e} around state {n} at R={R[k]} "
            f"is below GAP_MIN={GAP_MIN:.1e}"
        )
    v = np.empty((len(R), model.dim), dtype=complex)
    dv = np.empty_like(v)
    start = 0
    slope = model.coupling_affine[1][None]
    for P, ops, (wb, Vb) in zip(model.sectors, model.block_operators, solved):
        # the points where state n lies in this sector, as its level j there
        j = where[:, n] - start
        at = (j >= 0) & (j < P.shape[1])
        start += P.shape[1]
        if not at.any():
            continue
        if not at.all():
            j, wb, Vb = j[at], wb[at], Vb[at]
        idx = np.arange(len(j))
        vb = Vb[idx, :, j]
        denom = wb[idx, j, None] - wb
        denom[idx, j] = 1.0
        dH = _contract(ops, slope)[0]
        # einsum, not matmul: its sums do not depend on the number of points
        coupling = np.einsum("kam,ka->km", np.conj(Vb), np.einsum("ab,kb->ka", dH, vb))
        coupling[idx, j] = 0.0
        v[at] = vb @ P.T
        dv[at] = np.einsum("kam,km->ka", Vb, coupling / denom) @ P.T
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


def eigensystem(model, R):
    """(w, V) of ``eigensystem_batch`` at the one scalar R: (dim,) and (dim, dim)."""
    w, V = eigensystem_batch(model, np.array([float(R)]))
    return w[0], V[0]


def closed_form_eigenvalues(diagonal, upper):
    """Eigenvalues (b, ...) of Hermitian 1x1, 2x2 or 3x3 matrices, ascending up to rounding.

    ``diagonal`` (b, ...) holds the real diagonals, ``upper`` the entries
    above them in row order.  3x3: Smith's trigonometric form (Commun. ACM
    4, 168 (1961)), mean + 2p cos(theta + 2 pi j/3) for j = 1, 2, 0, with
    p^2 = tr(B^2)/6, cos(3 theta) = det(B)/(2p^3) and B the matrix less its
    mean diagonal.  A double root loses about sqrt(eps) relative accuracy
    (arccos near +-1); the characteristic polynomial's coefficients do not.
    """
    if len(diagonal) == 1:
        return diagonal
    if len(diagonal) == 2:
        total = diagonal[0] + diagonal[1]
        split = np.hypot(diagonal[0] - diagonal[1], 2 * abs(upper[0]))
        return np.stack([(total - split) / 2, (total + split) / 2])
    e, f, g = upper
    mean = diagonal.mean(axis=0)
    d0, d1, d2 = diagonal - mean
    e2, f2, g2 = abs(e) ** 2, abs(f) ** 2, abs(g) ** 2
    p = np.sqrt((d0 ** 2 + d1 ** 2 + d2 ** 2 + 2 * (e2 + f2 + g2)) / 6)
    det = d0 * d1 * d2 + 2 * (e * g * np.conj(f)).real - d0 * g2 - d1 * f2 - d2 * e2
    p3 = 2 * p ** 3     # 0 by underflow below p ~ 1e-103, where B is 0 to working precision
    theta = np.arccos(np.clip(np.divide(det, p3, out=np.zeros_like(p), where=p3 > 0), -1, 1)) / 3
    return mean + 2 * p * np.cos(np.add.outer(np.pi * np.array([2, 4, 0]) / 3, theta))


def _elementary(x):
    """Elementary symmetric functions e_1 ... e_b (b, ...) of the values x (b, ...)."""
    e = np.zeros_like(x)
    for value in x:
        e[1:] += value * e[:-1]
        e[0] += value
    return e


def analytic_eigenvalues(model, R, *, numeric=None):
    """Closed-form eigenvalues over scalar or array R, sorted ascending.

    Returns R.shape + (dim,): ``closed_form_eigenvalues`` of each
    sector block (the couplings contracted with ``block_operators``); no
    eigensolve runs.  A double root inside a block (tfim and qa at Bx = 0)
    is accurate to about sqrt(eps), up to about 1.3e-8 relative.  Given
    ``numeric`` (R.shape + (dim,), such as the dense solver's spectrum), the
    spectra are compared through their elementary symmetric functions e_k,
    the characteristic polynomial's coefficients, which a double root
    leaves accurate: ConsistencyError, naming R, is raised where some
    |e_k - e_k'| exceeds BRANCH_TOL scale^k, scale = max(1, max |numeric|).
    """
    R = np.asarray(R, dtype=float)
    c = _coupling_values(model, R)
    roots = []
    for ops in model.block_operators:
        b = ops.shape[-1]
        H = np.ascontiguousarray(_contract(ops, c).reshape(-1, b * b).T)  # (entry, N)
        roots.append(closed_form_eigenvalues(H[::b + 1].real, H[_UPPER[b]]))
    levels = np.sort(np.concatenate(roots), axis=0)           # (level, N)
    if numeric is not None:
        numeric = np.ascontiguousarray(np.reshape(numeric, (-1, model.dim)).T)
        scale = np.maximum(1.0, np.abs(numeric).max(axis=0))
        e = _elementary(np.stack([levels, numeric], axis=1) / scale)
        err = np.abs(e[:, 0] - e[:, 1]).max(axis=0)
        bad = ~(err <= BRANCH_TOL)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ConsistencyError(
                f"closed-form eigenvalues of {model.kind} do not match the dense "
                f"spectrum at R={R.flat[k]}: characteristic polynomial error {err[k]:.3e}"
            )
    return levels.T.reshape(R.shape + (model.dim,))


def state_and_derivative(model, R, n, *, anchor=None):
    """(C, dC/dR) for state n at scalar R: ``tracked_state`` at one point."""
    _, C, dC, _ = tracked_state(model, np.array([float(R)]), n, anchor=anchor)
    return C[0], dC[0]


def state_and_derivative_batch(model, R_array, n):
    """(C, dC/dR, E_n, all energies) of state n over R_array (see tracked_state)."""
    w, C, dC, _ = tracked_state(model, np.asarray(R_array, dtype=float), n)
    return C, dC, w[:, n], w
