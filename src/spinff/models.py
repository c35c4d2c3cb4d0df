"""Spin models: Hamiltonians, analytic eigen-systems, gauge-fixed derivatives.

Four models, each a table in ``OPERATORS`` that maps couplings, affine in
one control parameter R, to operators of its ansatz, ``ANSATZ`` (lz: sigma_z/2
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
eigensolve is ``block_eigh``, the closed-form eigenpairs of the blocks
P^H H P (1x1, 2x2 or 3x3) over R in (b, b, N) component layout, elementwise
over the points: no LAPACK routine runs, and each point has the same bits in
any stack.  Every eigenpair is held to its residual against the block
rebuilt from R.  ``closed_form_eigenvalues`` gives the spectrum alone
(``analytic_eigenvalues``).  One gauge rule, ``default_anchor``, keeps an
anchor component of each expanded eigenvector real and positive.
``level`` names level n of the whole spectrum at one R as level j of
sector s, once; the layers below take (s, j), so another sector's level
may cross it.  ``tracked_state`` is the one state layer: over an array of
R it solves block s alone and returns its energies, the tracked
eigenvector C = P x, its derivative from the spectral formula
dx/dR = sum_{m != j} |m><m|dH/dR|x> / (E_j - E_m) over the levels of the
block (no other couples), exact because every coupling is affine in R (so
dH/dR is a constant matrix), and the right-hand side i dC/dR - i <C|dC/dR> C
of the defining equation; ``eigensystem_batch`` gives every level.  The
other state functions are thin views of these two.
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product

import numpy as np

from .ansatz import BASIS, COEFF_NAMES, LZ_BASIS, LZ_NAMES
from .errors import (
    ConfigError,
    ConsistencyError,
    DegeneracyError,
    DomainError,
    GaugeError,
)

# per kind, the ansatz {name: operator} a regularization term may use (``ModelSpec.ansatz``):
# lz's two-level term, or the nine two-spin operators
_LZ, _TWO = dict(zip(LZ_NAMES, LZ_BASIS)), dict(zip(COEFF_NAMES, BASIS))
ANSATZ = {"lz": _LZ, "tfim": _TWO, "qa": _TWO, "gen": _TWO}

# H(R) = sum over couplings c(R) op_c; J3 is s1z s2z, Bx, By, Bz are (s1 + s2).e/2
OPERATORS = {
    "lz": {"Bz": _LZ["H11"] / 2, "Delta": _LZ["ReH12"] / 2},
    "tfim": {"J": _TWO["J3"], "Bx": -_TWO["Bx"]},
    "qa": {"J": -_TWO["J3"], "Bz": -_TWO["Bz"], "Bx": -_TWO["Bx"]},
    "gen": {"J": _TWO["J3"], "Bx": _TWO["Bx"], "By": _TWO["By"], "Bz": _TWO["Bz"]},
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
EIGEN_TOL = 1e-8        # largest eigenpair residual |H v - E v| / max(1, max |E|)


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
    def ansatz(self):
        """(names, (k, dim, dim) read-only stack) of the kind's ansatz table, ``ANSATZ``."""
        basis = np.array(list(ANSATZ[self.kind].values()))
        basis.flags.writeable = False
        return tuple(ANSATZ[self.kind]), basis

    @cached_property
    def ansatz_terms(self):
        """The nonzero entries (k, r, d, value) of the ansatz stack, in row-major order."""
        basis = self.ansatz[1]
        return tuple(zip(*np.nonzero(basis), basis[basis != 0]))

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
    def sector_rows(self):
        """Per sector, the amplitude rows that fix a vector of it: each of its columns'
        first nonzero amplitude (the triplet's C2 = C3 drops row 3, tfim's flip-even
        C1 = C4 also row 4)."""
        return tuple(tuple((P != 0).argmax(axis=0).tolist()) for P in self.sectors)

    @cached_property
    def block_terms(self):
        """Per sector, (b, dtype, terms) of its block table P^H op P, made exactly
        Hermitian and real where every entry is: ``terms`` lists each entry (i, j) on
        or above the diagonal with its nonzero (coupling, value) pairs."""
        out = []
        for P in self.sectors:
            ops = P.T @ self.operators @ P
            ops = (ops + np.conj(np.swapaxes(ops, 1, 2))) / 2
            ops = ops.real if not ops.imag.any() else ops
            b = P.shape[1]
            terms = [(i, j, [(k, ops[k, i, j]) for k in np.flatnonzero(ops[:, i, j])])
                     for i in range(b) for j in range(i, b)]
            out.append((b, ops.dtype, terms))
        return tuple(out)

    @cached_property
    def block_slopes(self):
        """Per sector, the constant (b, b) block of dH/dR (``_block`` of the slopes)."""
        return tuple(_block(self, self.coupling_affine[1][:, None], s)[..., 0]
                     for s in range(len(self.sectors)))

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
    # batch-independent bits only where no entry sums two inexact products (the model tables)
    return (c @ operators.view(float).reshape(k, -1)).view(complex).reshape(-1, d, d)


def _coupling_values(model, R):
    """(couplings, N) values at the points of R, refusing a non-finite one by name."""
    if not np.isfinite(R).all():
        raise DomainError("R is not finite")
    offset, slope = model.coupling_affine
    c = offset[:, None] + slope[:, None] * R.ravel()
    finite = np.isfinite(c)
    if not finite.all():
        point = np.argmin(finite.all(axis=0))
        name = REQUIRED_COUPLINGS[model.kind][np.argmin(finite[:, point])]
        raise DomainError(f"coupling {name!r} is not finite at R={R.flat[point]}")
    return c


def hamiltonian(model, R):
    """Hermitian model matrix at parameter R (scalar or array of R values).

    Returns shape ``(dim, dim)`` for scalar R, ``R.shape + (dim, dim)``
    otherwise: the couplings at R contracted with the model's operator
    table, in the two-spin basis ordering |uu>, |ud>, |du>, |dd>.
    """
    R = np.asarray(R, dtype=float)
    return _contract(model.operators, _coupling_values(model, R).T).reshape(
        R.shape + (model.dim,) * 2)


def _block(model, c, s):
    """The (b, b, N) stack P^H H P of sector s for the (couplings, N) values c.

    One elementwise sum per entry over its nonzero terms (``block_terms``),
    so each point has the same bits in any stack; the lower triangle is the
    conjugated upper one, and a stack is real where its table is.
    """
    b, dtype, terms = model.block_terms[s]
    H = np.empty((b, b, c.shape[1]), dtype=dtype)
    for i, j, entry in terms:
        if entry:
            (k, value), *rest = entry
            H[i, j] = c[k] * value
            for k, value in rest:
                H[i, j] += c[k] * value
        else:
            H[i, j] = 0.0
        if i != j:
            H[j, i] = np.conj(H[i, j])
    return H


def sector_hamiltonians(model, R):
    """Per sector, the (b, b, N) blocks P^H H P of the Hamiltonian over a 1-d R (``_block``)."""
    c = _coupling_values(model, np.asarray(R, dtype=float))
    return [_block(model, c, s) for s in range(len(model.sectors))]


def _mul(A, B):
    """A[..., k] @ B[..., k] over two (b, b, ...) stacks; each depends on its own pair only."""
    # B[None, k] keeps ndims equal: numpy rounds 1-element complex products of unequal ndims apart
    C = A[:, 0, None] * B[None, 0]
    for k in range(1, len(B)):
        C += A[:, k, None] * B[None, k]
    return C


def _div(x, s):
    """x / s for s > 0 real, x real or complex: numpy's complex division would
    overflow at a subnormal s, as it forms 1 / s."""
    if not np.iscomplexobj(x):
        return x / s
    return (np.ascontiguousarray(x).view(float).reshape(-1, 2) / s[:, None]).view(complex)[:, 0]


def _sq(x):
    """|x|^2 elementwise, in real arithmetic."""
    return x.real ** 2 + x.imag ** 2 if np.iscomplexobj(x) else x * x


def _eigh2(a, d, c):
    """Eigenpairs of the Hermitian [[a, c], [c*, d]] over arrays (a, d real), in the hypot form.

    Returns (lo, hi, x, y): the energies mean -+ hypot((a - d)/2, |c|) and
    the unit vectors of each, as component pairs.  Each vector's larger
    component is |a - d|/2 + hypot(...), so nothing cancels; where c = 0
    and a = d any basis serves, and e_1, e_0 is taken.
    """
    half = (a - d) / 2
    size = np.abs(c)
    split = np.hypot(half, size)
    mean = (a + d) / 2
    t = np.abs(half) + split
    t[t == 0] = 1.0
    norm = np.hypot(size, t)
    c, t = _div(c, norm), t / norm
    cc = np.conj(c)
    up = half >= 0
    x = (np.where(up, c, -t), np.where(up, -t, cc))
    y = (np.where(up, t, c), np.where(up, cc, t))
    return mean - split, mean + split, x, y


def _cross3(u, v):
    """The bilinear cross product u x v of two component triples; both products of a
    component keep their operand order, so u = v gives exact zeros (numpy's complex
    product may fuse a multiply-add, so a * b and b * a can differ)."""
    return (u[1] * v[2] - v[1] * u[2], u[2] * v[0] - v[2] * u[0], u[0] * v[1] - v[0] * u[1])


def _eigh3(H):
    """``block_eigh`` of a (3, 3, N) stack, one component array at a time.

    In units of its largest entry, the block less its mean diagonal, B, has
    a most isolated root mu among ``closed_form_eigenvalues``, the one that
    stays accurate where the other two coincide.
    adj(B - mu I) = alpha v v^H, and its column with the largest diagonal
    entry, a cross product of two rows of B - mu I, gives v (e_0 where
    B = mu I).  The other two levels are the hypot-form eigenpairs of the
    2x2 compression K of B onto the complement of v, and mu's energy is
    tr B - tr K.  The levels come in the order (other, other, isolated);
    ``_sector_eigh`` sorts the spectrum.
    """
    conj = np.conj if np.iscomplexobj(H) else (lambda x: x)
    d = [H[i, i].real for i in range(3)]
    mean = (d[0] + d[1] + d[2]) / 3
    entries = [x - mean for x in d] + [H[0, 1], H[0, 2], H[1, 2]]
    s = reduce(np.maximum, [np.abs(x) for x in entries])
    s[s == 0] = 1.0
    d0, d1, d2, e, f, g = (_div(x, s) for x in entries)
    ce, cf, cg = conj(e), conj(f), conj(g)
    roots = closed_form_eigenvalues(np.array([d0, d1, d2]), [e, f, g])
    mu = np.where(roots[2] - roots[1] >= roots[1] - roots[0], roots[2], roots[0])
    a0, a1, a2 = d0 - mu, d1 - mu, d2 - mu
    # adj(B - mu I): real diagonal c, below it x10, x20, x21
    c0, c1, c2 = a1 * a2 - _sq(g), a0 * a2 - _sq(f), a0 * a1 - _sq(e)
    x10, x20, x21 = g * cf - a2 * ce, ce * cg - a1 * cf, cf * e - a0 * cg
    k1 = np.abs(c1) > np.abs(c0)
    k2 = np.abs(c2) > np.maximum(np.abs(c0), np.abs(c1))
    v = [np.where(k2, conj(x20), np.where(k1, conj(x10), c0)),
         np.where(k2, conj(x21), np.where(k1, c1, x10)),
         np.where(k2, c2, np.where(k1, x21, x20))]
    size = _sq(v[0]) + _sq(v[1]) + _sq(v[2])
    flat = size == 0
    v[0][flat] = size[flat] = 1.0
    v = [x / np.sqrt(size) for x in v]
    # q1 = conj(v x e_j) / |v x e_j|, e_j the one of e_0, e_1 on which v is
    # smaller, so |v x e_j|^2 >= 1/2; q2 = conj(v x q1)
    at0 = _sq(v[0]) <= _sq(v[1])
    zero = np.zeros_like(v[0])
    w = (np.where(at0, zero, -v[2]), np.where(at0, v[2], zero), np.where(at0, -v[1], v[0]))
    size = np.sqrt(_sq(w[0]) + _sq(w[1]) + _sq(w[2]))
    q1 = [conj(x) / size for x in w]
    q2 = [conj(x) for x in _cross3(v, q1)]
    Bq1 = (d0 * q1[0] + e * q1[1] + f * q1[2], ce * q1[0] + d1 * q1[1] + g * q1[2],
           cf * q1[0] + cg * q1[1] + d2 * q1[2])
    k11 = (conj(q1[0]) * Bq1[0] + conj(q1[1]) * Bq1[1] + conj(q1[2]) * Bq1[2]).real
    k12 = conj(Bq1[0]) * q2[0] + conj(Bq1[1]) * q2[1] + conj(Bq1[2]) * q2[2]
    k22 = (d0 * _sq(q2[0]) + d1 * _sq(q2[1]) + d2 * _sq(q2[2])
           + 2 * (ce * conj(q2[1]) * q2[0] + cf * conj(q2[2]) * q2[0]
                  + cg * conj(q2[2]) * q2[1]).real)
    lo, hi, x, y = _eigh2(k11, k22, k12)
    w = np.array([lo, hi, d0 + d1 + d2 - k11 - k22]) * s + mean
    V = np.array([[a * x[0] + b * x[1], a * y[0] + b * y[1], c] for a, b, c in zip(q1, q2, v)])
    return w, V


def block_eigh(H):
    """Eigenpairs of a (b, b, N) stack of Hermitian blocks, b = 1, 2 or 3, in closed form.

    Returns (w (b, N), V (b, b, N)): the energies and V[:, m] the unit
    vector of w[m], ascending for b <= 2.  b = 2 is ``_eigh2``'s hypot form
    and b = 3 ``_eigh3``; each point is computed elementwise, so it has the
    same bits in any stack, and no LAPACK routine runs.
    """
    if len(H) == 1:
        return H[0].real, np.ones_like(H)
    if len(H) == 2:
        lo, hi, x, y = _eigh2(H[0, 0].real, H[1, 1].real, H[0, 1])
        return np.array([lo, hi]), np.array([[x[0], y[0]], [x[1], y[1]]])
    return _eigh3(H)


def _sector_eigh(model, R, s):
    """Eigenpairs of sector s's blocks over a 1-d R: ``block_eigh``'s (w (b, N), V (b, b, N)).

    They are solved, not trusted: every eigenpair is held to its residual
    against the block rebuilt from R, and ConsistencyError, naming R, is
    raised where |H v - E v| exceeds EIGEN_TOL max(1, max |E|) of the sector.
    """
    H = _block(model, _coupling_values(model, R), s)
    w, V = block_eigh(H)
    residual = _sq(_mul(H, V) - V * w[None])
    err = np.sqrt(sum(residual[1:], residual[0]).max(axis=0))
    bad = ~(err <= EIGEN_TOL * np.maximum(1.0, np.abs(w).max(axis=0)))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ConsistencyError(f"eigenpairs of {model.kind} do not solve its Hamiltonian "
                               f"at R={R[k]}: residual {err[k]:.3e}")
    return w, V


def level(model, R, n):
    """(s, j): level n of the whole spectrum at the one scalar R is level j of sector s,
    both counted from 0, ascending.  Raises DegeneracyError where level n lies within
    GAP_MIN of any other level at R, as n then names no single level."""
    R = np.array([float(R)])
    energies = [_sector_eigh(model, R, s)[0][:, 0] for s in range(len(model.sectors))]
    w = np.concatenate(energies)
    sector = np.repeat(np.arange(len(energies)), [len(e) for e in energies])
    order = np.argsort(w, kind="stable")
    gap = np.abs(np.delete(w, order[n]) - w[order[n]]).min(initial=np.inf)
    if gap < GAP_MIN:
        raise DegeneracyError(f"eigenvalue gap {gap:.3e} around state {n} at R={R[0]} "
                              f"is below GAP_MIN={GAP_MIN:.1e}")
    s = sector[order[n]]
    return int(s), int(np.count_nonzero(sector[order[:n]] == s))


def _apply(B, x):
    """B x over the leading axis of x (d, ...) for a sparse matrix B (m, d): one product
    per nonzero of B, summed in the order of d."""
    out = np.zeros((len(B),) + x.shape[1:], dtype=np.result_type(B, x))
    for r, d in zip(*np.nonzero(B)):
        out[r] += B[r, d] * x[d]
    return out


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


def _level_derivative(w, V, j, dH):
    """(v, dv/dR) (b, N) of level j (one per point) of eigen-solved blocks w (b, N), V (b, b, N).

    dv = sum_{m != j} V[:, m] <m|dH|v> / (w_j - w_m), the spectral formula
    for the constant (b, b) slope dH, in component layout.
    """
    v = np.take_along_axis(V, j[None, None], axis=1)[:, 0]
    denom = np.take_along_axis(w, j[None], axis=0) - w
    denom[np.arange(len(w))[:, None] == j] = np.inf
    u = _apply(dH, v)
    Vc = np.conj(V) if np.iscomplexobj(V) else V
    # <m|dH|v> / (w_j - w_m) for every level m, summed over the components in order
    t = sum((Vc[a] * u[a] for a in range(1, len(w))), Vc[0] * u[0]) / denom
    return v, sum((V[:, m] * t[m] for m in range(1, len(w))), V[:, 0] * t[0])


def tracked_state(model, R, level, *, anchor=None):
    """(w, C, dC, rhs) of level (s, j), level j of sector s, over a 1-d array of R values.

    w (N, b) holds the energies of sector s, ascending; C, dC/dR and
    rhs = i dC/dR - i <C|dC/dR> C, the right-hand side of the defining
    equation, are (N, dim), each P x for a vector x of the sector's block P.
    One closed-form eigensolve of block s per point (``_sector_eigh``); the
    derivative is ``_level_derivative`` over its levels, carried into the
    gauge that holds ``anchor`` (one index, or one per point; default:
    ``default_anchor`` at each point) real and positive by
    -i Im(dC_a / C_a) C.  Raises DegeneracyError where level j comes within
    GAP_MIN of another level of sector s (no other sector couples to it),
    and GaugeError where the anchor component is below ANCHOR_MIN (only an
    explicit anchor can be).
    """
    s, j = level
    R = np.asarray(R, dtype=float)
    w, V = _sector_eigh(model, R, s)
    order = np.argsort(w, axis=0, kind="stable")        # level j is column order[j] of V
    E = np.take_along_axis(w, order, axis=0)
    gap = np.abs(np.delete(E, j, axis=0) - E[j]).min(axis=0, initial=np.inf)
    if np.any(gap < GAP_MIN):
        k = int(np.argmax(gap < GAP_MIN))
        raise DegeneracyError(f"eigenvalue gap {gap[k]:.3e} around level {j} of sector {s} "
                              f"at R={R[k]} is below GAP_MIN={GAP_MIN:.1e}")
    P = model.sectors[s]
    x, dx = _level_derivative(w, V, order[j], model.block_slopes[s])
    v, dv = _apply(P, x), _apply(P, dx)
    anchors = default_anchor(model, v.T) if anchor is None else np.broadcast_to(anchor, len(R))
    idx = np.arange(len(R))
    pivot = v[anchors, idx]
    small = np.abs(pivot) < ANCHOR_MIN
    if np.any(small):
        k = int(np.argmax(small))
        raise GaugeError(
            f"gauge anchor component {anchors[k]} has magnitude {abs(pivot[k]):.3e} "
            f"at R={R[k]}; switch anchor"
        )
    # [None]: numpy rounds 1-element complex products of unequal ndims apart
    phase = (np.conj(pivot) / np.abs(pivot))[None]
    C, dC = v * phase, dv * phase
    if np.iscomplexobj(C):
        dC -= 1j * (dC[anchors, idx] / C[anchors, idx]).imag[None] * C
    # summed one term at a time: a complex sum over an axis rounds apart at N = 1
    rhs = 1j * dC - 1j * sum(np.conj(x) * y for x, y in zip(C, dC))[None] * C
    # (N, ...) in C order, as callers index points first
    return tuple(np.ascontiguousarray(x.T, dtype=y) for x, y in
                 ((E, float), (C, complex), (dC, complex), (rhs, complex)))


def eigensystem_batch(model, R_array):
    """Energies and gauge-fixed eigenvectors of every state over an R array.

    Returns (w, V) with shapes (N, dim) and (N, dim, dim): w ascending and
    V[:, :, m] state m, each vector P v of its sector's eigensolve
    (``_sector_eigh``) in the gauge of ``default_anchor``.  No gap guard:
    levels other than a tracked one may cross.
    """
    R = np.asarray(R_array, dtype=float)
    solved = [_sector_eigh(model, R, s) for s in range(len(model.sectors))]
    energies = np.concatenate([w for w, _ in solved])
    where = np.argsort(energies, axis=0, kind="stable")
    w = np.take_along_axis(energies, where, axis=0)
    V = np.concatenate([_apply(P, Vb) for P, (_, Vb) in zip(model.sectors, solved)], axis=1)
    V = np.take_along_axis(V, where[None], axis=1).transpose(2, 0, 1)
    vectors = np.swapaxes(V, 1, 2)          # (N, state, component)
    # real where the model is: a real phase is +-1 exactly, as in tracked_state
    pivot = np.take_along_axis(vectors, default_anchor(model, vectors)[..., None], axis=-1)
    vectors = vectors * (np.conj(pivot) / np.abs(pivot))
    return np.ascontiguousarray(w.T), np.swapaxes(vectors, 1, 2).astype(complex, copy=False)


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
    (arccos near +-1); the third, isolated root does not.
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


def analytic_eigenvalues(model, R):
    """Closed-form eigenvalues over scalar or array R, sorted ascending.

    Returns R.shape + (dim,): ``closed_form_eigenvalues`` of each sector
    block (``sector_hamiltonians``), with no eigenvector.  A double root
    inside a block (tfim and qa at Bx = 0) is accurate to about sqrt(eps),
    up to about 1.3e-8 relative; ``block_eigh`` keeps full accuracy there.
    """
    R = np.asarray(R, dtype=float)
    roots = [closed_form_eigenvalues(np.array([H[i, i].real for i in range(len(H))]),
                                     [H[i, j] for i in range(len(H)) for j in range(i + 1, len(H))])
             for H in sector_hamiltonians(model, R.ravel())]
    levels = np.sort(np.concatenate(roots), axis=0)           # (level, N)
    return levels.T.reshape(R.shape + (model.dim,))


def state_and_derivative(model, R, n, *, anchor=None):
    """(C, dC/dR) for state n at scalar R: ``tracked_state`` of its ``level`` at one point."""
    _, C, dC, _ = tracked_state(model, np.array([float(R)]), level(model, R, n), anchor=anchor)
    return C[0], dC[0]


def state_and_derivative_batch(model, R_array, n):
    """(C, dC/dR, E_n, its sector's energies) of state n, named at R_array[0] (tracked_state)."""
    R = np.asarray(R_array, dtype=float)
    pair = level(model, R[0], n)
    w, C, dC, _ = tracked_state(model, R, pair)
    return C, dC, w[:, pair[1]], w
