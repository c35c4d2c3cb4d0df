"""Closed-form reference solutions for the regularization terms.

The annealing model admits eighteen formal sparse solutions, one per
admissible selection; each is a pair of imaginary-part coefficients with
the selected real-part coefficient reducing to zero through the
normalization identity C1 dC1 + 2 C2 dC2 + C4 dC4 = 0.  They collapse
into three degenerate groups keyed by which pair is nonzero.  This module
carries those closed forms (functions of a = i dC1/dR, b = i dC2/dR,
c = i dC4/dR and the amplitudes) together with the transverse-Ising and
two-level forms, and a verifier that substitutes every entry back into
the defining equation.
"""

from dataclasses import dataclass

import numpy as np

from .ansatz import matrices_from_rows
from .cdsolver import canonical_selection, enumerate_grid
from .errors import ConfigError

TABLE_RESIDUAL_TOL = 1e-9   # largest residual of a passing table entry

# --- the eighteen annealing-model entries ---------------------------------
# Each row: (frame coefficient forced to zero, {coefficient: formula}).
# Entries 1-6 carry the (By, W2) pair, 7-12 (By, W1), 13-18 (W1, W2).

QA_TABLE = (
    ("Bz", {
        "By": lambda a, b, c, C1, C2, C4: -1j * (a * C4 + 2 * b * C2 + c * C1) / (2 * C2 * (C1 - C4)),
        "W2": lambda a, b, c, C1, C2, C4: -1j * (-a * C4 + 2 * b * C2 - c * C1) / (4 * C2 * (C1 + C4)),
    }),
    ("Bx", {
        "By": lambda a, b, c, C1, C2, C4: 1j * (a - c) / (2 * C2),
        "W2": lambda a, b, c, C1, C2, C4: -1j * (-a * C4 + 2 * b * C2 - c * C1) / (4 * C2 * (C1 + C4)),
    }),
    ("J1", {
        "By": lambda a, b, c, C1, C2, C4: 1j * (a * C1**2 + a * C4 * C1 + 2 * a * C2**2 + 2 * b * C2 * C1 - 2 * b * C2 * C4 - c * C4 * C1 - 2 * c * C2**2 - c * C4**2) / (4 * C2 * (C2**2 + C1 * C4)),
        "W2": lambda a, b, c, C1, C2, C4: 1j * (-a * C1**2 + a * C4 * C1 + 2 * a * C2**2 - 2 * b * C2 * C1 - 2 * b * C2 * C4 + c * C4 * C1 + 2 * c * C2**2 - c * C4**2) / (8 * C2 * (C2**2 + C1 * C4)),
    }),
    ("J2", {
        "By": lambda a, b, c, C1, C2, C4: 1j * (-a * C1**2 - a * C4 * C1 + 2 * a * C2**2 - 2 * b * C2 * C1 + 2 * b * C2 * C4 + c * C4 * C1 - 2 * c * C2**2 + c * C4**2) / (4 * C2 * (C2**2 - C1 * C4)),
        "W2": lambda a, b, c, C1, C2, C4: 1j * (a * C1**2 - a * C4 * C1 + 2 * a * C2**2 + 2 * b * C2 * C1 + 2 * b * C2 * C4 - c * C4 * C1 + 2 * c * C2**2 + c * C4**2) / (8 * C2 * (C2**2 - C1 * C4)),
    }),
    ("J3", {
        "By": lambda a, b, c, C1, C2, C4: 1j * (C1 * (C4 * (a - c) - 2 * b * C2) + 2 * C2**2 * (c - a) + a * C4**2 + 2 * b * C2 * C4 - c * C1**2) / (2 * C2 * (C1**2 - 2 * C2**2 + C4**2)),
        "W2": lambda a, b, c, C1, C2, C4: -1j * (C1 * (C4 * (a + c) + 2 * b * C2) + 2 * C2**2 * (a + c) - a * C4**2 + 2 * b * C2 * C4 - c * C1**2) / (4 * C2 * (C1**2 - 2 * C2**2 + C4**2)),
    }),
    ("W3", {
        "By": lambda a, b, c, C1, C2, C4: -1j * (a * C4 + 2 * b * C2 + c * C1) / (2 * C2 * (C1 - C4)),
        "W2": lambda a, b, c, C1, C2, C4: 1j * (a + c) / (4 * C2),
    }),
    ("Bz", {
        "By": lambda a, b, c, C1, C2, C4: -2j * b / (C1 - C4),
        "W1": lambda a, b, c, C1, C2, C4: -1j * (a * C4 - 2 * b * C2 + c * C1) / (2 * (C1 - C4) * (C1 + C4)),
    }),
    ("Bx", {
        "By": lambda a, b, c, C1, C2, C4: 1j * (a * C1 - 2 * b * C2 + c * C4) / (2 * C2 * (C1 - C4)),
        "W1": lambda a, b, c, C1, C2, C4: -1j * (a * C4 - 2 * b * C2 + c * C1) / (2 * (C1**2 - C4**2)),
    }),
    ("J1", {
        "By": lambda a, b, c, C1, C2, C4: 1j * (a * C1 * C2 - 2 * b * C1 * C4 + c * C4 * C2) / ((C1 - C4) * (C2**2 + C1 * C4)),
        "W1": lambda a, b, c, C1, C2, C4: 1j * (a * C1**2 - a * C4 * C1 - 2 * a * C2**2 + 2 * b * C2 * C1 + 2 * b * C2 * C4 - c * C4 * C1 - 2 * c * C2**2 + c * C4**2) / (4 * (C4 * C1**2 + C2**2 * C1 - C4**2 * C1 - C2**2 * C4)),
    }),
    ("J2", {
        "By": lambda a, b, c, C1, C2, C4: 1j * (a * C1 * C2 + 2 * b * C1 * C4 + c * C4 * C2) / ((C1 - C4) * (C2**2 - C1 * C4)),
        "W1": lambda a, b, c, C1, C2, C4: 1j * (a * C1**2 - a * C4 * C1 + 2 * a * C2**2 + 2 * b * C2 * C1 + 2 * b * C2 * C4 - c * C4 * C1 + 2 * c * C2**2 + c * C4**2) / (4 * (C4 * C1**2 - C4**2 * C1 - C1 * C2**2 + C2**2 * C4)),
    }),
    ("J3", {
        "By": lambda a, b, c, C1, C2, C4: -2j * (a * C2 * C1 + b * C1**2 + b * C4**2 + c * C2 * C4) / ((C1 - C4) * (C1**2 - 2 * C2**2 + C4**2)),
        "W1": lambda a, b, c, C1, C2, C4: -1j * (-a * C4 * C1 - 2 * a * C2**2 + a * C4**2 - 2 * b * C2 * C1 - 2 * b * C2 * C4 + c * C1**2 - c * C4 * C1 - 2 * c * C2**2) / (2 * (C1 - C4) * (C1**2 - 2 * C2**2 + C4**2)),
    }),
    ("W3", {
        "By": lambda a, b, c, C1, C2, C4: -1j * (-a * C1 + 2 * b * C2 - c * C4) / (2 * C2 * (C1 - C4)),
        "W1": lambda a, b, c, C1, C2, C4: -1j * (a + c) / (2 * (C1 - C4)),
    }),
    ("Bz", {
        "W1": lambda a, b, c, C1, C2, C4: -1j * (a * C4 + 2 * b * C2 + c * C1) / (2 * (C1 - C4) * (C1 + C4)),
        "W2": lambda a, b, c, C1, C2, C4: -1j * b / (C1 + C4),
    }),
    ("Bx", {
        "W1": lambda a, b, c, C1, C2, C4: 1j * (a - c) / (2 * (C1 + C4)),
        "W2": lambda a, b, c, C1, C2, C4: -1j * (-a * C1 + 2 * b * C2 - c * C4) / (4 * C2 * (C1 + C4)),
    }),
    ("J1", {
        "W1": lambda a, b, c, C1, C2, C4: 1j * (a * C1**2 + a * C4 * C1 + 2 * a * C2**2 + 2 * b * C2 * C1 - 2 * b * C2 * C4 - c * C4 * C1 - 2 * c * C2**2 - c * C4**2) / (4 * (C4 * C1**2 + C2**2 * C1 + C4**2 * C1 + C2**2 * C4)),
        "W2": lambda a, b, c, C1, C2, C4: 1j * (a * C1 * C2 - 2 * b * C1 * C4 + c * C4 * C2) / (2 * (C1 + C4) * (C2**2 + C1 * C4)),
    }),
    ("J2", {
        "W1": lambda a, b, c, C1, C2, C4: 1j * (a * C1**2 + a * C4 * C1 - 2 * a * C2**2 + 2 * b * C2 * C1 - 2 * b * C2 * C4 - c * C4 * C1 + 2 * c * C2**2 - c * C4**2) / (4 * (C4 * C1**2 + C4**2 * C1 - C1 * C2**2 - C2**2 * C4)),
        "W2": lambda a, b, c, C1, C2, C4: 1j * (a * C1 * C2 + 2 * b * C1 * C4 + c * C4 * C2) / (2 * (C1 + C4) * (C2**2 - C1 * C4)),
    }),
    ("J3", {
        "W1": lambda a, b, c, C1, C2, C4: -1j * (-a * C1 * C4 + 2 * a * C2**2 - a * C4**2 + 2 * b * C1 * C2 - 2 * b * C2 * C4 + c * C1**2 + c * C1 * C4 - 2 * c * C2**2) / (2 * (C1 + C4) * (C1**2 - 2 * C2**2 + C4**2)),
        "W2": lambda a, b, c, C1, C2, C4: -1j * (a * C1 * C2 + b * C1**2 + b * C4**2 + c * C2 * C4) / ((C1 + C4) * (C1**2 - 2 * C2**2 + C4**2)),
    }),
    ("W3", {
        "W1": lambda a, b, c, C1, C2, C4: -1j * (a * C4 + 2 * b * C2 + c * C1) / (2 * (C1**2 - C4**2)),
        "W2": lambda a, b, c, C1, C2, C4: 1j * (a * C1 - 2 * b * C2 + c * C4) / (4 * C2 * (C1 + C4)),
    }),
)


# --- entanglement-generation formal solutions (complex in general) ---------
# a = i (dC1/dR - L C1) etc.; realness of these is what the acceptance
# filter tests, and with a transverse field of generic orientation it fails.

GEN_TABLE = (
    (("W3", "By", "W1"), {
        "W3": lambda a, b, c, C1, C2, C4: (a * C1 + 2 * b * C2 + c * C4) / (4 * C2 * (C1 - C4)),
        "By": lambda a, b, c, C1, C2, C4: -1j * (-a * C1 + 2 * b * C2 - c * C4) / (2 * C2 * (C1 - C4)),
        "W1": lambda a, b, c, C1, C2, C4: -1j * (a + c) / (2 * (C1 - C4)),
    }),
    (("Bx", "W2", "W1"), {
        "Bx": lambda a, b, c, C1, C2, C4: (a * C1 + 2 * b * C2 + c * C4) / (2 * C2 * (C1 + C4)),
        "W2": lambda a, b, c, C1, C2, C4: -1j * (-a * C1 + 2 * b * C2 - c * C4) / (4 * C2 * (C1 + C4)),
        "W1": lambda a, b, c, C1, C2, C4: 1j * (a - c) / (2 * (C1 + C4)),
    }),
)


# --- scalar closed forms ----------------------------------------------------

def lz_h12_imag(model, R):
    """Im H12 of the two-level regularization term: Delta / (2 (R^2+D^2))."""
    c = model.couplings(R)
    Q2 = c["Bz"] ** 2 + c["Delta"] ** 2
    return c["Delta"] / (2.0 * Q2)


def lz_upper_derivative(model, R):
    """Closed-form d/dR of the upper-state amplitudes (C1 < 0 convention)."""
    c = model.couplings(R)
    D, Rv = c["Delta"], c["Bz"]
    Q = np.hypot(Rv, D)
    dC1 = -D * np.sqrt(Q - Rv) / (2.0 * np.sqrt(2.0) * Q**2.5)
    dC2 = np.sqrt(Q - Rv) * (Q + Rv) / (2.0 * np.sqrt(2.0) * Q**2.5)
    return np.array([dC1, dC2])


def tfim_w2(model, R):
    """Ground-state W2 of the transverse Ising model in closed form."""
    c = model.couplings(R)
    J, Bx = c["J"], c["Bx"]
    dJ = model.coupling_slope("J")
    dBx = model.coupling_slope("Bx")
    return (-J * dBx + Bx * dJ) / (4.0 * (Bx**2 + J**2))


def tfim_polar_rate(model, R):
    """Quarter of d(phi)/dR with J = rho sin(phi), Bx = rho cos(phi)."""
    c = model.couplings(R)
    J, Bx = c["J"], c["Bx"]
    dJ = model.coupling_slope("J")
    dBx = model.coupling_slope("Bx")
    return 0.25 * (Bx * dJ - J * dBx) / (Bx**2 + J**2)


# --- table verification -----------------------------------------------------

@dataclass(frozen=True)
class TableEntryReport:
    index: int                # 1-based entry number
    frame: str                # the real-part coefficient forced to zero
    pair: tuple               # the two coefficients carrying the solution
    max_residual: float
    max_solver_gap: float     # worst disagreement with the selection solver
    max_vanishing: float      # worst magnitude of the frame coefficient
    group_id: int

    @property
    def passed(self):
        return self.max_residual < TABLE_RESIDUAL_TOL


@dataclass(frozen=True)
class TableVerification:
    entries: tuple
    groups_match_enumeration: bool

    @property
    def passed(self):
        return self.groups_match_enumeration and all(e.passed for e in self.entries)

    @property
    def failures(self):
        return [e for e in self.entries if not e.passed]


def verify_table(model, R_values, level=(0, 0)):
    """``verify_table_grid`` on a fresh enumeration of the R grid, of ``level`` (s, j)."""
    return verify_table_grid(model, enumerate_grid(model, R_values, level))


def verify_table_grid(model, grid):
    """Substitute all eighteen closed forms into the defining equation.

    At every point of an annealing-model ``GridEnumeration``: evaluate each
    entry, apply it to the tracked eigenvector, and compare against the
    right-hand side; also require agreement with the grid's solution of the
    matching selection, including the vanishing of the frame coefficient.
    Entry grouping must match the enumeration's clustering.
    """
    if model.kind != "qa":
        raise ConfigError("the closed-form table applies to the annealing model")
    names, basis = model.ansatz
    worst_res, worst_gap, worst_van = np.zeros((3, len(QA_TABLE)))
    groups_ok = True
    group_ids = [0] * len(QA_TABLE)
    C, dC, rhs = grid.state, grid.derivative, grid.rhs
    selections, solved, gids = list(grid.selections), grid.coefficients, grid.group_id
    args = (1j * dC[:, 0], 1j * dC[:, 1], 1j * dC[:, 3], C[:, 0], C[:, 1], C[:, 3])
    for k, (frame, forms) in enumerate(QA_TABLE):
        x = np.zeros((len(C), len(names)))
        cols = [names.index(name) for name in forms]
        x[:, cols] = np.stack([fn(*args).real for fn in forms.values()], axis=1)
        residual = np.linalg.norm((matrices_from_rows(x, basis) @ C[..., None])[..., 0] - rhs,
                                  axis=1)
        worst_res[k] = residual.max()
        selection = canonical_selection(model, tuple(forms) + (frame,))
        if selection not in selections:
            groups_ok = False
            continue
        j = selections.index(selection)
        ok = gids[:, j] >= 0
        groups_ok &= bool(ok.all())
        if ok.any():
            worst_gap[k] = np.abs(solved[ok, j][:, cols] - x[ok][:, cols]).max()
            worst_van[k] = np.abs(solved[ok, j, names.index(frame)]).max()
            group_ids[k] = int(gids[ok, j][-1])
    # groups must follow the 6/6/6 layout of the three nonzero pairs: one
    # group per pair
    pair_groups = {(tuple(sorted(forms)), gid) for (_, forms), gid in zip(QA_TABLE, group_ids)}
    groups_ok &= len(pair_groups) == len({pair for pair, _ in pair_groups}) == 3
    entries = tuple(
        TableEntryReport(k + 1, frame, tuple(sorted(forms)), float(worst_res[k]),
                         float(worst_gap[k]), float(worst_van[k]), group_ids[k])
        for k, (frame, forms) in enumerate(QA_TABLE)
    )
    return TableVerification(entries, groups_ok)
