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

from . import models
from .ansatz import ansatz_matrix
from .cdsolver import DEFAULT_TOL, canonical_selection, enumerate_grid
from .errors import ConfigError

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
    residual_tol: float = 1e-9

    @property
    def passed(self):
        return self.max_residual < self.residual_tol


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


def verify_table(model, R_values, n=0, tol=DEFAULT_TOL, residual_tol=1e-9):
    """``verify_table_reports`` on a fresh enumeration of the R grid."""
    R_values = np.atleast_1d(np.asarray(R_values, dtype=float))
    reports = enumerate_grid(model, R_values, n, tol).reports
    return verify_table_reports(model, reports, residual_tol)


def verify_table_reports(model, reports, residual_tol=1e-9):
    """Substitute all eighteen closed forms into the defining equation.

    At every point of an annealing-model enumeration: evaluate each entry,
    apply it to the tracked eigenvector, and compare against the right-hand
    side; also require agreement with the report's solution of the matching
    selection, including the vanishing of the frame coefficient.  Entry
    grouping must match the enumeration's clustering.
    """
    if model.kind != "qa":
        raise ConfigError("the closed-form table applies to the annealing model")
    worst_res = np.zeros(len(QA_TABLE))
    worst_gap = np.zeros(len(QA_TABLE))
    worst_van = np.zeros(len(QA_TABLE))
    groups_ok = True
    group_ids = [0] * len(QA_TABLE)
    for report in reports:
        C, dC = models.state_and_derivative(model, report.R, report.state_index)
        rhs_full = 1j * dC - 1j * np.vdot(C, dC) * C
        a, b, c = 1j * dC[0], 1j * dC[1], 1j * dC[3]
        C1, C2, C4 = C[0], C[1], C[3]
        by_selection = {r.selection: r for r in report.results}
        for k, (frame, forms) in enumerate(QA_TABLE):
            values = {name: fn(a, b, c, C1, C2, C4) for name, fn in forms.items()}
            coeffs = {name: v.real for name, v in values.items()}
            residual = np.linalg.norm(ansatz_matrix(coeffs) @ C - rhs_full)
            worst_res[k] = max(worst_res[k], float(residual))
            selection = canonical_selection(tuple(forms) + (frame,))
            solver = by_selection.get(selection)
            if solver is not None and solver.accepted:
                sol = solver.solution.coefficients
                gap = max(abs(sol[name] - coeffs[name]) for name in forms)
                worst_gap[k] = max(worst_gap[k], float(gap))
                worst_van[k] = max(worst_van[k], abs(sol[frame]))
                group_ids[k] = solver.solution.group_id
            else:
                groups_ok = False
    # groups must follow the 6/6/6 layout of the three nonzero pairs
    pair_to_gid = {}
    for k, (frame, forms) in enumerate(QA_TABLE):
        pair = tuple(sorted(forms))
        pair_to_gid.setdefault(pair, group_ids[k])
        if pair_to_gid[pair] != group_ids[k]:
            groups_ok = False
    if len(pair_to_gid) != 3:
        groups_ok = False
    entries = tuple(
        TableEntryReport(
            index=k + 1,
            frame=frame,
            pair=tuple(sorted(forms)),
            max_residual=float(worst_res[k]),
            max_solver_gap=float(worst_gap[k]),
            max_vanishing=float(worst_van[k]),
            group_id=group_ids[k],
            residual_tol=residual_tol,
        )
        for k, (frame, forms) in enumerate(QA_TABLE)
    )
    return TableVerification(entries, groups_ok)
