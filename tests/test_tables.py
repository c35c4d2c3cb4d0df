import numpy as np
import pytest

import spinff.ansatz
import spinff.cdsolver
from spinff import reduce_system, verify_table
from spinff.cdsolver import enumeration_grid
from spinff.errors import ConfigError
from spinff.models import state_and_derivative
from spinff.tables import GEN_TABLE, QA_TABLE


def _abc(model, R, n=0):
    C, dC = state_and_derivative(model, R, n)
    return (1j * dC[0], 1j * dC[1], 1j * dC[3]), (C[0], C[1], C[3])


def test_table_has_eighteen_entries_in_three_blocks():
    assert len(QA_TABLE) == 18
    pairs = [tuple(sorted(forms)) for _, forms in QA_TABLE]
    assert pairs[:6] == [("By", "W2")] * 6
    assert pairs[6:12] == [("By", "W1")] * 6
    assert pairs[12:] == [("W1", "W2")] * 6


def test_full_table_verification(qa_model, qa_schedule):
    grid = enumeration_grid(qa_schedule, 10)
    verification = verify_table(qa_model, grid)
    assert verification.passed
    assert verification.groups_match_enumeration
    for entry in verification.entries:
        assert entry.max_residual < 1e-9
        assert entry.max_solver_gap < 1e-7
        assert entry.max_vanishing < 1e-9
    # 6/6/6 grouping
    gids = [e.group_id for e in verification.entries]
    assert gids[:6] == [gids[0]] * 6
    assert gids[6:12] == [gids[6]] * 6
    assert gids[12:] == [gids[12]] * 6
    assert len({gids[0], gids[6], gids[12]}) == 3


def test_entry_thirteen_w2_form(qa_model):
    (a, b, c), (C1, C2, C4) = _abc(qa_model, 5.0)
    w2 = -1j * b / (C1 + C4)
    res = spinff.cdsolver.solve_selection(
        reduce_system(qa_model, 5.0, 0, ("W1", "W2", "Bz"))
    )
    assert res.accepted
    assert res.coefficients[spinff.ansatz.COEFF_NAMES.index("W2")] == pytest.approx(w2.real, abs=1e-9)
    assert abs(w2.imag) < 1e-9


def test_entry_one_matches_first_group_selection(qa_model):
    (a, b, c), (C1, C2, C4) = _abc(qa_model, 5.0)
    frame, forms = QA_TABLE[0]
    assert frame == "Bz"
    by = forms["By"](a, b, c, C1, C2, C4)
    w2 = forms["W2"](a, b, c, C1, C2, C4)
    res = spinff.cdsolver.solve_selection(
        reduce_system(qa_model, 5.0, 0, ("W2", "By", "Bz"))
    )
    assert res.coefficients[spinff.ansatz.COEFF_NAMES.index("By")] == pytest.approx(by.real, abs=1e-9)
    assert res.coefficients[spinff.ansatz.COEFF_NAMES.index("W2")] == pytest.approx(w2.real, abs=1e-9)


def test_table_requires_annealing_model(tfim_model):
    with pytest.raises(ConfigError):
        verify_table(tfim_model, [1.0])


def test_sign_flip_mutation_is_caught(qa_model, monkeypatch):
    # corrupt the W2 basis operator; the closed forms must stop matching
    flipped = spinff.ansatz.BASIS.copy()
    flipped[spinff.ansatz.COEFF_NAMES.index("W2")] *= -1.0
    monkeypatch.setattr(spinff.ansatz, "BASIS", flipped)
    monkeypatch.setattr(spinff.cdsolver, "BASIS", flipped)
    verification = verify_table(qa_model, [5.0])
    assert not verification.passed
    assert verification.failures


def test_gen_formal_solutions_match_solver_complex_values(gen_model):
    # the printed forms reproduce the solver's formal (complex) solutions;
    # their imaginary parts are the realness defect
    R = 12.5
    C, dC = state_and_derivative(gen_model, R, 0)
    L = np.vdot(C, dC)
    a = 1j * (dC[0] - L * C[0])
    b = 1j * (dC[1] - L * C[1])
    c = 1j * (dC[3] - L * C[3])
    for names, forms in GEN_TABLE:
        rs = reduce_system(gen_model, R, 0, names)
        x = np.linalg.solve(rs.coefficient_matrix, rs.rhs)
        solved = dict(zip(rs.unknown_names, x))
        for name, fn in forms.items():
            value = fn(a, b, c, C[0], C[1], C[3])
            assert solved[name] == pytest.approx(value, abs=1e-8)
            assert abs(value.imag) > 1e-3  # genuinely complex here
