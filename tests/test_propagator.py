import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from spinff import (
    ModelSpec,
    Schedule,
    eigensystem,
    evolve,
    fast_forward_hamiltonian,
    ff_state,
    ff_state_residual,
)
from spinff import cdsolver, models, propagator
from spinff.config import load_preset
from spinff.errors import DomainError, StepSizeError
from spinff.schedule import advanced_parameter, velocity

QA_SEL = ("W2", "By", "Bz")


def test_stationary_schedule_keeps_eigenstate(qa_model):
    sched = Schedule(3.0, 0.0, 0.05)
    traj = evolve(qa_model, sched, ("W2", "By", "Bz"), dt=0.05 / 2000)
    assert traj.min_fidelity > 1.0 - 1e-12
    # pure phase evolution exp(-i E t)
    w, V = eigensystem(qa_model, 3.0)
    expect = V[:, 0] * np.exp(-1j * w[0] * traj.t[-1])
    assert np.max(np.abs(traj.psi[-1] - expect)) < 1e-9
    # no stage point is live: no coefficient columns
    assert traj.coefficient_names == ()
    assert traj.coefficients.shape == (len(traj.t), 0)


def test_trajectory_layout(tfim_model):
    sched = Schedule(0.0, 20.0, 0.1)
    traj = evolve(tfim_model, sched, ("J3", "W2"), dt=1e-4, samples=300)
    assert len(traj.t) >= 200
    assert traj.t[0] == 0.0
    assert traj.t[-1] == sched.T_FF
    assert np.all(np.diff(traj.t) > 0)
    assert traj.coefficient_names == ("J3", "W2")
    assert traj.coefficients.shape == (len(traj.t), 2)
    # driving coefficients vanish with the velocity at both ends
    assert np.all(traj.coefficients[0] == 0.0)
    assert np.all(traj.coefficients[-1] == 0.0)


def test_norm_conservation_and_endpoint(tfim_model):
    sched = Schedule(0.0, 20.0, 0.1)
    traj = evolve(tfim_model, sched, ("J3", "W2"), dt=1e-4)
    assert traj.max_norm_drift < 1e-10
    assert traj.min_fidelity > 1.0 - 1e-9
    # terminal state is the instantaneous eigenvector up to a global phase
    assert traj.fidelity[-1] > 1.0 - 1e-10


def test_step_halving_changes_little(qa_model, qa_schedule):
    a = evolve(qa_model, qa_schedule, ("W2", "By", "Bz"), dt=1e-4)
    b = evolve(qa_model, qa_schedule, ("W2", "By", "Bz"), dt=5e-5)
    # compare up to the (identical) global phase
    overlap = abs(np.vdot(a.psi[-1], b.psi[-1]))
    assert abs(overlap - 1.0) < 1e-8
    assert np.max(np.abs(a.psi[-1] - b.psi[-1])) < 1e-8


def test_fidelity_trivial_cases(qa_model):
    # the fidelity is |<C_n(R)|psi>| with C_n from eigensystem_batch at N = 1
    _, (V,) = models.eigensystem_batch(qa_model, np.array([2.0]))
    state, other = eigensystem(qa_model, 2.0)[1][:, :2].T
    assert abs(np.vdot(V[:, 0], state)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(V[:, 0], other)) == pytest.approx(0.0, abs=1e-12)


def test_dt_must_divide_duration(qa_model, qa_schedule):
    with pytest.raises(DomainError):
        evolve(qa_model, qa_schedule, ("W2", "By", "Bz"), dt=0.1 / 1000.5)


def test_coarse_step_raises_step_size_error(gen_model, gen_schedule):
    with pytest.raises(StepSizeError):
        evolve(gen_model, gen_schedule, "dense", dt=gen_schedule.T_FF / 50)


def test_fourth_order_convergence(qa_model, qa_schedule):
    T = qa_schedule.T_FF
    psi = {n: evolve(qa_model, qa_schedule, QA_SEL, dt=T / n).psi[-1] for n in (1000, 2000, 8000)}
    ratio = np.linalg.norm(psi[1000] - psi[8000]) / np.linalg.norm(psi[2000] - psi[8000])
    assert 12.0 <= ratio <= 20.0, ratio  # 2**4 for a fourth-order scheme


@pytest.mark.parametrize("steps", [200, 400])
def test_step_error_estimate_tracks_true_error(gen_model, gen_schedule, steps):
    T = gen_schedule.T_FF
    traj = evolve(gen_model, gen_schedule, "dense", dt=T / steps)
    fine = evolve(gen_model, gen_schedule, "dense", dt=T / (16 * steps))
    true = np.linalg.norm(traj.psi[-1] - fine.psi[-1])
    assert true / 3.0 <= traj.step_error <= 3.0 * true, (traj.step_error, true)


# ---------------------------------------------------------------------------
# default step count

def _record_passes(monkeypatch, reported=()):
    """Step counts of the fixed-step passes of the evolve calls that follow.

    Pass k, for k < len(reported), reports reported[k] as its step error.
    """
    passes = []
    inner = propagator._evolve

    def recording(model, schedule, solution, n, steps, samples, *rest):
        passes.append(steps)
        traj, stages = inner(model, schedule, solution, n, steps, samples, *rest)
        if len(passes) <= len(reported):
            traj = dataclasses.replace(traj, step_error=reported[len(passes) - 1])
        return traj, stages

    monkeypatch.setattr(propagator, "_evolve", recording)
    return passes


def _assert_same_trajectory(a, b):
    for field in dataclasses.fields(propagator.Trajectory):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def _assert_same_run(traj, ref):
    # a default run against the run at its dt: the step-error estimate may
    # sum its blocks' products in another order
    for field in dataclasses.fields(propagator.Trajectory):
        if field.name != "step_error":
            assert np.array_equal(getattr(traj, field.name), getattr(ref, field.name)), field.name
    assert abs(traj.step_error - ref.step_error) <= 1e-12 * ref.step_error


@pytest.mark.parametrize("name", ["lz", "tfim", "qa", "gen"])
def test_default_run_meets_step_tol(name, monkeypatch):
    config = load_preset(name)
    args = (config.model, config.schedule, config.selection, config.state)
    passes = _record_passes(monkeypatch)
    traj = evolve(*args, samples=config.samples)
    assert traj.step_error <= propagator.STEP_TOL
    assert len(traj.t) == config.samples + 1
    assert traj.steps == passes[-1]
    assert 1 <= len(passes) <= 3
    assert max(passes) <= max(propagator.DEFAULT_STEPS, config.samples)
    ref = evolve(*args, dt=config.schedule.T_FF / 8000, samples=config.samples)
    assert np.max(np.abs(traj.psi[-1] - ref.psi[-1])) <= 1e-10


def test_explicit_dt_runs_one_pass(qa_model, qa_schedule, monkeypatch):
    direct, _ = propagator._evolve(qa_model, qa_schedule, QA_SEL, 0, 3000, 500)
    passes = _record_passes(monkeypatch)
    traj = evolve(qa_model, qa_schedule, QA_SEL, dt=qa_schedule.T_FF / 3000, samples=500)
    assert passes == [3000]
    _assert_same_trajectory(traj, direct)


def _assert_doubling(passes, samples):
    # N0 * 2**k up to the first count at or above the cap, and no further
    n0 = max(samples, propagator.MIN_SAMPLES)
    cap = max(propagator.DEFAULT_STEPS, samples)
    assert passes == [n0 * 2 ** k for k in range(len(passes))]
    assert all(p < cap for p in passes[:-1])
    first_at_cap = n0
    while first_at_cap < cap:
        first_at_cap *= 2
    assert passes[-1] <= first_at_cap


def test_default_passes_double_up_to_the_cap(qa_model, qa_schedule, monkeypatch):
    # every estimate above STEP_TOL: the search runs to the cap
    passes = _record_passes(monkeypatch, reported=[1e-9] * 8)
    traj = evolve(qa_model, qa_schedule, QA_SEL)
    assert passes == [1000, 2000, 4000, 8000]
    assert traj.steps == 8000
    _assert_doubling(passes, propagator.DEFAULT_SAMPLES)
    # the first pass at or above the cap is the last, however far above
    passes = _record_passes(monkeypatch, reported=[1e-3] * 8)
    assert evolve(qa_model, qa_schedule, QA_SEL, samples=3000).steps == 12000
    assert passes == [3000, 6000, 12000]
    _assert_doubling(passes, 3000)
    # more samples than DEFAULT_STEPS: the first pass is the cap pass
    passes = _record_passes(monkeypatch, reported=[1e-3])
    assert evolve(qa_model, qa_schedule, QA_SEL, samples=9000).steps == 9000
    assert passes == [9000]
    # fewer samples than MIN_SAMPLES: the passes start at MIN_SAMPLES
    passes = _record_passes(monkeypatch)
    traj = evolve(qa_model, qa_schedule, QA_SEL, samples=50)
    _assert_doubling(passes, 50)
    assert passes[0] == propagator.MIN_SAMPLES and traj.step_error <= propagator.STEP_TOL


def test_refused_pass_is_never_kept(qa_model, qa_schedule, monkeypatch):
    # the 2000-step pass meets STEP_TOL (~6e-11) but exceeds this bound:
    # it is refused and the 4000-step pass (~4e-12) is kept
    monkeypatch.setattr(propagator, "STEP_ERROR_MAX", 1e-11)
    passes = _record_passes(monkeypatch)
    traj = evolve(qa_model, qa_schedule, QA_SEL)
    assert passes == [1000, 2000, 4000]
    assert traj.step_error <= propagator.STEP_ERROR_MAX
    _assert_same_run(traj, evolve(qa_model, qa_schedule, QA_SEL, dt=qa_schedule.T_FF / 4000))
    # refused by norm drift everywhere: the search goes on to the cap pass,
    # the only one that raises
    monkeypatch.setattr(propagator, "NORM_DRIFT_MAX", -1.0)
    passes = _record_passes(monkeypatch)
    with pytest.raises(StepSizeError, match="norm drift"):
        evolve(qa_model, qa_schedule, QA_SEL)
    assert passes == [1000, 2000, 4000, 8000]


def test_a_pass_keeps_no_matrix_stack_on_its_stage_grid(qa_model, qa_schedule):
    # what the next pass reuses: per stage point R, v and the
    # coefficient row, per chunk one transfer matrix, per sample its states
    _, stages = propagator._evolve(qa_model, qa_schedule, QA_SEL, 0, 1000, 500, last=False)
    shapes = {name: np.shape(getattr(stages, name)) for name in stages._fields}
    assert shapes == {"R": (2001,), "v": (2001,), "rows": (2001, 3), "G": (500, 4, 4),
                      "energies": (501, 4), "targets": (501, 4)}
    # the last pass, and so every run at an explicit dt, keeps nothing
    assert propagator._evolve(qa_model, qa_schedule, QA_SEL, 0, 1000, 500)[1] is None


@pytest.mark.parametrize("name", ["lz", "tfim", "qa", "gen"])
def test_default_run_is_the_run_at_its_step_count(name):
    config = load_preset(name)
    args = (config.model, config.schedule, config.selection, config.state)
    traj = evolve(*args, samples=config.samples)
    _assert_same_run(traj, evolve(*args, dt=config.schedule.T_FF / traj.steps,
                                  samples=config.samples))


@pytest.mark.parametrize("name", ["qa", "gen"])
def test_default_run_solves_each_driven_stage_point_once(name, monkeypatch):
    config = load_preset(name)
    solved = []
    values = cdsolver.CoefficientPath.values

    def recording(self, R_array, **kwargs):
        solved.append(np.array(R_array, dtype=float))
        return values(self, R_array, **kwargs)

    monkeypatch.setattr(cdsolver.CoefficientPath, "values", recording)
    passes = _record_passes(monkeypatch)
    traj = evolve(config.model, config.schedule, config.selection, config.state,
                  samples=config.samples)
    assert len(passes) >= 2    # the kept pass is built on earlier ones
    sched = config.schedule
    u = np.arange(2 * traj.steps + 1) * (sched.T_FF / (2 * traj.steps))
    R, v = advanced_parameter(sched, u, clamp=True), velocity(sched, u, clamp=True)
    driven = R[cdsolver.is_driven(sched, R, v)]
    got = np.sort(np.concatenate(solved))
    assert len(got) == len(driven)
    assert np.array_equal(got, np.sort(driven))


@pytest.mark.parametrize("name", ["lz", "tfim", "qa", "gen"])
def test_fidelity_is_the_overlap_with_the_eigensystem(name):
    config = load_preset(name)
    traj = evolve(config.model, config.schedule, config.selection, config.state,
                  samples=config.samples)
    w, V = models.eigensystem_batch(config.model, traj.R_adv)
    oracle = np.abs(np.einsum("sd,sd->s", np.conj(V[:, :, config.state]), traj.psi))
    assert np.array_equal(traj.energies, w)
    assert np.array_equal(traj.fidelity, oracle)


def test_phase_integrals_zero_at_origin(qa_model, qa_schedule):
    adiabatic, dynamical = propagator._phases(qa_model, qa_schedule, 0, [0.0])[:, 0]
    assert dynamical == 0.0
    assert adiabatic == 0.0


def test_adiabatic_phase_accumulation_vanishes():
    cases = [
        (ModelSpec.lz(), Schedule(-5.0, 100.0, 0.1)),
        (ModelSpec.tfim(j=(0.5, 0.0), bx=(3.0, -1.0)), Schedule(0.0, 20.0, 0.1)),
        (ModelSpec.qa(), Schedule(0.0, 100.0, 0.1)),
    ]
    for model, sched in cases:
        assert abs(propagator._phases(model, sched, 0, [sched.T_FF])[0, 0]) < 1e-8


def test_ff_state_solves_tdse_tfim(tfim_model):
    sched = Schedule(0.0, 20.0, 0.1)
    r1 = ff_state_residual(tfim_model, sched, ("J3", "W2"), 0, 0.025, 1e-4)
    r2 = ff_state_residual(tfim_model, sched, ("J3", "W2"), 0, 0.025, 5e-5)
    assert 3.0 < r1 / r2 < 5.0  # second-order shrinkage
    assert ff_state_residual(tfim_model, sched, ("J3", "W2"), 0, 0.025, 1e-6) < 1e-6


def test_ff_state_residual_lz_reference_point(lz_model):
    sched = Schedule(-2.5, 10.0, 0.5)
    assert ff_state_residual(lz_model, sched, None, 0, 0.25, 1e-6) < 1e-6


def test_ff_state_probe_time_must_be_interior(qa_model, qa_schedule):
    with pytest.raises(DomainError):
        ff_state_residual(qa_model, qa_schedule, ("W2", "By", "Bz"), 0, 0.0, 1e-6)


def _ff_residual_at_time(model, schedule, solution, n, t, dt_probe):
    # ff_state_residual at one probe time, as written before it took t arrays
    ts = np.array([t - dt_probe, t, t + dt_probe])
    psi = ff_state(model, schedule, n, ts)
    dpsi = (psi[2] - psi[0]) / (2.0 * dt_probe)
    H = fast_forward_hamiltonian(model, schedule, solution, t, n)
    return float(np.linalg.norm(1j * dpsi - H @ psi[1]))


@pytest.mark.parametrize("kind", ["lz", "tfim", "qa", "gen"])
def test_ff_state_residual_over_probe_times_is_the_per_time_residual(kind):
    model, sched, solution = {
        "lz": (ModelSpec.lz(), Schedule(-2.5, 10.0, 0.5), None),
        "tfim": (ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5)), Schedule(0.0, 20.0, 0.1),
                 ("J3", "W2")),
        "qa": (ModelSpec.qa(), Schedule(0.0, 100.0, 0.1), QA_SEL),
        "gen": (ModelSpec.gen(), Schedule(0.0, 250.0, 0.1), "dense"),
    }[kind]
    t = np.array([0.25, 0.5, 0.75]) * sched.T_FF
    for dt_probe in (1e-6, 1e-4):
        batched = ff_state_residual(model, sched, solution, 0, t, dt_probe)
        assert batched.shape == t.shape
        single = [_ff_residual_at_time(model, sched, solution, 0, tk, dt_probe)
                  for tk in t.tolist()]
        # the finite difference amplifies rounding in the state by 1/dt_probe
        np.testing.assert_allclose(batched, single, rtol=1e-9, atol=1e-12)
        # a scalar time gives a float, an array of times an array of its shape
        scalar = ff_state_residual(model, sched, solution, 0, float(t[1]), dt_probe)
        assert isinstance(scalar, float)
        assert abs(scalar - single[1]) <= 1e-9 * single[1] + 1e-12
        grid = ff_state_residual(model, sched, solution, 0, np.stack([t, t]), dt_probe)
        np.testing.assert_array_equal(grid, np.stack([batched, batched]))


def test_ff_state_residual_refuses_any_probe_outside(qa_model, qa_schedule):
    t = np.array([0.25, 1.0]) * qa_schedule.T_FF
    with pytest.raises(DomainError):
        ff_state_residual(qa_model, qa_schedule, QA_SEL, 0, t, 1e-6)


def test_ff_state_is_unit_norm(gen_model, gen_schedule):
    psi = ff_state(gen_model, gen_schedule, 0, [0.03, 0.05])
    assert np.allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["qa", "gen", "tfim"])
def test_batched_phases_are_the_per_time_phases(kind):
    # each time on its own, as the phases were integrated before ff_state
    # stacked the Gauss nodes of all its times into one state call
    model = {"qa": ModelSpec.qa(), "gen": ModelSpec.gen(),
             "tfim": ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5))}[kind]
    sched = Schedule(0.0, {"qa": 100.0, "gen": 250.0, "tfim": 20.0}[kind], 0.1)
    x, w = np.polynomial.legendre.leggauss(propagator.PHASE_NODES)
    ts = np.array([0.0, 0.025 - 1e-6, 0.025, 0.05, 0.075 + 1e-6])
    phases = []
    for t in ts.tolist():
        tau, wts = 0.5 * t * (x + 1.0), 0.5 * t * w
        R_tau = advanced_parameter(sched, tau, clamp=True)
        _, C, dC, _ = models.tracked_state(model, R_tau, 0)
        rate = np.real(1j * np.einsum("nd,nd->n", np.conj(C), dC))
        adiabatic = float(np.dot(wts, velocity(sched, tau, clamp=True) * rate))
        energies, _ = models.eigensystem_batch(model, R_tau)
        dynamical = float(np.dot(wts, energies[:, 0]))
        single = propagator._phases(model, sched, 0, [t])[:, 0]
        assert single[0] == adiabatic
        assert single[1] == dynamical
        phases.append(adiabatic - dynamical)
    batched = propagator._phases(model, sched, 0, ts)
    assert (batched[0] - batched[1]).tolist() == phases
    mid = advanced_parameter(sched, ts[2:3], clamp=True)
    anchor = int(np.argmax(np.abs(models.eigensystem_batch(model, mid)[1][0, :, 0])))
    _, vecs, _, _ = models.tracked_state(model, advanced_parameter(sched, ts, clamp=True), 0,
                                         anchor=anchor)
    np.testing.assert_array_equal(ff_state(model, sched, 0, ts),
                                  vecs * np.exp(1j * np.array(phases))[:, None])


# ---------------------------------------------------------------------------
# step exponentials

def _hermitian_stack(dim, norms, seed=0):
    """Random Hermitian matrices with the given 1-norms."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(len(norms), dim, dim)) + 1j * rng.normal(size=(len(norms), dim, dim))
    K = A + np.conj(np.swapaxes(A, -1, -2))
    return K * (norms / np.abs(K).sum(axis=-2).max(axis=-1))[:, None, None]


@pytest.mark.parametrize("dim", [2, 4])
def test_expm_hermitian_matches_scipy_expm(dim):
    # h||K||_1 from 1e-8 to 50: up to 12 squarings
    h = 0.5
    K = _hermitian_stack(dim, np.logspace(-8, np.log10(50.0), 60) / h)
    E = propagator._expm_hermitian(K, h)
    for Ek, k in zip(E, K):
        ref = scipy.linalg.expm(-1j * h * k)
        assert np.linalg.norm(Ek - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(np.conj(Ek.T) @ Ek - np.eye(dim)) <= 1e-12


def test_expm_hermitian_of_an_empty_stack():
    assert propagator._expm_hermitian(np.zeros((0, 4, 4), dtype=complex), 0.1).shape == (0, 4, 4)


def test_expm_hermitian_depends_on_each_matrix_only():
    # scaling is per matrix: a matrix that needs squaring changes no other
    K = _hermitian_stack(4, np.array([1e-3, 30.0, 5e-3, 0.2]))
    E = propagator._expm_hermitian(K, 1.0)
    for i in range(len(K)):
        assert np.array_equal(E[i], propagator._expm_hermitian(K[i : i + 1], 1.0)[0]), i


def test_step_matrices_need_no_eigensolve(qa_model, monkeypatch):
    R = np.linspace(1.0, 3.0, 9)
    H = models.hamiltonian(qa_model, R)
    ref = propagator._cf4_step_matrices(H, 1e-4)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    U = propagator._cf4_step_matrices(H, 1e-4)
    assert U.shape == (4, 4, 4)
    assert np.array_equal(U, ref)


# ---------------------------------------------------------------------------
# streaming in blocks

def _evolve_peak_bytes(model, schedule, steps):
    tracemalloc.start()
    try:
        evolve(model, schedule, QA_SEL, dt=schedule.T_FF / steps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_memory_does_not_grow_with_steps(qa_model, qa_schedule):
    evolve(qa_model, qa_schedule, QA_SEL, dt=qa_schedule.T_FF / 1000)  # warm caches
    # 1e4 and 1e5 stage points: both several blocks
    small = _evolve_peak_bytes(qa_model, qa_schedule, 5_000)
    large = _evolve_peak_bytes(qa_model, qa_schedule, 50_000)
    assert large <= 1.25 * small, (small, large)


@pytest.mark.parametrize("block", [1, 62])
def test_block_size_does_not_change_results(qa_model, qa_schedule, monkeypatch, block):
    # 6007 steps in 200 chunks of 30 or 31 steps: 4 blocks at the default
    # size, one chunk per block at 62 stage points, one step at 1
    kw = dict(dt=qa_schedule.T_FF / 6007, samples=200)
    ref = evolve(qa_model, qa_schedule, QA_SEL, **kw)
    monkeypatch.setattr(propagator, "BLOCK_STAGE_POINTS", block)
    out = evolve(qa_model, qa_schedule, QA_SEL, **kw)
    for name in ("t", "R_adv", "psi", "norm", "fidelity", "energies", "coefficients", "velocity"):
        assert np.array_equal(getattr(out, name), getattr(ref, name)), name
    assert out.coefficient_names == ref.coefficient_names


def test_stage_hamiltonians_built_once(qa_model, qa_schedule, monkeypatch):
    points = []
    build = models.hamiltonian

    def counting(model, R):
        points.append(np.size(R))
        return build(model, R)

    monkeypatch.setattr(models, "hamiltonian", counting)
    steps = 6007
    traj = evolve(qa_model, qa_schedule, QA_SEL, dt=qa_schedule.T_FF / steps, samples=200)
    # stage grid, block boundaries shared by two blocks, samples, initial state
    assert sum(points) <= 1.01 * (2 * steps + 1) + len(traj.t) + 1


def test_phase_rule_matches_fresh_legendre_rule(qa_model, qa_schedule):
    t = 0.3 * qa_schedule.T_FF
    for _ in range(2):  # the rule is computed on the first call, then reused
        x, w = np.polynomial.legendre.leggauss(propagator.PHASE_NODES)
        tau, wts = 0.5 * t * (x + 1.0), 0.5 * t * w
        energies, _ = models.eigensystem_batch(
            qa_model, advanced_parameter(qa_schedule, tau, clamp=True))
        dynamical = propagator._phases(qa_model, qa_schedule, 0, [t])[1, 0]
        assert dynamical == float(np.dot(wts, energies[:, 0]))
