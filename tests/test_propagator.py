import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

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
from spinff.ansatz import matrices_from_rows
from spinff.cli import resolve_selection
from spinff.config import load_preset
from spinff.errors import DegeneracyError, DomainError, StepSizeError
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
    assert len(traj.t) == 301
    assert traj.t[0] == 0.0
    assert traj.t[-1] == sched.T_FF
    assert np.all(np.diff(traj.t) > 0)
    assert traj.coefficient_names == ("J3", "W2")
    assert traj.coefficients.shape == (len(traj.t), 2)
    # driving coefficients vanish with the velocity at both ends
    assert np.all(traj.coefficients[0] == 0.0)
    assert np.all(traj.coefficients[-1] == 0.0)
    # an explicit dt of fewer steps than max(samples, MIN_SAMPLES): one chunk per step
    few = evolve(tfim_model, sched, ("J3", "W2"), dt=sched.T_FF / 50, samples=300)
    assert len(few.t) == 51 and np.all(few.chunk_steps == 1)


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


def _max_sample_error(traj, ref):
    """Largest distance of traj's samples from ref's, sample for sample."""
    assert np.array_equal(traj.t, ref.t)
    return float(np.linalg.norm(traj.psi - ref.psi, axis=1).max())


def _assert_estimate_tracks(step_error, true):
    # the summed pair estimates exceed the largest sample error where the local
    # errors partly cancel (about 3.8x on gen, 4.8x on lz) and fall short of it
    # only at rounding level (tfim's estimate 2.0e-13 against 2.7e-13)
    assert true / 2.0 <= step_error <= 6.0 * true, (step_error, true)


@pytest.mark.parametrize("steps", [200, 400])
def test_step_error_estimate_tracks_true_error(gen_model, gen_schedule, steps):
    # every sample, against a run at 16x the steps on the same samples
    T = gen_schedule.T_FF
    traj = evolve(gen_model, gen_schedule, "dense", dt=T / steps, samples=steps)
    fine = evolve(gen_model, gen_schedule, "dense", dt=T / (16 * steps), samples=steps)
    _assert_estimate_tracks(traj.step_error, _max_sample_error(traj, fine))


@pytest.mark.parametrize("name", ["lz", "tfim", "qa", "gen"])
def test_default_step_error_bounds_every_sample(name):
    # a default run against a uniform run at 16 steps per chunk (16x its first
    # pass, error below 1e-13), at every sample, not only at the end
    config = load_preset(name)
    args = (config.model, config.schedule, config.selection, config.state)
    traj = evolve(*args, samples=config.samples)
    ref = evolve(*args, dt=config.schedule.T_FF / (16 * config.samples), samples=config.samples)
    true = _max_sample_error(traj, ref)
    assert true <= 2.0 * propagator.STEP_TOL
    _assert_estimate_tracks(traj.step_error, true)
    if name == "lz":
        # the uniform 1000-step run missed STEP_TOL mid-run (1.34e-10 at t/T = 0.52)
        assert true < 1e-10


# ---------------------------------------------------------------------------
# default step counts

def _assert_same_trajectory(a, b):
    for field in dataclasses.fields(propagator.Trajectory):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def _assert_same_run(traj, ref):
    # the step-error estimate may fold a pair's 2h steps in another order
    # (as one run, or as the products of its two chunks): rounding, ~1e-16 a pair
    for field in dataclasses.fields(propagator.Trajectory):
        if field.name != "step_error":
            assert np.array_equal(getattr(traj, field.name), getattr(ref, field.name)), field.name
    assert abs(traj.step_error - ref.step_error) <= 1e-14


@pytest.mark.parametrize("name", ["lz", "tfim", "qa", "gen"])
def test_default_run_meets_step_tol(name):
    config = load_preset(name)
    args = (config.model, config.schedule, config.selection, config.state)
    traj = evolve(*args, samples=config.samples)
    T = config.schedule.T_FF
    assert traj.step_error <= propagator.STEP_TOL
    assert len(traj.t) == config.samples + 1
    np.testing.assert_allclose(np.diff(traj.t), T / config.samples, rtol=1e-9)
    # per chunk a power of two steps, at most the per-chunk cap
    steps = traj.chunk_steps
    assert len(steps) == config.samples
    assert np.all(steps & (steps - 1) == 0)
    assert steps.max() <= propagator.DEFAULT_STEPS // config.samples
    assert traj.steps == steps.sum() and traj.dt == T / traj.steps
    ref = evolve(*args, dt=T / 8000, samples=config.samples)
    assert np.max(np.abs(traj.psi[-1] - ref.psi[-1])) <= 1e-10


def test_explicit_dt_runs_one_pass(qa_model, qa_schedule, monkeypatch):
    # 3000 steps on 500 chunks of 6: one uniform pass, never refined
    direct = propagator._evolve(qa_model, qa_schedule, QA_SEL, 0, np.full(500, 6), uniform=True)

    def refuse(self, pairs):
        raise AssertionError("a run at an explicit dt was refined")

    monkeypatch.setattr(propagator._Run, "refine", refuse)
    traj = evolve(qa_model, qa_schedule, QA_SEL, dt=qa_schedule.T_FF / 3000, samples=500)
    assert traj.steps == 3000 and np.all(traj.chunk_steps == 6)
    _assert_same_trajectory(traj, direct)


def test_default_passes_double_up_to_the_cap(qa_model, qa_schedule, monkeypatch):
    # no estimate meets a zero tolerance: every pair doubles, round after round,
    # up to the per-chunk cap, the smallest power of two at which the N0 chunks
    # hold max(DEFAULT_STEPS, samples) steps, and no further; the run is then
    # the uniform run at that step count
    monkeypatch.setattr(propagator, "STEP_TOL", 0.0)
    T = qa_schedule.T_FF
    for samples, top in ((1000, 8), (3000, 4), (9000, 1), (50, 64)):
        n0 = max(samples, propagator.MIN_SAMPLES)
        traj = evolve(qa_model, qa_schedule, QA_SEL, samples=samples)
        assert np.all(traj.chunk_steps == top), samples
        assert traj.steps == n0 * top
        _assert_same_run(traj, evolve(qa_model, qa_schedule, QA_SEL, dt=T / (n0 * top),
                                      samples=samples))


def test_refused_pass_is_never_kept(qa_model, qa_schedule, monkeypatch):
    # a finished run is held to STEP_ERROR_MAX and NORM_DRIFT_MAX at one site,
    # once: a run that exceeds either raises instead of being returned
    calls = []
    inner = propagator._refusal

    def counted(traj):
        calls.append(traj.steps)
        return inner(traj)

    monkeypatch.setattr(propagator, "_refusal", counted)
    steps = evolve(qa_model, qa_schedule, QA_SEL).steps
    assert calls == [steps]
    # the default run meets STEP_TOL (about 1e-10) but exceeds this bound; the
    # message names its finest step, 2 steps on a 1e-4 chunk
    monkeypatch.setattr(propagator, "STEP_ERROR_MAX", 1e-11)
    calls.clear()
    with pytest.raises(StepSizeError, match="exceeds 1e-11; use a smaller dt than 5.000e-05"):
        evolve(qa_model, qa_schedule, QA_SEL)
    assert calls == [steps]
    monkeypatch.setattr(propagator, "STEP_ERROR_MAX", 1.0)
    monkeypatch.setattr(propagator, "NORM_DRIFT_MAX", -1.0)
    calls.clear()
    with pytest.raises(StepSizeError, match="norm drift"):
        evolve(qa_model, qa_schedule, QA_SEL, dt=qa_schedule.T_FF / 1000)
    assert calls == [1000]


def test_a_pass_keeps_no_matrix_stack_on_its_stage_grid(qa_model, qa_schedule):
    # what the refinement rounds reuse: the coefficient row of every driven
    # stage point solved so far, by key; per chunk one transfer matrix; per
    # sample its states
    samples, top = 500, 4
    run = propagator._Run(qa_model, qa_schedule, QA_SEL, (0, 0), np.ones(samples, dtype=int), top)
    R, v = propagator._stage_block(qa_schedule, run.M, np.arange(run.bounds[-1] + 1))
    driven = np.flatnonzero(cdsolver.is_driven(qa_schedule, R, v))
    path = cdsolver.CoefficientPath(qa_model, QA_SEL, (0, 0))

    def shapes():
        return {name: np.shape(value) for name, value in vars(run).items()
                if isinstance(value, np.ndarray)}

    before = shapes()
    # one b x b matrix per chunk, b = 3 for the triplet block of the qa ground state
    assert sorted(before["G"]) == [3, 3, samples]
    assert before["C_s"] == (samples + 1, 4)
    # nothing but the stored rows is sized by the stage grid
    assert sorted(name for name, shape in before.items()
                  if max(shape) > samples + 1) == ["row_keys", "rows"]
    # each pass adds the driven points it solved: the first every 4th point of
    # the finest grid, each doubling round the midpoints between them
    for stride in (4, 2, 1):
        if stride < 4:
            run.refine(np.arange(samples // 2))
        assert np.array_equal(run.row_keys, driven[driven % stride == 0])
        assert np.array_equal(run.rows, path.values(R[run.row_keys]))
    assert np.all(run.sizes == top)
    assert {name: shape for name, shape in shapes().items() if name not in ("row_keys", "rows")} \
        == {name: shape for name, shape in before.items() if name not in ("row_keys", "rows")}
    # a run on one uniform grid, and so every run at an explicit dt, keeps no rows
    assert propagator._Run(qa_model, qa_schedule, QA_SEL, (0, 0), np.full(samples, 2)).rows is None


@pytest.mark.parametrize("name", ["lz", "tfim", "qa", "gen"])
def test_even_stage_points_of_a_pass_are_the_stage_points_of_the_pass_before(name):
    # why a chunk that doubles its steps keeps its points and their rows: on a
    # grid of 2**k times the steps, every 2**k-th point is the same u bit for bit
    config = load_preset(name)
    for steps in (1000, 1250, 4000):
        coarse = propagator._stage_block(config.schedule, steps, np.arange(2 * steps + 1))
        for k in (2, 8):
            fine = propagator._stage_block(config.schedule, k * steps,
                                           np.arange(2 * k * steps + 1))
            for a, b in zip(coarse, fine):
                assert np.array_equal(b[0::k], a)


@pytest.mark.parametrize("name", ["lz", "tfim", "qa", "gen"])
def test_default_run_is_the_run_at_its_step_count(name):
    # a default run is a fixed-step run that can be reproduced: one pass at its
    # recorded per-chunk step counts gives the same trajectory bit for bit
    config = load_preset(name)
    args = (config.model, config.schedule, config.selection, config.state)
    traj = evolve(*args, samples=config.samples)
    _assert_same_run(traj, propagator._evolve(*args, traj.chunk_steps))


@pytest.mark.parametrize("name", ["qa", "gen"])
def test_default_run_solves_each_driven_stage_point_once(name, monkeypatch):
    config = load_preset(name)
    solved = []
    values = cdsolver.CoefficientPath.values

    def recording(self, R_array, **kwargs):
        solved.append(np.array(R_array, dtype=float))
        return values(self, R_array, **kwargs)

    monkeypatch.setattr(cdsolver.CoefficientPath, "values", recording)
    traj = evolve(config.model, config.schedule, config.selection, config.state,
                  samples=config.samples)
    counts = traj.chunk_steps
    assert counts.max() > 1    # the refined chunks are built on the first pass
    # the final per-chunk grids: chunk j on the grid of N counts[j] steps
    sched, N = config.schedule, len(counts)
    u = np.unique(np.concatenate([(2 * j * c + np.arange(2 * c + 1)) * (sched.T_FF / (2 * N * c))
                                  for j, c in enumerate(counts.tolist())]))
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
    V = models.eigensystem_batch(config.model, traj.R_adv)[1]
    oracle = np.abs(np.einsum("sd,sd->s", np.conj(V[:, :, config.state]), traj.psi))
    assert np.array_equal(traj.fidelity, oracle)


def test_phase_integrals_zero_at_origin(qa_model, qa_schedule):
    adiabatic, dynamical = propagator._phases(qa_model, qa_schedule, (0, 0), [0.0])[:, 0]
    assert dynamical == 0.0
    assert adiabatic == 0.0


def test_adiabatic_phase_accumulation_vanishes():
    cases = [
        (ModelSpec.lz(), Schedule(-5.0, 100.0, 0.1)),
        (ModelSpec.tfim(j=(0.5, 0.0), bx=(3.0, -1.0)), Schedule(0.0, 20.0, 0.1)),
        (ModelSpec.qa(), Schedule(0.0, 100.0, 0.1)),
    ]
    for model, sched in cases:
        assert abs(propagator._phases(model, sched, (0, 0), [sched.T_FF])[0, 0]) < 1e-8


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


FF_CASES = {
    "lz": (ModelSpec.lz(), Schedule(-2.5, 10.0, 0.5), None),
    "tfim": (ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5)), Schedule(0.0, 20.0, 0.1),
             ("J3", "W2")),
    "qa": (ModelSpec.qa(), Schedule(0.0, 100.0, 0.1), QA_SEL),
    "gen": (ModelSpec.gen(), Schedule(0.0, 250.0, 0.1), "dense"),
}


@pytest.mark.parametrize("kind", list(FF_CASES))
def test_ff_state_residual_agrees_with_the_from_zero_residual(kind):
    # each probe triple measures its phases from its first time; a global
    # phase drops out, so the residual is the one of ff_state's phases from
    # 0 up to rounding, which the finite difference amplifies by 1/dt_probe
    # (at most 6e-11 apart at dt_probe = 1e-6 on these cases)
    model, sched, solution = FF_CASES[kind]
    t = np.array([0.25, 0.5, 0.75]) * sched.T_FF
    for dt_probe, rtol, atol in ((1e-4, 1e-6, 0.0), (1e-6, 0.0, 2e-10)):
        residual = ff_state_residual(model, sched, solution, 0, t, dt_probe)
        single = [_ff_residual_at_time(model, sched, solution, 0, tk, dt_probe)
                  for tk in t.tolist()]
        np.testing.assert_allclose(residual, single, rtol=rtol, atol=atol)


@pytest.mark.parametrize("kind", ["qa", "gen"])
def test_ff_state_residual_is_shaped_like_t(kind):
    model, sched, solution = FF_CASES[kind]
    t = np.array([0.25, 0.5, 0.75]) * sched.T_FF
    residual = ff_state_residual(model, sched, solution, 0, t)
    assert residual.shape == t.shape
    # a scalar time gives a float, an array of times an array of its shape
    scalar = ff_state_residual(model, sched, solution, 0, float(t[1]))
    assert isinstance(scalar, float)
    assert abs(scalar - residual[1]) <= 1e-9 * residual[1]
    grid = ff_state_residual(model, sched, solution, 0, np.stack([t, t]))
    np.testing.assert_array_equal(grid, np.stack([residual, residual]))


def test_ff_state_residual_solves_a_few_points_per_probe_time(monkeypatch):
    # the phases come from each probe triple's own Gauss nodes, not from
    # integrals over [0, t] on PHASE_NODES nodes for each of its 3 times: one
    # state call at the probe times t for the anchors, one over the probes and
    # nodes, and the drive's at t
    model, sched, solution = FF_CASES["gen"]
    points = []
    real = models.tracked_state

    def counted(model, R, n, **kw):
        points.append(len(R))
        return real(model, R, n, **kw)

    monkeypatch.setattr(models, "tracked_state", counted)
    for K in (3, 12):
        points.clear()
        ff_state_residual(model, sched, solution, 0, np.linspace(0.2, 0.8, K) * sched.T_FF)
        assert len(points) <= 3
        assert sum(points) <= K * (1 + 3 + 2 * propagator.PROBE_NODES + 1)


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
        _, C, dC, _ = models.tracked_state(model, R_tau, (0, 0))
        rate = np.real(1j * np.einsum("nd,nd->n", np.conj(C), dC))
        adiabatic = float(np.dot(wts, velocity(sched, tau, clamp=True) * rate))
        energies, _ = models.eigensystem_batch(model, R_tau)
        dynamical = float(np.dot(wts, energies[:, 0]))
        single = propagator._phases(model, sched, (0, 0), [t])[:, 0]
        assert single[0] == adiabatic
        assert single[1] == dynamical
        phases.append(adiabatic - dynamical)
    batched = propagator._phases(model, sched, (0, 0), ts)
    assert (batched[0] - batched[1]).tolist() == phases
    mid = advanced_parameter(sched, ts[2:3], clamp=True)
    anchor = int(np.argmax(np.abs(models.eigensystem_batch(model, mid)[1][0, :, 0])))
    _, vecs, _, _ = models.tracked_state(model, advanced_parameter(sched, ts, clamp=True),
                                         (0, 0), anchor=anchor)
    np.testing.assert_array_equal(ff_state(model, sched, 0, ts),
                                  vecs * np.exp(1j * np.array(phases))[:, None])


# ---------------------------------------------------------------------------
# the run on its symmetry-sector block against a plain 4x4 run

def _cf4_reference(model, schedule, solution, n, steps, psi0):
    """psi after every step of a plain 4x4 CF4:2 run: H_FF from
    fast_forward_hamiltonian on the stage grid, each factor by scipy's expm."""
    h = schedule.T_FF / steps
    u = np.minimum(np.arange(2 * steps + 1) * (schedule.T_FF / (2 * steps)), schedule.T_FF)
    H = fast_forward_hamiltonian(model, schedule, solution, u, n)
    half_a1 = (H[0:-1:2] + 4.0 * H[1::2] + H[2::2]) / 12.0
    two_a2 = (H[2::2] - H[0:-1:2]) / 6.0
    U = (scipy.linalg.expm(-1j * h * (half_a1 + two_a2))
         @ scipy.linalg.expm(-1j * h * (half_a1 - two_a2)))
    psi = [psi0]
    for step in U:
        psi.append(step @ psi[-1])
    return np.array(psi)


@pytest.mark.parametrize("name, n", [("qa", 0), ("qa", 1), ("gen", 0), ("gen", 1), ("gen", 2),
                                     ("gen", 3), ("tfim", 0), ("tfim", 3)])
def test_sector_run_is_the_plain_4x4_run(name, n):
    # gen level 1 is the singlet, a 1x1 block; the other qa and gen levels lie
    # in the triplet, the tfim ones in its 2x2 flip-even block
    config = dataclasses.replace(load_preset(name), state=n)
    solution = resolve_selection(config)
    steps = 400
    traj = evolve(config.model, config.schedule, solution, n,
                  dt=config.schedule.T_FF / steps, samples=200)
    assert traj.psi.shape == (len(traj.t), 4)
    # the initial state is level n of the full eigh, up to a phase
    _, V = np.linalg.eigh(models.hamiltonian(config.model, config.schedule.R0))
    overlap = np.vdot(V[:, n], traj.psi[0])
    assert abs(abs(overlap) - 1.0) <= 1e-12
    ref = _cf4_reference(config.model, config.schedule, solution, n, steps,
                         V[:, n] * overlap / abs(overlap))
    at = np.rint(traj.t / traj.dt).astype(int)
    assert np.max(np.abs(traj.psi - ref[at])) <= 1e-12


@pytest.mark.parametrize("selection, flip_odd", [(("J3", "W2"), 0), (("W2", "Bz"), 1), ("dense", 4)])
def test_tfim_drive_has_no_flip_odd_part(selection, flip_odd):
    # the run evolves on tfim's flip-even block, which drops the part of the
    # drive that would leave it: the flip-odd coefficients (W1, W3, By, Bz)
    config = load_preset("tfim")
    traj = evolve(config.model, config.schedule, selection, config.state)
    coef = np.abs(traj.coefficients)
    odd = [k for k, name in enumerate(traj.coefficient_names) if name in ("W1", "W3", "By", "Bz")]
    assert coef.max() > 0 and len(odd) == flip_odd
    assert coef[:, odd].max(initial=0.0) <= 1e-15 * coef.max()


def test_run_degenerate_at_R0_is_refused_naming_R0(qa_model):
    # Bx = 0 at R0 = 10: the singlet and the triplet level |ud> + |du> both sit at +J
    schedule = Schedule(10.0, 10.0, 0.1)
    for n in (2, 3):
        with pytest.raises(DegeneracyError, match=r"state %d at R=10\.0 is below" % n):
            evolve(qa_model, schedule, QA_SEL, n, dt=schedule.T_FF / 400)


def test_cross_sector_crossing_is_passed_at_every_block_size(monkeypatch):
    # tfim level 1 is flip-odd below R = -1.5, where J = 0, and the singlet above
    # it; a run started below follows its level, level 0 of the flip-odd sector,
    # through the crossing, which nothing in that sector sees.  Every block
    # layout gives the same trajectory, and no population leaves the sector
    model = ModelSpec.tfim(j=(0.3, 0.2), bx=(2.0, -0.5))
    schedule = Schedule(-3.0123, 31.7, 0.1)
    odd = np.array([1, 0, 0, -1]) / np.sqrt(2)
    for kw in (dict(), dict(dt=schedule.T_FF / 3000)):
        runs = []
        for block in (2048, 64, 2):
            monkeypatch.setattr(propagator, "BLOCK_STAGE_POINTS", block)
            runs.append(evolve(model, schedule, "dense", 1, samples=200, **kw))
        traj = runs[0]
        assert traj.R_adv[0] < -1.5 < traj.R_adv[-1], kw
        for other in runs[1:]:
            _assert_same_trajectory(other, traj)
        outside = np.abs(traj.psi - np.outer(traj.psi @ odd, odd)).max()
        assert outside <= 1e-12 and traj.min_fidelity > 1 - 1e-12, kw


# ---------------------------------------------------------------------------
# step exponentials

def _hermitian_stack(dim, norms, seed=0):
    """Random Hermitian matrices with the given 1-norms, as a (dim, dim, N) stack."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim, len(norms))) + 1j * rng.normal(size=(dim, dim, len(norms)))
    K = A + np.conj(np.swapaxes(A, 0, 1))
    return K * (norms / np.abs(K).sum(axis=0).max(axis=0))


def _unitary_stack(dim, count, seed=0):
    """Random unitary matrices as a (dim, dim, count) stack."""
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
    return np.moveaxis(np.linalg.qr(Z)[0], 0, -1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_expm_hermitian_matches_scipy_expm(dim):
    # h||K||_1 from 1e-8 to 50: up to 12 squarings
    h = 0.5
    K = _hermitian_stack(dim, np.logspace(-8, np.log10(50.0), 60) / h)
    E = propagator._expm_hermitian(K, h)
    assert E.shape == K.shape
    for k in range(K.shape[-1]):
        Ek = E[..., k]
        ref = scipy.linalg.expm(-1j * h * K[..., k])
        assert np.linalg.norm(Ek - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(np.conj(Ek.T) @ Ek - np.eye(dim)) <= 1e-12


def test_expm_hermitian_of_an_empty_stack():
    assert propagator._expm_hermitian(np.zeros((4, 4, 0), dtype=complex), 0.1).shape == (4, 4, 0)


def test_expm_hermitian_depends_on_each_matrix_only():
    # scaling is per matrix: a matrix that needs squaring changes no other
    for dim in (1, 2, 3, 4):
        K = _hermitian_stack(dim, np.array([1e-3, 30.0, 5e-3, 0.2]))
        E = propagator._expm_hermitian(K, 1.0)
        for i in range(K.shape[-1]):
            one = propagator._expm_hermitian(K[..., i : i + 1], 1.0)[..., 0]
            assert np.array_equal(E[..., i], one), (dim, i)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stack_products_are_time_ordered(dim):
    # the elementwise kernel is the matrix product of each pair, for empty,
    # one-matrix and longer stacks
    for count in (0, 1, 5):
        A, B = _unitary_stack(dim, count, 1), _unitary_stack(dim, count, 2)
        AB = propagator._mul(A, B)
        assert AB.shape == (dim, dim, count)
        for k in range(count):
            assert np.max(np.abs(AB[..., k] - A[..., k] @ B[..., k])) <= 1e-14
    # _fold multiplies runs of consecutive matrices onto G in time order, one
    # matrix at a time: a run split over two calls gives the same bits
    M, G = _unitary_stack(dim, 7, 3), _unitary_stack(dim, 3, 4)
    counts = np.array([1, 4, 2])
    out = propagator._fold(M, counts, G)
    k = 0
    for g, count in enumerate(counts):
        ref = G[..., g]
        for _ in range(count):
            ref = M[..., k] @ ref
            k += 1
        assert np.max(np.abs(out[..., g] - ref)) <= 1e-14
    split = propagator._fold(M[..., :3], np.array([1, 2]), G[..., :2])
    split = np.concatenate([split[..., :1], propagator._fold(
        M[..., 3:], np.array([2, 2]), np.concatenate([split[..., 1:], G[..., 2:]], axis=-1))],
        axis=-1)
    assert np.array_equal(split, out)


def test_step_matrices_need_no_eigensolve(qa_model, monkeypatch):
    R = np.linspace(1.0, 3.0, 9)
    H = np.moveaxis(models.hamiltonian(qa_model, R), 0, -1)
    stages = H[..., 0:-1:2], H[..., 1::2], H[..., 2::2]
    ref = propagator._cf4_step_matrices(*stages, 1e-4)

    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    U = propagator._cf4_step_matrices(*stages, 1e-4)
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


@pytest.mark.parametrize("block", [1, 2, 62])
def test_block_size_does_not_change_results(qa_model, qa_schedule, monkeypatch, block):
    # 6007 steps in 200 chunks of 30 or 31 steps: 6 blocks at the default
    # size, 31 steps per block at 62 stage points, one or two steps at 1 and 2;
    # and a default (refined) run, whose step doubling must not see the blocks
    for kw in (dict(dt=qa_schedule.T_FF / 6007, samples=200), dict(samples=200)):
        ref = evolve(qa_model, qa_schedule, QA_SEL, **kw)
        with monkeypatch.context() as m:
            m.setattr(propagator, "BLOCK_STAGE_POINTS", block)
            out = evolve(qa_model, qa_schedule, QA_SEL, **kw)
        for field in dataclasses.fields(ref):
            assert np.array_equal(getattr(out, field.name), getattr(ref, field.name)), field.name


def _walk(selection, sizes, top, refinements, block):
    """G, psi and step error of a run at BLOCK_STAGE_POINTS = block."""
    saved = propagator.BLOCK_STAGE_POINTS
    propagator.BLOCK_STAGE_POINTS = block
    try:
        run = propagator._Run(ModelSpec.qa(j=1.0, bz=0.1, b0=10.0), Schedule(0.0, 100.0, 0.1),
                              selection, (0, 0), sizes, top)
        for pairs in refinements:
            run.refine(pairs)
        return run.G, run.trajectory().psi, run.error
    finally:
        propagator.BLOCK_STAGE_POINTS = saved


@given(st.data())
def test_block_size_never_changes_the_walk(data):
    # uniform grids of random per-chunk step counts (odd chunk counts: a pair
    # of three chunks; odd pair totals: a step taken at h), or equal chunks of
    # one step refined once or twice; any block size gives the shipped one's bits,
    # under the selection solve and the minimum-norm one
    selection = data.draw(st.sampled_from([QA_SEL, "dense"]), "selection")
    N = data.draw(st.integers(2, 9), "chunks")
    if data.draw(st.booleans(), "uniform"):
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=N, max_size=N), "sizes")
        top, refinements = None, []
    else:
        levels = data.draw(st.integers(1, 2), "levels")
        sizes, top = np.ones(N, dtype=int), 2 ** levels
        some = st.lists(st.integers(0, N // 2 - 1), min_size=1, unique=True).map(sorted)
        refinements = [np.array(data.draw(some, "pairs")) for _ in range(levels)]
    block = data.draw(st.integers(1, 64), "block")
    ref = _walk(selection, sizes, top, refinements, propagator.BLOCK_STAGE_POINTS)
    for got, want in zip(_walk(selection, sizes, top, refinements, block), ref):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name, selection", [("qa", ("W2", "By", "Bz")), ("gen", "dense")])
def test_drive_rows_contract_alike_in_any_batch(name, selection):
    # why the drive is contracted by matrices_from_rows, not models._contract:
    # a block of stage points must give each point the bits it has alone, and
    # the drive block's entries sum several inexact products
    config = load_preset(name)
    R = cdsolver.enumeration_grid(config.schedule, 2000)
    path = cdsolver.CoefficientPath(config.model, selection,
                                    models.level(config.model, config.schedule.R0, config.state))
    rows = path.values(R)
    P = config.model.sectors[0]     # the triplet, which holds state 0
    drive = P.T @ path.basis @ P
    batch = matrices_from_rows(rows, drive)
    for k in range(len(rows)):
        assert np.array_equal(batch[k], matrices_from_rows(rows[k : k + 1], drive)[0]), k


def test_stage_hamiltonians_built_once(qa_model, qa_schedule, monkeypatch):
    # the stage blocks are built once and handed to the stage eigensolve
    points = []
    build = models.sector_hamiltonians

    def counting(model, R):
        points.append(np.size(R))
        return build(model, R)

    monkeypatch.setattr(models, "sector_hamiltonians", counting)
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
        dynamical = propagator._phases(qa_model, qa_schedule, (0, 0), [t])[1, 0]
        assert dynamical == float(np.dot(wts, energies[:, 0]))
