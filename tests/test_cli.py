import csv
import json
import os
import random
import subprocess
import sys
import threading
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from spinff.ansatz import COEFF_NAMES
from spinff.cdsolver import (
    GROUP_TOL,
    CoefficientPath,
    admissible_selections,
    enumerate_grid,
    enumeration_grid,
    reduce_system,
    solve_dense,
    solve_lz,
    solve_selection,
)
import spinff
from spinff.cli import (
    _float_rows,
    _selection_header,
    _selection_rows,
    build_parser,
    main,
    resolve_selection,
)
from spinff.config import PRESET_NAMES, YAML_LOADER, config_from_dict, load_config, load_preset
from spinff.errors import ConfigError
from spinff.models import level
from spinff.propagator import evolve
from spinff.tables import lz_h12_imag

QA_CONFIG = """\
model:
  kind: qa
  constants: {{J: 1.0, Bz: 0.1}}
  schedule_map:
    Bx: {{offset: 10.0, slope: -1.0}}
schedule: {{R0: 0.0, v_bar: 100.0, T_FF: 0.1}}
state: 0
selection: [W2, By, Bz]
dt: 1.0e-4
samples: 250
out: {out}
"""

# a gen config whose default selection is refused (exit 3)
REFUSED_GEN_CONFIG = """\
model:
  kind: gen
  constants: {J: 8.0, Bx: 1.0, By: 1.0}
  schedule_map:
    Bz: {offset: 25.0, slope: -1.0}
schedule: {R0: 0.0, v_bar: 250.0, T_FF: 0.1}
"""


@pytest.fixture
def qa_config_file(tmp_path):
    path = tmp_path / "qa.yaml"
    path.write_text(QA_CONFIG.format(out=tmp_path / "out"))
    return str(path)


def test_presets_load():
    for name in ("lz", "tfim", "qa", "gen"):
        cfg = load_preset(name)
        assert cfg.model.kind == name


def test_run_writes_artifacts(qa_config_file, tmp_path):
    assert main(["run", "--config", qa_config_file]) == 0
    out = tmp_path / "out"
    assert (out / "trajectory.csv").exists()
    assert (out / "coefficients.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["min_fidelity"] >= 0.999999
    assert summary["terminal_populations"][0] >= 0.999
    assert 0.0 < summary["max_step_error"] < 1e-6
    # dt = 1e-4 on 250 samples: 1000 uniform steps, 4 on each sample interval
    assert summary["steps"] == 1000 and summary["chunk_steps"] == [[4, 250]]
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,R_adv,re_c1")
    assert "fidelity" in header and "coef_By" in header


def test_run_output_is_byte_identical(qa_config_file, tmp_path):
    main(["run", "--config", qa_config_file])
    first = (tmp_path / "out" / "trajectory.csv").read_bytes()
    main(["run", "--config", qa_config_file])
    second = (tmp_path / "out" / "trajectory.csv").read_bytes()
    assert first == second


def test_default_step_run_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", "preset:qa", "--out", str(out)])
    first = (out / "trajectory.csv").read_bytes()
    main(["run", "--config", "preset:qa", "--out", str(out)])
    assert (out / "trajectory.csv").read_bytes() == first


def _repr_rows(values):
    return [",".join(map(repr, row)) for row in np.asarray(values, float).tolist()]


# where orjson's notation leaves repr's (non-finite, 1e-5 <= |x| < 1e-4) or
# its exponent needs a sign or padding (|x| >= 1e16, |x| < 1e-5), and the
# neighbours of each boundary
_EDGES = [0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf] + [
    sign * y for x in (1e-5, 1e-4, 1e16) for sign in (1.0, -1.0)
    for y in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf))
]
_FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64))),
    st.sampled_from(_EDGES),
)


@given(st.integers(1, 8), st.integers(1, 6), st.data())
def test_float_rows_are_the_row_wise_reprs(n, k, data):
    a = np.array(data.draw(st.lists(_FLOAT64, min_size=n * k, max_size=n * k))).reshape(n, k)
    wide = np.concatenate([a, a[:, ::-1]], axis=1)
    view = wide[:, ::2]          # a non-contiguous column slice
    nested = a.tolist()          # what verify_table_job passes
    bits = [x.view(np.uint64).copy() for x in (a, wide)]
    for values in (a, view, nested):
        assert _float_rows(values) == _repr_rows(values)
    assert np.array_equal(a.view(np.uint64), bits[0])
    assert np.array_equal(wide.view(np.uint64), bits[1])
    assert np.array_equal(np.array(nested).view(np.uint64), bits[0])


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (1, 1)])
def test_float_rows_of_edge_shapes(shape):
    a = np.full(shape, 1e-5)
    assert _float_rows(a) == _repr_rows(a)
    assert np.all(a == 1e-5)


@pytest.mark.parametrize("preset", ["lz", "tfim", "qa", "gen"])
def test_run_csvs_are_the_row_wise_reprs(preset, tmp_path):
    # each run CSV is the row-wise repr of its trajectory columns
    config = load_preset(preset)
    assert main(["run", "--config", f"preset:{preset}", "--out", str(tmp_path)]) == 0
    traj = evolve(config.model, config.schedule, resolve_selection(config), config.state,
                  dt=config.dt, samples=config.samples)
    files = {
        "trajectory.csv": [traj.t, traj.R_adv, traj.psi.real, traj.psi.imag,
                           traj.populations, traj.norm, traj.fidelity, traj.coefficients],
        "coefficients.csv": [traj.t, traj.R_adv, traj.velocity, traj.coefficients,
                             traj.velocity[:, None] * traj.coefficients],
    }
    for name, columns in files.items():
        rows = _repr_rows(np.column_stack(columns))
        assert (tmp_path / name).read_text().splitlines()[1:] == rows, name


def test_run_summary_records_the_chunk_steps(tmp_path):
    # a default run: its total step count, their mean dt and the steps of each
    # sample interval, run-length encoded, at which the run replays
    out = tmp_path / "lz"
    assert main(["run", "--config", "preset:lz", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    config = load_preset("lz")
    traj = evolve(config.model, config.schedule, config.selection, config.state,
                  samples=config.samples)
    chunks = np.repeat(*np.array(summary["chunk_steps"]).T)
    assert np.array_equal(chunks, traj.chunk_steps)
    assert len(summary["chunk_steps"]) > 1
    assert summary["steps"] == chunks.sum() == traj.steps
    assert summary["dt"] == pytest.approx(config.schedule.T_FF / traj.steps, rel=1e-11)


def test_run_multiple_configs(qa_config_file, tmp_path):
    other = tmp_path / "qa2.yaml"
    other.write_text(QA_CONFIG.format(out=tmp_path / "out2"))
    assert main(["run", "--config", qa_config_file, str(other)]) == 0
    assert (tmp_path / "out2" / "summary.json").exists()


def test_run_multiple_configs_share_out_by_basename(tmp_path):
    # --out D gives each job D/<basename of its configured out>
    first = tmp_path / "a.yaml"
    first.write_text(QA_CONFIG.format(out=tmp_path / "x" / "first"))
    second = tmp_path / "b.yaml"
    second.write_text(QA_CONFIG.format(out=tmp_path / "y" / "second"))
    shared = tmp_path / "shared"
    assert main(["run", "--config", str(first), str(second),
                 "--out", str(shared)]) == 0
    for name in ("first", "second"):
        assert (shared / name / "summary.json").exists()
        assert (shared / name / "trajectory.csv").exists()
    assert not (shared / "summary.json").exists()


@pytest.mark.parametrize("gen_first", [True, False], ids=["gen-lz", "lz-gen"])
def test_run_runs_every_job_and_exits_with_the_first_error(gen_first, tmp_path, capsys):
    # a job that raises stops no other job; its error, the first in config
    # order, gives the exit code
    cfg = tmp_path / "gen.yaml"
    cfg.write_text(REFUSED_GEN_CONFIG)
    configs = [str(cfg), "preset:lz"] if gen_first else ["preset:lz", str(cfg)]
    shared = tmp_path / "shared"
    assert main(["run", "--config", *configs, "--out", str(shared)]) == 3
    assert "consider selection: dense" in capsys.readouterr().err
    for name in ("trajectory.csv", "coefficients.csv", "summary.json"):
        assert (shared / "lz" / name).is_file(), name
    assert not (shared / "out").exists()


def test_run_of_two_configs_is_the_two_runs(tmp_path, monkeypatch):
    for preset in ("lz", "tfim"):
        assert main(["run", "--config", f"preset:{preset}",
                     "--out", str(tmp_path / "one" / preset)]) == 0

    def no_threads(self):
        raise AssertionError("run started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_threads)
    assert main(["run", "--config", "preset:lz", "preset:tfim",
                 "--out", str(tmp_path / "both")]) == 0
    for preset in ("lz", "tfim"):
        one, both = tmp_path / "one" / preset, tmp_path / "both" / preset
        assert sorted(p.name for p in one.iterdir()) == sorted(p.name for p in both.iterdir())
        for name in ("trajectory.csv", "coefficients.csv"):
            assert (one / name).read_bytes() == (both / name).read_bytes(), (preset, name)
        summaries = [json.loads((d / "summary.json").read_text()) for d in (one, both)]
        for summary in summaries:
            del summary["runtime_s"]
        assert summaries[0] == summaries[1], preset


def test_run_refuses_jobs_sharing_an_output_directory(tmp_path, capsys):
    first = tmp_path / "a.yaml"
    first.write_text(QA_CONFIG.format(out=tmp_path / "x" / "same"))
    second = tmp_path / "b.yaml"
    second.write_text(QA_CONFIG.format(out=tmp_path / "y" / "same"))
    shared = tmp_path / "shared"
    assert main(["run", "--config", str(first), str(second),
                 "--out", str(shared)]) == 2
    assert "both write to" in capsys.readouterr().err
    assert not shared.exists()
    # the same configured out without --out is refused too
    assert main(["run", "--config", str(first), str(first)]) == 2
    assert not (tmp_path / "x").exists()


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: {kind: qa\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_unknown_key_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model:\n  kind: qa\n  constants: {J: 1.0, Bz: 0.1}\n"
                   "  schedule_map:\n    Bx: {offset: 10.0, slope: -1.0}\n"
                   "schedule: {R0: 0.0, v_bar: 1.0, T_FF: 0.1}\nbogus: 1\n")
    assert main(["run", "--config", str(bad)]) == 2


def test_negative_duration_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model:\n  kind: qa\n  constants: {J: 1.0, Bz: 0.1}\n"
                   "  schedule_map:\n    Bx: {offset: 10.0, slope: -1.0}\n"
                   "schedule: {R0: 0.0, v_bar: 1.0, T_FF: -0.1}\n")
    assert main(["run", "--config", str(bad)]) == 2


def test_rejected_selection_exit_code(tmp_path, capsys):
    cfg = tmp_path / "gen.yaml"
    cfg.write_text("model:\n  kind: gen\n  constants: {J: 8.0, Bx: 1.0, By: 1.0}\n"
                   "  schedule_map:\n    Bz: {offset: 25.0, slope: -1.0}\n"
                   "schedule: {R0: 0.0, v_bar: 250.0, T_FF: 0.1}\n"
                   "selection: [W3, By, W1]\n")
    assert main(["run", "--config", str(cfg)]) == 3
    assert "not_real" in capsys.readouterr().err


def test_enumerate_row_counts(tmp_path):
    out = tmp_path / "enum"
    assert main(["enumerate", "--config", "preset:gen", "--grid", "2",
                 "--out", str(out)]) == 0
    lines = (out / "enumerate.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 84
    summary = json.loads((out / "enumerate_summary.json").read_text())
    assert summary["accepted_per_point"] == [0, 0]


def _grid_arrays(grid):
    """The GridEnumeration's arrays by field name."""
    return {name: value for name, value in vars(grid).items() if isinstance(value, np.ndarray)}


@pytest.mark.parametrize("preset", ["gen", "qa", "tfim"])
def test_census_block_size_never_changes_the_census(preset, tmp_path, monkeypatch):
    # 588 = 7 * 84: gen's 50 points in eight blocks of 6 or 7
    config = load_preset(preset)
    R_values = enumeration_grid(config.schedule, config.grid)
    the_level = level(config.model, config.schedule.R0, config.state)
    monkeypatch.setattr(spinff.cdsolver, "CENSUS_BLOCK", 588)
    assert {b.stop - b.start for b in spinff.cdsolver.census_blocks(50, 84)} == {6, 7}
    results = {}
    for block in (10 ** 9, 1, 588):
        monkeypatch.setattr(spinff.cdsolver, "CENSUS_BLOCK", block)
        out = tmp_path / str(block)
        assert main(["enumerate", "--config", f"preset:{preset}", "--out", str(out)]) == 0
        results[block] = (_grid_arrays(enumerate_grid(config.model, R_values, the_level)),
                          (out / "enumerate.csv").read_bytes())
    whole, csv_bytes = results.pop(10 ** 9)
    for block, (arrays, text) in results.items():
        for name, a in whole.items():   # bitwise, NaN payloads and signed zeros included
            b = arrays[name]
            assert (a.dtype, a.shape) == (b.dtype, b.shape), (block, name)
            assert a.tobytes() == b.tobytes(), (block, name)
        assert text == csv_bytes, block


def test_census_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch):
    # the traced peak of gen's enumerate beyond the result arrays it keeps
    # (about 112 B per (R, selection) pair) is 0.9 MB at 50 points and 1.1 MB
    # at 400; solved and written whole, it was 3.8 MB and 30 MB
    import tracemalloc

    kept = []
    original = spinff.cli.enumerate_grid

    def keeping(*args, **kwargs):
        kept.append(original(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(spinff.cli, "enumerate_grid", keeping)
    assert main(["enumerate", "--config", "preset:gen", "--grid", "4",
                 "--out", str(tmp_path)]) == 0     # first-call imports and caches
    tracemalloc.start()
    try:
        assert main(["enumerate", "--config", "preset:gen", "--grid", "400",
                     "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    retained = sum(a.nbytes for a in _grid_arrays(kept[-1]).values())
    assert retained > 400 * 84 * 112
    assert peak - retained < 3e6, (peak, retained)


def test_solve_cd_lz_schema(tmp_path):
    out = tmp_path / "lzcd"
    assert main(["solve-cd", "--config", "preset:lz", "--grid", "3",
                 "--out", str(out)]) == 0
    lines = (out / "solve_cd.csv").read_text().splitlines()
    assert lines[0] == "R,h11,re_h12,im_h12,residual"
    assert len(lines) == 4


def test_the_run_path_runs_no_eigensolve_lu_or_svd(monkeypatch, tmp_path):
    # the state and coefficient layers are closed forms: evolve on every preset
    # and the minimum-norm solve-cd never reach a LAPACK eigensolve, LU or SVD
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK eigensolve, LU or SVD ran")

    for name in ("eigh", "eigvalsh", "pinv", "svd", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for preset in PRESET_NAMES:
        config = load_preset(preset)
        traj = evolve(config.model, config.schedule, config.selection, config.state,
                      samples=config.samples)
        assert traj.min_fidelity >= config.fidelity_bar, preset
    for preset in ("lz", "gen"):
        assert main(["solve-cd", "--config", f"preset:{preset}",
                     "--out", str(tmp_path / preset)]) == 0


def test_verify_table_subcommand(tmp_path):
    out = tmp_path / "table"
    assert main(["verify-table", "--config", "preset:qa", "--grid", "4",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "table_summary.json").read_text())
    assert summary["passed"] is True
    assert summary["failing_entries"] == []


def test_verify_subset(tmp_path, capsys):
    out = tmp_path / "verify"
    assert main(["verify", "--only", "lz", "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert "lz_closed_form" in names and "lz_drb_equality" in names
    assert report["passed"] is True


def test_verify_scoped_by_config(tmp_path):
    out = tmp_path / "verify"
    assert main(["verify", "--config", "preset:lz", "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert names == {"lz_closed_form", "lz_drb_equality", "schedule_quadrature",
                     "ff_residual_lz"}


@pytest.mark.parametrize("scope", [[], ["--config", "preset:lz"], ["--config", "preset:qa"]])
def test_verify_filter_that_selects_no_check_is_a_configuration_error(tmp_path, capsys,
                                                                      scope):
    # nothing verified is not green: exit 2, naming the filter and the checks
    out = tmp_path / "verify"
    assert main(["verify", "--only", "nosuchcheck", *scope, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "'nosuchcheck'" in err and "schedule_quadrature" in err
    assert not out.exists()
    # a filter that leaves no check of the config's kind is refused alike
    if scope:
        assert main(["verify", "--only", "gen_", *scope, "--out", str(out)]) == 2
        assert "gen_drb_action" not in capsys.readouterr().err
        assert not out.exists()


def test_selection_override(qa_config_file, tmp_path):
    out = tmp_path / "override"
    assert main(["run", "--config", qa_config_file, "--out", str(out),
                 "--selection", "W1,W2,J3"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["selection_used"] == ["J3", "W1", "W2"]


@pytest.mark.parametrize("preset, expected", [("qa", ("J1", "W1", "By")),
                                              ("tfim", ("J1", "W2"))])
def test_default_selection_is_the_first_accepted_at_mid_R(preset, expected):
    # no configured selection: the first accepted entry, in
    # admissible_selections order, of the enumeration at the mid-excursion R
    config = replace(load_preset(preset), selection=None)
    schedule = config.schedule
    R_mid = schedule.R0 + 0.5 * schedule.v_bar * schedule.T_FF
    grid = enumerate_grid(config.model, [R_mid], level(config.model, schedule.R0, config.state))
    assert grid.selections == tuple(admissible_selections(config.model))
    first = grid.selections[int(np.argmax(grid.reason[0] == 0))]
    assert resolve_selection(config) == first == expected


def test_default_selection_of_gen_is_refused(tmp_path, capsys):
    cfg = tmp_path / "gen.yaml"
    cfg.write_text(REFUSED_GEN_CONFIG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    assert "consider selection: dense" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "preset:qa", "--selection", "J3,W2"],
    ["solve-cd", "--config", "preset:tfim", "--selection", "J3,W2,Bx"],
], ids=["run-qa", "solve-cd-tfim"])
def test_wrong_size_selection_is_a_configuration_error(argv, tmp_path, capsys):
    # qa's reduced system has three rows and tfim's two
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _level_config(tmp_path, preset, state):
    data = yaml.safe_load(_preset_text(preset))
    data["state"] = state
    path = tmp_path / f"{preset}-{state}.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


@pytest.mark.parametrize("preset, state, selection", [
    ("qa", 2, "W2,By,Bz"), ("tfim", 1, "J3,W2"), ("tfim", 2, "J3,W2"), ("tfim", 2, "J3,W2,Bx"),
], ids=["qa-singlet", "tfim-singlet", "tfim-flip-odd", "tfim-flip-odd-three"])
def test_selection_on_a_one_row_sector_is_a_configuration_error(preset, state, selection,
                                                                tmp_path, capsys):
    # the singlet and (|uu> - |dd>)/sqrt2 have one reduced row, which no
    # two- or three-name selection squares
    config, out = _level_config(tmp_path, preset, state), tmp_path / "out"
    size = len(selection.split(","))
    for command in ("run", "solve-cd"):
        assert main([command, "--config", config, "--selection", selection,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"has {size} coefficients; the tracked state's reduced system needs 1" in err
    assert not out.exists()


@pytest.mark.parametrize("preset, state", [("qa", 2), ("tfim", 1), ("tfim", 2)],
                         ids=["qa-singlet", "tfim-singlet", "tfim-flip-odd"])
def test_default_selection_on_a_one_row_sector_is_a_configuration_error(preset, state,
                                                                        tmp_path, capsys):
    # no selection configured: the refusal names no selection as the user's,
    # and states the row count the sector needs
    data = yaml.safe_load(_preset_text(preset))
    data["state"] = state
    del data["selection"]
    config, out = tmp_path / f"{preset}-{state}.yaml", tmp_path / "out"
    config.write_text(yaml.safe_dump(data))
    for command in ("run", "solve-cd"):
        assert main([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: no selection configured")
        assert "reduced system needs" in err and "1 coefficient" in err
        named = [",".join(sel) for sel in admissible_selections(load_preset(preset).model)]
        assert not any(sel in err for sel in named)
    assert not out.exists()


@pytest.mark.parametrize("preset, state, selection", [
    ("tfim", 3, "J3,W2"), ("tfim", 2, "dense"), ("gen", 1, "dense"),
])
def test_runs_on_every_sector_still_run(preset, state, selection, tmp_path):
    # a flip-even, a flip-odd and a singlet level
    config = _level_config(tmp_path, preset, state)
    for command in ("run", "solve-cd"):
        assert main([command, "--config", config, "--selection", selection,
                     "--out", str(tmp_path / command)]) == 0
    assert json.loads((tmp_path / "run" / "summary.json").read_text())["passed"] is True


@pytest.mark.parametrize("state, selection, sign", [
    (2, "dense", -1), (3, "dense", 1), (3, "W2,By,Bz", 1),
], ids=["singlet-dense", "top-dense", "top-W2,By,Bz"])
def test_qa_levels_that_meet_at_the_sweep_end_run(state, selection, sign, tmp_path):
    # qa levels 2 (the singlet) and 3 (the top triplet level) meet at Bx = 0, the
    # sweep's end, and never couple: each run follows its own level there.  The
    # end state is (|ud> + sign |du>)/sqrt2, a closed form that neither the
    # populations nor an eigensolve at the double root can tell apart
    config = _level_config(tmp_path, "qa", state)
    out = tmp_path / "run"
    assert main(["run", "--config", config, "--selection", selection, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["passed"] is True
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    psi = rows[-1, 2:6] + 1j * rows[-1, 6:10]
    closed = np.array([0.0, 1.0, sign, 0.0]) / np.sqrt(2)
    assert abs(abs(np.vdot(closed, psi)) - 1.0) <= 1e-8


def test_selection_on_the_two_level_model_is_refused(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", "preset:lz", "--selection", "J3,W2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    cfg = tmp_path / "lz.yaml"
    cfg.write_text(_preset_text("lz") + "selection: [J3, W2]\n")
    for command in ("run", "solve-cd"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


@pytest.mark.parametrize("selection", ["Bogus", "J3,W2", "dense", "ReH12,ImH12", "H11,ReH12"])
def test_a_selection_on_the_two_level_model_is_never_silently_ignored(tmp_path, capsys,
                                                                     selection):
    # lz's ansatz is its own table (H11, ReH12, ImH12): a selection is refused
    # by name, solved as given, or rejected by the solver, never dropped for
    # the default minimum-norm term
    config = load_preset("lz")
    names = tuple(selection.split(","))
    out = tmp_path / "cd"
    code = main(["solve-cd", "--config", "preset:lz", "--selection", selection, "--grid", "7",
                 "--out", str(out)])
    err = capsys.readouterr().err
    if selection in ("Bogus", "J3,W2"):
        assert code == 2 and err.startswith("configuration error:")
        assert f"unknown ansatz coefficient(s) {selection} in" in err
        for refused in (lambda: CoefficientPath(config.model, names),
                        lambda: evolve(config.model, config.schedule, names)):
            with pytest.raises(ConfigError, match=f"unknown ansatz coefficient\\(s\\) {selection} "):
                refused()
        assert not out.exists()
    elif selection == "dense":
        # the same minimum-norm term as no selection, bit for bit
        runs = {}
        for name, argv in (("dense", ["--selection", "dense"]), ("default", [])):
            assert main(["run", "--config", "preset:lz", "--out", str(tmp_path / name),
                         *argv]) == 0
            runs[name] = [(tmp_path / name / f).read_bytes()
                          for f in ("trajectory.csv", "coefficients.csv")]
            used = json.loads((tmp_path / name / "summary.json").read_text())["selection_used"]
            assert used == {"dense": "dense", "default": None}[name]
        assert runs["dense"] == runs["default"]
        assert code == 0
        header = (out / "solve_cd.csv").read_text().splitlines()[0].split(",")
        assert header[4:7] == ["coef_H11", "coef_ReH12", "coef_ImH12"]
    elif selection == "ReH12,ImH12":
        assert code == 0
        with open(out / "solve_cd.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        R = np.array([float(row["R"]) for row in rows])
        assert len(R) == 7 and {row["accepted"] for row in rows} == {"1"}
        assert [float(row["coef_ReH12"]) for row in rows] == [0.0] * 7
        assert [float(row["coef_H11"]) for row in rows] == [0.0] * 7
        im = np.array([float(row["coef_ImH12"]) for row in rows])
        assert np.abs(im - lz_h12_imag(config.model, R)).max() <= 1e-10
    else:
        assert code == 3 and err.startswith("solver rejection:") and "not_real" in err
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "preset:lz", "--dt", "0"],
    ["run", "--config", "preset:lz", "--dt", "-0.001"],
    ["run", "--config", "preset:lz", "--dt", "nan"],
    ["run", "--config", "preset:lz", "--samples", "0"],
    ["run", "--config", "preset:lz", "--samples", "1"],
    ["run", "--config", "preset:lz", "--samples", "-5"],
    ["enumerate", "--config", "preset:qa", "--grid", "0"],
    ["enumerate", "--config", "preset:qa", "--grid", "-2"],
    ["solve-cd", "--config", "preset:tfim", "--grid", "-1"],
    ["run", "--config", "preset:qa", "--dt", "1e-300"],
    ["run", "--config", "preset:qa", "--dt", "1e300"],
    ["run", "--config", "preset:qa", "--dt", "0.03"],
], ids=["dt-0", "dt-negative", "dt-nan", "samples-0", "samples-1", "samples-negative",
        "grid-0", "grid-negative", "solve-cd-grid-negative", "dt-tiny", "dt-huge",
        "dt-not-dividing"])
def test_bad_override_is_a_configuration_error(argv, tmp_path, capsys):
    # an override is checked as the config key it replaces
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("line", ["dt: .nan", "fidelity_bar: .nan", "fidelity_bar: .inf",
                                  "tolerances: {cond_max: .nan}", "tolerances: {imag_tol: .inf}"])
def test_non_finite_config_number_is_a_configuration_error(line, tmp_path, capsys):
    # the solver tolerances are cdsolver constants: a tolerances: mapping is
    # an unknown key, whatever numbers it holds
    key, value = line.split(": ", 1)
    expected = ("config: unknown keys ['tolerances']" if key == "tolerances"
                else f"config.{key}: expected a finite number, got {value[1:]}")
    cfg = tmp_path / "lz.yaml"
    cfg.write_text(_preset_text("lz") + line + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    # the message after the path, which names the test's own directory
    assert capsys.readouterr().err == f"configuration error: {cfg}: {expected}\n"
    assert not out.exists()


def test_config_numbers_in_scientific_notation_load(tmp_path):
    # YAML 1.1 reads a number with no dot (1e-6) or an unsigned exponent
    # (1.0e2) as a string; both are numbers
    text = (_preset_text("qa").replace("Bz: 0.1}", "Bz: 1e-1}")
            .replace("v_bar: 100.0", "v_bar: 1.0e2").replace("fidelity_bar: 0.999999", "")
            + "dt: 1e-6\nfidelity_bar: 9.99999E-1\n")
    cfg = tmp_path / "qa.yaml"
    cfg.write_text(text)
    config = load_config(str(cfg))
    assert config == replace(load_preset("qa"), dt=1e-6)
    assert config.model.constants["Bz"] == 0.1 and config.schedule.v_bar == 100.0
    data = yaml.load(_preset_text("qa"), Loader=YAML_LOADER)
    for raw in ("1e-6", "+1E-6", "1.e-6", "0.000001"):
        assert config_from_dict({**data, "dt": raw}).dt == 1e-6


@pytest.mark.parametrize("line, got", [
    ("dt: true", "True"), ("dt: 'fast'", "'fast'"), ("dt: 1e-6s", "'1e-6s'"),
    ("dt: '1e-6 '", "'1e-6 '"), ("dt: 1e999", "'1e999'"), ("fidelity_bar: nan", "'nan'"),
    ("fidelity_bar: -.inf", "-inf"), ("dt: [1e-6]", "['1e-6']"),
], ids=["bool", "word", "suffix", "space", "overflow", "nan-word", "minus-inf", "list"])
def test_non_numeric_config_number_is_a_configuration_error(line, got, tmp_path, capsys):
    key = line.split(":")[0]
    cfg = tmp_path / "lz.yaml"
    cfg.write_text(_preset_text("lz") + line + "\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {cfg}: config.{key}: expected a finite number, got {got}\n")
    assert not out.exists()


def test_empty_out_is_a_configuration_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", "preset:lz", "--out", ""]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not any(tmp_path.iterdir())


def test_loader_overrides_replace_config_keys():
    qa = load_preset("qa")
    assert load_preset("qa", {}) == qa
    changed = load_preset("qa", {"dt": 1e-4, "grid": 7, "selection": "W1,W2,J3"})
    assert changed == replace(qa, dt=1e-4, grid=7, selection=("J3", "W1", "W2"))


def test_dt_must_give_a_whole_step_count_from_2_to_2_pow_53():
    T = load_preset("qa").schedule.T_FF
    for dt in (T / 2, T / 2**53, T / 1000):
        assert load_preset("qa", {"dt": dt}).dt == dt
    for dt in (T, T / 1.5, T / 2**54, T / 1000.5, 1e-300, 5e-324):
        with pytest.raises(ConfigError, match="^dt: "):
            load_preset("qa", {"dt": dt})


def test_main_builds_its_parser_once(tmp_path, capsys):
    build_parser.cache_clear()
    for _ in range(2):
        assert main(["run", "--config", "preset:lz", "--samples", "1",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "preset:lz", "--grid", "many"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()


def test_verify_imports_no_scipy(tmp_path):
    # a fresh interpreter: scipy would cost tens of MB of RSS per process
    script = ("import sys\n"
              "from spinff.cli import main\n"
              "assert main(['verify', '--out', sys.argv[1]]) == 0\n"
              "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    src = os.path.dirname(os.path.dirname(spinff.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads((tmp_path / "verify.json").read_text())["passed"] is True


def test_artifacts_get_the_mode_of_the_umask(tmp_path):
    # a fresh interpreter, so the umask is set before spinff.cli reads it;
    # 027 tells the umask-derived 0640 from mkstemp's 0600 and a fixed 0644
    script = ("import os, sys\n"
              "os.umask(0o027)\n"
              "from spinff.cli import main\n"
              "out = sys.argv[1]\n"
              "assert main(['run', '--config', 'preset:lz', 'preset:tfim',\n"
              "             '--out', os.path.join(out, 'run')]) == 0\n"
              "assert main(['enumerate', '--config', 'preset:qa',\n"
              "             '--out', os.path.join(out, 'enumerate')]) == 0\n")
    src = os.path.dirname(os.path.dirname(spinff.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert {"run/lz/trajectory.csv", "run/tfim/summary.json", "enumerate/enumerate.csv",
            "enumerate/enumerate_summary.json"} <= set(files)
    assert not [f for f in files if ".tmp-" in f]
    modes = {f: oct((tmp_path / f).stat().st_mode & 0o777) for f in files}
    assert set(modes.values()) == {"0o640"}, modes


def test_strict_coupling_names(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("model:\n  kind: qa\n  constants: {J: 1.0, Bz: 0.1, Delta: 2.0}\n"
                   "  schedule_map:\n    Bx: {offset: 10.0, slope: -1.0}\n"
                   "schedule: {R0: 0.0, v_bar: 1.0, T_FF: 0.1}\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg))


def test_verify_enumerates_the_qa_grid_once(tmp_path, monkeypatch):
    # the table and count checks share one state computation over the
    # 50-point grid
    import spinff.models

    qa = load_preset("qa")
    grid = enumeration_grid(qa.schedule, qa.grid)
    calls = []
    original = spinff.models.tracked_state

    def recording(model, R, *args, **kwargs):
        calls.append(np.array(R, dtype=float))
        return original(model, R, *args, **kwargs)

    monkeypatch.setattr(spinff.models, "tracked_state", recording)
    assert main(["verify", "--only", "qa", "--out", str(tmp_path)]) == 0
    on_grid = [R for R in calls if np.isin(R, grid).any()]
    assert len(grid) == 50
    assert len(on_grid) == 1 and np.array_equal(on_grid[0], grid)


def test_verify_makes_at_most_30_state_calls(tmp_path, monkeypatch):
    # each check solves its whole R grid (or probe times) in one call per
    # kernel; a state call per point made this 92
    import spinff.models

    calls = []
    original = spinff.models.tracked_state

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(spinff.models, "tracked_state", counting)
    assert main(["verify", "--out", str(tmp_path)]) == 0
    assert len(json.loads((tmp_path / "verify.json").read_text())["checks"]) == 15
    assert len(calls) <= 30


def test_verify_solves_no_state_grid_twice(tmp_path, monkeypatch):
    # one state solve per check grid: the drive of a residual probe reuses
    # the probe-time states, a DRB-action check solves its grid once and
    # the two lz checks share one path
    import spinff.models

    calls = []
    original = spinff.models.tracked_state

    def recording(model, R, level, **kwargs):
        calls.append((model.kind, level, np.asarray(R, dtype=float).tobytes()))
        return original(model, R, level, **kwargs)

    monkeypatch.setattr(spinff.models, "tracked_state", recording)
    assert main(["verify", "--out", str(tmp_path)]) == 0
    assert len(set(calls)) == len(calls) == 15


def _preset_text(name):
    return resources.files("spinff").joinpath(f"presets/{name}.yaml").read_text(encoding="utf-8")


def test_yaml_loaders_read_the_same_data(tmp_path):
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML built without libyaml")
    assert YAML_LOADER is yaml.CSafeLoader
    rng = random.Random(7)
    for name in PRESET_NAMES:
        text = _preset_text(name)
        data = yaml.load(text, Loader=yaml.SafeLoader)
        assert yaml.load(text, Loader=yaml.CSafeLoader) == data
        assert load_preset(name) == config_from_dict(data)
        # a jittered config, written with full-precision floats
        for key in data["model"].get("constants") or {}:
            data["model"]["constants"][key] *= 1.0 + rng.uniform(-0.03, 0.03)
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(data, sort_keys=True))
        text = path.read_text()
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
        assert load_config(str(path)) == config_from_dict(yaml.safe_load(text))


@pytest.mark.parametrize("preset", ["lz", "gen"])
def test_solve_cd_min_norm_rows_are_the_point_solves(preset, tmp_path):
    # the lz and dense rows come from one grid solve; each is the one-point
    # solve at its R
    config = load_preset(preset)
    assert main(["solve-cd", "--config", f"preset:{preset}", "--grid", "5",
                 "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "solve_cd.csv").read_text().splitlines()[1:]]
    assert len(rows) == 5
    for R, row in zip(enumeration_grid(config.schedule, 5).tolist(), rows):
        assert float(row[0]) == R
        if preset == "lz":
            x, residual = solve_lz(config.model, R, config.state)
            assert [float(v) for v in row[1:]] == [*x, residual]
        else:
            x, residual = solve_dense(config.model, R, config.state)
            assert row[1:4] == ["dense", "1", ""] and row[-3:] == ["nan", "nan", "-1"]
            assert [float(v) for v in row[4:-3]] == [*x, residual]


def test_solve_cd_rows_are_the_enumeration_rows_of_the_selection(tmp_path):
    # the sparse solve-cd path writes, per grid point, the enumerate.csv row
    # of its selection (group ids included)
    for command in ("solve-cd", "enumerate"):
        assert main([command, "--config", "preset:qa", "--grid", "5",
                     "--out", str(tmp_path / command)]) == 0
    solved = (tmp_path / "solve-cd" / "solve_cd.csv").read_text().splitlines()
    listed = (tmp_path / "enumerate" / "enumerate.csv").read_text().splitlines()
    assert solved[0] == listed[0]
    selection = "|".join(load_preset("qa").selection)
    expected = [row for row in listed[1:] if row.split(",")[1] == selection]
    assert len(expected) == 5
    assert solved[1:] == expected


def test_solve_cd_solves_a_selection_outside_the_enumeration(tmp_path):
    # W2,Bz is accepted at the tfim mid R but is not one of the enumerated
    # (real-part candidate, W2) pairs: each grid point gets its own solve
    config = load_preset("tfim")
    assert ("W2", "Bz") not in admissible_selections(config.model)
    assert main(["solve-cd", "--config", "preset:tfim", "--selection", "W2,Bz",
                 "--grid", "5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "solve_cd.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    assert len(rows) == 5
    for R, row in zip(enumeration_grid(config.schedule, 5), rows):
        res = solve_selection(reduce_system(config.model, float(R), config.state, ("W2", "Bz")))
        assert float(row[0]) == float(R)
        assert row[1:3] == ["W2|Bz", "1"]
        for name in ("W2", "Bz"):
            assert float(row[header.index(f"coef_{name}")]) == res.coefficients[COEFF_NAMES.index(name)]


def _fmt(x):
    return repr(float(x))


def _point_results(config, R):
    # each admissible selection solved alone at R, with the group id of the
    # first-member rule: the per-object path the columnar writer replaced
    reps, results = [], []
    for selection in admissible_selections(config.model):
        res = solve_selection(reduce_system(config.model, float(R), config.state, selection))
        gid = -1
        if res.accepted:
            x = res.coefficients
            near = [g for g, rep in enumerate(reps) if np.max(np.abs(rep - x)) < GROUP_TOL]
            gid = near[0] if near else len(reps)
            if not near:
                reps.append(x)
        results.append((res, gid))
    return results


def _object_row(R, res, group_id):
    # the per-object row of one SelectionResult, as written before the
    # columnar writer
    coeffs = res.coefficients if res.accepted else np.zeros(len(COEFF_NAMES))
    return (
        [_fmt(R), "|".join(res.selection), "1" if res.accepted else "0", res.reason]
        + [_fmt(c) for c in coeffs]
        + [
            _fmt(res.residual) if np.isfinite(res.residual) else "nan",
            _fmt(res.cond) if np.isfinite(res.cond) else "inf",
            _fmt(res.max_imag) if np.isfinite(res.max_imag) else "nan",
            str(group_id),
        ]
    )


def _csv_text(model, rows):
    return "\n".join([",".join(_selection_header(model))] + [",".join(r) for r in rows]) + "\n"


@pytest.mark.parametrize("preset", ["gen", "qa"])
def test_columnar_csv_is_the_per_object_csv(preset, tmp_path):
    config = load_preset(preset)
    R_values = enumeration_grid(config.schedule, config.grid)
    grid = enumerate_grid(config.model, R_values,
                          level(config.model, config.schedule.R0, config.state))
    points = [_point_results(config, R) for R in R_values]
    objects = [_object_row(R, *entry) for R, point in zip(R_values, points) for entry in point]
    assert main(["enumerate", "--config", f"preset:{preset}",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "enumerate.csv").read_text() == _csv_text(config.model, objects)
    # the sparse solve-cd rows of every selection, accepted or not
    for s, selection in enumerate(grid.selections):
        expected = [_object_row(R, *point[s]) for R, point in zip(R_values, points)]
        assert (_csv_text(config.model, zip(_selection_rows(grid, [s])))
                == _csv_text(config.model, expected)), selection
    if preset == "gen":
        # every row rejected, both ways, some with a non-finite cond
        assert {row[3] for row in objects} == {"singular", "not_real"}
        assert any(row[-3] == "inf" for row in objects)
    else:
        assert main(["solve-cd", "--config", "preset:qa", "--out", str(tmp_path)]) == 0
        s = grid.selections.index(config.selection)
        expected = [_object_row(R, *point[s]) for R, point in zip(R_values, points)]
        assert (tmp_path / "solve_cd.csv").read_text() == _csv_text(config.model, expected)
