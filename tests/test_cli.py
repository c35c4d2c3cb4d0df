import json
import random
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
import yaml

from spinff.ansatz import COEFF_NAMES
from spinff.cdsolver import (
    admissible_selections,
    enumerate_grid,
    enumeration_grid,
    reduce_system,
    solve_dense,
    solve_lz,
    solve_selection,
)
from spinff.cli import _SELECTION_HEADER, _selection_rows, main, resolve_selection
from spinff.config import PRESET_NAMES, YAML_LOADER, config_from_dict, load_config, load_preset
from spinff.errors import ConfigError
from spinff.propagator import evolve

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


def test_run_csvs_are_the_row_wise_reprs(qa_config_file, tmp_path):
    # each row as the row-wise writer formatted it before the columns
    # shared by both files were formatted once
    config = load_config(qa_config_file)
    assert main(["run", "--config", qa_config_file]) == 0
    traj = evolve(config.model, config.schedule, resolve_selection(config), config.state,
                  dt=config.dt, samples=config.samples)
    files = {
        "trajectory.csv": [traj.t, traj.R_adv, traj.psi.real, traj.psi.imag,
                           traj.populations, traj.norm, traj.fidelity, traj.coefficients],
        "coefficients.csv": [traj.t, traj.R_adv, traj.velocity, traj.coefficients,
                             traj.velocity[:, None] * traj.coefficients],
    }
    for name, columns in files.items():
        rows = [",".join(map(repr, row)) for row in np.column_stack(columns).tolist()]
        assert (tmp_path / "out" / name).read_text().splitlines()[1:] == rows, name


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


def test_solve_cd_lz_schema(tmp_path):
    out = tmp_path / "lzcd"
    assert main(["solve-cd", "--config", "preset:lz", "--grid", "3",
                 "--out", str(out)]) == 0
    lines = (out / "solve_cd.csv").read_text().splitlines()
    assert lines[0] == "R,h11,re_h12,im_h12,residual"
    assert len(lines) == 4


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
    grid = enumerate_grid(config.model, [R_mid], config.state, config.tolerances)
    assert grid.selections == tuple(admissible_selections(config.model))
    first = grid.selections[int(np.argmax(grid.reason[0] == 0))]
    assert resolve_selection(config) == first == expected


def test_default_selection_of_gen_is_refused(tmp_path, capsys):
    cfg = tmp_path / "gen.yaml"
    cfg.write_text("model:\n  kind: gen\n  constants: {J: 8.0, Bx: 1.0, By: 1.0}\n"
                   "  schedule_map:\n    Bz: {offset: 25.0, slope: -1.0}\n"
                   "schedule: {R0: 0.0, v_bar: 250.0, T_FF: 0.1}\n")
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
            assert float(row[header.index(f"coef_{name}")]) == res.coefficients[name]


def _fmt(x):
    return repr(float(x))


def _point_results(config, R):
    # each admissible selection solved alone at R, with the group id of the
    # first-member rule: the per-object path the columnar writer replaced
    tol = config.tolerances
    reps, results = [], []
    for selection in admissible_selections(config.model):
        res = solve_selection(reduce_system(config.model, float(R), config.state, selection), tol)
        gid = -1
        if res.accepted:
            x = res.coefficients.as_array()
            near = [g for g, rep in enumerate(reps) if np.max(np.abs(rep - x)) < tol.group_tol]
            gid = near[0] if near else len(reps)
            if not near:
                reps.append(x)
        results.append((res, gid))
    return results


def _object_row(R, res, group_id):
    # the per-object row of one SelectionResult, as written before the
    # columnar writer
    coeffs = (
        res.coefficients.as_array()
        if res.accepted
        else np.zeros(len(COEFF_NAMES))
    )
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


def _csv_text(rows):
    return "\n".join([",".join(_SELECTION_HEADER)] + [",".join(r) for r in rows]) + "\n"


@pytest.mark.parametrize("preset", ["gen", "qa"])
def test_columnar_csv_is_the_per_object_csv(preset, tmp_path):
    config = load_preset(preset)
    R_values = enumeration_grid(config.schedule, config.grid)
    grid = enumerate_grid(config.model, R_values, config.state, config.tolerances)
    points = [_point_results(config, R) for R in R_values]
    objects = [_object_row(R, *entry) for R, point in zip(R_values, points) for entry in point]
    assert main(["enumerate", "--config", f"preset:{preset}",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "enumerate.csv").read_text() == _csv_text(objects)
    # the sparse solve-cd rows of every selection, accepted or not
    for s, selection in enumerate(grid.selections):
        expected = [_object_row(R, *point[s]) for R, point in zip(R_values, points)]
        assert _csv_text(_selection_rows(grid, [s])) == _csv_text(expected), selection
    if preset == "gen":
        # every row rejected, both ways, some with a non-finite cond
        assert {row[3] for row in objects} == {"singular", "not_real"}
        assert any(row[-3] == "inf" for row in objects)
    else:
        assert main(["solve-cd", "--config", "preset:qa", "--out", str(tmp_path)]) == 0
        s = grid.selections.index(config.selection)
        expected = [_object_row(R, *point[s]) for R, point in zip(R_values, points)]
        assert (tmp_path / "solve_cd.csv").read_text() == _csv_text(expected)
