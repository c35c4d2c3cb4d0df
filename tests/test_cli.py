import json

import pytest

from spinff.cli import main
from spinff.config import load_config, load_preset
from spinff.errors import ConfigError

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
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header.startswith("t,R_adv,re_c1")
    assert "fidelity" in header and "coef_By" in header


def test_run_output_is_byte_identical(qa_config_file, tmp_path):
    main(["run", "--config", qa_config_file])
    first = (tmp_path / "out" / "trajectory.csv").read_bytes()
    main(["run", "--config", qa_config_file])
    second = (tmp_path / "out" / "trajectory.csv").read_bytes()
    assert first == second


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


def test_strict_coupling_names(tmp_path):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("model:\n  kind: qa\n  constants: {J: 1.0, Bz: 0.1, Delta: 2.0}\n"
                   "  schedule_map:\n    Bx: {offset: 10.0, slope: -1.0}\n"
                   "schedule: {R0: 0.0, v_bar: 1.0, T_FF: 0.1}\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg))


def test_verify_enumerates_the_qa_grid_once(tmp_path, monkeypatch):
    # the table and count checks share one enumeration of the 50-point grid
    import spinff.cdsolver
    import spinff.cli
    import spinff.tables

    calls = []
    original = spinff.cdsolver.enumerate_solutions

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module in (spinff.cdsolver, spinff.cli, spinff.tables):
        if hasattr(module, "enumerate_solutions"):
            monkeypatch.setattr(module, "enumerate_solutions", counting)
    assert main(["verify", "--only", "qa", "--out", str(tmp_path)]) == 0
    assert len(calls) == load_preset("qa").grid == 50
