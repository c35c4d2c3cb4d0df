"""Batch front-end: config-driven runs writing deterministic CSV/JSON.

Exit codes: 0 success, 1 verification/fidelity failure, 2 configuration
error, 3 solver rejection of the requested selection.  All files are
written atomically (write-then-rename) with shortest round-trip float
formatting in CSV and 12 significant digits in JSON summaries.
"""

import argparse
import functools
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import models, propagator, tables
from .ansatz import COEFF_NAMES, LZ_BASIS, matrices_from_rows
from .cdsolver import (
    REASONS,
    _min_norm_solve,
    admissible_selections,
    drb_counterdiabatic,
    enumerate_grid,
    enumeration_grid,
    solve_grid,
)
from .config import load_config, load_preset, parse_selection
from .errors import ConfigError, SpinFFError
from .schedule import Schedule, velocity

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_REJECTED = 3


class SelectionRejectedError(SpinFFError):
    def __init__(self, selection, reason):
        super().__init__(f"selection {','.join(selection)} rejected: {reason}")
        self.reason = reason


# ---------------------------------------------------------------------------
# deterministic writers

def _float_rows(values):
    """Each row of a 2-d float array as comma-joined shortest round-trip reprs."""
    return [",".join(map(repr, row)) for row in np.asarray(values, dtype=float).tolist()]


def _sig12(x):
    return float(f"{float(x):.12g}")


def write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    write_atomic(path, "\n".join(lines) + "\n")


def write_json(path, payload):
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _config_payload(config):
    return {
        "model": {
            "kind": config.model.kind,
            "constants": {k: _sig12(v) for k, v in config.model.constants.items()},
            "schedule_map": {
                k: {"offset": _sig12(a), "slope": _sig12(b)}
                for k, (a, b) in config.model.schedule_map.items()
            },
        },
        "schedule": {
            "R0": _sig12(config.schedule.R0),
            "v_bar": _sig12(config.schedule.v_bar),
            "T_FF": _sig12(config.schedule.T_FF),
        },
        "state": config.state,
        "selection": list(config.selection) if isinstance(config.selection, tuple)
        else config.selection,
    }


# ---------------------------------------------------------------------------
# selection resolution

def _mid_R(config):
    return config.schedule.R0 + 0.5 * config.schedule.v_bar * config.schedule.T_FF


def resolve_selection(config):
    """The configured selection, validated; or the enumeration default.

    Validation and the default policy ("first accepted in enumeration
    order") are evaluated at the mid-excursion R, away from endpoint
    singularities of the coefficient formulas.  The two-level model takes
    no selection.
    """
    model, R = config.model, [_mid_R(config)]
    if model.dim == 2:
        if config.selection is not None:
            raise ConfigError(f"the two-level model takes no selection, got {config.selection}")
        return None
    if config.selection == "dense":
        _min_norm_solve(model, R, config.state, config.tolerances)
        return "dense"
    chosen = config.selection is not None
    selections = [config.selection] if chosen else admissible_selections(model)
    grid = solve_grid(model, R, selections, config.state, config.tolerances)
    reason = grid.reason[0]
    if np.any(reason == 0):
        return grid.selections[int(np.argmax(reason == 0))]
    if chosen:
        raise SelectionRejectedError(config.selection, REASONS[reason[0]])
    raise SelectionRejectedError(
        ("auto",), "no admissible selection accepted; consider selection: dense"
    )


# ---------------------------------------------------------------------------
# run

def run_job(config):
    started = time.perf_counter()
    selection = resolve_selection(config)
    traj = propagator.evolve(
        config.model, config.schedule, selection, config.state,
        dt=config.dt, samples=config.samples,
    )
    runtime = time.perf_counter() - started

    names = traj.coefficient_names
    dim = config.model.dim
    header = (
        ["t", "R_adv"]
        + [f"re_c{j + 1}" for j in range(dim)]
        + [f"im_c{j + 1}" for j in range(dim)]
        + [f"p{j + 1}" for j in range(dim)]
        + ["norm", "fidelity"]
        + [f"coef_{name}" for name in names]
    )
    # t, R_adv and the coefficients are columns of both files: each row's
    # share of them is formatted once
    t_R = _float_rows(np.column_stack([traj.t, traj.R_adv]))
    coef = [_float_rows(traj.coefficients)] if names else []
    state = _float_rows(np.column_stack([traj.psi.real, traj.psi.imag, traj.populations,
                                         traj.norm, traj.fidelity]))
    write_csv(os.path.join(config.out, "trajectory.csv"), header, zip(t_R, state, *coef))

    header = ["t", "R_adv", "v"] + [f"coef_{n}" for n in names] + [
        f"drive_{n}" for n in names
    ]
    drive = [_float_rows(traj.velocity[:, None] * traj.coefficients)] if names else []
    write_csv(os.path.join(config.out, "coefficients.csv"), header,
              zip(t_R, map(repr, traj.velocity.tolist()), *coef, *drive))

    passed = traj.min_fidelity >= config.fidelity_bar
    summary = _config_payload(config)
    summary.update(
        {
            "selection_used": list(selection) if isinstance(selection, tuple)
            else selection,
            "dt": _sig12(traj.dt),
            "steps": traj.steps,
            "samples": len(traj.t),
            "min_fidelity": _sig12(traj.min_fidelity),
            "terminal_populations": [_sig12(p) for p in traj.terminal_populations],
            "terminal_norm": _sig12(traj.norm[-1]),
            "max_norm_drift": _sig12(traj.max_norm_drift),
            "max_step_error": _sig12(traj.step_error),
            "fidelity_bar": _sig12(config.fidelity_bar),
            "runtime_s": _sig12(runtime),
            "passed": bool(passed),
        }
    )
    write_json(os.path.join(config.out, "summary.json"), summary)
    return EXIT_OK if passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# solve-cd / enumerate

_SELECTION_HEADER = (
    ["R", "selection", "accepted", "reason"]
    + [f"coef_{name}" for name in COEFF_NAMES]
    + ["residual", "cond", "max_imag", "group_id"]
)


def _selection_rows(grid, which):
    """CSV rows of the grid's selections ``which`` (indices), point by point.

    Unsolved entries print as ``_accept`` leaves them: residual and
    max_imag nan, and cond inf where singular.
    """
    numbers = np.concatenate([grid.coefficients[:, which], np.stack(
        [grid.residual, grid.cond, grid.max_imag], axis=-1)[:, which]], axis=-1)
    labels = ["|".join(grid.selections[s]) for s in which]
    reasons = grid.reason[:, which].tolist()
    gids = grid.group_id[:, which].tolist()
    lines = iter(_float_rows(numbers.reshape(-1, numbers.shape[-1])))
    return [
        [R, label, "0" if code else "1", REASONS[code], next(lines), str(gid)]
        for R, codes, point_gids in zip(map(repr, grid.R.tolist()), reasons, gids)
        for label, code, gid in zip(labels, codes, point_gids)
    ]


def solve_cd_job(config):
    R_values = enumeration_grid(config.schedule, config.grid)
    selection = resolve_selection(config)
    header, rows = _SELECTION_HEADER, []
    if selection is None:  # the two-level model
        header = ["R", "h11", "re_h12", "im_h12", "residual"]
        x, residual = _min_norm_solve(config.model, R_values, config.state, config.tolerances)
        rows = [[line] for line in _float_rows(np.column_stack([R_values, x, residual]))]
    elif selection == "dense":
        x, residual = _min_norm_solve(config.model, R_values, config.state, config.tolerances)
        numbers = _float_rows(np.column_stack([x, residual, np.full((len(x), 2), np.nan)]))
        rows = [[repr(R), "dense", "1", "", line, "-1"]
                for R, line in zip(R_values.tolist(), numbers)]
    elif selection in admissible_selections(config.model):
        # the selection's rows of one enumeration of the whole grid
        grid = enumerate_grid(config.model, R_values, config.state, config.tolerances)
        rows = _selection_rows(grid, [grid.selections.index(selection)])
    else:
        # accepted, but outside the enumeration: solved alone, unclustered
        grid = solve_grid(config.model, R_values, [selection], config.state,
                          config.tolerances)
        rows = _selection_rows(grid, [0])
    write_csv(os.path.join(config.out, "solve_cd.csv"), header, rows)
    return EXIT_OK


def enumerate_job(config):
    if config.model.dim == 2:
        raise ConfigError("enumeration applies to the two-spin models")
    R_values = enumeration_grid(config.schedule, config.grid)
    grid = enumerate_grid(config.model, R_values, config.state, config.tolerances)
    rows = _selection_rows(grid, range(len(grid.selections)))
    write_csv(os.path.join(config.out, "enumerate.csv"), _SELECTION_HEADER, rows)
    summary = _config_payload(config)
    summary.update(
        {
            "grid_points": len(R_values),
            "accepted_per_point": grid.accepted_counts,
            "groups_per_point": grid.group_counts,
            "partition_consistent": grid.partition_consistent,
        }
    )
    write_json(os.path.join(config.out, "enumerate_summary.json"), summary)
    return EXIT_OK


def verify_table_job(config):
    if config.model.kind != "qa":
        raise ConfigError("verify-table applies to the annealing model")
    R_values = enumeration_grid(config.schedule, config.grid)
    verification = tables.verify_table(config.model, R_values, config.state,
                                       config.tolerances)
    header = ["entry", "frame", "pair", "max_residual", "max_solver_gap",
              "max_vanishing", "group_id", "passed"]
    entries = verification.entries
    numbers = _float_rows([[e.max_residual, e.max_solver_gap, e.max_vanishing]
                           for e in entries])
    rows = [[str(e.index), e.frame, "|".join(e.pair), line, str(e.group_id),
             "1" if e.passed else "0"] for e, line in zip(entries, numbers)]
    write_csv(os.path.join(config.out, "table_report.csv"), header, rows)
    payload = {
        "passed": bool(verification.passed),
        "groups_match_enumeration": bool(verification.groups_match_enumeration),
        "failing_entries": [e.index for e in verification.failures],
        "max_residual": _sig12(max(e.max_residual for e in verification.entries)),
    }
    write_json(os.path.join(config.out, "table_summary.json"), payload)
    if not verification.passed:
        failing = ", ".join(str(e.index) for e in verification.failures)
        print(f"table verification failed at entries: {failing}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: the cross-check suite

def _solve_accepted(model, R, selection):
    """(N, 9) coefficients of one selection over R; refuses a rejected point."""
    grid = solve_grid(model, R, [selection])
    reason = grid.reason[:, 0]
    if np.any(reason != 0):
        k = int(np.argmax(reason != 0))
        raise SelectionRejectedError(selection, f"{REASONS[reason[k]]} at R={R[k]}")
    return grid.coefficients[:, 0]


def _max_error(errors, tolerance, key="max_error"):
    """A check's verdict on the largest of its errors."""
    worst = float(np.max(np.abs(errors)))
    return worst < tolerance, {key: worst, "tolerance": tolerance}


def _checks():
    lz = load_preset("lz")
    tfim = load_preset("tfim")
    qa = load_preset("qa")
    gen = load_preset("gen")

    lz_R = enumeration_grid(lz.schedule, 9)
    tfim_R = enumeration_grid(tfim.schedule, 9)

    def lz_closed_form():
        x, _ = _min_norm_solve(lz.model, lz_R, 1)
        closed = tables.lz_h12_imag(lz.model, lz_R)
        return _max_error([x[:, 2] - closed, x[:, 1], x[:, 0]], 1e-10)

    def lz_drb_equality():
        x, _ = _min_norm_solve(lz.model, lz_R, 1)
        H = drb_counterdiabatic(lz.model, lz_R)
        return _max_error(H - matrices_from_rows(x, LZ_BASIS), 1e-10)

    def tfim_closed_form():
        w2 = _solve_accepted(tfim.model, tfim_R, ("J3", "W2"))[:, COEFF_NAMES.index("W2")]
        return _max_error(w2 - tables.tfim_w2(tfim.model, tfim_R), 1e-10)

    def tfim_polar_identity():
        return _max_error(tables.tfim_w2(tfim.model, tfim_R)
                          - tables.tfim_polar_rate(tfim.model, tfim_R), 1e-9)

    def tfim_drb_equality():
        R = enumeration_grid(tfim.schedule, 5)
        x = _solve_accepted(tfim.model, R, ("J3", "W2"))
        H = drb_counterdiabatic(tfim.model, R)
        return _max_error(H - matrices_from_rows(x), 1e-10)

    @functools.cache
    def qa_grid():
        # shared by the two qa enumeration checks (a crash is not cached)
        return enumerate_grid(qa.model, enumeration_grid(qa.schedule, qa.grid))

    def qa_table():
        verification = tables.verify_table_grid(qa.model, qa_grid())
        worst = max(e.max_residual for e in verification.entries)
        return verification.passed, {
            "max_residual": worst,
            "tolerance": 1e-9,
            "groups_match": verification.groups_match_enumeration,
        }

    def qa_counts():
        grid = qa_grid()
        ok = (set(grid.accepted_counts) == {18} and set(grid.group_counts) == {3}
              and grid.partition_consistent)
        return ok, {
            "accepted": sorted(set(grid.accepted_counts)),
            "groups": sorted(set(grid.group_counts)),
            "partition_consistent": grid.partition_consistent,
        }

    def tfim_counts():
        R_values = enumeration_grid(tfim.schedule, tfim.grid)
        grid = enumerate_grid(tfim.model, R_values)
        ok = (set(grid.accepted_counts) == {4} and set(grid.group_counts) == {1}
              and grid.partition_consistent)
        return ok, {
            "accepted": sorted(set(grid.accepted_counts)),
            "groups": sorted(set(grid.group_counts)),
        }

    def _drb_action(config, coefficients_of):
        # one batch of five grid points and the mid-excursion R
        R = np.append(enumeration_grid(config.schedule, 5), _mid_R(config))
        Ht = matrices_from_rows(coefficients_of(R))
        C = models.tracked_state(config.model, R, 0)[1]
        H = drb_counterdiabatic(config.model, R)
        action = np.linalg.norm(((H - Ht) @ C[..., None])[..., 0], axis=-1)
        worst_action = float(np.max(action[:-1]))
        # the matrices themselves stay apart (state-dependence), checked at
        # a generic mid-excursion point
        gap = float(np.max(np.abs(H[-1] - Ht[-1])))
        ok = worst_action < 1e-9 and gap > 1e-3
        return ok, {
            "max_action_error": worst_action,
            "action_tolerance": 1e-9,
            "matrix_gap": gap,
            "matrix_gap_floor": 1e-3,
        }

    def qa_drb_action():
        return _drb_action(qa, lambda R: _solve_accepted(qa.model, R, ("W2", "By", "Bz")))

    def gen_drb_action():
        return _drb_action(gen, lambda R: _min_norm_solve(gen.model, R, 0)[0])

    def schedule_quadrature():
        from scipy.integrate import quad

        errors = [quad(lambda t: velocity(s, t), 0.0, s.T_FF, limit=200)[0] - s.v_bar * s.T_FF
                  for s in (lz.schedule, tfim.schedule, qa.schedule, gen.schedule)]
        return _max_error(errors, 1e-10)

    def ff_residual(model, sched, selection):
        t = np.array([0.25, 0.5, 0.75]) * sched.T_FF
        return lambda: _max_error(
            propagator.ff_state_residual(model, sched, selection, 0, t, 1e-6), 1e-6, "max_residual")

    return [
        ("lz_closed_form", lz_closed_form),
        ("lz_drb_equality", lz_drb_equality),
        ("tfim_closed_form", tfim_closed_form),
        ("tfim_polar_identity", tfim_polar_identity),
        ("tfim_drb_equality", tfim_drb_equality),
        ("qa_table_residuals", qa_table),
        ("qa_enumeration_counts", qa_counts),
        ("tfim_enumeration_counts", tfim_counts),
        ("qa_drb_action", qa_drb_action),
        ("gen_drb_action", gen_drb_action),
        ("schedule_quadrature", schedule_quadrature),
        # the two-level probe uses a gentler sweep: at the avoided crossing
        # the eigenvector curvature times (2 v_bar)^3 dominates the probe's
        # truncation error, which is about the probe, not the construction
        ("ff_residual_lz", ff_residual(lz.model, Schedule(-2.5, 10.0, 0.5), None)),
        ("ff_residual_tfim", ff_residual(tfim.model, tfim.schedule, ("J3", "W2"))),
        ("ff_residual_qa", ff_residual(qa.model, qa.schedule, ("W2", "By", "Bz"))),
        ("ff_residual_gen", ff_residual(gen.model, gen.schedule, "dense")),
    ]


def verify_job(only=None, out=None, kind=None):
    results = []
    shared = ("schedule_quadrature",)
    for name, check in _checks():
        if only and only not in name:
            continue
        if kind and not (name.startswith(f"{kind}_") or f"_{kind}" in name
                         or name in shared):
            continue
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        detail = {
            k: (_sig12(v) if isinstance(v, float) else v) for k, v in detail.items()
        }
        results.append({"name": name, "passed": bool(passed), **detail})
        status = "pass" if passed else "FAIL"
        print(f"verify {name}: {status}")
    payload = {"checks": results, "passed": all(r["passed"] for r in results)}
    if out:
        write_json(os.path.join(out, "verify.json"), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if payload["passed"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _load(path_or_preset):
    if path_or_preset.startswith("preset:"):
        return load_preset(path_or_preset.split(":", 1)[1])
    return load_config(path_or_preset)


def _apply_overrides(config, args):
    updates = {}
    if getattr(args, "out", None):
        updates["out"] = args.out
    if getattr(args, "dt", None):
        updates["dt"] = args.dt
    if getattr(args, "samples", None):
        updates["samples"] = args.samples
    if getattr(args, "grid", None):
        updates["grid"] = args.grid
    if getattr(args, "selection", None):
        updates["selection"] = parse_selection(args.selection)
    return replace(config, **updates) if updates else config


def _run_configs(args):
    """The jobs of ``run``, each with an output directory of its own.

    With several configs, ``--out D`` gives each job ``D/<basename of its
    configured out>``; two jobs that would still share a directory are
    refused before any of them starts.
    """
    loaded = [_load(p) for p in args.config]
    configs = [_apply_overrides(c, args) for c in loaded]
    if args.out and len(configs) > 1:
        configs = [
            replace(c, out=os.path.join(args.out, os.path.basename(os.path.normpath(o.out))))
            for c, o in zip(configs, loaded)
        ]
    owners = {}
    for ref, config in zip(args.config, configs):
        key = os.path.abspath(config.out)
        if key in owners:
            raise ConfigError(
                f"{owners[key]} and {ref} would both write to {config.out}"
            )
        owners[key] = ref
    return configs


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spinff",
        description="Fast-forward counter-diabatic driving for small spin systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, multi=False):
        if multi:
            p.add_argument("--config", required=True, nargs="+",
                           help="run configuration file(s) or preset:<name>")
        else:
            p.add_argument("--config", required=True,
                           help="run configuration file or preset:<name>")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--dt", type=float, help="integrator step override")
        p.add_argument("--selection", help="comma-separated coefficient names or 'dense'")
        p.add_argument("--grid", type=int, help="R-grid size override")
        p.add_argument("--samples", type=int, help="trajectory sample count override")

    add_common(sub.add_parser("run", help="propagate and write trajectory artifacts"),
               multi=True)
    add_common(sub.add_parser("solve-cd", help="solve the configured selection on a grid"))
    add_common(sub.add_parser("enumerate", help="solve all admissible selections on a grid"))
    add_common(sub.add_parser("verify-table", help="check the closed-form solution table"))
    pv = sub.add_parser("verify", help="run the cross-check suite")
    pv.add_argument("--only", help="substring filter on check names")
    pv.add_argument("--config", help="restrict checks to this config's model kind")
    pv.add_argument("--out", help="directory for verify.json")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            configs = _run_configs(args)
            if len(configs) == 1:
                return run_job(configs[0])
            with ThreadPoolExecutor(max_workers=min(4, len(configs))) as pool:
                codes = list(pool.map(run_job, configs))
            return max(codes)
        if args.command == "solve-cd":
            return solve_cd_job(_apply_overrides(_load(args.config), args))
        if args.command == "enumerate":
            return enumerate_job(_apply_overrides(_load(args.config), args))
        if args.command == "verify-table":
            return verify_table_job(_apply_overrides(_load(args.config), args))
        if args.command == "verify":
            kind = _load(args.config).model.kind if args.config else None
            return verify_job(only=args.only, out=args.out, kind=kind)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SelectionRejectedError as exc:
        print(f"solver rejection: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except SpinFFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
