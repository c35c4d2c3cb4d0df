"""Workload inputs, operations and correctness gates for the spinff benchmark.

A workload is a list of ``spinff`` command lines that together make one
operation.  Its inputs come from the seed alone: seed 0 uses the bundled
presets verbatim (``preset:<name>``), any other seed jitters the constant
couplings of each preset by a few percent and writes a config file that
the command line loads.  The gates re-derive what a correct output must
look like independently of the code under test.
"""

import json
import os
import random
from dataclasses import dataclass
from importlib import resources

import numpy as np
import yaml

from spinff.config import load_config, load_preset
from spinff.models import hamiltonian

JITTER = 0.03           # relative half-width of the coupling jitter
NORM_DRIFT_MAX = 1e-6
POPULATION_TOL = 1e-6
REDUCED_STEPS = 10_000  # step count of the warm-up and self-test runs
REDUCED_GRID = 4        # R-grid size of the warm-up and self-test census


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "run" or "census"
    presets: tuple
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "anneal-qa", "run", ("qa",),
            "real-symmetric selection run: about 80 % in the 5-point-stencil "
            "eigh of state_and_derivative_batch, the dense solver hardly runs",
        ),
        Workload(
            "entangle-gen", "run", ("gen",),
            "complex Hermitian dense-mode run: the largest share is the batched "
            "6x9 pinv of CoefficientPath.values",
        ),
        Workload(
            "census", "census", ("gen", "qa"),
            "enumerate gen and qa, verify-table qa, verify: about 1e4 scalar "
            "reduce_system/solve_selection calls, no propagator",
        ),
        Workload(
            "sweep-pair", "run", ("lz", "tfim"),
            "lz and tfim run on the cli thread pool: the only 4x3 two-level "
            "pinv, the tfim 2x2 selection and two stage grids at once",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    refs: dict          # preset name -> config reference given to the CLI
    configs: dict       # preset name -> RunConfig as the CLI will load it
    expected: dict      # preset name -> terminal populations (run workloads)


def _jittered(name, rng):
    text = resources.files("spinff").joinpath(f"presets/{name}.yaml").read_text(
        encoding="utf-8")
    data = yaml.safe_load(text)
    model = data["model"]
    for key in sorted(model.get("constants") or {}):
        model["constants"][key] *= 1.0 + rng.uniform(-JITTER, JITTER)
    # a coupling mapped with zero slope is a constant too (tfim's J)
    for key in sorted(model.get("schedule_map") or {}):
        entry = model["schedule_map"][key]
        if entry["slope"] == 0:
            entry["offset"] *= 1.0 + rng.uniform(-JITTER, JITTER)
    return data


def _terminal_populations(config):
    """|V(R_final)[:, n]|^2 from a plain eigh of the model Hamiltonian."""
    s = config.schedule
    _, V = np.linalg.eigh(hamiltonian(config.model, s.R0 + s.v_bar * s.T_FF))
    return np.abs(V[:, config.state]) ** 2


def make_inputs(name, seed, directory):
    """Generate the workload's configs for ``seed``; files go to ``directory``."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    refs, configs, expected = {}, {}, {}
    for preset in workload.presets:
        if seed == 0:
            refs[preset] = f"preset:{preset}"
            configs[preset] = load_preset(preset)
        else:
            path = os.path.join(directory, f"{preset}-seed{seed}.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(_jittered(preset, rng), fh, sort_keys=True)
            refs[preset] = path
            configs[preset] = load_config(path)
        if workload.kind == "run":
            expected[preset] = _terminal_populations(configs[preset])
    return Inputs(workload, refs, configs, expected)


def operation(inputs, reduced=False):
    """The command lines of one operation, in order."""
    refs = inputs.refs
    if inputs.workload.kind == "run":
        argv = ["run", "--config"] + [refs[p] for p in inputs.workload.presets]
        if reduced:
            T_FF = inputs.configs[inputs.workload.presets[0]].schedule.T_FF
            argv += ["--dt", repr(T_FF / REDUCED_STEPS)]
        return [argv]
    grid = ["--grid", str(REDUCED_GRID)] if reduced else []
    return [
        ["enumerate", "--config", refs["gen"]] + grid,
        ["enumerate", "--config", refs["qa"]] + grid,
        ["verify-table", "--config", refs["qa"]] + grid,
        ["verify"],  # has no size option; also the only one to import scipy
    ]


def _read_json(workdir, config, filename):
    with open(os.path.join(workdir, config.out, filename), encoding="utf-8") as fh:
        return json.load(fh)


def _gate_run(inputs, workdir):
    failures, fingerprint = [], {}
    for preset, config in inputs.configs.items():
        summary = _read_json(workdir, config, "summary.json")
        with open(os.path.join(workdir, config.out, "trajectory.csv"),
                  encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        pops = np.asarray(summary["terminal_populations"])
        pop_error = float(np.max(np.abs(pops - inputs.expected[preset])))
        fingerprint[preset] = {
            "min_fidelity": summary["min_fidelity"],
            "max_norm_drift": summary["max_norm_drift"],
            "terminal_populations": summary["terminal_populations"],
            "max_population_error": pop_error,
            "trajectory_rows": rows,
        }
        if not summary["min_fidelity"] >= config.fidelity_bar:
            failures.append(f"{preset}: min_fidelity {summary['min_fidelity']} "
                            f"below {config.fidelity_bar}")
        if not summary["max_norm_drift"] <= NORM_DRIFT_MAX:
            failures.append(f"{preset}: norm drift {summary['max_norm_drift']}")
        if not pop_error <= POPULATION_TOL:
            failures.append(f"{preset}: terminal populations off by {pop_error:.3e}")
        if rows != config.samples + 1:
            failures.append(f"{preset}: {rows} trajectory rows, "
                            f"expected {config.samples + 1}")
    return failures, fingerprint


def _gate_census(inputs, workdir):
    failures = []
    qa, gen = inputs.configs["qa"], inputs.configs["gen"]
    qa_enum = _read_json(workdir, qa, "enumerate_summary.json")
    gen_enum = _read_json(workdir, gen, "enumerate_summary.json")
    table = _read_json(workdir, qa, "table_summary.json")
    if set(qa_enum["accepted_per_point"]) != {18}:
        failures.append(f"qa accepted per point {sorted(set(qa_enum['accepted_per_point']))}")
    if set(qa_enum["groups_per_point"]) != {3}:
        failures.append(f"qa groups per point {sorted(set(qa_enum['groups_per_point']))}")
    for label, enum in (("qa", qa_enum), ("gen", gen_enum)):
        if not enum["partition_consistent"]:
            failures.append(f"{label} partition inconsistent across the grid")
    if gen_enum["grid_points"] != len(qa_enum["accepted_per_point"]):
        failures.append("gen and qa enumerations used different grids")
    if not table["passed"]:
        failures.append(f"verify-table failed entries {table['failing_entries']}")
    fingerprint = {
        "qa_accepted_per_point": sorted(set(qa_enum["accepted_per_point"])),
        "qa_groups_per_point": sorted(set(qa_enum["groups_per_point"])),
        "gen_accepted_per_point": sorted(set(gen_enum["accepted_per_point"])),
        "grid_points": gen_enum["grid_points"],
        "table_max_residual": table["max_residual"],
    }
    return failures, fingerprint


def check(inputs, codes, workdir):
    """Correctness gate of one operation: (failure messages, fingerprint).

    Every command must exit 0; ``verify`` signals its verdict only through
    its exit code.
    """
    failures = [f"command {i} exited {code}" for i, code in enumerate(codes) if code != 0]
    if failures:
        return failures, {}
    gate = _gate_run if inputs.workload.kind == "run" else _gate_census
    try:
        more, fingerprint = gate(inputs, workdir)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
    return failures + more, fingerprint
