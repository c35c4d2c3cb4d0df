"""Run configuration: a strict, flat YAML schema plus bundled presets.

Every mapping level rejects unknown keys so that typos fail loudly with
the offending field named.  Parse errors surface the YAML line/column.
"""

import math
import re
from dataclasses import dataclass
from importlib import resources

import yaml

from .cdsolver import canonical_selection
from .errors import ConfigError, DomainError
from .models import REQUIRED_COUPLINGS, ModelSpec
from .schedule import Schedule, step_count

PRESET_NAMES = ("lz", "tfim", "qa", "gen")

_TOP_KEYS = {
    "model", "schedule", "state", "selection", "dt", "samples", "out", "fidelity_bar", "grid",
}
_MODEL_KEYS = {"kind", "constants", "schedule_map"}
_SCHEDULE_KEYS = {"R0", "v_bar", "T_FF"}
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)   # libyaml where built
# a YAML 1.2 float: YAML 1.1 (PyYAML) leaves 1e-6 and 1.0e10 (no dot, or an
# unsigned exponent) as strings
_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?")


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec
    schedule: Schedule
    state: int = 0
    selection: object = None        # tuple of names, "dense", or None
    dt: float = None                # None -> steps picked by propagator.evolve's error estimate
    samples: int = 1000
    out: str = "out"
    fidelity_bar: float = 1.0 - 1e-6
    grid: int = 50


def _reject_unknown(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _number(mapping, key, where, default=None, required=False):
    if key not in mapping or mapping[key] is None:
        if required:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = number = mapping[key]
    if isinstance(value, str) and _FLOAT.fullmatch(value):
        number = float(value)
    if (isinstance(number, bool) or not isinstance(number, (int, float))
            or not math.isfinite(number)):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {value!r}")
    return float(number)


def parse_selection(raw):
    if raw is None:
        return None
    if isinstance(raw, str):
        if raw.strip().lower() == "dense":
            return "dense"
        raw = [part.strip() for part in raw.split(",") if part.strip()]
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"selection: expected a list of names or 'dense', got {raw!r}")
    try:
        return canonical_selection(tuple(raw))
    except ConfigError as exc:
        raise ConfigError(f"selection: {exc}") from exc


def config_from_dict(data):
    _reject_unknown(data, _TOP_KEYS, "config")
    if "model" not in data:
        raise ConfigError("config: missing required key 'model'")
    mraw = data["model"]
    _reject_unknown(mraw, _MODEL_KEYS, "model")
    kind = mraw.get("kind")
    if kind not in REQUIRED_COUPLINGS:
        raise ConfigError(f"model.kind: expected one of {sorted(REQUIRED_COUPLINGS)}, "
                          f"got {kind!r}")
    constants = dict(mraw.get("constants") or {})
    schedule_map_raw = dict(mraw.get("schedule_map") or {})
    allowed_couplings = set(REQUIRED_COUPLINGS[kind])
    for name in constants:
        if name not in allowed_couplings:
            raise ConfigError(f"model.constants: {name!r} is not a coupling of "
                              f"{kind!r} (allowed: {sorted(allowed_couplings)})")
        constants[name] = _number(constants, name, "model.constants", required=True)
    schedule_map = {}
    for name, entry in schedule_map_raw.items():
        if name not in allowed_couplings:
            raise ConfigError(f"model.schedule_map: {name!r} is not a coupling of "
                              f"{kind!r} (allowed: {sorted(allowed_couplings)})")
        _reject_unknown(entry, {"offset", "slope"}, f"model.schedule_map.{name}")
        schedule_map[name] = (
            _number(entry, "offset", f"model.schedule_map.{name}", required=True),
            _number(entry, "slope", f"model.schedule_map.{name}", required=True),
        )
    try:
        model = ModelSpec(kind, constants=constants, schedule_map=schedule_map)
    except Exception as exc:
        raise ConfigError(f"model: {exc}") from exc

    if "schedule" not in data:
        raise ConfigError("config: missing required key 'schedule'")
    sraw = data["schedule"]
    _reject_unknown(sraw, _SCHEDULE_KEYS, "schedule")
    try:
        schedule = Schedule(
            R0=_number(sraw, "R0", "schedule", required=True),
            v_bar=_number(sraw, "v_bar", "schedule", required=True),
            T_FF=_number(sraw, "T_FF", "schedule", required=True),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"schedule: {exc}") from exc

    state = data.get("state", 0)
    if not isinstance(state, int) or isinstance(state, bool):
        raise ConfigError(f"state: expected an integer, got {state!r}")
    if not 0 <= state < model.dim:
        raise ConfigError(f"state: {state} outside 0..{model.dim - 1}")

    dt = _number(data, "dt", "config")
    if dt is not None:
        if dt <= 0:
            raise ConfigError(f"dt: must be positive, got {dt}")
        try:
            step_count(schedule, dt)
        except DomainError as exc:
            raise ConfigError(f"dt: {exc}") from exc
    samples = data.get("samples", 1000)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 2:
        raise ConfigError(f"samples: expected an integer >= 2, got {samples!r}")
    grid = data.get("grid", 50)
    if not isinstance(grid, int) or isinstance(grid, bool) or grid < 1:
        raise ConfigError(f"grid: expected a positive integer, got {grid!r}")
    fidelity_bar = _number(data, "fidelity_bar", "config", default=1.0 - 1e-6)
    out = data.get("out", "out")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"out: expected a path string, got {out!r}")

    selection = parse_selection(data.get("selection"))
    return RunConfig(
        model=model,
        schedule=schedule,
        state=state,
        selection=selection,
        dt=dt,
        samples=samples,
        out=out,
        fidelity_bar=fidelity_bar,
        grid=grid,
    )


def load_config(path, overrides=None):
    """The config file at ``path``, its top-level keys replaced by ``overrides``, validated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"{path}: YAML parse error{where}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a top-level mapping")
    try:
        return config_from_dict({**data, **(overrides or {})})
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_preset(name, overrides=None):
    """One of the bundled experiment configurations, with ``load_config``'s overrides."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; have {PRESET_NAMES}")
    ref = resources.files("spinff").joinpath(f"presets/{name}.yaml")
    data = yaml.load(ref.read_text(encoding="utf-8"), Loader=YAML_LOADER)
    return config_from_dict({**data, **(overrides or {})})
