"""Fast self-test of the benchmark harness.

Usage (from the repository root):  python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's format rules, then runs every
workload of workloads.py (those of BENCHMARK.json and those run only by
name) once at reduced size (``--quick``), untraced and traced, and checks
the result line's schema, that every metric of BENCHMARK.json is present
with its unit, and that every operation passed its gate.  Last, it checks
that the benchmark fails without a result when the checkout holds only
BENCHMARK.json and the benchmark's own files.  Exits 0 when all hold.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

sys.path.insert(0, str(ROOT / "src"))
from workloads import WORKLOADS  # noqa: E402  (needs spinff on the path)


def check_spec(spec):
    problems = []
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        problems.append("metric or workload names repeat")
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(metric["unit"]):
            problems.append(f"bad unit {metric['unit']!r}")
        if metric["better"] not in ("lower", "higher"):
            problems.append(f"{metric['name']}: better must be lower or higher")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            problems.append(f"{metric['name']}: needs a bound in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower is better) is missing")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= spec["run_seconds"] <= 60:
        problems.append("workload count or run_seconds out of range")
    return problems


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec, workload, trace):
    out = run(ROOT, workload, trace)
    label = f"{workload} trace={trace}"
    if out.returncode != 0:
        return [f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: operations failed: {out.stdout[-3000:]}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for metric in wanted:
        got = result["metrics"].get(metric["name"], {})
        if got.get("unit") != metric["unit"] or not isinstance(got.get("value"), float):
            problems.append(f"{label}: {metric['name']} reported as {got}")
        elif not trace and not got["value"] > 0:
            problems.append(f"{label}: {metric['name']} is not positive")
    return problems


def check_without_program():
    """The benchmark alone (no src/) must fail without printing a result."""
    bare = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-selftest-", dir=ROOT))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, "census", 0)
    finally:
        shutil.rmtree(bare)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["the benchmark ran without the program"]
    return []


def main():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_spec(spec)
    unknown = {w["name"] for w in spec["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"BENCHMARK.json names workloads run.py lacks: {sorted(unknown)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}")
            problems += found
    problems += check_without_program()
    for problem in problems:
        print(problem)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
