"""spinff benchmark: closed-loop runs of one workload, gated for correctness.

Usage (from the repository root):

    python3 perfbench/run.py --workload anneal-qa --seed 0 --seconds 25 --trace 0

One process runs one operation at a time (a closed loop with a single
client) until ``--seconds`` have passed, the operation in flight at the
deadline included.  Each operation calls ``spinff.cli.main`` in-process
with the workload's command lines, in a fresh working directory under
a ``.perfbench_tmp-*`` directory of the checkout that is removed at
exit, and is then gated (see workloads.py).  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported; with
``--trace 1`` the operations alternate between traced and untraced and
the per-layer metrics are reported.  The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable table and a JSON record with the
environment, every sample and the accuracy fingerprint.
"""

import os

# One BLAS thread per process, set before numpy loads.  The matrices spinff
# hands to LAPACK are tiny (2x2 to 6x9), so OpenBLAS's default of one thread
# per core only adds workers that spin between calls: on a 2-core machine
# they compete with the operation's own threads (the run pool on
# sweep-pair) and make CPU time depend on how long they happen to spin.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402  (the imports below may load numpy)
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9   # spread over the run, one after each operation
TAIL_SAMPLES = 10   # a reported percentile needs this many samples beyond it


def import_spinff():
    """Import spinff from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "spinff" / "__init__.py").is_file():
        raise ImportError(f"no spinff package under {src}")
    sys.path.insert(0, str(src))
    import spinff.cli

    if Path(spinff.__file__).resolve().parent != (src / "spinff").resolve():
        raise ImportError(f"spinff resolved to {spinff.__file__}, not {src}")
    return spinff.cli


# ---------------------------------------------------------------------------
# environment record

def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return getter()
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git not runnable)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_digest():
    """SHA-256 over src/, which names the program version without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "machine": platform.machine(),
        "note": "CPU time and peak RSS are measured on the benchmark's own "
                "processes (getrusage), not machine-wide",
    }


# ---------------------------------------------------------------------------
# measurement

def setup_time(inputs):
    """Seconds from interpreter start to loaded configs, in a fresh process."""
    refs = [inputs.refs[p] for p in inputs.workload.presets]
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), repr(t0)]
        + refs, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return float(out.stdout.strip().splitlines()[-1])


def _call(cli, argv, log):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation, not a failed benchmark
        log.write(traceback.format_exc())
        return -1


def run_op(cli, argvs, workdir):
    """Run one operation's command lines in ``workdir``; exit codes and output."""
    log = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = [_call(cli, argv, log) for argv in argvs]
    finally:
        os.chdir(cwd)
    return codes, log.getvalue()


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Loop:
    """Closed loop over one workload's operation, with gating and timing."""

    def __init__(self, cli, inputs, tmp):
        from workloads import check, operation

        self.cli, self.inputs, self.tmp = cli, inputs, tmp
        self.check = check
        self.argvs = operation(inputs)
        self.reduced = operation(inputs, reduced=True)
        self.attempted = self.failed = 0
        self.failures = []
        self.fingerprint = None

    def once(self, argvs=None, counted=True, tracer=None):
        """One operation; returns (wall seconds, CPU seconds, tracer numbers)."""
        workdir = tempfile.mkdtemp(prefix="op-", dir=self.tmp)
        layers = None
        if tracer is not None:
            tracer.install()
            tracer.begin_op()
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            codes, log = run_op(self.cli, argvs or self.argvs, workdir)
        finally:
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
            if tracer is not None:
                layers = tracer.end_op()
                tracer.uninstall()
        failures, fingerprint = self.check(self.inputs, codes, workdir)
        shutil.rmtree(workdir)
        if counted:
            self.attempted += 1
            if failures:
                self.failed += 1
                self.failures.append({"failures": failures, "log": log[-2000:]})
            else:
                self.fingerprint = fingerprint
        elif failures:
            raise RuntimeError(f"warm-up operation failed: {failures}\n{log[-2000:]}")
        return wall, cpu, layers


def _tail(samples):
    """Highest percentile above the median with TAIL_SAMPLES samples beyond it."""
    n = len(samples)
    i = n - 1 - TAIL_SAMPLES
    if i < 0 or 2 * (i + 1) <= n:
        return None
    return {"percentile": 100 * (i + 1) // n, "value": sorted(samples)[i]}


def measure(loop, seconds, probes):
    """Untraced loop: end-to-end numbers.

    A set-up probe runs after each operation until ``probes`` have run (the
    rest after the loop), so that set-up time samples the whole run rather
    than one moment of it; probes are not part of any operation's time.
    """
    walls, cpus, setup, rss_mb = [], [], [], None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu, _ = loop.once()
        walls.append(wall)
        cpus.append(cpu)
        if rss_mb is None:
            # this process is fresh apart from a reduced-size warm-up, so its
            # peak after the first full operation is that operation's peak
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(setup) < probes:
            setup.append(setup_time(loop.inputs))
    while len(setup) < probes:
        setup.append(setup_time(loop.inputs))
    return walls, cpus, setup, rss_mb


def measure_traced(loop, seconds):
    """Alternating traced/untraced loop: per-layer numbers and overhead."""
    tracer = Tracer()
    traced, plain = [], []
    start = time.perf_counter()
    while not (traced and plain) or time.perf_counter() - start < seconds:
        if len(traced) <= len(plain):
            traced.append(loop.once(tracer=tracer)[2])
        else:
            plain.append(loop.once()[0])
    names = set().union(*traced)
    layers = {k: statistics.median(op.get(k, 0) for op in traced) for k in names}
    layers["trace.overhead"] = layers["op_s"] / statistics.median(plain)
    return layers, [op["op_s"] for op in traced], plain


def main(argv=None):
    cli = import_spinff()
    from workloads import WORKLOADS, make_inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="self-test size: reduced operations, two set-up probes")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    load_before = os.getloadavg()
    env = environment()
    tmp = tempfile.mkdtemp(prefix=f".perfbench_tmp-{args.workload}-", dir=ROOT)
    try:
        inputs = make_inputs(args.workload, args.seed, tmp)
        loop = Loop(cli, inputs, tmp)
        if args.quick:
            loop.argvs = loop.reduced
        record = {"workload": args.workload, "why": inputs.workload.why,
                  "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "command_lines": loop.argvs}
        loop.once(loop.reduced, counted=False)  # imports and first-call set-up
        if args.trace:
            layers, traced, plain = measure_traced(loop, args.seconds)
            values = {m["name"]: layers.get(m["name"], 0) for m in spec["per_layer"]}
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            record.update(traced_op_s=traced, untraced_op_s=plain,
                          layers=dict(sorted(layers.items())))
        else:
            walls, cpus, setup, rss_mb = measure(loop, args.seconds,
                                                 2 if args.quick else SETUP_PROBES)
            values = {"op_s": statistics.median(walls),
                      "op_cpu_s": statistics.median(cpus),
                      "setup_s": statistics.median(setup),
                      "peak_rss_mb": rss_mb}
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = {name: values[name] for name in units}
            record.update(op_s_samples=walls, op_cpu_s_samples=cpus, setup_s_samples=setup,
                          op_s_tail=_tail(walls))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    error_rate = loop.failed / loop.attempted
    record.update(attempted=loop.attempted, failed=loop.failed, error_rate=error_rate,
                  failures=loop.failures, fingerprint=loop.fingerprint,
                  environment=dict(env, loadavg_before=load_before,
                                   loadavg_after=os.getloadavg()))

    print(f"workload {args.workload} seed {args.seed}: {loop.attempted} operations")
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    print(f"  {'error_rate':<48} {error_rate:>14.6g} ratio")
    if not args.trace:
        tail = record["op_s_tail"]
        print(f"  op_s samples {len(walls)}; " + (
            f"p{tail['percentile']} {tail['value']:.6g} s" if tail else
            f"no percentile above the median has {TAIL_SAMPLES} samples beyond it"))
    print(json.dumps(record, default=float))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, RuntimeError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
