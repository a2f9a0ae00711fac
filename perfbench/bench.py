"""Benchmark harness: set-up, the closed measuring loop, the traced run, results.

One process runs one workload with one client in a closed loop: the next
operation starts when the previous one has finished and been verified.  The
loop runs whole cycles (see workloads.py) so that every run measures the same
mix of operations.  It starts another cycle while at least half of one still
fits in ``--seconds``, so a run ends within half a cycle of that time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import scipy

import fragkit
from fragkit import cli as fk_cli
from fragkit import kernels, quadrature, simulator

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 8  # extra set-up samples, each in a fresh interpreter

if not os.path.abspath(fragkit.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    raise ImportError(f"fragkit was imported from {fragkit.__file__}, not from {ROOT}/src")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas() -> str:
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["openblas configuration"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def provenance(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "git_sha": _git_sha(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": _openblas(),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _execute(op: workloads.Op, tracer: Tracer | None) -> tuple[float, str | None]:
    """Run one operation; return its wall time and a failure message or None."""
    shutil.rmtree(op.out_dir, ignore_errors=True)
    os.makedirs(op.out_dir)
    out, err = io.StringIO(), io.StringIO()
    code = value = None
    failure = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if op.command is not None:
                code = fk_cli.main(op.argv())
            else:
                value = op.call(op.config_path)
    except (Exception, SystemExit) as exc:
        failure = f"raised {exc!r}"
    elapsed = time.perf_counter() - start

    if failure is None and op.command is not None and code != op.expect_exit:
        failure = f"exit code {code}, expected {op.expect_exit}: {err.getvalue().strip()[-200:]}"
    if failure is None:
        try:
            failure = op.verify(workloads.OpResult(out.getvalue(), op.out_dir, value))
        except Exception as exc:  # a reference that cannot read the output is a miss
            failure = f"verification raised {exc!r}"
    if tracer is not None:
        written = sum(e.stat().st_size for e in os.scandir(op.out_dir) if e.is_file())
        tracer.count("cli.bytes_written", written + len(out.getvalue().encode()))
    if failure is not None:
        print(f"FAILED {op.label} ({op.config_path}): {failure}", file=sys.stderr)
    return elapsed, failure


def warm_up(workdir: str) -> None:
    """Fill fragkit's lazy state (rule tables, first-call dispatch) at tiny sizes."""
    quadrature.log_integrate(lambda x: x, lambda x: x, 0.0, 1.0, grade_lo=True)
    quadrature.integrate(lambda x: x, 0.0, 1.0, grade_lo=True)
    kern = kernels.FragmentKernel.homogeneous_power(0.0)
    grid = simulator.Grid.geometric(0.01, 1.0, 8)
    gen = simulator.discretize(kern, kernels.RateFunction.power(1.0), grid)
    u0 = simulator.bump(grid, 0.1, 1.0)
    for scheme in ("implicit_euler", "rk4"):
        simulator.simulate(u0, gen, 2e-3, 1e-3, scheme=scheme)
    simulator.expm_oracle(gen, 1e-3, u0)
    path = os.path.join(workdir, "warm.cfg")
    with open(path, "w") as fh:
        fh.write("[kernel]\nfamily = boundary_binary\n[params]\ny_samples = 1,3\n")
    with redirect_stdout(io.StringIO()):
        fk_cli.main(["kernel-info", "--config", path, "--out", workdir])


def _set_up(workload: str, seed: int, workdir: str, tiny: bool) -> list[workloads.Op]:
    ops = workloads.make_cycle(workload, seed, 0, os.path.join(workdir, "c0"), tiny)
    warm_up(workdir)
    return ops


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _run_cycle(ops, tracer=None):
    times, failures = [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        elapsed, failure = _execute(op, tracer)
        times.append(elapsed)
        failures += failure is not None
    return times, failures


def run(workload: str, seed: int, seconds: float, trace: bool, t0: float,
        tiny: bool = False) -> dict:
    """Run one workload and return the result record (metrics as value/unit pairs)."""
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        cycle0 = _set_up(workload, seed, workdir, tiny)
        setup_s = time.perf_counter() - t0
        if trace:
            record = _traced(workload, cycle0)
        else:
            record = _measured(workload, seed, seconds, workdir, cycle0, setup_s, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["provenance"] = provenance(workload, seed)
    return record


def _measured(workload, seed, seconds, workdir, cycle0, setup_s, tiny) -> dict:
    cycles, failed = [], 0
    start = time.perf_counter()
    while True:
        k = len(cycles)
        ops = cycle0 if k == 0 else workloads.make_cycle(
            workload, seed, k, os.path.join(workdir, f"c{k}"), tiny)
        t, f = _run_cycle(ops)
        cycles.append(t)
        failed += f
        shutil.rmtree(os.path.dirname(ops[0].config_path), ignore_errors=True)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(cycles) > seconds:  # less than half a cycle left
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [_probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    times = [t for cycle in cycles for t in cycle]
    # Operation i of every cycle has the same kind and size.  The cycle's
    # throughput at the median time of each position is robust to the host
    # slowing the VM for a few seconds, which a plain sum is not.
    cycle_s = sum(statistics.median(position) for position in zip(*cycles))
    return {
        "attempted": len(times), "failed": failed, "cycles": len(cycles),
        "setup_samples_s": setups,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(cycles[0]) / cycle_s, "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def _traced(workload, cycle0) -> dict:
    plain, failed_plain = _run_cycle(cycle0)
    tracer = Tracer()
    with tracer:
        traced, failed_traced = _run_cycle(cycle0, tracer)
    tracer.dump(os.path.join(OUT, f"spans-{workload}.json"))
    attempted = len(plain) + len(traced)
    failed = failed_plain + failed_traced
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = ((sum(traced) - sum(plain)) / sum(plain), "frac")
    metrics["failed_frac"] = (failed / attempted, "frac")
    return {"attempted": attempted, "failed": failed, "cycles": 1, "metrics": metrics}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _summary(record: dict) -> dict:
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": v, "unit": u}
                        for name, (v, u) in record["metrics"].items()}}


def main(argv, t0: float) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print it (used for set-up samples)")
    args = parser.parse_args(argv)

    if args.setup_only:
        workdir = os.path.join(OUT, f"work-{os.getpid()}")
        try:
            _set_up(args.workload, args.seed, workdir, tiny=False)
            print(json.dumps({"setup_s": time.perf_counter() - t0}))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), t0)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w") as fh:
        json.dump({**record, "summary": _summary(record)}, fh, indent=1)
    print("provenance: " + json.dumps(record["provenance"]))
    for metric, (value, unit) in record["metrics"].items():
        print(f"{metric:48s} {value!r:>24} {unit}")
    print(f"operations: {record['attempted']} attempted, {record['failed']} failed, "
          f"{record['cycles']} cycle(s); op_p50_s over {record['attempted']} samples")
    print(json.dumps(_summary(record)))
    return 0
