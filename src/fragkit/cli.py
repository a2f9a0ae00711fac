"""Command-line front door.

Commands: kernel-info, check-weight, build-weight, find-exp-weight, simulate,
compare-weights.  Exit codes: 0 pass, 1 assertion or verdict failure, 2
invalid input, 3 inconclusive.  All floating-point output uses 17 significant
digits so identical configurations reproduce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import admissibility, simulator, weight_builder
from .config import ConfigError, RunConfig, fmt, load_config, save_weight_csv
from .errors import (ConstructionError, FragkitError, InvalidInputError, QuadratureError,
                     StepSizeError)
from .kernels import classify_mass
from .weights import Weight, compare_weights

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3


def _need(cfg: RunConfig, *attrs) -> None:
    for a in attrs:
        if getattr(cfg, a) is None:
            raise ConfigError(f"this command needs a [{a}] section in the config")


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _whole(text: str) -> int:
    """An integer parameter: 512, 512.0 and 1e3 pass, 16.7 does not."""
    value = float(text)
    if not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_kernel_info(cfg: RunConfig, args) -> int:
    _need(cfg, "kernel")
    samples = cfg.param("y_samples", [1.0, 2.0, 5.0, 10.0, 20.0, 50.0], cast=_floats)
    tol = args.tol if args.tol is not None else cfg.param("tol", 1e-8)
    report = classify_mass(cfg.kernel, samples, tol=tol)
    print(f"kernel family: {cfg.kernel.describe()}")
    print(report.summary())
    return EXIT_INCONCLUSIVE if report.failed else EXIT_PASS


def cmd_check_weight(cfg: RunConfig, args) -> int:
    _need(cfg, "kernel", "weight")
    eta0 = cfg.param("eta0", 1.0)
    y_max = cfg.param("y_max", 1000.0 * eta0)
    n_samples = cfg.param("n_samples", 0, cast=_whole) or None
    report = admissibility.check(cfg.kernel, cfg.weight, eta0, y_max, n_samples=n_samples)
    print(report.summary())
    report.to_csv(_outpath(args, "admissibility.csv"))
    with open(_outpath(args, "report.txt"), "w") as fh:
        fh.write(report.summary() + "\n")
    if any(report.failed_counts):
        return EXIT_INCONCLUSIVE
    if not report.verdict_A41:
        return EXIT_FAIL
    if report.verdict_limsup == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_PASS if report.verdict_limsup == "pass" else EXIT_FAIL


def cmd_build_weight(cfg: RunConfig, args) -> int:
    _need(cfg, "kernel", "weight")
    eta0 = cfg.param("eta0", 1.0)
    kappa = cfg.param("kappa", 1.0)
    y_max = cfg.param("y_max", eta0 + 20.0)
    tol = args.tol if args.tol is not None else cfg.param("tol", 1e-6)
    step = cfg.param("step", 0.0) or None
    try:
        weight, cert = weight_builder.construct_weight(
            cfg.kernel, cfg.weight, eta0, kappa, y_max, step=step,
            floor=cfg.param("floor", 1e-8), tol=tol)
    except (ConstructionError, StepSizeError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    save_weight_csv(weight, _outpath(args, "weight.csv"))
    cert.to_csv(_outpath(args, "certificate.csv"))
    print(f"constructed weight over [{fmt(eta0)}, {fmt(y_max)}], kappa = {fmt(kappa)}")
    print(f"certificate: {cert.y.size} validation points, min margin {fmt(float(np.min(cert.margin)))}")
    return EXIT_PASS


def cmd_find_exp_weight(cfg: RunConfig, args) -> int:
    res = weight_builder.exp_weight_search(
        cfg.param("delta1"), cfg.param("delta2"), cfg.param("d"), cfg.param("b_m"))
    if res is None:
        print("no exponential weight in float range", file=sys.stderr)
        return EXIT_FAIL
    print(f"c = {fmt(res.c)}")
    print(f"delta = {fmt(res.delta)}")
    print(f"bound c^-delta + delta*b_m = {fmt(res.c ** -res.delta + res.delta * cfg.param('b_m'))}")
    return EXIT_PASS


def cmd_simulate(cfg: RunConfig, args) -> int:
    _need(cfg, "kernel", "rate")
    grid = simulator.Grid.geometric(cfg.param("x_min", 1e-4), cfg.param("x_max", 20.0),
                                    cfg.param("n_nodes", 512, cast=_whole))
    gen = simulator.discretize(cfg.kernel, cfg.rate, grid)
    u0 = _initial_condition(cfg.params.get("u0", "bump:1,10"), grid)
    weight = cfg.weight or Weight.power_shifted(1.0)
    traj = simulator.simulate(
        u0, gen, cfg.param("t_end", 1.0), cfg.param("dt", 1e-3),
        scheme=cfg.params.get("scheme", "implicit_euler").strip() or "implicit_euler",
        weight=weight,
        sample_every=cfg.param("sample_every", 1, cast=_whole))
    traj.to_csv(_outpath(args, "trajectory.csv"))
    print(f"simulated to t = {fmt(traj.times[-1])}: "
          f"M0 = {fmt(traj.M0[-1])}, M1 = {fmt(traj.M1[-1])}, "
          f"dust = {fmt(traj.dust_mass[-1])}")

    failures = []
    tol = args.tol if args.tol is not None else 1e-3
    for name in args.asserts:
        if name == "positivity":
            if traj.min_content < 0:  # the schemes clip round-off negatives; look before that
                failures.append(f"positivity (content {traj.min_content:.3e} before clipping)")
        elif name == "mass":
            total = traj.M1 + traj.dust_mass
            if np.max(np.abs(total - total[0])) > tol * total[0]:
                failures.append("mass")
        elif name == "substochastic":
            ck = simulator.column_kappa(gen, weight)
            if ck > 1.0 + 1e-6:
                failures.append(f"substochastic (column kappa {ck:.6f} > 1)")
            drops = np.diff(traj.norm_omega) <= 1e-10 * traj.norm_omega[:-1]
            if not np.all(drops):
                failures.append("substochastic (weighted norm increased)")
        else:
            raise ConfigError(f"unknown assertion {name!r}")
    for f in failures:
        print(f"assertion failed: {f}", file=sys.stderr)
    return EXIT_FAIL if failures else EXIT_PASS


def cmd_compare_weights(cfg: RunConfig, args) -> int:
    _need(cfg, "kernel", "weight", "weight2")
    lo, hi = cfg.param("x_grid_min", 1e-3), cfg.param("x_grid_max", 100.0)
    n = cfg.param("x_grid_n", 256, cast=_whole)
    if not (0 < lo < hi < np.inf and n >= 2):
        raise InvalidInputError("need 0 < x_grid_min < x_grid_max < inf and x_grid_n >= 2; got "
                                f"{lo!r}, {hi!r}, {n!r}")
    x_grid = np.geomspace(lo, hi, n)
    y_samples = cfg.param("y_samples", [2.0, 5.0, 10.0, 20.0, 50.0], cast=_floats)
    verdict = compare_weights(cfg.weight, cfg.weight2, cfg.kernel, x_grid, y_samples)
    print(verdict.summary())
    return EXIT_INCONCLUSIVE if verdict.inconclusive else EXIT_PASS


def _initial_condition(spec: str, grid) -> np.ndarray:
    spec = spec.strip()
    try:
        if spec.startswith("bump:"):
            lo, hi = (float(v) for v in spec[5:].split(","))
            return simulator.bump(grid, lo, hi)
        if spec.startswith("exp_decay:"):
            return simulator.exp_decay(grid, float(spec[10:]))
        if spec.startswith("csv:"):
            data = np.loadtxt(spec[4:], delimiter=",", skiprows=1, ndmin=2)
            if not np.all(np.diff(data[:, 0]) > 0):  # np.interp would read it wrongly, silently
                raise ConfigError(f"initial condition table {spec[4:]!r}: "
                                  "the x column is not strictly increasing")
            return np.interp(grid.nodes, data[:, 0], data[:, 1], left=0.0, right=0.0)
    except (ValueError, IndexError) as exc:  # malformed numbers or a table without two columns
        raise ConfigError(f"initial condition {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown initial condition {spec!r} "
                      "(want bump:lo,hi | exp_decay:scale | csv:path)")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "kernel-info": cmd_kernel_info,
    "check-weight": cmd_check_weight,
    "build-weight": cmd_build_weight,
    "find-exp-weight": cmd_find_exp_weight,
    "simulate": cmd_simulate,
    "compare-weights": cmd_compare_weights,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragkit",
        description="Fragmentation-kinetics toolkit: kernel reports, weight "
                    "admissibility, constructive weights, and simulation.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=False, help="path to the run configuration")
    parser.add_argument("--out", default=".", help="directory for CSV artifacts")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--assert", dest="asserts", default="",
                        help="comma list for simulate: substochastic,mass,positivity")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.asserts = [a for a in args.asserts.split(",") if a]
    try:
        if args.config is None:
            raise ConfigError("--config is required")
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except QuadratureError as exc:  # an integral that did not converge decides nothing
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (FragkitError, OSError) as exc:  # a ConfigError is a FragkitError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
