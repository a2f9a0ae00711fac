"""Outside-in tracer: wraps fragkit's public entry points from the benchmark's side.

No fragkit source is changed.  ``Tracer.install`` replaces each traced
function with a wrapper in every fragkit module that holds it, so calls that
go through an imported name (``weight_builder.log_integrate``,
``cli.load_config``, ...) are caught as well as calls through the defining
module.  Two methods are wrapped on their class.  ``uninstall`` puts every
original back.

Each wrapped call is one span: name, parent span, operation id, start, end.
Spans are kept in memory in flat arrays and written out by ``dump``.  Self
time is the span's duration minus the durations of its direct children; total
time is the duration of the outermost call of each name (a recursive call is
not counted twice).  Both are accumulated as spans close.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced function, and the span name it reports.
FUNCTIONS = [
    ("fragkit.quadrature", "log_integrate", "quadrature.log_integrate"),
    ("fragkit.quadrature", "integrate", "quadrature.integrate"),
    ("fragkit.kernels", "eval_kernel", "kernels.eval_kernel"),
    ("fragkit.kernels", "classify_mass", "kernels.classify_mass"),
    ("fragkit.weights", "compare_weights", "weights.compare_weights"),
    ("fragkit.admissibility", "check", "admissibility.check"),
    ("fragkit.admissibility", "ratio_curve", "admissibility.ratio_curve"),
    ("fragkit.weight_builder", "build_h", "weight_builder.build_h"),
    ("fragkit.weight_builder", "build_btilde", "weight_builder.build_btilde"),
    ("fragkit.weight_builder", "solve_volterra", "weight_builder.solve_volterra"),
    ("fragkit.weight_builder", "construct_weight", "weight_builder.construct_weight"),
    ("fragkit.simulator", "discretize", "simulator.discretize"),
    ("fragkit.simulator", "simulate", "simulator.simulate"),
    ("fragkit.simulator", "expm_oracle", "simulator.expm_oracle"),
    ("fragkit.simulator", "semigroup_check", "simulator.semigroup_check"),
    ("fragkit.config", "load_config", "config.load_config"),
    ("fragkit.cli", "main", "cli.main"),
]
# (module, class, method, span name)
METHODS = [
    ("fragkit.kernels", "FragmentKernel", "mass_partial", "kernels.mass_partial"),
    ("fragkit.weights", "Weight", "log_eval", "weights.log_eval"),
]
SPAN_NAMES = [f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]
COUNTERS = ["kernels.eval_kernel.points", "weights.log_eval.points",
            "admissibility.samples", "admissibility.samples_converged",
            "simulator.steps", "cli.bytes_written"]


def _points_eval_kernel(args, kwargs):
    x = kwargs.get("x", args[1] if len(args) > 1 else None)
    y = kwargs.get("y", args[2] if len(args) > 2 else None)
    return "kernels.eval_kernel.points", math.prod(np.broadcast_shapes(np.shape(x), np.shape(y)))


def _points_log_eval(args, kwargs):
    return "weights.log_eval.points", int(np.size(kwargs.get("x", args[1])))


_PRE_COUNT = {"kernels.eval_kernel": _points_eval_kernel,
              "weights.log_eval": _points_log_eval}


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self._active = [0] * len(self.names)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.op_id = -1
        # span columns
        self.s_name = array("l")
        self.s_parent = array("l")
        self.s_op = array("l")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[list] = []     # [span index, start, child time]
        self._patches: list[tuple[object, str, object]] = []
        self._simulate_sig = None

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        sid = self._ids[name]
        pre = _PRE_COUNT.get(name)
        post = {"admissibility.ratio_curve": self._post_ratio_curve,
                "simulator.simulate": self._post_simulate}.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                key, n = pre(args, kwargs)
                tracer.counters[key] += n
            idx = len(tracer.s_name)
            tracer.s_name.append(sid)
            tracer.s_parent.append(stack[-1][0] if stack else -1)
            tracer.s_op.append(tracer.op_id)
            tracer.s_start.append(0.0)
            tracer.s_end.append(0.0)
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            tracer._active[sid] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                tracer.s_start[idx] = frame[1]
                tracer.s_end[idx] = end
                tracer.calls[sid] += 1
                tracer.self_s[sid] += dur - frame[2]
                tracer._active[sid] -= 1
                if not tracer._active[sid]:
                    tracer.total_s[sid] += dur
                if stack:
                    stack[-1][2] += dur
            if post is not None:
                post(args, kwargs, out)
            return out

        return wrapper

    def _post_ratio_curve(self, args, kwargs, curve) -> None:
        self.counters["admissibility.samples"] += int(curve.failed.size)
        self.counters["admissibility.samples_converged"] += int(np.count_nonzero(~curve.failed))

    def _post_simulate(self, args, kwargs, traj) -> None:
        bound = self._simulate_sig.bind(*args, **kwargs)
        u0, t_end, dt = bound.arguments["u0"], bound.arguments["t_end"], bound.arguments["dt"]
        t0 = getattr(u0, "t", 0.0)
        self.counters["simulator.steps"] += max(0, int(np.ceil((t_end - t0) / dt - 1e-12)))

    def count(self, key: str, n: int) -> None:
        self.counters[key] += n

    # -- patching ----------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced entry point wherever a fragkit module holds it."""
        fragkit_mods = [m for n, m in sorted(sys.modules.items())
                        if (n == "fragkit" or n.startswith("fragkit.")) and m is not None]
        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            if name == "simulator.simulate":
                self._simulate_sig = inspect.signature(orig)
            wrapped = self._wrap(name, orig)
            for mod in fragkit_mods:
                if getattr(mod, attr, None) is orig:
                    self._set(mod, attr, wrapped)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._set(cls, meth, self._wrap(name, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out: dict[str, tuple[float, str]] = {}
        for name, calls, self_s, total_s in zip(self.names, self.calls, self.self_s,
                                                self.total_s):
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.total_s"] = (total_s, "s")
        c = self.counters
        out["kernels.eval_kernel.points"] = (c["kernels.eval_kernel.points"], "count")
        out["weights.log_eval.points"] = (c["weights.log_eval.points"], "count")
        out["admissibility.samples"] = (c["admissibility.samples"], "count")
        # no samples means nothing failed to converge
        out["admissibility.samples_converged_ratio"] = (
            c["admissibility.samples_converged"] / c["admissibility.samples"]
            if c["admissibility.samples"] else 1.0, "ratio")
        steps = c["simulator.steps"]
        out["simulator.steps"] = (steps, "count")
        sim_self = self.self_s[self._ids["simulator.simulate"]]
        out["simulator.step_s"] = (sim_self / steps if steps else 0.0, "s")
        out["cli.bytes_written"] = (c["cli.bytes_written"], "bytes")
        return out

    def dump(self, path: str) -> None:
        """Write every span as columns: name index, parent span, op id, start, end."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "parent", "op", "start_s", "end_s"],
                       "name": self.s_name.tolist(), "parent": self.s_parent.tolist(),
                       "op": self.s_op.tolist(), "start_s": self.s_start.tolist(),
                       "end_s": self.s_end.tolist()}, fh)
