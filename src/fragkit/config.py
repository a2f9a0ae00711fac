"""Flat structured-text run configuration: [section] headers, key = value lines.

Arrays are comma lists, tables are comma-separated ``x:value`` pairs, and
tabulated weights reference a CSV file (columns ``x,log_omega``).  Unknown
keys are rejected so typos fail loudly instead of silently using defaults.
A custom kernel or rate is given as a numpy expression in ``x`` and ``y``
(evaluated in a restricted namespace), e.g. ``expr = x / y**2``.
"""

from __future__ import annotations

import ast
import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .kernels import FragmentKernel, RateFunction
from .weights import Weight

__all__ = ["RunConfig", "load_config", "load_weight_csv", "save_weight_csv", "fmt", "write_csv"]

_KERNEL_KEYS = {"family", "nu", "table", "expr"}
_RATE_KEYS = {"family", "alpha", "level", "table", "expr"}
_WEIGHT_KEYS = {"family", "p", "base", "table_file"}
_PARAM_KEYS = {
    "eta0", "y_max", "kappa", "n_samples", "tol", "step", "floor",
    "x_min", "x_max", "n_nodes", "t_end", "dt", "scheme", "u0", "sample_every",
    "y_samples", "x_grid_min", "x_grid_max", "x_grid_n",
    "delta1", "delta2", "d", "b_m",
}

_SAFE_NS = {"np": np, "exp": np.exp, "log": np.log, "sqrt": np.sqrt,
            "abs": np.abs, "minimum": np.minimum, "maximum": np.maximum,
            "where": np.where, "pi": np.pi, "e": np.e}
# ``np.<name>`` may name a ufunc, a float constant or ``where``: elementwise math, no I/O
_NP_ATTRS = frozenset(n for n, v in vars(np).items()
                      if isinstance(v, (np.ufunc, float)) and not n.startswith("_")) | {"where"}
_EXPR_NODES = (ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Attribute, ast.Call,
               ast.BinOp, ast.UnaryOp, ast.Compare, ast.operator, ast.unaryop, ast.cmpop)


@dataclass
class RunConfig:
    """Parsed configuration: built domain objects plus raw command parameters."""

    kernel: FragmentKernel | None = None
    rate: RateFunction | None = None
    weight: Weight | None = None
    weight2: Weight | None = None
    params: dict = field(default_factory=dict)

    def param(self, key: str, default=None, cast=float):
        raw = self.params.get(key)
        if raw is None or raw == "":
            if default is None:
                raise ConfigError(f"missing required parameter [params] {key}")
            return default
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"parameter {key} = {raw!r}: {exc}") from exc


def _check_keys(section: str, present, allowed) -> None:
    unknown = set(present) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")


def _parse_table(text: str) -> list[tuple[float, float]]:
    pairs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            a, b = item.split(":")
            pairs.append((float(a), float(b)))
        except ValueError as exc:
            raise ConfigError(f"malformed table entry {item!r} (want x:value)") from exc
    if not pairs:
        raise ConfigError("table is empty")
    return pairs


def _compile_expr(expr: str):
    """Compile an arithmetic expression whose every syntax node is whitelisted.

    Names are ``x``, ``y`` and the keys of ``_SAFE_NS``; the only attribute
    access is ``np.<name>`` for a name in ``_NP_ATTRS``.  Lambdas,
    comprehensions, subscripts and dunders never reach ``eval``.
    """
    if not expr.strip():
        raise ConfigError("empty expression")
    tree = ast.parse(expr, "<config expr>", "eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in _SAFE_NS and node.id not in ("x", "y"):
            raise ConfigError(f"expression uses disallowed name {node.id!r}")
        if isinstance(node, ast.Attribute) and not (
                isinstance(node.value, ast.Name) and node.value.id == "np"
                and node.attr in _NP_ATTRS):
            raise ConfigError(f"expression uses disallowed attribute {node.attr!r}")
        if not isinstance(node, _EXPR_NODES):
            raise ConfigError(f"expression uses disallowed syntax {type(node).__name__}")
    code = compile(tree, "<config expr>", "eval")

    def func(x, y):
        try:
            return eval(code, {"__builtins__": {}}, dict(_SAFE_NS, x=x, y=y))
        except Exception as exc:  # a bad expression is bad input (exit 2), not a crash
            raise ConfigError(f"expression {expr.strip()!r} failed: {exc}") from exc

    return func


def _build_kernel(sec) -> FragmentKernel:
    _check_keys("kernel", sec.keys(), _KERNEL_KEYS)
    family = sec.get("family", "").strip()
    if sec.get("table", "").strip():
        raise ConfigError("no tabulated kernel family exists; use expr for a custom kernel")
    if family == "homogeneous_power":
        if not sec.get("nu", "").strip():
            raise ConfigError("homogeneous_power kernel needs nu")
        return FragmentKernel.homogeneous_power(float(sec["nu"]))
    if family == "boundary_binary":
        return FragmentKernel.boundary_binary()
    if family == "concentrated":
        return FragmentKernel.concentrated()
    if family == "custom":
        expr = sec.get("expr", "")
        if not expr.strip():
            raise ConfigError("custom kernel needs expr")
        return FragmentKernel.custom(_compile_expr(expr), label=f"custom: {expr.strip()}")
    raise ConfigError(f"unknown kernel family {family!r}")


def _build_rate(sec) -> RateFunction:
    _check_keys("rate", sec.keys(), _RATE_KEYS)
    family = sec.get("family", "").strip()
    if family == "power":
        return RateFunction.power(float(sec.get("alpha", "1")))
    if family == "constant":
        return RateFunction.constant(float(sec.get("level", "1")))
    if family == "tabulated":
        return RateFunction.tabulated(_parse_table(sec.get("table", "")))
    if family == "custom":
        expr = sec.get("expr", "")
        if not expr.strip():
            raise ConfigError("custom rate needs expr")
        func = _compile_expr(expr)
        return RateFunction.custom(lambda x: func(x, None))
    raise ConfigError(f"unknown rate family {family!r}")


def _build_weight(sec, name: str) -> Weight:
    _check_keys(name, sec.keys(), _WEIGHT_KEYS)
    family = sec.get("family", "").strip()
    if family == "power":
        return Weight.power(float(sec.get("p", "1")))
    if family == "power_shifted":
        return Weight.power_shifted(float(sec.get("p", "1")))
    if family == "exponential":
        return Weight.exponential(float(sec.get("base", "0")))
    if family == "super_exponential":
        return Weight.super_exponential()
    if family == "tabulated":
        path = sec.get("table_file", "").strip()
        if not path:
            raise ConfigError("tabulated weight needs table_file")
        return load_weight_csv(path)
    raise ConfigError(f"unknown weight family {family!r}")


def load_config(path: str) -> RunConfig:
    """Parse and validate a configuration file into built objects.

    Malformed syntax (a duplicate key or section, a line outside any section or
    without ``=``, an unclosed header, a bad ``%`` interpolation) and bytes that
    are not UTF-8 raise :class:`ConfigError`, as every out-of-range value does.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg = RunConfig()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path!r}")
        unknown = set(parser.sections()) - {"kernel", "rate", "weight", "weight2", "params"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        if parser.has_section("kernel"):
            cfg.kernel = _build_kernel(parser["kernel"])
        if parser.has_section("rate"):
            cfg.rate = _build_rate(parser["rate"])
        if parser.has_section("weight"):
            cfg.weight = _build_weight(parser["weight"], "weight")
        if parser.has_section("weight2"):
            cfg.weight2 = _build_weight(parser["weight2"], "weight2")
        if parser.has_section("params"):
            _check_keys("params", parser["params"].keys(), _PARAM_KEYS)
            cfg.params = dict(parser["params"])
    except ConfigError:
        raise
    except Exception as exc:  # configparser.Error and UnicodeDecodeError among them
        raise ConfigError(str(exc)) from exc
    return cfg


def load_weight_csv(path: str) -> Weight:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ConfigError(f"weight CSV {path!r} must have two columns x,log_omega")
    return Weight.tabulated(data[:, 0], data[:, 1])


def save_weight_csv(weight: Weight, path: str) -> None:
    if weight.knots is None:
        raise ConfigError("only tabulated/composite weights can be exported to CSV")
    write_csv(path, {"x": weight.knots, "log_omega": weight.log_values + weight.log_offset})


def fmt(v: float) -> str:
    """17 significant digits, so every CSV and printed number round-trips its double."""
    return format(v, ".17g")


def write_csv(path: str, columns: dict) -> None:
    """Write equal-length columns under a header of their names, each value as
    ``fmt`` writes it: one ``%`` format per row on Python floats."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns.values()))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % row for row in rows)
