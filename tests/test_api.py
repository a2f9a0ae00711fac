"""The public API: every exported name resolves, and accuracy is not a parameter."""

import dataclasses
import inspect
import io
import pathlib
import tokenize

import fragkit


def public_signatures():
    """``(name, signature)`` of every callable fragkit exports and every public method
    that its exported classes define."""
    for name in fragkit.__all__:
        obj = getattr(fragkit, name)
        if inspect.isclass(obj):
            if "__init__" in vars(obj):  # its own constructor, a dataclass's too
                yield name, inspect.signature(obj)
            for attr, member in inspect.getmembers(obj, callable):
                if not attr.startswith("_") and \
                        getattr(member, "__module__", "").startswith("fragkit"):
                    yield f"{name}.{attr}", inspect.signature(member)
        elif callable(obj):
            yield name, inspect.signature(obj)


def test_every_exported_name_resolves():
    assert [name for name in fragkit.__all__ if not hasattr(fragkit, name)] == []


# quadrature accuracy and sampling densities are private module constants
FIXED = {"spec", "samples_per_unit", "points_per_band", "residual_stride", "n_validation", "cap"}

# defaulted parameters over every exported callable and public method; a new knob
# raises this number in the same change that adds it
DEFAULTED_PARAMETERS = 44

# code lines of src/fragkit/*.py, not counting comments, blank lines and docstrings;
# a change to the program moves this number by its net line change, in the same diff
CODE_LINES = 1884

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def test_no_public_callable_takes_a_spec():
    sigs = dict(public_signatures())
    assert {"check", "FragmentKernel.mass_partial", "Weight.log_eval", "build_h",
            "construct_weight", "Weight.quad_breakpoints"} <= sigs.keys()
    assert [(name, p) for name, sig in sigs.items() for p in sig.parameters if p in FIXED] == []
    assert "error_estimate" not in sigs["QuadratureError"].parameters
    assert not hasattr(fragkit.QuadratureError("x"), "error_estimate")


def test_defaulted_parameter_budget():
    defaulted = [(name, p.name) for name, sig in public_signatures()
                 for p in sig.parameters.values() if p.default is not p.empty]
    assert len(defaulted) == DEFAULTED_PARAMETERS, defaulted


def test_single_generator_matrix():
    # the dust is state component 0 of one matrix: no per-piece fields and no
    # second way to step
    assert not hasattr(fragkit, "step") and "step" not in fragkit.__all__
    assert [f.name for f in dataclasses.fields(fragkit.DiscreteGenerator)] == ["grid", "matrix"]
    gen = fragkit.discretize(fragkit.FragmentKernel.homogeneous_power(0.0),
                             fragkit.RateFunction.power(1.0), fragkit.Grid.geometric(0.1, 1.0, 4))
    for attr in ("full_matrix", "apply", "gain", "dust", "loss"):
        assert not hasattr(gen, attr), attr


def test_one_entry_per_integral():
    # n_w is sampled through log_n_samples only, and the daughter mass comes from
    # FragmentKernel.mass_partial only
    for module, name in ((fragkit.admissibility, "log_n_omega"),
                         (fragkit.kernels, "mass_integral"), (fragkit.kernels, "MassValue")):
        assert not hasattr(fragkit, name) and name not in fragkit.__all__, name
        assert not hasattr(module, name), name
    assert not hasattr(fragkit.FragmentKernel, "has_exact_mass")
    # a custom kernel's daughter mass is the quadrature of its b alone, not a second callback
    assert "mass_partial_fn" not in {f.name for f in dataclasses.fields(fragkit.FragmentKernel)}
    assert "mass_partial" not in inspect.signature(fragkit.FragmentKernel.custom).parameters


def test_rk4_has_no_stiffness_error():
    # rk4's step R(dt A) has no negative entry, so no step is rejected and no
    # error tells the caller to switch schemes
    assert not hasattr(fragkit, "StiffnessError") and "StiffnessError" not in fragkit.__all__
    assert not hasattr(fragkit.errors, "StiffnessError")
    assert len(fragkit.__all__) == 50


def code_lines(text: str) -> int:
    """The lines that hold a token of a statement, a statement that is one lone
    string (a docstring) not counted."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                lines.update(n for t in statement for n in range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _NOT_CODE:
            statement.append(tok)
    return len(lines)


def test_code_line_budget():
    assert code_lines('"""doc"""\nx = (1,\n\n     2)  # c\n\ndef f():\n    "doc"\n    return 3\n') == 4
    counts = {p.name: code_lines(p.read_text())
              for p in sorted(pathlib.Path(fragkit.__file__).parent.glob("*.py"))}
    assert sum(counts.values()) == CODE_LINES, counts
