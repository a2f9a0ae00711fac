"""The public API: every exported name resolves, and quadrature accuracy is not a parameter."""

import inspect

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


def test_no_public_callable_takes_a_spec():
    sigs = dict(public_signatures())
    assert {"check", "FragmentKernel.mass_partial", "Weight.log_eval"} <= sigs.keys()
    assert [name for name, sig in sigs.items() if "spec" in sig.parameters] == []
