"""The public surface is what the library, the demos and the benchmark use.

A name in ``levyup.__all__`` stays only if a library module other than
``__init__``, a demo or ``perfbench`` refers to it; a helper that only tests
call belongs in the tests.  Likewise a public function's parameter with a
default, or a defaulted field of ``SimConfig``, stays only if one of those
files supplies it: an option that only tests set is a constant.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import levyup

ROOT = Path(__file__).parents[1]

# (function, parameter) -> why the parameter stays although no caller outside
# the tests sets it
UNSET_OPTIONS = {
    ("classify_ltp_upper", "use_majorization_route"):
        "the paper's fixed-ball route; the planned ltp-classify queries set it",
    ("classify_power", "n_max"): "the criteria's one depth argument",
    ("dyadic_integral", "nodes"): "perfbench's tracer reads it from the signature",
}

# SimConfig field -> why it stays although no constructor call outside the
# tests supplies it
UNSET_CONFIG_FIELDS = {
    "path_offset": "chunked runs set it; it carries the chunk-invariance contract",
}


def caller_paths():
    """The library outside ``__init__``, the demos and the benchmark."""
    paths = [p for p in (ROOT / "src" / "levyup").glob("*.py") if p.name != "__init__.py"]
    return paths + [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def referenced_names(paths):
    """Names read (``ast.Name`` in load context), attributes and imported
    names in the files; a name's own definition is none of these."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def supplied_parameters(paths, functions):
    """function name -> the parameters that some call in the files supplies,
    by keyword or by position; a ``*args`` or ``**kwargs`` call supplies all."""
    supplied = {name: set() for name in functions}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in functions:
                continue
            params = list(inspect.signature(functions[name]).parameters)
            starred = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            supplied[name] |= (set(params) if starred else
                               set(params[:len(node.args)]) | {k.arg for k in node.keywords})
    return supplied


def public_functions():
    return {name: obj for name in levyup.__all__
            if inspect.isfunction(obj := getattr(levyup, name))}


def test_every_public_name_has_a_caller_outside_the_tests():
    assert sorted(set(levyup.__all__) - referenced_names(caller_paths())) == []


def test_every_option_has_a_caller_outside_the_tests():
    functions = public_functions()
    supplied = supplied_parameters(caller_paths(), functions)
    unset = {(name, p.name) for name, fn in functions.items()
             for p in inspect.signature(fn).parameters.values()
             if p.default is not p.empty and p.name not in supplied[name]}
    assert sorted(unset) == sorted(UNSET_OPTIONS)


def test_every_config_field_has_a_caller_outside_the_tests():
    supplied = supplied_parameters(caller_paths(), {"SimConfig": levyup.SimConfig})
    unset = {f.name for f in dataclasses.fields(levyup.SimConfig)
             if f.name not in supplied["SimConfig"]}
    assert sorted(unset) == sorted(UNSET_CONFIG_FIELDS)
