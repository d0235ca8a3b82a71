import ast
import types
from collections import Counter
from pathlib import Path

import lexres


def test_all_lists_public_names_not_modules():
    assert len(lexres.__all__) == len(set(lexres.__all__))
    for name in lexres.__all__:
        assert not isinstance(getattr(lexres, name), types.ModuleType), name
    namespace = {}
    exec("from lexres import *", namespace)  # resolves every name in __all__
    assert set(lexres.__all__) <= namespace.keys()


# definitions that stand without a caller in src/lexres, and why; a method
# or property is named with its class
UNREFERENCED_OK = {
    "resolution_from_json": "the documented reader of the JSON export",
    "all_degree_monomials": "perfbench/pin.py enumerates whole degree slices with it",
    "variable": "the public constructor of x_i, beside one()",
    "PowerIdeal.generators": "perfbench/tracer.py counts |G| by this name (ROADMAP item 5 drops it)",
}


def _names(node) -> Counter:
    """How often each name is read under node: as a name, an attribute or an import."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute) else sub.name
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
    )


def test_every_definition_has_a_caller_in_src():
    # a module-level function or class, and a method or property that is no
    # dunder, must be read somewhere in src/lexres outside its own
    # definition; re-exports in __init__.py do not count
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(lexres.__file__).parent.glob("*.py")}
    read = sum((_names(tree) for name, tree in trees.items() if name != "__init__.py"), Counter())
    definitions = []
    for tree in trees.values():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((top.name, top))
            if isinstance(top, ast.ClassDef):
                definitions += [(f"{top.name}.{item.name}", item) for item in top.body
                                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
    unreferenced = {label for label, node in definitions if not (read - _names(node))[node.name]}
    assert unreferenced == UNREFERENCED_OK.keys()


# defaulted parameters that no call in src/lexres passes, or that every call
# there passes, and why
UNTURNED_OK = {
    "main.argv": "the console entry point; tests and perfbench pass it",
}


def _passes(call: ast.Call, positional: list[str], param: str) -> bool:
    """Whether the call passes param: by keyword, by position, or through * or **."""
    if any(kw.arg in (param, None) for kw in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    # obj.method(...) fills self from obj
    bound = isinstance(call.func, ast.Attribute) and positional[:1] in (["self"], ["cls"])
    return param in positional and len(call.args) + bound > positional.index(param)


def test_every_default_parameter_is_passed_in_src():
    # a parameter with a default must be passed by some call in src/lexres to
    # a function of its name, and, where src/lexres calls that function, left
    # in place by some call there: a default that only tests override, or
    # that only tests rely on, is a knob the program never turns
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in Path(lexres.__file__).parent.glob("*.py")]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    calls: dict[str, list[ast.Call]] = {}
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            calls.setdefault(name, []).append(node)
    unturned = set()
    for fn in nodes:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
        ]
        for param in defaulted:
            passed = [_passes(call, positional, param) for call in calls.get(fn.name, [])]
            if not any(passed) or all(passed):
                unturned.add(f"{fn.name}.{param}")
    assert unturned == UNTURNED_OK.keys()


def test_only_the_printers_read_sets():
    # set(m) is held once, as QuotientStructure.member; its sets view in
    # Python ints is for the text that prints it, so no other module reads it
    readers = {
        path.name for path in Path(lexres.__file__).parent.glob("*.py")
        if any(isinstance(node, ast.Attribute) and node.attr == "sets"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert readers <= {"cli.py", "serialize.py"}, readers
