import ast
import types
from pathlib import Path

import lexres


def test_all_lists_public_names_not_modules():
    assert len(lexres.__all__) == len(set(lexres.__all__))
    for name in lexres.__all__:
        assert not isinstance(getattr(lexres, name), types.ModuleType), name
    namespace = {}
    exec("from lexres import *", namespace)  # resolves every name in __all__
    assert set(lexres.__all__) <= namespace.keys()


# definitions that stand without a caller in src/lexres, and why
UNREFERENCED_OK = {
    "resolution_from_json": "the documented reader of the JSON export",
    "all_degree_monomials": "perfbench/pin.py enumerates whole degree slices with it",
    "variable": "the public constructor of x_i, beside one()",
}


def test_every_definition_has_a_caller_in_src():
    # a module-level function or class must be read somewhere in src/lexres
    # outside its own definition; re-exports in __init__.py do not count
    src = Path(lexres.__file__).parent
    tops = {}  # module file -> [(top-level statement, the names it reads)]
    for path in src.glob("*.py"):
        tops[path.name] = [
            (top, {node.id if isinstance(node, ast.Name) else
                   node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute, ast.alias))})
            for top in ast.parse(path.read_text(encoding="utf-8")).body
        ]
    unreferenced = set()
    for module, body in tops.items():
        elsewhere = set().union(*(names for other, b in tops.items() if other not in (module, "__init__.py")
                                  for _, names in b))
        for top, _ in body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                here = set().union(*(names for other, names in body if other is not top))
                if top.name not in here | elsewhere:
                    unreferenced.add(top.name)
    assert unreferenced == UNREFERENCED_OK.keys()
