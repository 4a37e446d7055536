"""The library holds only code that the library itself names: what only tests
call lives under tests/ (``reference.py``)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bruhat_atlas"


def test_every_definition_in_src_is_named_by_src():
    # a name is a Name, the attribute of an Attribute, an imported name or
    # its alias, or a string listed in __all__; a docstring is a string
    # constant, so it names nothing.  Dunder methods are called by Python.
    defined, named = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(f"{path.name}:{node.lineno} {node.name}")
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named |= {node.name.rpartition(".")[2], node.asname or node.name}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                named.update(ast.literal_eval(node.value))
    unnamed = [
        entry
        for entry in defined
        if (name := entry.split()[1]) not in named
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert unnamed == []
