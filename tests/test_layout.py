"""The library holds only code that the library itself names: what only tests
call lives under tests/ (``reference.py``).  The tests' helpers are named by a
test file.  One module of each tree reads the engine's element format."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bruhat_atlas"
TESTS = ROOT / "tests"

# the representation of ^J W: an element's slots and the group's private
# state; one string, so that this list is not itself a hit
FORMAT = set("weight steps _ascend_cache _intern _count _reflect _columns "
             "_column_codes _base _heights".split())


def _named(paths) -> set[str]:
    # a name is a Name, the attribute of an Attribute, an imported name or
    # its alias, or a string listed in __all__; a docstring is a string
    # constant, so it names nothing
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named |= {node.name.rpartition(".")[2], node.asname or node.name}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                named.update(ast.literal_eval(node.value))
    return named


def test_every_definition_in_src_is_named_by_src():
    # dunder methods are called by Python
    modules = sorted(PACKAGE.glob("*.py"))
    named = _named(modules)
    unnamed = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in named
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert unnamed == []


def test_every_test_helper_is_named_by_a_test_file():
    # a fixture is found by pytest through a parameter name, so it is exempt
    named = _named(sorted(TESTS.glob("test_*.py")))
    unnamed = [
        f"{name}:{node.lineno} {node.name}"
        for name in ("conftest.py", "reference.py")
        for node in ast.parse((TESTS / name).read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in named
        and not any("fixture" in ast.unparse(d) for d in node.decorator_list)
    ]
    assert unnamed == []


def test_only_coxeter_and_the_test_adapter_read_the_element_format():
    # an attribute or a string constant (a monkeypatched name) of the format,
    # outside coxeter.py, conftest.py and test_coxeter.py, which tests the
    # format itself
    allowed = {PACKAGE / "coxeter.py", TESTS / "conftest.py", TESTS / "test_coxeter.py"}
    hits = [
        f"{path.relative_to(ROOT)}:{node.lineno} {ast.unparse(node)}"
        for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")])
        if path not in allowed
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in FORMAT
        or isinstance(node, ast.Constant) and node.value in FORMAT
    ]
    assert hits == []


def _imports_json(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "json" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "json"


def test_no_module_of_src_imports_json_when_it_is_imported():
    # json is imported inside the one function that parses a case file and
    # the one branch that escapes a string, so a run that needs neither
    # never loads it; an import at module level, a class body or an if or try
    # block there runs as the module is imported
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_functions = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
        }
        hits += [
            f"{path.name}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(tree)
            if _imports_json(node) and id(node) not in in_functions
        ]
    assert hits == []
