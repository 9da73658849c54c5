"""Every function and method defined in the package is referenced, and
every name a package module imports is used in that module.

No linter ships with the project, so this walks the syntax trees: a
function of src/nvaw whose name appears nowhere in src/, tests/ or bench/
(as a name or an attribute) is code that nothing calls, and is deleted
rather than kept.  Dunder methods are called by the language itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def defined_functions():
    """[(module file, name)] of every function and method in src/nvaw."""
    return [(path.name, node.name)
            for path in sorted((ROOT / "src" / "nvaw").glob("*.py"))
            for node in ast.walk(_parse(path))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def referenced_names():
    names = set()
    for d in ("src", "tests", "bench"):
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_function_is_referenced():
    used = referenced_names()
    assert [(f, name) for f, name in defined_functions()
            if name not in used
            and not (name.startswith("__") and name.endswith("__"))] == []


def unused_imports(path):
    """Names that a module imports (anywhere in it) and never reads."""
    tree = _parse(path)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_import_is_used():
    # __init__.py may import names only to re-export them
    assert [(path.name, name)
            for path in sorted((ROOT / "src" / "nvaw").glob("*.py"))
            if path.name != "__init__.py"
            for name in unused_imports(path)] == []


def test_no_module_imports_dataclasses():
    # importing dataclasses loads inspect, ast and dis, and every decorated
    # class compiles its generated methods with exec: a cost each command
    # pays at start-up
    importers = sorted({
        path.name for path in (ROOT / "src" / "nvaw").glob("*.py")
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Import)
        and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"})
    assert importers == []


# SeriesMap.at (linalg.py) is the one way to change a table's variable;
# nva.py substitutes x1 -> x0 + x2 in a product of two tables once its
# pole is cleared, which is not a table
VARIABLE_CHANGERS = {"series.py", "linalg.py", "nva.py"}


def test_variable_changes_go_through_seriesmap_at():
    callers = sorted({path.name
                      for path in (ROOT / "src" / "nvaw").glob("*.py")
                      for node in ast.walk(_parse(path))
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("rename", "substitute_sum")})
    assert set(callers) <= VARIABLE_CHANGERS, callers


def test_deleted_duplicates_stay_deleted():
    # apply and compose(inner, legs) put a map on legs, a tensor with an
    # identity extends one, and permute braids legs: nothing else does.
    # The twist inverse is built from compose, not from dense matrices per
    # degree, and a workbench is emitted by the emit_* of its blocks
    gone = {"on_legs", "apply_legs", "double_product", "permutation",
            "_degree_matrices", "emit_workbench"}
    assert [f for f in defined_functions() if f[1] in gone] == []


def _is_items(node):
    return isinstance(node, ast.Attribute) and node.attr == "items"


def report_item_writers():
    """[(module file, line)] of every assignment to, append to or extend
    of an `.items`, and of every CheckItem built outside nva.py, in
    src/nvaw."""
    found = []
    for path in sorted((ROOT / "src" / "nvaw").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Assign):
                hit = any(_is_items(t) for t in node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                hit = _is_items(node.target)
            elif isinstance(node, ast.Call):
                func = node.func
                grows = (isinstance(func, ast.Attribute)
                         and func.attr in ("append", "extend", "insert")
                         and _is_items(func.value))
                builds = "CheckItem" in (getattr(func, "id", None),
                                         getattr(func, "attr", None))
                hit = grows or builds and path.name != "nva.py"
            else:
                continue
            if hit:
                found.append((path.name, node.lineno))
    return found


def test_no_per_identity_item_list():
    # a report holds a run of 0 == 0 identities as one entry and reads its
    # items through a view: a list of one CheckItem per identity, built
    # anywhere else, would bring back their cost
    assert report_item_writers() == []


def test_no_module_imports_gc():
    # the interpreter's collector belongs to the caller: nvaw does not
    # switch it off, freeze or retune it
    assert sorted({
        path.name for path in (ROOT / "src" / "nvaw").glob("*.py")
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Import) and any(
            a.name == "gc" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "gc"}) == []


def _calls(node, name):
    """Whether node holds a call of name, as a name or an attribute."""
    return any(isinstance(n, ast.Call) and name in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None))
        for n in ast.walk(node))


def test_one_implementation_of_exact_elimination():
    # _row_reduce is called only from linalg.py, and one function there
    # turns blocks into elimination rows, reading each side with _lifted
    callers = sorted({path.name
                      for path in (ROOT / "src" / "nvaw").glob("*.py")
                      if _calls(_parse(path), "_row_reduce")})
    assert callers == ["linalg.py"]
    tree = _parse(ROOT / "src" / "nvaw" / "linalg.py")
    assemblers = [node.name for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and _calls(node, "_lifted")]
    assert assemblers == ["_equations"]
