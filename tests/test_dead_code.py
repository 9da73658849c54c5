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
    # compose(inner, legs) puts a map on legs, a tensor with an identity
    # extends one, and SeriesMap.flip composed on legs braids them: nothing
    # else does.  The twist inverse is built from compose, not from dense
    # matrices per degree, and a workbench is emitted by the emit_* of its
    # blocks
    gone = {"on_legs", "apply_legs", "double_product", "permutation",
            "permute", "_degree_matrices", "emit_workbench"}
    assert [f for f in defined_functions() if f[1] in gone] == []


def test_only_linalg_applies_a_map_on_legs():
    # each side of an identity is one composed map, compared by
    # CheckReport.compare_maps; a chain of applies on legs per basis vector
    # would be a second engine beside it
    callers = sorted({path.name
                      for path in (ROOT / "src" / "nvaw").glob("*.py")
                      for node in ast.walk(_parse(path))
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and node.func.attr == "apply"
                      and (len(node.args) > 1
                           or any(k.arg == "legs" for k in node.keywords))})
    assert set(callers) <= {"linalg.py"}, callers


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


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def test_each_extraction_hands_its_whole_system_to_one_solve():
    # solve_linear eliminates a matrix that several blocks share once, so
    # no call of it sits in a loop or a comprehension, one per column
    assert sorted({path.name for path in (ROOT / "src" / "nvaw").glob("*.py")
                   for node in ast.walk(_parse(path))
                   if isinstance(node, LOOPS)
                   and _calls(node, "solve_linear")}) == []


def callers_in_src(name, args=None):
    """The functions of src/nvaw that call name, as a name or an attribute,
    with the constant arguments args when given."""
    return sorted({node.name for path in (ROOT / "src" / "nvaw").glob("*.py")
                   for node in ast.walk(_parse(path))
                   if isinstance(node, ast.FunctionDef)
                   and any(isinstance(n, ast.Call) and name in (
                       getattr(n.func, "id", None), getattr(n.func, "attr", None))
                       and (args is None or [getattr(a, "value", None)
                                             for a in n.args] == args)
                       for n in ast.walk(node))})


def test_one_home_for_a_constant_term_and_an_x_free_rank():
    # the (-1)-product, with its regularity hypothesis, and the limit verdict
    # of a regular Y(a,x)b are the only readers of a constant term; the
    # rank of an x-free map is read in one place, and the degree-two
    # injectivity report takes the rank of its own matrix
    assert callers_in_src("extract", ["x", 0]) == [
        "minus_one_product", "regular_limit"]
    assert callers_in_src("matrix_rank") == [
        "check_Z2_injectivity", "x_free_rank"]


KERNEL_OPERATIONS = {"apply", "compose", "tensor", "transform", "scale",
                     "__add__", "__sub__", "__neg__"}


def test_one_multiply_accumulate_and_no_checked_kernel_results():
    # _placed is called from one function of linalg.py, the multiply-
    # accumulate loop that apply and compose share; and no kernel operation
    # of a vector or a map builds its result through the checked
    # constructors, SeriesVector(...) and SeriesMap(...)
    tree = _parse(ROOT / "src" / "nvaw" / "linalg.py")
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and _calls(node, "_placed")] == ["_summed"]
    kernel = [(cls.name, f) for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              and cls.name in ("SeriesVector", "SeriesMap")
              for f in cls.body if isinstance(f, ast.FunctionDef)
              and f.name in KERNEL_OPERATIONS]
    assert len(kernel) == 13
    assert [(c, f.name) for c, f in kernel
            if _calls(f, "SeriesVector") or _calls(f, "SeriesMap")] == []


def module_cache_dicts(path):
    """The names a module binds, at its top level, to a dict display."""
    return {target.id for node in _parse(path).body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
            for target in node.targets if isinstance(target, ast.Name)}


def test_every_series_cache_is_bounded_by_a_test():
    # a dict that nvaw.series keeps for the life of the process grows with
    # every call that misses it: each is cleared, filled and bounded by the
    # bounded-cache test of test_products.py, and a new one cannot land
    # without it
    tree = _parse(ROOT / "tests" / "test_products.py")
    test, = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name
             == "test_substitution_plans_stay_small_and_equal_fresh_ones"]
    cleared = {node.value for node in ast.walk(test)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)
               and node.value.startswith("_")}
    assert module_cache_dicts(ROOT / "src" / "nvaw" / "series.py") == cleared
