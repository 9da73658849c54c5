"""Every parameter of every function in the package is read in its body.

No linter ships with the project, so this walks the syntax tree of each
module under src/nvaw: a parameter that no code reads is an option that
changes nothing, and is deleted rather than kept for symmetry.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nvaw"

# The argparse dispatch calls every command as fn(args).
EXEMPT = {("cli.py", "cmd_list", "args")}


def unread_parameters(path):
    """[(function name, parameter)] for parameters never loaded in the
    function's body (nested functions and lambdas included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [(name, p.arg) for p in params if p.arg not in read]
    return out


def test_every_parameter_is_read():
    found = [(path.name, fn, param)
             for path in sorted(SRC.glob("*.py"))
             for fn, param in unread_parameters(path)]
    assert [f for f in found if f not in EXEMPT] == []


# The window is set where tables are built (registry, files, cli.Inputs)
# and every check reads it off its tables; a window parameter on a check
# would be a second source that can disagree with the data.
NO_WINDOW_PARAMETER = ("nva.py", "linalg.py", "twist.py", "products.py",
                       "quantum.py", "smash.py")
CLI_WINDOW_PARAMETER = {"__init__", "_report"}


def rng_parameters(path):
    """Names of the functions in a module with a parameter named rng."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if "rng" in {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                out.append(node.name)
    return out


def test_checks_take_the_window_from_their_tables():
    found = [(name, fn) for name in NO_WINDOW_PARAMETER
             for fn in rng_parameters(SRC / name)]
    found += [("cli.py", fn) for fn in rng_parameters(SRC / "cli.py")
              if fn not in CLI_WINDOW_PARAMETER]
    assert found == []
