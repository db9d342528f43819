"""Source hygiene: every function of the package reads its parameters.

A parameter that no line of its function names is dead weight every
caller still has to pass; the check parses each module with ``ast``
and names the unread ones."""

import ast
from pathlib import Path

import beamblow

PACKAGE = Path(beamblow.__file__).resolve().parent
# (module, function, parameter) whose signature is fixed from outside:
# every subcommand handler takes the parsed arguments
ALLOWED = {("cli", "_cmd_verify", "args")}


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for every parameter, self and cls aside,
    that its function's body never names."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg,
                                  args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        named = {n.id for stmt in body for n in ast.walk(stmt)
                 if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        unread += [(name, p) for p in params
                   if p not in ("self", "cls") and p not in named]
    return unread


def test_the_check_names_an_unread_parameter():
    source = ("def f(a, b, *, c=1):\n    return a\n"
              "g = lambda x, y: y\n")
    assert unread_parameters(source) == [("f", "b"), ("f", "c"),
                                         ("<lambda>", "x")]


def test_every_parameter_of_the_package_is_read():
    unread = [(path.stem, func, param)
              for path in sorted(PACKAGE.glob("*.py"))
              for func, param in unread_parameters(path.read_text())]
    assert [u for u in unread if u not in ALLOWED] == []
