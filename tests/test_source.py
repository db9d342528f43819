"""Source hygiene: every function of the package reads its parameters,
no module of the package imports the benchmark, and the README's
configuration table names the configuration keys.

A parameter that no line of its function names is dead weight every
caller still has to pass; the check parses each module with ``ast``
and names the unread ones."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import beamblow
from beamblow import RunConfig

PACKAGE = Path(beamblow.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"
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


def test_no_module_of_the_package_imports_the_benchmark():
    # the benchmark measures the package from outside; never the reverse
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.stem, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imports.append((path.stem, node.module))
    assert imports
    assert [(m, name) for m, name in imports
            if name.split(".")[0] == "perfbench"] == []


def test_readme_configuration_table_lists_every_key_in_order():
    lines = README.read_text().splitlines()
    start = lines.index("| key | default | meaning |") + 2
    keys = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        keys.append(re.match(r"\| `(\w+)` \|", line).group(1))
    assert keys == [f.name for f in fields(RunConfig)]
