"""Every definition in src/cqms is reached from the CLI, the demos or perfbench.

Reachability is by name: every identifier (a name, an attribute or a string
that spells one) in ``cli.py``, ``demos/*.py``, ``perfbench/*.py`` and
``tests/kp8_example.py`` (which the demos and perfbench load) is a root, and
a module-level definition of ``src/cqms`` that a root names is reached,
together with every name its body references.  Names in type annotations do
not count.  Matching by name over-approximates what runs, so a definition
this test calls unreachable has no caller outside the tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cqms"

# The machinery of acceptance criterion 09 (nested liftable states): the
# library carries it for that criterion, which only the tests run.
CRITERION_09 = {"liftable_states", "restrict_state"}


class _Names(ast.NodeVisitor):
    """Identifiers referenced by a node, skipping annotations and docstrings."""

    def __init__(self):
        self.names: set[str] = set()

    def visit_Name(self, node):
        self.names.add(node.id)

    def visit_Attribute(self, node):
        self.names.add(node.attr)
        self.visit(node.value)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.names.add(node.value)

    def visit_arg(self, node):
        pass

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)

    def _visit_function(self, node):
        for default in node.args.defaults + node.args.kw_defaults:
            if default is not None:
                self.visit(default)
        for item in node.decorator_list + _body(node):
            self.visit(item)

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_ClassDef(self, node):
        for item in node.bases + node.keywords + node.decorator_list + _body(node):
            self.visit(item)


def _body(node) -> list:
    """The statements of a def or class without its docstring."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        return body[1:]
    return body


def _names(tree) -> set[str]:
    visitor = _Names()
    visitor.visit(tree)
    return visitor.names


def _definitions() -> dict[str, set[str]]:
    """Module-level def and class names of src/cqms, each with the names its body references."""
    defs: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, set()).update(_names(node))
    return defs


def unreachable_definitions() -> set[str]:
    roots: set[str] = set()
    entry_points = [PACKAGE / "cli.py", ROOT / "tests" / "kp8_example.py",
                    *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    for path in entry_points:
        roots |= _names(ast.parse(path.read_text(encoding="utf-8")))
    defs = _definitions()
    reached: set[str] = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(ref for ref in defs[name] if ref in defs and ref not in reached)
    return set(defs) - reached


def test_only_criterion_09_machinery_is_unreachable():
    assert unreachable_definitions() == CRITERION_09
