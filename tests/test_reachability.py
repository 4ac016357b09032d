"""Every definition, method and option of src/cqms is used outside the tests.

Reachability is by name: every identifier (a name, an attribute or a string
that spells one) in ``cli.py``, ``demos/*.py``, ``perfbench/*.py`` and
``tests/kp8_example.py`` (which the demos and perfbench load) is a root, and
a module-level definition of ``src/cqms`` that a root names is reached,
together with every name its body references.  Names in type annotations do
not count.  Matching by name over-approximates what runs, so a definition
this test calls unreachable has no caller outside the tests.

The method census asks, of every method and property of a src/cqms class,
that its name appears in src/cqms or an entry point.  Dunder methods are
called by the language, not by name, and are not counted.

The option census asks the same of parameters with a default: one counts as
set when a call in ``src/cqms``, ``demos/*.py`` or ``perfbench/*.py`` passes
it a value other than its default.  Literals and the module-level constants
of ``src/cqms`` are resolved, so ``tol=1e-10`` against ``tol=GNS_TOL`` is
the default again; any other expression counts as a different value.  Calls
match definitions by name.  Passing through the same-named parameter of an
enclosing function counts only when that parameter is itself set.  A
parameter that no caller sets is a constant.

The seed census lists every def of src/cqms that takes a ``seed`` or an
``rng``, or calls ``default_rng``: only the sampled diagnostics and the
random generators draw random numbers, so no certified output reads a seed.
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


def _entry_points() -> list[Path]:
    return [PACKAGE / "cli.py", ROOT / "tests" / "kp8_example.py",
            *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]


def unreachable_definitions() -> set[str]:
    roots: set[str] = set()
    for path in _entry_points():
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


def unnamed_methods() -> set[str]:
    """``Class.method`` for each method or property of a src/cqms class named nowhere outside the tests."""
    named: set[str] = set()
    methods: set[tuple[str, str]] = set()
    for path in {*PACKAGE.glob("*.py"), *_entry_points()}:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named |= _names(tree)
        if path.parent == PACKAGE:
            methods |= {(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
                        for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))}
    return {f"{cls}.{name}" for cls, name in methods if name not in named}


def test_every_method_is_named_outside_the_tests():
    assert unnamed_methods() == set()


# Written as the group-file ``irreps`` field, which only the tests' own group
# files carry; the demos and perfbench use the built-in irreducible families.
TEST_ONLY_OPTIONS = {"io.dump_group_file(irreps)"}
# Every caller passes the default, but the perfbench ``certified`` set-up names it.
DEFAULT_ONLY_OPTIONS = {"corep.pw_decompose(tol)"}

UNRESOLVED = object()


def _constants() -> dict:
    """Module-level ``NAME = literal`` of src/cqms; a name bound to two values is dropped."""
    found: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                value = _literal(node.value, {})
                name = node.targets[0].id
                if value is not UNRESOLVED and found.get(name, value) == value:
                    found[name] = value
                else:
                    found[name] = UNRESOLVED
    return found


def _literal(node, constants):
    """The value a literal or a src/cqms constant (bare or as ``module.NAME``) spells."""
    if isinstance(node, ast.Name):
        return constants.get(node.id, UNRESOLVED)
    if isinstance(node, ast.Attribute):
        return constants.get(node.attr, UNRESOLVED)
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return UNRESOLVED
    return (type(value), value)


def _same(node, default, constants) -> bool:
    value = _literal(node, constants)
    return value is not UNRESOLVED and value == _literal(default, constants)


class _Census(ast.NodeVisitor):
    """The defs of one file, keyed by qualified name, and its calls with their enclosing defs."""

    def __init__(self, module: str):
        self.prefix = [module]
        self.scope: list[str] = []
        self.defs: dict[str, tuple] = {}        # key -> (name, params as called, all, defaults)
        self.calls: list[tuple] = []            # (call, keys of the enclosing defs)
        self.in_class = False

    def visit_ClassDef(self, node):
        self.prefix.append(node.name)
        outer, self.in_class = self.in_class, True
        self.generic_visit(node)
        self.prefix.pop()
        self.in_class = outer

    def _visit_function(self, node):
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
        every = set(positional) | {a.arg for a in args.kwonlyargs}
        called = positional[1:] if self.in_class else positional      # obj.method(...)
        key = ".".join(self.prefix + [node.name])
        self.defs[key] = (node.name, called, every, defaults)
        self.prefix.append(node.name)
        self.scope.append(key)
        outer, self.in_class = self.in_class, False
        self.generic_visit(node)
        self.in_class = outer
        self.scope.pop()
        self.prefix.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node):
        self.calls.append((node, tuple(self.scope)))
        self.generic_visit(node)


def unset_options() -> set[str]:
    """``module.function(param)`` for each defaulted parameter of src/cqms that no caller sets
    to a value other than its default."""
    defs: dict[str, tuple] = {}
    calls: list[tuple] = []
    package: set[str] = set()
    callers = [*PACKAGE.glob("*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    for path in callers:
        census = _Census(path.stem if path.parent == PACKAGE else f"{path.parent.name}/{path.stem}")
        census.visit(ast.parse(path.read_text(encoding="utf-8")))
        defs.update(census.defs)
        calls += census.calls
        if path.parent == PACKAGE:
            package.update(census.defs)
    constants = _constants()
    by_name: dict[str, list[str]] = {}
    for key, (name, *_) in defs.items():
        by_name.setdefault(name, []).append(key)

    set_params: set[tuple] = set()
    passes: list[tuple] = []        # (parameter, enclosing defaulted parameter it passes on)
    for call, scope in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        for key in by_name.get(name, []):
            _, called, _, defaults = defs[key]
            given = [*zip(called, call.args), *((k.arg, k.value) for k in call.keywords)]
            for param, value in given:
                if param not in defaults:
                    continue
                owner = next((o for o in reversed(scope) if isinstance(value, ast.Name)
                              and value.id == param and param in defs[o][2]), None)
                if owner is not None and param in defs[owner][3]:
                    passes.append(((key, param), (owner, param)))
                elif not _same(value, defaults[param], constants):
                    set_params.add((key, param))
    grown = True
    while grown:
        grown = False
        for target, source in passes:
            if source in set_params and target not in set_params:
                set_params.add(target)
                grown = True
    return {f"{key}({param})" for key in package for param in defs[key][3]
            if (key, param) not in set_params}


def test_every_option_is_set_outside_the_tests():
    assert unset_options() == TEST_ONLY_OPTIONS | DEFAULT_ONLY_OPTIONS


def test_no_private_definition_takes_a_side():
    # a left coaction of A is a right coaction of A^cop: private code is written for one
    # side, and each public entry picks A or hopf._co_opposite(A) once
    sided = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
                args = node.args
                if "side" in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                    sided.append(f"{path.stem}.{node.name}")
    assert sided == []


# The sampled diagnostics, the sampled invariance gate that ``truncation_bound`` falls
# back to, and one fixed seed: the multiplicative unitary's sampled implementation witness.
SAMPLED = {"compress.liftable_states", "compress.isometry_witness_residual",
           "lipnorm.check_invariance", "mkdist.truncation_bound", "mkdist.diameter_bracket",
           "mkdist.matrix_mk_lower_bound", "cli._bound_row", "cli._hausdorff_lower",
           "corep._implementation_residual"}


def seeded_definitions() -> set[str]:
    """``module.def`` for each def of src/cqms that takes ``seed`` or ``rng`` or calls ``default_rng``."""
    found: set[str] = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                draws = any(isinstance(n, ast.Call) and "default_rng" in
                            (getattr(n.func, "attr", None), getattr(n.func, "id", None))
                            for n in ast.walk(child))
                if params & {"seed", "rng"} or draws:
                    found.add(".".join(prefix + [child.name]))
                visit(child, prefix + [child.name])

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


def test_only_sampled_diagnostics_take_a_seed():
    assert {name for name in seeded_definitions() if not name.startswith("sampling.")} == SAMPLED
