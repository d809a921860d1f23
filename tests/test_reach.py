"""Every public function, method and class in ``src/orthofit`` is named
somewhere in the program: ``src/``, ``demos/`` or ``perfbench/``.  Tests
do not count, so a helper that only tests reach fails here and belongs
in the tests.  A name counts as a ``Name``, an ``Attribute``, an import
alias, or a ``"module:Qual.name"`` string as the benchmark tracer
writes its targets.  The package ``__init__``'s ``from .x import Name``
lines re-export a name without using it, so they do not count.  Names
with a leading underscore, dunders among them, are exempt.

Likewise every optional parameter of a public function or method, or of
a class's ``__init__`` (a dataclass's generated one is not in the
source), is passed, by keyword or by position, by some call in ``src/``
or ``perfbench/``: a default that only tests and demos override is an
option nothing uses."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "orthofit" / "__init__.py"
TARGET = re.compile(r"[\w.]+:[\w.]+")


def _defined(tree):
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")}


def _named(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name.rpartition(".")[2], node.asname))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and TARGET.fullmatch(node.value)):
            names.update(node.value.partition(":")[2].split("."))
    return names


def _without_reexports(tree):
    """``tree`` without its relative ``from .x import Name`` statements."""
    tree.body = [node for node in tree.body
                 if not (isinstance(node, ast.ImportFrom) and node.level)]
    return tree


def _optional(fn, bound):
    """(name, position) of each parameter of ``fn`` with a default; a
    keyword-only one has position None.  With ``bound`` the first
    parameter (self) is not passed, so positions start after it."""
    pos = (fn.args.posonlyargs + fn.args.args)[bound:]
    first = len(pos) - len(fn.args.defaults)
    return [(a.arg, i) for i, a in enumerate(pos) if i >= first] + [
        (a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if d is not None]


def _signatures(tree):
    """(called name, qualified name, optional parameters) of each public
    module-level function, each public method, and each ``__init__``,
    which is called by the class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, _optional(node, False)
        if not isinstance(node, ast.ClassDef):
            continue
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            bound = not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                            for d in fn.decorator_list)
            qual = f"{node.name}.{fn.name}"
            if fn.name == "__init__":
                yield node.name, qual, _optional(fn, bound)
            elif not fn.name.startswith("_"):
                yield fn.name, qual, _optional(fn, bound)


def _passes(call, name, position):
    """Whether ``call`` passes the parameter; a ``*`` or ``**`` argument
    may pass any."""
    return (any(k.arg in (None, name) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or position is not None and len(call.args) > position)


def _unset(defining, calling):
    """Optional parameters of the ``defining`` trees that no call in the
    ``calling`` trees passes, as "qualified.name(parameter)"; a call
    counts by the called name alone, whatever its receiver."""
    calls = {}
    for node in (n for tree in calling for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            f = node.func
            called = getattr(f, "id", None) or getattr(f, "attr", None)
            calls.setdefault(called, []).append(node)
    return sorted(
        f"{qual}({name})" for tree in defining
        for called, qual, params in _signatures(tree)
        for name, position in params
        if not any(_passes(c, name, position) for c in calls.get(called, [])))


def _parse(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_public_definition_is_reached():
    paths = [p for d in ("src", "demos", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    program = [_without_reexports(tree) if path == INIT else tree
               for path, tree in zip(paths, _parse(paths))]
    defined = set().union(*map(_defined, _parse(
        sorted((ROOT / "src" / "orthofit").glob("*.py")))))
    unreached = sorted(defined - set().union(*map(_named, program)))
    assert not unreached, unreached


def test_reach_counts_each_kind_of_reference():
    tree = ast.parse(
        "from m import imported as alias\n"
        "class Kept:\n"
        "    def method(self): pass\n"
        "    def unused(self): pass\n"
        "    def __len__(self): return 0\n"
        "def _private(): pass\n"
        "def traced(): pass\n"
        "def called(): pass\n"
        "def orphan(): pass\n"
        "Kept().method(); called()\n"
        "HOOK = 'm.n:Kept.traced'\n")
    assert _defined(tree) == {"Kept", "method", "unused", "traced",
                              "called", "orphan"}
    assert _defined(tree) - _named(tree) == {"unused", "orphan"}
    assert {"imported", "alias"} <= _named(tree)


def test_a_package_reexport_alone_does_not_reach():
    init = ast.parse("from .fit import exported, used\n"
                     "__all__ = [n for n in dir() if not n.startswith('_')]\n")
    module = ast.parse("def exported(): pass\ndef used(): pass\n")
    user = ast.parse("import orthofit\northofit.used()\n")
    assert "exported" in _named(init)
    assert _defined(module) - _named(_without_reexports(init)) - _named(
        user) == {"exported"}


def test_every_optional_parameter_is_passed():
    program = _parse(p for d in ("src", "perfbench")
                     for p in sorted((ROOT / d).rglob("*.py")))
    unset = _unset(_parse(sorted((ROOT / "src" / "orthofit").glob("*.py"))),
                   program)
    assert not unset, unset


def test_parameter_check_counts_each_kind_of_argument():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    field: int = 1\n"
        "class Builder:\n"
        "    def __init__(self, n, size=2, *, kind=None): pass\n"
        "    def add(self, v, tag=None, check=True): pass\n"
        "    def _hidden(self, flag=False): pass\n"
        "    @staticmethod\n"
        "    def make(v, scale=1.0): pass\n"
        "def run(x, depth=3, **extra): pass\n"
        "def spread(a, b=0): pass\n"
        "def _private(x=0): pass\n"
        "Builder(5, 7).add(1, check=False)\n"
        "Builder.make(2)\n"
        "run(1, **opts)\n"
        "spread(*pair)\n")
    assert _unset([tree], [tree]) == [
        "Builder.__init__(kind)", "Builder.add(tag)", "Builder.make(scale)"]


def test_the_raw_basis_has_one_home():
    # only basis.py runs the raw-column recursion, and the fit takes just
    # the block generator and the block starts from it: it knows the flat
    # order and nothing of how the columns are made
    callers, fit_imports = set(), set()
    for path in sorted((ROOT / "src" / "orthofit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            f = getattr(node, "func", None)
            if isinstance(node, ast.Call) and {"basis_step", "_table"} & {
                    getattr(f, "id", None), getattr(f, "attr", None)}:
                callers.add(path.name)
            if path.name == "fit.py" and isinstance(node, ast.ImportFrom):
                if node.module == "basis":
                    fit_imports.update(a.name for a in node.names)
                elif any(a.name == "basis" for a in node.names):
                    fit_imports.add("basis")  # the whole module
    assert callers == {"basis.py"}
    assert fit_imports == {"_BlockGen", "block_start"}


def test_the_grid_kernel_is_chunked_in_one_module():
    # how many points go to one GridKernel is decided in model.py alone:
    # only it builds the kernel, and cli.py takes the chunks from it
    # without naming the kernel, its sizing or the block cap
    callers = set()
    for path in sorted((ROOT / "src" / "orthofit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            f = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "GridKernel" in (
                    getattr(f, "id", None), getattr(f, "attr", None)):
                callers.add(path.name)
    assert callers == {"model.py"}
    cli = ast.parse((ROOT / "src" / "orthofit" / "cli.py").read_text())
    assert not {"BLOCK_ELEMS", "GridKernel", "_block_rows"} & _named(cli)


def test_the_training_residual_is_chunked_in_one_module():
    # how many columns one subtraction stacks is decided in ortho.py alone:
    # fit.py never names the block cap, each core has one grouped
    # subtraction, with no single-column path beside it, and the builder
    # hands every length to it
    fit = ast.parse((ROOT / "src" / "orthofit" / "fit.py").read_text())
    assert "BLOCK_ELEMS" not in _named(fit)
    ortho = ast.parse((ROOT / "src" / "orthofit" / "ortho.py").read_text())
    methods = {node.name: {f.name: f for f in node.body
                           if isinstance(f, ast.FunctionDef)}
               for node in ortho.body if isinstance(node, ast.ClassDef)}
    for core in ("_DoubleCore", "_ExtendedCore"):
        assert "subtract_scaled_columns" in methods[core]
        assert "subtract_scaled_column" not in methods[core]
    grouped = methods["OrthoBuilder"]["subtract_scaled_columns"]
    assert "len" not in _calls(grouped)


def test_the_closed_form_is_one_expression():
    # regularized_coefficient evaluates b_t the same way at every lam, with
    # no branch on it and no second formula
    fit = ast.parse((ROOT / "src" / "orthofit" / "fit.py").read_text())
    fn, = (node for node in fit.body if isinstance(node, ast.FunctionDef)
           and node.name == "regularized_coefficient")
    nodes = list(ast.walk(fn))
    assert not any(isinstance(n, (ast.If, ast.IfExp)) for n in nodes)
    assert sum(isinstance(n, ast.Return) for n in nodes) == 1


def _calls(fn):
    """Names that the function node ``fn`` calls."""
    return {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            for n in ast.walk(fn) if isinstance(n, ast.Call)}


def test_the_monomial_tables_share_no_code_with_the_fit():
    # basis_values, dd_basis_values and basis_dy, with every basis.py
    # function they reach, call neither the raw recursion nor its table
    tree = ast.parse((ROOT / "src" / "orthofit" / "basis.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    reached, todo = set(), ["basis_values", "dd_basis_values", "basis_dy"]
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += _calls(defs[name])
    assert {"basis_values", "dd_basis_values", "basis_dy"} < reached
    assert not {"basis_step", "_table"} & set().union(
        *(_calls(defs[name]) for name in reached))


def test_double_double_powers_have_one_home():
    homes = {path.name
             for path in sorted((ROOT / "src" / "orthofit").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)
             and node.name == "_dd_powers"}
    assert homes == {"ddarith.py"}


def test_model_files_are_evaluated_by_one_kernel():
    # every evaluation of a model file goes through ``model._grid_sum``,
    # and nothing in the program scores points from a monomial table: the
    # held-out errors and ``eval_ortho`` read the raw columns
    # (``raw_values``), and the monomial tables ``basis_values``,
    # ``dd_basis_values`` and ``basis_dy`` are named by no module but
    # basis.py, which defines them for the benchmark tracer and the tests
    naming, raw = set(), set()
    monomial = {"basis_values", "dd_basis_values", "basis_dy", "_sum_terms",
                "_monomials"}
    for path in sorted((ROOT / "src" / "orthofit").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _named(_without_reexports(tree) if path == INIT else tree)
        if path.name != "basis.py" and monomial & names:
            naming.add(path.name)
        for node in ast.walk(tree):
            f = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "raw_values" in (
                    getattr(f, "id", None), getattr(f, "attr", None)):
                raw.add(path.name)
    assert not naming
    assert raw == {"model.py", "select.py"}
