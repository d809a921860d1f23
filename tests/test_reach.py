"""Every public function, method and class in ``src/orthofit`` is named
somewhere in the program: ``src/``, ``demos/`` or ``perfbench/``.  Tests
do not count, so a helper that only tests reach fails here and belongs
in the tests.  A name counts as a ``Name``, an ``Attribute``, an import
alias, or a ``"module:Qual.name"`` string as the benchmark tracer
writes its targets.  Names with a leading underscore, dunders among
them, are exempt."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def _parse(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def test_every_public_definition_is_reached():
    program = _parse(p for d in ("src", "demos", "perfbench")
                     for p in sorted((ROOT / d).rglob("*.py")))
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
