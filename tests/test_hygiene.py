"""Every name imported under ``src/`` is read somewhere in its module,
and every private module-level function or class is read somewhere in
``src/``.

The import scan parses each module and compares the names its imports
bind with the names it reads, string annotations included.  A name
listed in the module's ``__all__`` counts as read, because it is
re-exported; a package ``__init__.py`` without ``__all__`` re-exports
every name it imports.  ``from __future__`` imports bind nothing and are
skipped.

The private-definition scan collects the underscore-named functions and
classes defined at module level and the names read anywhere under
``src/``: loaded names, attribute names and imported names.  A private
definition that nothing reads is a leftover, such as the old body of a
fast path that only the test oracles still need.

The definition scan widens that to every function and method defined
under ``src/``, at any depth: each must be read, as a name or an
attribute, somewhere in ``src/``, ``tests/`` or ``perfbench/`` (the
frozen reference copy under ``perfbench/reference/`` excepted), or be
listed in an ``__all__``.  Dunder methods are exempt, since Python
calls them.  A public method that nothing reads is dead weight kept in
step with the code around it.

The key scan lists the module-level functions and methods under
``src/`` that read the attribute ``make`` or ``key``.  The library keys
tables, rows and measures by configuration index; the key form
``(values, tail)`` is read only where input tables come in
(``SingletonFamily``'s constructor and ``from_function``, which fills
its tables; ``normalize`` writes flat tables by index) and where
reports sort points by it, and ``Space.make`` only by
``Space.configuration``.

The `Fraction` scan lists, in the same way, the functions and methods
that name ``Fraction``, in an annotation or in code.  Past the input
boundary (parsing and the public constructors) and before the output
boundary (the public readers and report text) every value is a reduced
integer pair, so each of them must be on ``FRACTION_BOUNDARY``, with the
reason it stands there; a new one is a `Fraction` twin of a pair
primitive.  No module under ``src/`` may define an ``ExtendedRational``,
nor any of the other names the pair primitives replaced: an infinite
value is the pair (1, 0), and the extended arithmetic lives on only in
``tests/oracles.py``.

The configuration scans do the same for points.  Private code passes
configuration indices and class bases, and builds a `Configuration`
only for the text of a witness or an error, so every underscore-named
function or method under ``src/`` with a parameter annotated
``Configuration`` must be on ``CONFIGURATION_WRITERS``.  No module under
``src/`` may define any of the five walkers the index replaced
(``REMOVED_WALKERS``); ``tests/oracles.py`` keeps its own ``overlay``,
``with_sites`` and exterior-class scan.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))
READERS = MODULES + sorted(ROOT.joinpath("tests").rglob("*.py")) + sorted(
    path for path in ROOT.joinpath("perfbench").rglob("*.py")
    if not path.is_relative_to(ROOT / "perfbench" / "reference"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def annotation_names(node: ast.AST) -> set[str]:
    """Names an annotation reads, looking inside string annotations too."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    names |= annotation_names(arg.annotation)
            if node.returns is not None:
                names |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            names |= annotation_names(node.annotation)
    return names


def exported_names(tree: ast.Module) -> set[str] | None:
    """Strings in the module's ``__all__``, or None if it declares none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return None


def unused_imports(path: Path, root: Path = SRC) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = imported_names(tree)
    exported = exported_names(tree)
    if exported is None:
        if path.name == "__init__.py":
            return []
        exported = set()
    used = read_names(tree) | exported
    return [f"{path.relative_to(root)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Underscore-named module-level functions and classes, with line numbers."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def names_read_anywhere(trees) -> set[str]:
    """Names, attributes and imported names read by any of the modules."""
    names = set()
    for tree in trees:
        names |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return names


def unread_private_definitions(paths, root: Path = SRC) -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    read = names_read_anywhere(trees.values())
    return [f"{path.relative_to(root)}:{line}: {name}"
            for path, tree in trees.items()
            for name, line in private_definitions(tree).items()
            if name not in read]


def test_the_scan_sees_every_module():
    names = {str(p.relative_to(SRC)) for p in MODULES}
    assert {"specforge/__init__.py", "specforge/core.py",
            "specforge/cli/main.py"} <= names


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_imported_name_is_read(path):
    assert unused_imports(path) == []


def test_the_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Mapping, Sequence\n"
        "from fractions import Fraction\n"
        "__all__ = ['Fraction']\n"
        "def f(x: 'Sequence[int]') -> int:\n"
        "    return len(x)\n"
    )
    assert unused_imports(module, tmp_path) == [
        "module.py:2: os", "module.py:3: Mapping"]


def test_every_private_definition_is_read():
    assert unread_private_definitions(MODULES) == []


def test_the_scan_flags_an_unread_private_definition(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _leftover(x):\n"
        "    return x\n"
        "def _helper(x):\n"
        "    return x\n"
        "class _Shared:\n"
        "    def _method(self):\n"
        "        return 1\n"
        "def __getattr__(name):\n"
        "    return name\n"
        "def public(x):\n"
        "    return _helper(x)\n"
    )
    (tmp_path / "b.py").write_text(
        "from a import _Shared\n"
        "class _Unused:\n"
        "    pass\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert unread_private_definitions(paths, tmp_path) == [
        "a.py:1: _leftover", "b.py:2: _Unused"]


def defined_functions(tree: ast.Module) -> list[tuple[int, str]]:
    """Functions and methods defined anywhere in the module, dunders excepted."""
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def unread_definitions(paths, readers, root: Path = SRC) -> list[str]:
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    trees = {path: parse(path) for path in paths}
    read = names_read_anywhere(parse(path) for path in readers)
    for tree in trees.values():
        read |= exported_names(tree) or set()
    return [f"{path.relative_to(root)}:{line}: {name}"
            for path, tree in trees.items()
            for line, name in defined_functions(tree)
            if name not in read]


def test_the_definition_scan_reads_tests_and_perfbench():
    names = {str(p.relative_to(ROOT)) for p in READERS}
    assert {"tests/oracles.py", "perfbench/run.py",
            "perfbench/tests/test_perfbench.py"} <= names
    assert not any(name.startswith("perfbench/reference/") for name in names)


def test_every_function_and_method_is_read():
    assert unread_definitions(MODULES, READERS) == []


def test_the_scan_flags_an_unread_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['exported']\n"
        "def exported():\n"
        "    def nested():\n"
        "        return 1\n"
        "    return nested()\n"
        "class Measure:\n"
        "    def __init__(self):\n"
        "        self.w = 1\n"
        "    def read_by_test(self):\n"
        "        return self.w\n"
        "    def leftover(self):\n"
        "        return self.w\n"
        "def unread():\n"
        "    def unread_nested():\n"
        "        return 2\n"
        "    return 3\n"
    )
    (tmp_path / "test_a.py").write_text(
        "from a import Measure\n"
        "Measure().read_by_test()\n"
    )
    assert unread_definitions([tmp_path / "a.py"], sorted(tmp_path.glob("*.py")),
                              tmp_path) == [
        "a.py:11: leftover", "a.py:13: unread", "a.py:14: unread_nested"]


def readers(paths, reads, root: Path = SRC) -> set[str]:
    """``module:function`` or ``module:Class.method`` of each module-level
    function and method holding, at any depth, a node for which
    ``reads(node)`` is true."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        scopes = []
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                           if isinstance(sub, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                scopes.append((node.name, node))
        module = path.relative_to(root).with_suffix("").as_posix()
        found |= {f"{module}:{name}" for name, scope in scopes
                  if any(reads(sub) for sub in ast.walk(scope))}
    return found


def attribute_readers(paths, attr: str, root: Path = SRC) -> set[str]:
    """The `readers` of the attribute ``attr``."""
    return readers(paths, lambda node: isinstance(node, ast.Attribute)
                   and node.attr == attr, root)


def test_the_key_form_is_read_only_at_the_input_and_report_boundaries():
    assert attribute_readers(MODULES, "make") == {"specforge/core:Space.configuration"}
    assert attribute_readers(MODULES, "key") == {
        "specforge/models:SingletonFamily.__init__",
        "specforge/models:SingletonFamily.from_function",
        "specforge/verifier:_axiom_record",
        "specforge/cli/main:measure_perturbation_suite",
    }


def test_the_scan_finds_nested_attribute_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def outer(cfg):\n"
        "    return sorted([cfg], key=lambda c: c.key)\n"
        "class Space:\n"
        "    def at(self, i):\n"
        "        return i\n"
        "    def fill(self, cfg):\n"
        "        def inner():\n"
        "            return cfg.key\n"
        "        return inner\n"
    )
    assert attribute_readers([tmp_path / "a.py"], "key", tmp_path) == {
        "a:outer", "a:Space.fill"}


def names_fraction(node: ast.AST) -> bool:
    """Whether ``node`` names ``Fraction``, as a name or an attribute, in
    code or in an annotation (string annotations included)."""
    if isinstance(node, ast.Name):
        return node.id == "Fraction"
    if isinstance(node, ast.Attribute):
        return node.attr == "Fraction"
    if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
        return "Fraction" in annotation_names(node.annotation)
    if isinstance(node, ast.FunctionDef) and node.returns is not None:
        return "Fraction" in annotation_names(node.returns)
    return False


FRACTION_BOUNDARY = {
    "specforge/core:exact": "input: an exact int or Fraction as a Fraction, or refused",
    "specforge/core:parse_rational": "input: parses a rational literal",
    "specforge/core:FreeMeasure.__init__": "input: public constructor from exact weights",
    "specforge/core:FreeMeasure.uniform": "input: public constructor of the weights 1/q",
    "specforge/core:FreeMeasure.weight": "output: public reader of one free weight",
    "specforge/models:RawWeightModel.raw_value": "input: the raw-weight interface",
    "specforge/models:SingletonFamily.__init__": "input: public constructor from exact tables",
    "specforge/models:SingletonFamily.from_function": "input: public constructor "
                                                      "from a density function",
    "specforge/models:SingletonFamily.density": "output: public reader of one density",
    "specforge/models:TableModel.__init__": "input: public constructor from exact weights",
    "specforge/models:TableModel.raw_value": "input: one exact raw weight, for normalize",
    "specforge/models:TailRuleModel.__init__": "input: public constructor from exact rules",
    "specforge/models:TailRuleModel.raw_value": "input: one exact raw weight, for normalize",
    "specforge/models:PotentialModel.__init__": "input: public constructor; checks exact "
                                                "positive weights, then keeps their pairs",
    "specforge/models:PotentialModel.raw_value": "output: public reader of raw_pair",
    "specforge/models:extract_singletons": "input: public constructor from an exact joint",
    "specforge/models:rebalance_free": "input: public constructor from exact rescalers",
    "specforge/constructor:DensityFamily.density": "output: public reader of one density",
    "specforge/constructor:DensityFamily.table": "output: public reader of one table",
    "specforge/constructor:DensityFamily.replace_table": "input: public constructor of a "
                                                         "sibling from exact values",
    "specforge/constructor:assemble_kernel": "output: public reader of one kernel row",
    "specforge/hypotheses:two_point_identity": "output: public reader of both sides",
    "specforge/verifier:FiniteMeasure.__init__": "input: public constructor from exact weights",
    "specforge/verifier:exchange_identity": "output: integrates caller-given exact observables",
    "specforge/verifier:roundtrip_reconstruction": "input: takes an exact joint weight",
    "specforge/cli/modelfile:ModelFile.__init__": "input: the parsed model's exact fields",
    "specforge/cli/modelfile:ModelFile.realize": "input: the model's exact weights, "
                                                 "handed to the public constructors",
    "specforge/cli/modelfile:parse_model_text": "input: the model-file parser",
    "specforge/cli/report:_approx": "output: a report value's float rendering",
    "specforge/cli/report:_witness_lines": "output: the tolerance of _approx",
    "specforge/cli/report:render_text": "output: the tolerance of _approx",
}

REPLACED = ("ExtendedRational", "INF", "ArithmeticDomainError", "product_weight",
            "fill_offsets", "_memoised", "site_mass", "ratio_integral",
            "_checked_ratio_kernel")


def defined_names(paths, names, root: Path = SRC) -> list[str]:
    """``module:line: name`` of each class, function or assigned name
    among ``names`` defined anywhere in ``paths``."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [sub.id for target in targets for sub in ast.walk(target)
                           if isinstance(sub, ast.Name)]
            else:
                continue
            found += [f"{path.relative_to(root).as_posix()}:{node.lineno}: {name}"
                      for name in defined if name in names]
    return found


def test_fraction_is_named_only_at_the_boundary():
    assert all(reason for reason in FRACTION_BOUNDARY.values())
    assert readers(MODULES, names_fraction) == set(FRACTION_BOUNDARY)


def test_no_replaced_twin_is_defined():
    assert defined_names(MODULES, REPLACED) == []


def test_the_fraction_scans_flag_a_twin(tmp_path):
    (tmp_path / "a.py").write_text(
        "from fractions import Fraction\n"
        "def pairs(x):\n"
        "    return x.as_integer_ratio()\n"
        "def twin(x) -> 'Fraction':\n"
        "    return x\n"
        "class Measure:\n"
        "    def weight(self, w: Fraction):\n"
        "        return w\n"
        "    def total(self):\n"
        "        def add(a, b):\n"
        "            return fractions.Fraction(a) + b\n"
        "        return add\n"
        "class ExtendedRational:\n"
        "    pass\n"
        "INF = ExtendedRational()\n"
    )
    assert readers([tmp_path / "a.py"], names_fraction, tmp_path) == {
        "a:twin", "a:Measure.weight", "a:Measure.total"}
    assert defined_names([tmp_path / "a.py"], REPLACED, tmp_path) == [
        "a.py:13: ExtendedRational", "a.py:15: INF"]


CONFIGURATION_WRITERS = {"specforge/hypotheses.py:_replay_point": "a witness's replay dict",
                         "specforge/hypotheses.py:_kernel_failure": "an error's text"}

REMOVED_WALKERS = ("overlay", "with_sites", "exterior_classes", "free_integral", "class_index")


def private_configuration_takers(paths, root: Path = SRC) -> set[str]:
    """``module:name`` of each underscore-named function or method, at any
    depth, dunder methods aside, with a parameter annotated
    ``Configuration``, string annotations included."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or not node.name.startswith("_") or node.name.endswith("__")):
                continue
            args = node.args
            if any(arg is not None and arg.annotation is not None
                   and "Configuration" in annotation_names(arg.annotation)
                   for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                               args.vararg, args.kwarg)):
                found.add(f"{path.relative_to(root).as_posix()}:{node.name}")
    return found


def test_private_code_passes_indices_not_configurations():
    assert all(reason for reason in CONFIGURATION_WRITERS.values())
    assert private_configuration_takers(MODULES) == set(CONFIGURATION_WRITERS)


def test_no_removed_walker_is_defined():
    assert defined_names(MODULES, REMOVED_WALKERS) == []


def test_the_configuration_scans_flag_a_taker(tmp_path):
    (tmp_path / "a.py").write_text(
        "from specforge.core import Configuration\n"
        "def _row(dens, cfg: Configuration):\n"
        "    return cfg\n"
        "def _text(cfg: 'Configuration | None', index: int):\n"
        "    return index\n"
        "def public(cfg: Configuration):\n"
        "    def _inner(*, point: Configuration):\n"
        "        return point\n"
        "    return _inner\n"
        "class Space:\n"
        "    def overlay(self, cfg, region):\n"
        "        return cfg\n"
        "    def _walk(self, index: int):\n"
        "        return index\n"
        "    def __eq__(self, other: Configuration):\n"
        "        return False\n"
        "exterior_classes = None\n"
    )
    assert private_configuration_takers([tmp_path / "a.py"], tmp_path) == {
        "a.py:_row", "a.py:_text", "a.py:_inner"}
    assert sorted(defined_names([tmp_path / "a.py"], REMOVED_WALKERS, tmp_path)) == [
        "a.py:11: overlay", "a.py:17: exterior_classes"]
