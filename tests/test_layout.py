"""The module layout: the table engine, the registration and the
measurement readers cannot reach the scorer, no module is compiled as one
large unit, only the registration reader imports PyYAML, no class is
built by ``dataclasses``, and no module calls LAPACK or a BLAS product."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hlaskit"

# Without a bytecode cache (PYTHONDONTWRITEBYTECODE=1, or a fresh checkout
# on a read-only path) CPython compiles each module from source, and the
# compiler's peak stays in the process's maxrss.  In a fresh Python 3.11
# process on a 2-vCPU Xeon, ``compile`` of one module's source raised
# maxrss by 1.38 MiB for ``tables`` (496 lines, the most), 1.12-1.25 for
# ``config_io`` (486), 1.00 for ``cli`` (323), 0.88 for ``commands`` (317)
# and 0.50 for ``readers`` (166); a 601-line module raised it by 2.00 MiB.
MAX_LINES = 500


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _package_imports(tree: ast.Module) -> set[str]:
    """The ``hlaskit`` modules that ``tree`` imports from."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module
                         else (a.name for a in node.names))
    return {name for name in names if (PACKAGE / f"{name}.py").is_file()}


def _reached(name: str) -> set[str]:
    """The modules that ``name`` imports, and those they import, in turn."""
    reached, todo = set(), [name]
    while todo:
        for module in _package_imports(_tree(todo.pop())) - reached:
            reached.add(module)
            todo.append(module)
    return reached


@pytest.mark.parametrize("module, scorer", [
    ("tables", {"scoring", "envelope", "bands", "signals", "atlas"}),
    ("prereg", {"scoring", "envelope"}),
    ("readers", {"scoring", "config_io"}),
])
def test_module_cannot_reach_the_scorer(module, scorer):
    assert _reached(module) & scorer == set()


def test_no_module_is_over_the_line_limit():
    lines = {path.name: len(path.read_text().splitlines())
             for path in PACKAGE.glob("*.py")}
    assert {name: n for name, n in lines.items() if n > MAX_LINES} == {}


@pytest.mark.parametrize("path", sorted(
    path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
def test_every_imported_name_is_used(path):
    """Each name is imported from the module that defines it: no module
    binds a name only to pass it on."""
    tree = _tree(path.removesuffix(".py"))
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert bound - used == set()


def _yaml_imports(tree: ast.Module) -> list[str]:
    """The function around each import of ``yaml`` in ``tree``, by name;
    ``""`` for one that runs at import time (module level, or in a class
    body there)."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            names = ([alias.name for alias in child.names]
                     if isinstance(child, ast.Import) else
                     [child.module or ""]
                     if isinstance(child, ast.ImportFrom) and not child.level
                     else [])
            if any(name.split(".")[0] == "yaml" for name in names):
                found.append(function)
            visit(child, function)

    visit(tree, "")
    return found


def test_only_the_registration_reader_imports_yaml():
    """PyYAML is loaded by the first registration parse, not by importing
    any module, so the commands that read no registration never load it."""
    imports = {path.stem: _yaml_imports(_tree(path.stem))
               for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in imports.items() if found} == \
        {"prereg": ["_yaml_reader"]}


def _decorator_name(node: ast.expr) -> str:
    """``dataclass`` for ``@dataclass``, ``@dataclass(...)`` and
    ``@dataclasses.dataclass``."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", ""))


def test_no_module_applies_dataclass():
    """``dataclasses`` compiles each decorated class's methods with ``exec``
    when the module is imported, which was most of the time and memory of
    ``import hlaskit.cli``; ``record.record`` builds the records instead."""
    applied = {path.stem: [node.name for node in ast.walk(_tree(path.stem))
                           if isinstance(node, ast.ClassDef)
                           and any(_decorator_name(d) == "dataclass"
                                   for d in node.decorator_list)]
               for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in applied.items() if found} == {}


def _dataclasses_imports(tree: ast.Module) -> list[str]:
    """The names that ``tree`` imports from ``dataclasses`` (the module's
    own name for ``import dataclasses``)."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and node.module.split(".")[0] == "dataclasses":
            names += [alias.name for alias in node.names]
    return names


def test_only_record_imports_from_dataclasses():
    """``record`` takes ``FrozenInstanceError`` from ``dataclasses``, the
    error a frozen record raises; no other module imports it."""
    imports = {path.stem: _dataclasses_imports(_tree(path.stem))
               for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in imports.items() if found} == \
        {"record": ["FrozenInstanceError"]}


def test_tables_opens_a_file_for_reading_in_one_place():
    """``read_header`` and ``_read_columns`` share one open, hash and
    full-read fallback (``tables._parsed``), so no reader can bind or
    record a digest by a second copy of it."""
    reads = [node.lineno for node in ast.walk(_tree("tables"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "open" and any(
                 isinstance(arg, ast.Constant) and arg.value == "rb"
                 for arg in node.args[1:2])]
    assert len(reads) == 1, reads


# numpy's LAPACK and BLAS entry points: their sums and fused multiply-adds
# follow the CPU kernel, so their results differ between machines
BLAS_NAMES = {"linalg", "polyfit", "dot", "vdot", "einsum", "matmul"}


def _names_blas(node: ast.AST) -> bool:
    """Whether ``node`` names a ``BLAS_NAMES`` attribute (such as
    ``np.linalg.lstsq`` or ``x.dot``), imports one or ``numpy.linalg``, or
    applies ``@`` or ``@=``."""
    if isinstance(node, ast.Attribute):
        return node.attr in BLAS_NAMES
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.linalg")
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom) and not node.level:
        return node.module.startswith("numpy.linalg") or (
            node.module == "numpy"
            and any(alias.name in BLAS_NAMES for alias in node.names))
    return False


def _blas_uses(tree: ast.Module) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if _names_blas(node)]


def test_no_module_calls_lapack_or_blas():
    """Least squares go through ``lsq``'s QR of element-wise products and
    pairwise sums, the same bits on every machine; the first LAPACK call
    of a process also added about 1.2 MiB to its peak memory."""
    uses = {path.stem: _blas_uses(_tree(path.stem))
            for path in PACKAGE.glob("*.py")}
    assert {name: lines for name, lines in uses.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "np.linalg.lstsq(x, y)", "np.polyfit(t, y, 1)", "x.dot(y)",
    "np.einsum('i,i', x, y)", "x @ y", "x @= y",
    "from numpy.linalg import svd", "import numpy.linalg",
    "from numpy import dot"])
def test_the_blas_rule_sees(source):
    assert _blas_uses(ast.parse(source)) == [1]
