"""The package needs nothing at run time beyond the standard library."""

import ast
import re
import sys
from pathlib import Path

import ergolab as E

PACKAGE = Path(E.__file__).resolve().parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"


def imported_roots(path):
    """The top-level module of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    roots = {(path.name, root) for path in sources for root in imported_roots(path)}
    assert roots  # the walk does see imports
    outside = {(name, root) for name, root in roots
               if root not in sys.stdlib_module_names and root != "ergolab"}
    assert not outside


def unused_imports(path):
    """Names ``path`` imports but never reads, ``from __future__`` aside.

    A name counts as read when it appears as an expression name, or inside
    a string annotation.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in annotations:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read.update(node.id for node in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(node, ast.Name))
    return imported - read


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports in order to re-export
    sources = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    assert len(sources) > 5
    unused = {path.name: sorted(names) for path in sources if (names := unused_imports(path))}
    assert not unused


def test_the_unused_import_guard_sees_an_unused_name(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\nimport os.path\n"
                      "from fractions import Fraction as F\nfrom typing import Optional\n"
                      "def f(x: 'Optional[int]'):\n    return os\n", encoding="utf-8")
    assert unused_imports(module) == {"F"}


def test_pyproject_declares_no_runtime_dependencies():
    # a line scan of the [project] table: tomllib is not in Python 3.10
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]
