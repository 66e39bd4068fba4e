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


def test_pyproject_declares_no_runtime_dependencies():
    # a line scan of the [project] table: tomllib is not in Python 3.10
    text = PYPROJECT.read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r"^dependencies\s*=.*$", project, re.M) == ["dependencies = []"]
