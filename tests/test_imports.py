"""Every name a package module imports is read somewhere in that module.

No linter ships with the test extra, so this stdlib ``ast`` pass stands in for
an unused-import check.  A name counts as read when it appears as a loaded
name anywhere in the module, annotations included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "levy_multiscale"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(set(imported) - read)


@pytest.mark.parametrize("module", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_every_imported_name_is_read(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


def test_the_check_sees_an_unread_import():
    source = "from typing import Callable, Optional\nimport numpy as np\nf: Callable = np.sum\n"
    assert unused_imports(source) == ["Optional"]
