"""No module of the package imports a name it never reads.

The check of the F401 rule of pyflakes, which is not a dependency of the
project: every name an import binds in ``src/hoinfo/*.py`` must be read
somewhere in its module, or be listed in ``__all__``, unless the line of
the name carries ``noqa: F401`` (a binding kept for a program that
rebinds it, such as ``perfbench/traced.py``). Names are matched module
wide, not per scope, so the check can miss an unread import whose name is
read elsewhere, but never reports a read one.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hoinfo"


def unread_imports(source: str) -> list[str]:
    """``"line: name"`` of every imported name that ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)):
            read.update(elt.value for elt in node.value.elts)
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and "noqa: F401" not in lines[alias.lineno - 1]:
                unread.append(f"{alias.lineno}: {name}")
    return unread


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .distribution import (\n"
        "    entropy,\n"
        "    marginalize,  # noqa: F401 - kept for a caller\n"
        "    leave_one_out as loo,\n"
        ")\n"
        "__all__ = ['loo']\n"
        "def f(x: entropy):\n"
        "    return x\n"
    )
    assert unread_imports(source) == ["2: os"]
