"""Import-direction pins over the ``repro`` source tree.

The kernel store (:mod:`repro.kcache`) sits on top of the build chain: it
calls down into tile, opt and sim, and nothing below may reach back up into
it, or the layers could not be tested, reasoned about or replaced apart.
Imports under ``if TYPE_CHECKING:`` run only for type checkers and are
exempt (``context.py`` names ``KernelStore`` that way).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.context

PACKAGE = Path(repro.context.__file__).parent


def runtime_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of every import that runs when the module does.

    ``from a import b`` yields ``a.b`` as well as ``a``, so importing a
    subpackage by name (``from repro import kcache``) is caught too.
    """
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
        for statement in node.body
        for inner in ast.walk(statement)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append((node.lineno, node.module))
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names]
    return found


def test_only_kcache_imports_kcache_at_run_time():
    offenders = [
        f"{path.relative_to(PACKAGE).as_posix()}:{line}: {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).parts[0] != "kcache"
        for line, module in runtime_imports(ast.parse(path.read_text(encoding="utf-8")))
        if module == "repro.kcache" or module.startswith("repro.kcache.")
    ]
    assert offenders == []


def test_type_checking_imports_are_exempt_and_function_imports_are_not():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.kcache.store import KernelStore\n"
        "def build():\n"
        "    from repro import kcache\n"
    )
    modules = [module for _, module in runtime_imports(tree)]
    assert "repro.kcache.store" not in modules
    assert "repro.kcache" in modules
