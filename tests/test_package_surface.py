"""Every public definition of the package has a reader outside the tests.

A public top-level function or class of ``src/kakeyalab`` (``__init__.py``
aside) stays in the package only when some package module other than
``__init__.py`` uses it by name or attribute, a ``perfbench`` script uses
it, or the README names it in backticks.  Its own ``def`` does not count;
a call from its own body does.
Test fixtures, writers and checks that only the tests call live in the
tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kakeyalab"


def _used_names(path: Path) -> set:
    """Names that the ``Name`` and ``Attribute`` nodes of a file read; a
    ``def`` or ``class`` statement binds its name without such a node."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _public_defs(path: Path) -> list:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_definition_has_a_reader():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    spans = re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text())
    read = set().union(*map(_used_names, modules),
                       *map(_used_names, (ROOT / "perfbench").glob("*.py")),
                       re.findall(r"\w+", " ".join(spans)))
    unread = [f"{mod.stem}.{name}" for mod in modules for name in _public_defs(mod)
              if name not in read]
    assert not unread, (f"{len(unread)} public definitions that only the "
                        f"tests read: {', '.join(unread)}")
