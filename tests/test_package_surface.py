"""Every public definition of the package has a reader outside the tests.

A public top-level function or class of ``src/kakeyalab`` (``__init__.py``
aside) stays in the package only when some package module other than
``__init__.py`` uses it by name or attribute, a ``perfbench`` script uses
it, or the README names it in backticks.  Neither its own ``def`` nor a
call from its own body counts.
Test fixtures, writers and checks that only the tests call live in the
tests, and each test file imports only what it uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kakeyalab"
DEFS = (ast.FunctionDef, ast.ClassDef)


def _used_names(node: ast.AST) -> set:
    """Names that the ``Name`` and ``Attribute`` nodes under a node read; a
    ``def`` or ``class`` statement binds its name without such a node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def test_every_public_definition_has_a_reader():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    spans = re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text())
    outside = set().union(*(_used_names(_parse(p))
                            for p in (ROOT / "perfbench").glob("*.py")),
                          re.findall(r"\w+", " ".join(spans)))
    # (module, name it defines or None, names it reads) per top-level statement
    statements = [(mod, node.name if isinstance(node, DEFS) else None, _used_names(node))
                  for mod in modules for node in _parse(mod).body]
    unread = [f"{mod.stem}.{name}" for mod, name, _ in statements
              if name and not name.startswith("_") and name not in outside
              and not any(name in reads for other, by, reads in statements
                          if (other, by) != (mod, name))]
    assert not unread, (f"{len(unread)} public definitions that only the "
                        f"tests read: {', '.join(unread)}")


def test_tests_import_only_what_they_use():
    unused = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert not unused, f"unused imports: {', '.join(unused)}"
