"""Every public definition of the package has a reader outside the tests.

A public top-level function or class of ``src/kakeyalab`` (``__init__.py``
aside), and a public method or property of such a class, stays in the
package only when some package module other than ``__init__.py`` uses it
by name or attribute, a ``perfbench`` script uses it, or the README names
it in backticks.  Neither its own ``def`` nor a call from its own body
counts.
Test fixtures, writers and checks that only the tests call live in the
tests, and each test file imports only what it uses.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kakeyalab"
DEFS = (ast.FunctionDef, ast.ClassDef)


def _reads(node: ast.AST) -> Counter:
    """How often the ``Name`` and ``Attribute`` nodes under a node read each
    name; a ``def`` or ``class`` statement binds its name without such a
    node."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def test_every_public_definition_has_a_reader():
    trees = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    spans = re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text())
    outside = set().union(*(_reads(_parse(p)) for p in (ROOT / "perfbench").glob("*.py")),
                          re.findall(r"\w+", " ".join(spans)))
    reads = sum(map(_reads, trees.values()), Counter())
    defs = [(f"{mod}.{node.name}", node) for mod, tree in trees.items()
            for node in tree.body if isinstance(node, DEFS) and not node.name.startswith("_")]
    defs += [(f"{owner}.{node.name}", node) for owner, cls in defs
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    # read when some read of its name lies outside its own definition
    unread = [name for name, node in defs if node.name not in outside
              and reads[node.name] == _reads(node)[node.name]]
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
