"""The README names only what the package holds.

Every backticked dotted ``module.name`` of README.md, with ``module`` a
module of ``src/kakeyalab``, is an attribute of ``kakeyalab.<module>``;
and every row of the README's limits table that names a module constant
prints that constant's value, as a decimal (with or without thousands
commas) or as a power such as ``2^20``.
"""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {p.stem for p in (ROOT / "src" / "kakeyalab").glob("*.py")} - {"__init__"}
# ``module.name``, not a file such as ``tests/golden/cli.json``
DOTTED = re.compile(r"(?<![\w./])(\w+)\.(\w+)")


def _printed(value: int) -> list:
    """The ways the README may print a positive integer."""
    return [str(value), f"{value:,}"] + [f"{b}^{e}" for b in range(2, 11)
                                         for e in range(2, 64) if b ** e == value]


def test_readme_names_and_limits_match_the_package():
    text = (ROOT / "README.md").read_text()
    named = [(m, name) for span in re.findall(r"`([^`]+)`", text)
             for m, name in DOTTED.findall(span) if m in MODULES]
    unresolved = [f"{m}.{name}" for m, name in named
                  if not hasattr(importlib.import_module(f"kakeyalab.{m}"), name)]

    limits = text.split("\n## Limits\n")[1].split("\n## ")[0]
    constants, misprinted = 0, []
    for row in (line for line in limits.splitlines() if line.startswith("|")):
        for m, name in DOTTED.findall(row):
            if m not in MODULES or not re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name):
                continue
            constants += 1
            value = getattr(importlib.import_module(f"kakeyalab.{m}"), name)
            if not any(re.search(rf"(?<![\w.,^]){re.escape(form)}(?![\w,^])", row)
                       for form in _printed(value)):
                misprinted.append(f"{m}.{name} = {value}")

    assert named and constants, "the module and limits tables name nothing"
    assert not unresolved, f"README names that the package lacks: {', '.join(unresolved)}"
    assert not misprinted, f"limits rows without their constant's value: {', '.join(misprinted)}"
