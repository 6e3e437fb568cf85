"""Exact cells of the acceptance configuration, pinned.

``tests/golden/cells.json`` holds ``far``, ``moment1[1]``, ``moment1[2]``,
``near_est`` and ``near_lb`` as ``"p/q"`` strings for ``ACCEPT_CFG``,
N = 2..5, trials 0..2.  A refactor or speed-up must reproduce every entry
exactly.  Regenerate only when a change is meant to alter the numbers:

    PYTHONPATH=src python tests/test_golden_cells.py
"""

import json
from fractions import Fraction
from pathlib import Path

from kakeyalab.harness import run_cell
from test_acceptance import ACCEPT_CFG

GOLDEN = Path(__file__).parent / "golden" / "cells.json"
TRIALS = range(3)


def cell_values(n: int, trial: int) -> dict[str, Fraction]:
    cell = run_cell(ACCEPT_CFG, n, trial)
    vals = {"far": cell.far}
    vals.update({f"moment1[{r}]": cell.moment1[r] for r in ACCEPT_CFG.r_values})
    vals.update(near_est=cell.near_est, near_lb=cell.near_lb)
    return vals


def test_run_cell_reproduces_golden_cells():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(ACCEPT_CFG.n_values) * len(TRIALS)
    for key, want in golden.items():
        n, trial = (int(part[1:]) for part in key.split("."))
        got = cell_values(n, trial)
        assert {k: str(v) for k, v in got.items()} == want, key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {f"N{n}.t{trial}": {k: str(v) for k, v in cell_values(n, trial).items()}
             for n in ACCEPT_CFG.n_values for trial in TRIALS}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
