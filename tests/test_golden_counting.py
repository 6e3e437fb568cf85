"""E2, E3 and E4 lists of the benchmark's tuple scans, pinned.

``tests/golden/counting.json`` holds, for each call, the record count and
a digest of the list that ``enumerate_E2``, ``enumerate_E3`` or
``enumerate_E4`` returns on ``prune(cantor_tree(25), 2, 1)``: E2 over
every anchor u up to height 2, every splitting vertex w and rho in
{1/3, 1/9, 1/27, 1/81}, then the E3/E4 joins at the anchors the benchmark's
rounds cycle through (six rounds visit each pairing of the level-2 vertex
and the height-1 anchor), each call on its own seeded subset of 5 roots
per height-2 branch.  A refactor or speed-up of the scans must reproduce
every entry, order included.  Regenerate only when a change is meant to
alter the lists:

    PYTHONPATH=src python tests/test_golden_counting.py
"""

import hashlib
import json
import random
from fractions import Fraction as F
from functools import partial
from pathlib import Path

from kakeyalab.counting import all_root_cubes, enumerate_E2, enumerate_E3, enumerate_E4
from kakeyalab.madic import cantor_tree
from kakeyalab.pruning import prune

GOLDEN = Path(__file__).parent / "golden" / "counting.json"
RHOS = (F(1, 3), F(1, 9), F(1, 27), F(1, 81))
ROUNDS = range(6)


def calls() -> dict:
    """Call key -> the call, in the order the calls are made."""
    pruned = prune(cantor_tree(25), N=2, C0=1)
    roots = all_root_cubes(pruned)
    branches = {}
    for t in roots:
        branches.setdefault(t[:2], []).append(t)
    rng = random.Random(0)

    def subset():
        return sorted(t for b in branches.values() for t in rng.sample(b, 5))

    out = {}
    for rho in RHOS:
        for u in sorted({t[:h] for t in roots for h in (0, 1, 2)}):
            for w in sorted(pruned.gamma):
                out[f"{len(out)}.E2 u={u} w={w} rho={rho}"] = partial(
                    enumerate_E2, pruned, u, w, rho, roots=subset())
    g1 = pruned.psi(())
    for r in ROUNDS:
        g2, a = pruned.gamma_levels[2][r % 2], ((r % pruned.M,),)
        for rho, w2 in ((F(1, 81), g1), (F(1, 27), g2), (F(1, 81), g2)):
            for u in ((), a):
                anchors = {"u": u, "u2": u, "w": g1, "w2": w2}
                for join, ctypes in ((enumerate_E3, (1, 2)), (enumerate_E4, (1, 2, 3))):
                    for ctype in ctypes:
                        out[f"{len(out)}.{join.__name__[-2:]} type={ctype} u={u} "
                            f"w2={w2} rho={rho}"] = partial(
                                join, pruned, ctype, anchors, rho, roots=subset())
    return out


def digest(records) -> str:
    return f"{len(records)}:{hashlib.sha256(repr(records).encode()).hexdigest()[:16]}"


def test_counting_reproduces_golden_lists():
    golden = json.loads(GOLDEN.read_text())
    got = {key: digest(call()) for key, call in calls().items()}
    assert list(got) == list(golden)
    assert [k for k in got if got[k] != golden[k]] == []
    assert any(not v.startswith("0:") for k, v in golden.items() if ".E4 " in k)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {key: digest(call()) for key, call in calls().items()}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
