"""Digests of exact outputs, pinned for the default seed.

A digest is a short SHA-256 over the canonical text of a sequence of
labelled Fractions, so any change to any numerator or denominator (or to
the order or labels) changes it.  ``golden/cell_sweep_seed0.json`` maps the
item keys of a default ``cell_sweep`` run (seed 0, ``run_seconds`` of
BENCHMARK.json) to digests; run this file to regenerate it:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden" / "cell_sweep_seed0.json"
DEFAULT_SEED = 0


def fraction_digest(labelled) -> str:
    """Digest of ``[(label, Fraction), ...]``."""
    text = ";".join(f"{label}={Fraction(v).numerator}/{Fraction(v).denominator}"
                    for label, v in labelled)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def mismatches(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    """Keys present in both tables whose digests differ."""
    return sorted(k for k in got if k in expected and expected[k] != got[k])


def main() -> int:
    from run import SPEC
    from worker import load_program, rounds_for

    load_program()
    from workloads import CellSweep

    wl = CellSweep(DEFAULT_SEED)
    wl.setup()
    for r in range(rounds_for(SPEC["run_seconds"], wl)):
        items, finish = wl.round(r)
        for _, fn in items:
            fn()
        finish()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(wl.digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(wl.digests)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
