"""The benchmark's layer tracer finds every program function it wraps.

A traced function that is renamed or deleted makes its per-layer metric
read 0 without notice; this test names the ones known to be gone, so the
next one shows up in tier-1.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from layers import LayerTracer  # noqa: E402


def test_layer_tracer_misses_only_the_deleted_kernels():
    tr = LayerTracer()
    tr.install_all()
    try:
        assert tr.missing == ["fast1d.slab_totals", "fast1d.slice_union"]
    finally:
        tr.uninstall()
