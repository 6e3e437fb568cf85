"""Shared test utilities: root enumeration, random trees, rasterization
oracle."""

from fractions import Fraction

import numpy as np

from kakeyalab._mix import mix_chain
from kakeyalab.madic import point_address
from kakeyalab.percolation import _counted_tree as counted_tree  # noqa: F401


def root_addr(i: int, M: int, J: int):
    return point_address((Fraction(i, M ** J),), M, J)


def all_roots_1d(pruned):
    K = pruned.M ** pruned.J
    return [root_addr(i, pruned.M, pruned.J) for i in range(K)]


def random_counts(seed: int, max_height: int = 4, max_branch: int = 3):
    """Child counts {address: count} of a random tree of at most max_height
    levels: every vertex draws 0..max_branch children from the seeded mix
    chain, the root at least one, so leaves sit at uneven depths.  Build
    the tree with ``counted_tree``."""
    out = {}
    frontier = [()]
    node_id = 0
    for h in range(max_height):
        nxt = []
        for v in frontier:
            node_id += 1
            n = mix_chain(seed, h, node_id) % (max_branch + 1)
            if h == 0 and n == 0:
                n = 1
            out[v] = n
            for i in range(n):
                nxt.append(v + ((i,),))
        frontier = nxt
    return out


def rasterize_pair_volume(t1, t2, window, cells: int = 1000):
    """Grid bracket of a 1-d pair-intersection volume.

    Marks cells whose center lies in both tubes (estimate) and returns the
    matching inner/outer counts so the exact value can be sandwiched:
    cells entirely inside both tubes give the lower count, cells merely
    touching both give the upper.
    """
    a = float(max(window.lo, 0))
    b = float(min(window.hi, 10 * t1.A0))
    if a >= b:
        return 0.0, 0.0
    s = float(t1.side)
    c1 = float(t1.center()[0]); w1 = float(t1.slope[0])
    c2 = float(t2.center()[0]); w2 = float(t2.slope[0])
    ylo = min(c1 + a * w1, c1 + b * w1, c2 + a * w2, c2 + b * w2) - s
    yhi = max(c1 + a * w1, c1 + b * w1, c2 + a * w2, c2 + b * w2) + s
    xs = np.linspace(a, b, cells, endpoint=False) + (b - a) / (2 * cells)
    ys = np.linspace(ylo, yhi, cells, endpoint=False) + (yhi - ylo) / (2 * cells)
    dx = (b - a) / cells
    dy = (yhi - ylo) / cells
    X, Y = np.meshgrid(xs, ys, indexing="ij")

    def inside(cb, wb, margin):
        return np.abs(Y - (cb + X * wb)) <= s / 2 + margin

    lower = np.count_nonzero(inside(c1, w1, -dy / 2) & inside(c2, w2, -dy / 2))
    upper = np.count_nonzero(inside(c1, w1, +dy / 2) & inside(c2, w2, +dy / 2))
    return lower * dx * dy, upper * dx * dy
