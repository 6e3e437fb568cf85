"""Shared test utilities: root enumeration, example trees, split values,
inversion counts, the tree-walk oracle of theta and mu, the extension of
a sticky map to every root-tree vertex, the rasterization oracle, the
affine image of a lacunary witness and the Fraction references of the
integer digits, distances and agreement heights."""

import math
from fractions import Fraction

import numpy as np

from kakeyalab._mix import mix_chain
from kakeyalab.errors import InvalidInput
from kakeyalab.lacunarity import LacunaryWitness
from kakeyalab.madic import (
    Address,
    DigitRuleTree,
    cube_origin,
    point_address,
)
from kakeyalab.sticky import walk_chain


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


def counted_tree(counts: dict[Address, int]) -> DigitRuleTree:
    """The tree whose vertex ``v`` has the children ``v + ((i,),)`` for
    ``i < counts.get(v, 0)``; M only has to cover the labels, since these
    trees are read through ``children`` alone."""
    return DigitRuleTree(lambda v: tuple((i,) for i in range(counts.get(v, 0))),
                         M=max([2, *counts.values()]), d=1,
                         height=1 + max(map(len, counts), default=0))


def random_tree(seed: int, height: int = 4, max_branch: int = 3) -> DigitRuleTree:
    """Uniform-depth random test tree: every vertex above the bottom level
    draws 1..max_branch children from the seeded mix chain."""
    out: dict[Address, int] = {}
    frontier: list[Address] = [()]
    nid = 0
    for h in range(height):
        nxt = []
        for v in frontier:
            nid += 1
            n = 1 + mix_chain(seed, h, nid) % max_branch
            out[v] = n
            for i in range(n):
                nxt.append(v + ((i,),))
        frontier = nxt
    return counted_tree(out)


def path_tree(length: int) -> DigitRuleTree:
    return counted_tree({((0,),) * k: 1 for k in range(length)})


def star_tree(leaves: int) -> DigitRuleTree:
    return counted_tree({(): leaves})


def count_inversions(seq) -> int:
    return sum(1 for a, b in zip(seq, seq[1:]) if b < a)


def split_values(tree) -> dict[Address, int]:
    """Per-vertex split values for every vertex."""
    return {v: tree.split_value(v) for v in tree.vertices()}


def basic_cubes(pruned) -> dict[Address, int]:
    """Every basic slope cube of a pruned tree with the length of its code:
    the two cubes below a splitting vertex of index nu have nu-bit codes."""
    return {cube: info.nu for info in pruned.gamma.values() for cube in info.h_cubes}


def theta(pruned, w: Address, k: int) -> Address | None:
    """Basic slope cube containing the slope-tree vertex w of maximal
    height <= k, or None when no basic cube that shallow contains w; found
    by walking up w's ancestors."""
    cubes = basic_cubes(pruned)
    for h in range(min(k, len(w)), 0, -1):
        if w[:h] in cubes:
            return w[:h]
    return None


def mu(pruned, w: Address, k: int) -> int:
    """Number of basic slope cubes of height <= k containing w, that is
    the code length of theta(w, k): the tree-walk oracle of the closed
    form's mu."""
    th = theta(pruned, w, k)
    return 0 if th is None else basic_cubes(pruned)[th]


def root_ancestor_at_mu(pruned, u: Address, w: Address, k: int) -> Address:
    """Ancestor of the root-tree vertex u at the height of theta(w, k)."""
    th = theta(pruned, w, k)
    return u[:0 if th is None else len(th)]


def extend(smap, q: Address):
    """Slope-tree vertex that the sticky map ``smap`` assigns to an
    arbitrary root-tree vertex q, and whether that value is canonical.

    Follows the proof formula: find the largest basic level whose cube
    still contains q, then take the height-h(q) vertex on the ray of
    the next assignment.  Between a splitting vertex's height and the
    next basic height the value depends on which basic subcube's bit
    one follows; we canonically follow the lexicographically minimal
    root below q.  The flag reports whether the value is independent of
    that choice.
    """
    p = smap.pruned
    h = len(q)
    if h > p.J:
        raise InvalidInput(f"vertex height {h} exceeds J = {p.J}")
    g = p.psi(())
    lex_min_root = q + ((0,) * p.d,) * (p.J - h)
    for _, b in walk_chain(p, lex_min_root, smap.warehouse.bit):
        info = p.gamma[g]
        if info.lam >= h:
            if h <= len(g):
                return g[:h], True
            # h(gamma) < h <= lambda(gamma): the basic cube of the
            # lex-min root's bit, which any root below q shares iff
            # lambda = h
            return info.h_cubes[b][:h], info.lam == h
        g = info.next_gammas[b]


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
    c1 = float(t1.center[0]); w1 = float(t1.slope[0])
    c2 = float(t2.center[0]); w2 = float(t2.slope[0])
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


def transform_witness(w: LacunaryWitness, c1: Fraction, c2: Fraction) -> LacunaryWitness:
    """Witness for c1*U + c2 given one for U.

    A map with c1 > 0 keeps the order of the support, so every child keeps
    its gap index.  A reflection (c1 < 0) sends the closing gap
    ``[s_max, oo)`` below the reflected support, where the witness format
    has no gap, so it raises ``InvalidInput`` on a witness with children;
    a childless witness reflects to a valid one.
    """
    if c1 == 0:
        raise InvalidInput("degenerate scaling")
    if w.order == 0:
        return LacunaryWitness(order=0)
    if c1 < 0 and w.children:
        raise InvalidInput("a reflection has no gap for the closing child")
    return LacunaryWitness(
        order=w.order, lam=w.lam,
        special=tuple(c1 * a + c2 for a in w.special),
        alpha=c1 * w.alpha + c2,
        children={k: transform_witness(child, c1, c2)
                  for k, child in w.children.items()},
    )


def cube_distance_sq(u: Address, v: Address, M: int, d: int) -> Fraction:
    """Squared Euclidean distance between the closed cubes u and v, in
    Fractions: the reference for ``madic.cube_gap_sq``."""
    ou, ov = cube_origin(u, M, d), cube_origin(v, M, d)
    su, sv = Fraction(1, M ** len(u)), Fraction(1, M ** len(v))
    total = Fraction(0)
    for a in range(d):
        gap = max(ov[a] - (ou[a] + su), ou[a] - (ov[a] + sv), Fraction(0))
        total += gap * gap
    return total


def point_set_vertex(points, M: int, addr: Address):
    """The points of a finite set inside the cube ``addr`` and the sorted
    digits of their children, from the Fraction digits floor(c M^k) mod M:
    the reference for ``madic.PointSetTree``."""
    def digits(p, k):
        return tuple(math.floor(c * M ** k) % M for c in p)

    members = sorted(p for p in set(points)
                     if all(digits(p, k) == dg for k, dg in enumerate(addr, start=1)))
    return members, tuple(sorted({digits(p, len(addr) + 1) for p in members}))


def random_points(rng, count: int, d: int) -> list:
    """``count`` distinct sorted points of [0,1)^d with coordinates over
    mixed denominators, drawn from the ``random.Random`` given."""
    pts = set()
    while len(pts) < count:
        pts.add(tuple(Fraction(rng.randrange(q), q) for q in
                      (rng.choice((2, 3, 7, 12, 81, 1000, 3 ** 9)) for _ in range(d))))
    return sorted(pts)


def agreement_height_reference(a: Fraction, b: Fraction, M: int) -> int:
    """Largest k >= 0 with floor(a M^k) == floor(b M^k) for a != b, -1
    when none, by walking k up with Fraction floors: the reference for
    ``madic.agreement_height_scalar``."""
    k = -1
    while math.floor(a * M ** (k + 1)) == math.floor(b * M ** (k + 1)):
        k += 1
    return k


def min_distance_sq(points) -> Fraction:
    """Least squared distance between two points of a set, in Fractions:
    the reference for ``pruning.distances_sq``."""
    return min(sum((a - b) * (a - b) for a, b in zip(p, q))
               for i, p in enumerate(points) for q in points[i + 1:])
