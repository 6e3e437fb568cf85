"""Bernoulli percolation on finite trees and electrical network bounds.

Survival means a root-to-bottom ray whose edges are all retained.  The
survival probability is bounded through the electrical network that puts
on each edge the resistance ``1/R_e = (1/(1-p_e)) * prod p_e'`` over the
edges e' on the root path including e; for fair bits this is
``R_e = 2^(h-1)``.  The total network resistance R gives the bound
``2 / (1 + R)``, and merging every generation into a single node can only
lower the resistance, giving the weaker explicit bound with per-level
vertex counts.

A tree is read only through ``tree.children(addr)``: the labels ``c`` for
which ``addr + (c,)`` is a child of the vertex ``addr``, the root being
``()``, so ``len(addr)`` is the level.  The M-adic trees of ``madic``, the
example trees built here and the reference tree N_x of ``tubes`` all
qualify.

All resistances and exact survival probabilities are rationals end to
end; only Monte Carlo frequencies are floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._mix import float01, mix_chain
from .errors import InvalidInput
from .madic import Address, DigitRuleTree
from .sticky import BernoulliWarehouse
from .tubes import ReferenceTree


def _children(tree, addr):
    return [addr + (dg,) for dg in tree.children(addr)]


def edge_resistance(addr: Address, p: Fraction = Fraction(1, 2)) -> Fraction:
    """Resistance of the edge terminating at addr (height >= 1)."""
    h = len(addr)
    if h == 0:
        raise InvalidInput("the root has no incoming edge")
    return (1 - p) / p ** h


def total_resistance(tree, p: Fraction = Fraction(1, 2)) -> Fraction:
    """Series-parallel reduction of the network from root to the leaves."""

    def rec(addr) -> Fraction | None:
        kids = _children(tree, addr)
        if not kids:
            return Fraction(0)
        inv = Fraction(0)
        for c in kids:
            below = rec(c)
            branch = edge_resistance(c, p) + below
            inv += 1 / branch
        return 1 / inv

    root_kids = _children(tree, ())
    if not root_kids:
        raise InvalidInput("empty tree")
    return rec(())


def level_counts(tree) -> list[int]:
    """Number of vertices at each level, from the root's level 0 down to
    the deepest nonempty level."""
    counts, level = [], [()]
    while level:
        counts.append(len(level))
        level = [c for v in level for c in _children(tree, v)]
    return counts


def survival_upper_bound(tree, p: Fraction = Fraction(1, 2)):
    """(2/(1+R_exact), 2/(1+sum 2^(k-1)/n_k)); the first is the sharper one.

    The level-merged form assumes fair bits and a uniform bottom level.
    """
    r_exact = total_resistance(tree, p)
    sharp = Fraction(2, 1) / (1 + r_exact)
    if p == Fraction(1, 2):
        counts = level_counts(tree)
        merged_r = sum(Fraction(2 ** (k - 1), counts[k])
                       for k in range(1, len(counts)))
        merged = Fraction(2, 1) / (1 + merged_r)
        if r_exact < merged_r:
            raise AssertionError("level merge increased the resistance")
    else:
        merged = sharp
    return sharp, merged


def survival_exact(tree, p: Fraction = Fraction(1, 2)) -> Fraction:
    """q(root) from the recursion q(v) = 1 - prod_c (1 - p q(c)), q(leaf)=1."""

    def rec(addr) -> Fraction:
        kids = _children(tree, addr)
        if not kids:
            return Fraction(1)
        miss = Fraction(1)
        for c in kids:
            miss *= 1 - p * rec(c)
        return 1 - miss

    return rec(())


def survival_monte_carlo(tree, p: Fraction, trials: int, seed: int) -> float:
    """Fraction of independent trials in which the tree survives."""
    if trials < 1:
        raise InvalidInput("need at least one trial")
    pf = float(p)

    def edge_key(addr: Address) -> int:
        flat = [len(addr)]
        for dig in addr:
            flat.extend(dig)
        return mix_chain(0, *flat)

    hits = 0
    for trial in range(trials):
        tseed = mix_chain(seed, trial)

        def alive(addr) -> bool:
            kids = _children(tree, addr)
            if not kids:
                return True
            for c in kids:
                if float01(tseed, edge_key(c)) < pf and alive(c):
                    return True
            return False

        if alive(()):
            hits += 1
    return hits / trials


def _counted_tree(counts: dict[Address, int]) -> DigitRuleTree:
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
    return _counted_tree(out)


def path_tree(length: int) -> DigitRuleTree:
    return _counted_tree({((0,),) * k: 1 for k in range(length)})


def star_tree(leaves: int) -> DigitRuleTree:
    return _counted_tree({(): leaves})


# ---------------------------------------------------------------------------
# percolation on the reference tree
# ---------------------------------------------------------------------------

@dataclass
class PercolationOutcome:
    retained: dict
    survives: bool
    surviving_roots: tuple


def percolate_reference(ref: ReferenceTree,
                        warehouse: BernoulliWarehouse) -> PercolationOutcome:
    """Retain the edge into each reference cube iff the warehouse bit of
    that cube matches the edge's reference slope label.

    Distinct edges terminate in distinct reference cubes (asserted), so
    retention decisions are independent across edges.
    """
    seen_cubes = set()
    retained = {}
    for level in ref.levels[1:]:
        for node in level.values():
            if node.cube in seen_cubes:
                raise AssertionError("two edges share a reference cube")
            seen_cubes.add(node.cube)
            retained[(node.level, node.cube)] = (
                warehouse.bit(node.cube) == node.kappa)

    survivors = []
    for t in ref.possible:
        ray = ref.ray_of(t)
        if all(retained[(j + 1, cube)] for j, cube in enumerate(ray)):
            survivors.append(t)
    return PercolationOutcome(retained=retained, survives=bool(survivors),
                              surviving_roots=tuple(sorted(survivors)))
