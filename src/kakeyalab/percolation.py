"""Fair-bit percolation on finite trees, the reference trees N_x among
them, with electrical network bounds.

Each edge is retained by a fair bit, and survival means a root-to-bottom
ray whose edges are all retained.  The survival probability is bounded
through the electrical network that puts on the edge into a height-h
vertex the resistance ``R_e = 2^(h-1)``.  The total network resistance R
gives the bound ``2 / (1 + R)``, and merging every generation into a
single node can only lower the resistance, giving the weaker explicit
bound with per-level vertex counts.  Only the Monte Carlo estimate takes
another retention probability.

A tree is read only through ``tree.children(addr)``: the labels ``c`` for
which ``addr + (c,)`` is a child of the vertex ``addr``, the root being
``()``, so ``len(addr)`` is the level.  The M-adic trees of ``madic`` and
the reference trees of ``sticky`` (N_x among them) both qualify.

All resistances and exact survival probabilities are rationals end to
end; only Monte Carlo frequencies are floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from ._mix import float01, mix_chain
from .errors import InvalidInput
from .madic import Address
from .sticky import BernoulliWarehouse, ReferenceTree


def _children(tree, addr):
    return [addr + (dg,) for dg in tree.children(addr)]


def edge_resistance(addr: Address) -> Fraction:
    """Resistance 2^(h-1) of the edge terminating at addr (height h >= 1)."""
    h = len(addr)
    if h == 0:
        raise InvalidInput("the root has no incoming edge")
    return Fraction(2 ** (h - 1))


def total_resistance(tree) -> Fraction:
    """Series-parallel reduction of the network from root to the leaves."""

    def rec(addr) -> Fraction | None:
        kids = _children(tree, addr)
        if not kids:
            return Fraction(0)
        inv = Fraction(0)
        for c in kids:
            below = rec(c)
            branch = edge_resistance(c) + below
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


def survival_upper_bound(tree):
    """(2/(1+R_exact), 2/(1+sum 2^(k-1)/n_k)); the first is the sharper one.

    The level-merged form assumes a uniform bottom level.
    """
    r_exact = total_resistance(tree)
    sharp = Fraction(2, 1) / (1 + r_exact)
    counts = level_counts(tree)
    merged_r = sum(Fraction(2 ** (k - 1), counts[k])
                   for k in range(1, len(counts)))
    if r_exact < merged_r:
        raise AssertionError("level merge increased the resistance")
    return sharp, Fraction(2, 1) / (1 + merged_r)


def survival_exact(tree) -> Fraction:
    """q(root) from the recursion q(v) = 1 - prod_c (1 - q(c)/2), q(leaf)=1."""

    def rec(addr) -> Fraction:
        kids = _children(tree, addr)
        if not kids:
            return Fraction(1)
        miss = Fraction(1)
        for c in kids:
            miss *= 1 - rec(c) / 2
        return 1 - miss

    return rec(())


def survival_monte_carlo(tree, p: Fraction, trials: int, seed: int) -> float:
    """Fraction of independent trials in which the tree survives, each edge
    retained with probability p."""
    if trials < 1:
        raise InvalidInput("need at least one trial")
    pf = float(p)

    def edge_key(addr: tuple) -> int:
        # a digit-tuple label gives its digits; a reference cube gives its
        # height, then its digits, so that distinct paths of N_x differ
        flat = [len(addr)]
        for label in addr:
            if label and isinstance(label[0], tuple):
                flat.append(len(label))
                label = [x for dig in label for x in dig]
            flat.extend(label)
        return mix_chain(0, *flat)

    @cache
    def edges(addr) -> list[tuple[Address, int]]:
        # the children of addr with their edge keys, the same in every trial
        return [(c, edge_key(c)) for c in _children(tree, addr)]

    hits = 0
    for trial in range(trials):
        tseed = mix_chain(seed, trial)

        def alive(addr) -> bool:
            kids = edges(addr)
            if not kids:
                return True
            for c, key in kids:
                if float01(tseed, key) < pf and alive(c):
                    return True
            return False

        if alive(()):
            hits += 1
    return hits / trials


# ---------------------------------------------------------------------------
# percolation on the reference tree
# ---------------------------------------------------------------------------

@dataclass
class PercolationOutcome:
    survives: bool
    surviving_roots: tuple


def percolate_reference(ref: ReferenceTree,
                        warehouse: BernoulliWarehouse) -> PercolationOutcome:
    """Retain the edge into each reference cube iff the warehouse bit of
    that cube matches the edge's label kappa; a root's ray survives when
    every edge on it is retained.

    Each cube has one parent, so distinct edges end in distinct cubes and
    retention decisions are independent across edges.
    """
    survivors = tuple(sorted(t for t, ray in ref.rays.items()
                             if all(warehouse.bit(c) == ref.bits[c] for c in ray)))
    return PercolationOutcome(survives=bool(survivors), surviving_roots=survivors)
