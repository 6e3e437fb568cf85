"""M-adic trees over [0,1)^d with exact rational backing.

A vertex is addressed by a tuple of d-tuples of digits in Z_M; the empty
tuple is the root.  The vertex at address ``a`` of height ``k = len(a)``
represents the half-open cube of sidelength M^-k whose origin is
``sum_i a[i] * M^-(i+1)`` per axis.

Two concrete trees are provided:

* :class:`PointSetTree` encodes a finite set of rational points; a vertex
  is present iff its cube contains a point.
* :class:`DigitRuleTree` is generated lazily by a digit rule, so that e.g.
  a depth-40 Cantor tree is usable without materializing 2^40 vertices.

All coordinates are :class:`fractions.Fraction`; membership and ancestry
are decided exactly, never by floating comparison.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .errors import InvalidInput, SizeCapExceeded

Digits = tuple  # d-tuple of ints in Z_M
Address = tuple  # tuple of Digits; () is the root
Point = tuple  # d-tuple of Fractions in [0,1)


# ---------------------------------------------------------------------------
# address arithmetic
# ---------------------------------------------------------------------------

def ancestor(addr: Address, h: int) -> Address:
    if h > len(addr):
        raise InvalidInput(f"ancestor height {h} exceeds vertex height {len(addr)}")
    return addr[:h]


def is_descendant(u: Address, v: Address) -> bool:
    """True iff u is a (weak) descendant of v, i.e. v is a prefix of u."""
    return len(u) >= len(v) and u[: len(v)] == v


def youngest_common_ancestor(u: Address, v: Address) -> Address:
    """Longest common prefix of the two addresses."""
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return u[:n]


def point_digit(x: Fraction, M: int, k: int) -> int:
    """k-th M-adic digit of x in [0,1), 1-indexed."""
    return int(x * M**k) % M


def point_address(p: Point, M: int, J: int) -> Address:
    """Address of the height-J cube containing p."""
    scaled = [int(c * M**J) for c in p]
    addr = []
    for k in range(J - 1, -1, -1):
        addr.append(tuple((s // M**k) % M for s in scaled))
    return tuple(addr)


def cube_index(addr: Address, M: int, d: int) -> tuple[int, ...]:
    """Origin of the cube ``addr`` per axis, in units of its side M^-len(addr)."""
    idx = [0] * d
    for dig in addr:
        idx = [i * M + g for i, g in zip(idx, dig)]
    return tuple(idx)


def cube_origin(addr: Address, M: int, d: int) -> Point:
    side = M ** len(addr)
    return tuple(Fraction(i, side) for i in cube_index(addr, M, d))


def cube_center(addr: Address, M: int, d: int) -> Point:
    side = M ** len(addr)
    return tuple(Fraction(2 * i + 1, 2 * side) for i in cube_index(addr, M, d))


def cube_distance_sq(u: Address, v: Address, M: int, d: int) -> Fraction:
    """Squared Euclidean distance between the closed cubes u and v."""
    ou, ov = cube_origin(u, M, d), cube_origin(v, M, d)
    su, sv = Fraction(1, M ** len(u)), Fraction(1, M ** len(v))
    total = Fraction(0)
    for a in range(d):
        gap = max(ov[a] - (ou[a] + su), ou[a] - (ov[a] + sv), Fraction(0))
        total += gap * gap
    return total


def point_distance_sq(p: Point, q: Point) -> Fraction:
    return sum((a - b) * (a - b) for a, b in zip(p, q))


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

class MadicTree:
    """Base class: immutable after construction, memoized child lookup.

    Safe for shared concurrent reads: memo entries are only ever inserted
    with values that are functions of immutable state, so a racing reader
    at worst recomputes an identical entry.
    """

    def __init__(self, M: int, d: int, height: int):
        if M < 2 or d < 1 or height < 0:
            raise InvalidInput("need M >= 2, d >= 1, height >= 0")
        self.M = M
        self.d = d
        self.height = height

    # subclasses implement _children(addr)
    def children(self, addr: Address) -> tuple[Digits, ...]:
        raise NotImplementedError

    def vertices(self, max_height: int | None = None) -> Iterable[Address]:
        """Breadth-first enumeration up to max_height (inclusive)."""
        cap = self.height if max_height is None else min(max_height, self.height)
        level = [()]
        yield ()
        for _ in range(cap):
            nxt = []
            for v in level:
                for dig in self.children(v):
                    u = v + (dig,)
                    nxt.append(u)
                    yield u
            level = nxt

    def leaves(self) -> list[Address]:
        return [v for v in self.vertices() if len(v) == self.height]

    def split_value(self, addr: Address) -> int:
        """split_T(addr): max over subtrees rooted there of the min number
        of splitting vertices along a ray."""
        return split_combine(self.split_value(addr + (dg,))
                             for dg in self.children(addr))

    def min_point(self, addr: Address) -> Point:
        """Lexicographically minimal backing point inside the cube."""
        raise NotImplementedError


class PointSetTree(MadicTree):
    """Tree encoding of a finite rational point set, truncated at height J.

    A vertex is present iff its cube meets the point set; every present
    vertex therefore contains at least one backing point.
    """

    def __init__(self, points: Sequence[Point], M: int, J: int):
        super().__init__(M, d=len(points[0]) if points else 1, height=J)
        if not points:
            raise InvalidInput("empty point set")
        for p in points:
            if len(p) != self.d:
                raise InvalidInput("points of mixed dimension")
            for c in p:
                if not isinstance(c, Fraction):
                    raise InvalidInput(f"coordinate {c!r} is not an exact rational")
                if not (0 <= c < 1):
                    raise InvalidInput(f"coordinate {c} outside [0,1)")
        self.points = tuple(sorted(set(points)))
        self._child_memo: dict[Address, tuple[Digits, ...]] = {}
        self._member_memo: dict[Address, tuple[Point, ...]] = {(): self.points}
        self._split_memo: dict[Address, int] = {}

    def _members(self, addr: Address) -> tuple[Point, ...]:
        got = self._member_memo.get(addr)
        if got is None:
            k = len(addr)
            parent = self._members(addr[:-1])
            dig = addr[-1]
            got = tuple(
                p for p in parent
                if all(point_digit(c, self.M, k) == dg for c, dg in zip(p, dig))
            )
            self._member_memo[addr] = got
        return got

    def children(self, addr: Address) -> tuple[Digits, ...]:
        if len(addr) >= self.height:
            return ()
        got = self._child_memo.get(addr)
        if got is None:
            k = len(addr) + 1
            digs = sorted({
                tuple(point_digit(c, self.M, k) for c in p)
                for p in self._members(addr)
            })
            got = tuple(digs)
            self._child_memo[addr] = got
        return got

    def min_point(self, addr: Address) -> Point:
        members = self._members(addr)
        if not members:
            raise InvalidInput("empty cube")
        return min(members)

    def split_value(self, addr: Address) -> int:
        got = self._split_memo.get(addr)
        if got is None:
            got = self._split_memo[addr] = super().split_value(addr)
        return got


class DigitRuleTree(MadicTree):
    """Lazily generated tree: ``rule(addr)`` yields the child digit tuples.

    ``split_fn(addr)``, when given, must return the exact splitting number
    of the subtree rooted at ``addr``; generators whose structure makes this
    value obvious (Cantor-type sets split at every level) supply it so that
    pruning never explores the full tree.  Without it the value is computed
    recursively, which materializes the subtree.

    The backing point of a vertex is the origin of its lexicographically
    minimal full-height extension, so ``min_point`` is exact and cheap.
    """

    def __init__(self, rule: Callable[[Address], tuple[Digits, ...]],
                 M: int, d: int, height: int,
                 split_fn: Callable[[Address], int] | None = None):
        super().__init__(M, d, height)
        self._rule = rule
        self._split_fn = split_fn
        self._child_memo: dict[Address, tuple[Digits, ...]] = {}

    def children(self, addr: Address) -> tuple[Digits, ...]:
        if len(addr) >= self.height:
            return ()
        got = self._child_memo.get(addr)
        if got is None:
            got = tuple(sorted(self._rule(addr)))
            self._child_memo[addr] = got
        return got

    def split_value(self, addr: Address) -> int:
        if self._split_fn is not None:
            return self._split_fn(addr)
        return super().split_value(addr)

    def min_point(self, addr: Address, at_height: int | None = None) -> Point:
        stop = self.height if at_height is None else at_height
        cur = addr
        while len(cur) < stop:
            kids = self.children(cur)
            if not kids:
                break
            cur = cur + (kids[0],)
        return cube_origin(cur, self.M, self.d)


def cantor_tree(depth: int, digits: Sequence[int] = (0, 2), M: int = 3,
                d: int = 1) -> DigitRuleTree:
    """Cantor-type rule tree: the same digit set at every level and axis.

    Every vertex splits, so split(subtree at height h) = depth - h.
    """
    digs = tuple(sorted(digits))
    if d == 1:
        kids = tuple((g,) for g in digs)
    else:
        from itertools import product
        kids = tuple(product(digs, repeat=d))
    return DigitRuleTree(lambda addr: kids, M, d, depth,
                         split_fn=lambda addr: depth - len(addr))


def full_tree(depth: int, M: int = 2, d: int = 1) -> DigitRuleTree:
    """The complete M-adic tree of the given depth; encodes the M-adic
    rationals {k M^-depth} without materializing them."""
    return cantor_tree(depth, digits=range(M), M=M, d=d)


# ---------------------------------------------------------------------------
# encoding / splitting numbers / stickiness
# ---------------------------------------------------------------------------

def encode_set(points: Iterable[Point], M: int, J: int) -> PointSetTree:
    """Encode a finite rational point set as its M-adic tree of height J."""
    return PointSetTree(tuple(points), M, J)


def split_combine(child_values) -> int:
    """Split value of a vertex from those of its children: 0 at a leaf, the
    child's value below a single child, and otherwise the larger of the
    best child's value and one plus the second best's."""
    vals = sorted(child_values, reverse=True)
    if not vals:
        return 0
    if len(vals) == 1:
        return vals[0]
    return max(vals[0], 1 + vals[1])


def splitting_number(tree) -> int:
    """split(T) = split value at the root (max over vertices is attained
    there by monotonicity along lineages)."""
    return tree.split_value(())


def split_values(tree, max_height: int | None = None) -> dict[Address, int]:
    """Per-vertex split values for every vertex up to max_height."""
    return {v: tree.split_value(v) for v in tree.vertices(max_height)}


def splitting_number_bruteforce(tree, cap: int = 24) -> int:
    """Exhaustive evaluation of the max-min definition.

    Enumerates, at every vertex, all nonempty subsets of children to keep,
    takes the min number of splits over rays of the kept subtree and the
    max over all choices.  Only for trees with at most ``cap`` vertices.
    """
    verts = list(tree.vertices())
    if len(verts) > cap:
        raise SizeCapExceeded(f"{len(verts)} vertices exceeds cap {cap}")

    @lru_cache(maxsize=None)
    def best(addr: Address) -> int:
        kids = tree.children(addr)
        if not kids:
            return 0
        options = [best(addr + (dg,)) for dg in kids]
        out = 0
        for mask in range(1, 1 << len(kids)):
            chosen = [options[i] for i in range(len(kids)) if mask >> i & 1]
            bonus = 1 if len(chosen) >= 2 else 0
            out = max(out, bonus + min(chosen))
        return out

    result = max(best(v) for v in verts)
    best.cache_clear()
    return result


def is_sticky(mapping: dict, domain, codomain=None) -> bool:
    """Check Def-style stickiness of a vertex map: heights preserved and
    u descendant-of v implies image(u) descendant-of image(v)."""
    for u, fu in mapping.items():
        if len(u) != len(fu):
            return False
    items = list(mapping.items())
    for i, (u, fu) in enumerate(items):
        for v, fv in items:
            if u != v and is_descendant(u, v) and not is_descendant(fu, fv):
                return False
    return True


def agreement_height_scalar(a: Fraction, b: Fraction, M: int) -> int:
    """Largest k >= 0 with floor(a M^k) == floor(b M^k), for a != b.

    This is the height of the youngest common ancestor of the two points in
    the (untruncated) M-adic tree, computed without materializing digits.
    """
    if a == b:
        raise InvalidInput("equal points have unbounded agreement")
    gap = abs(a - b)
    # bracket: hi = smallest height with M^-hi <= gap, estimated from bit
    # lengths so huge denominators stay cheap
    import math
    bits = gap.denominator.bit_length() - gap.numerator.bit_length()
    hi = max(0, int((bits + 2) / math.log2(M)) + 2)
    while hi > 0 and Fraction(1, M ** (hi - 1)) <= gap:
        hi -= 1
    while Fraction(1, M**hi) > gap:
        hi += 1
    # heights > hi cannot agree; binary search the largest agreeing height
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if int(a * M**mid) == int(b * M**mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


class CondensedTree:
    """Branching structure of the untruncated tree of a sorted, duplicate-free
    finite 1-d rational set.

    A vertex is the run ``(i, j)`` of points i..j (inclusive) inside one
    M-adic cube, with single-child chains skipped, so sets whose tree is
    tens of thousands of levels deep, like the dyadic counterexample sets,
    stay cheap.  ``heights[k]`` is the agreement height of points k and k+1.
    """

    def __init__(self, pts: Sequence[Fraction], M: int):
        self.pts = pts
        self.heights = [agreement_height_scalar(a, b, M)
                        for a, b in zip(pts, pts[1:])]
        self._split_memo: dict[tuple[int, int], int] = {}

    def children(self, i: int, j: int) -> list[tuple[int, int]]:
        """Runs below the vertex i..j (i < j): it branches where adjacent
        points agree least."""
        m = min(self.heights[i:j])
        groups, start = [], i
        for k in range(i, j):
            if self.heights[k] == m:
                groups.append((start, k))
                start = k + 1
        groups.append((start, j))
        return groups

    def split_value(self, i: int = 0, j: int | None = None) -> int:
        """Splitting number of the subtree spanning points i..j (default:
        the whole set)."""
        j = len(self.pts) - 1 if j is None else j
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old, 4 * len(self.pts) + 200))
        try:
            return self._split(i, j)
        finally:
            sys.setrecursionlimit(old)

    def _split(self, i: int, j: int) -> int:
        got = self._split_memo.get((i, j))
        if got is None:
            got = 0 if i == j else split_combine(
                self._split(a, b) for a, b in self.children(i, j))
            self._split_memo[(i, j)] = got
        return got


def splitting_number_1d_points(points: Sequence[Fraction], M: int) -> int:
    """Splitting number of the untruncated tree of a finite 1-d rational set."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return 0
    return CondensedTree(pts, M).split_value()


# ---------------------------------------------------------------------------
# point-set JSON interchange
# ---------------------------------------------------------------------------

def points_to_json(points: Sequence[Point], M: int, d: int, J: int) -> str:
    return json.dumps({
        "M": M, "d": d, "J": J,
        "points": [[f"{c.numerator}/{c.denominator}" for c in p] for p in points],
    })


def points_from_json(text: str) -> tuple[tuple[Point, ...], int, int, int]:
    obj = json.loads(text)
    pts = tuple(tuple(Fraction(c) for c in p) for p in obj["points"])
    return pts, obj["M"], obj["d"], obj["J"]
