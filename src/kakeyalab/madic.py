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

Their common base :class:`MadicTree` memoizes child lookups and split
values; a tree kind supplies only ``_children(addr)``.

All coordinates are :class:`fractions.Fraction`; membership and ancestry
are decided exactly, never by floating comparison.  Digits and distances
are exact integers over one denominator: a point set's digits are integer
divisions of each point's cube index at the tree's height, and the gap
between two cubes is counted on the finer cube's scale.  A ``Fraction``
is built only where a public function returns one.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Sequence

from .errors import InvalidInput, SizeCapExceeded

Digits = tuple  # d-tuple of ints in Z_M
Address = tuple  # tuple of Digits; () is the root
Point = tuple  # d-tuple of Fractions in [0,1)


# ---------------------------------------------------------------------------
# address arithmetic
# ---------------------------------------------------------------------------

def youngest_common_ancestor(u: Address, v: Address) -> Address:
    """Longest common prefix of the two addresses."""
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return u[:n]


def point_digit(x: Fraction, M: int, k: int) -> int:
    """k-th M-adic digit of x, 1-indexed: floor(x M^k) mod M, which an
    integer shift of x leaves unchanged."""
    return math.floor(x * M**k) % M


def point_address(p: Point, M: int, J: int) -> Address:
    """Address of the height-J cube containing p."""
    return cube_address([math.floor(c * M**J) for c in p], M, J)


def cube_index(addr: Address, M: int, d: int) -> tuple[int, ...]:
    """Origin of the cube ``addr`` per axis, in units of its side M^-len(addr)."""
    if not addr:
        return (0,) * d
    out = []
    for digits in zip(*addr):
        i = 0
        for g in digits:
            i = i * M + g
        out.append(i)
    return tuple(out)


def cube_address(idx: Sequence[int], M: int, J: int) -> Address:
    """The height-J cube whose origin per axis is ``idx`` in units of its
    side M^-J, digit by digit: the inverse of :func:`cube_index`."""
    return tuple(tuple((i // M**k) % M for i in idx) for k in range(J - 1, -1, -1))


def cube_origin(addr: Address, M: int, d: int) -> Point:
    side = M ** len(addr)
    return tuple(Fraction(i, side) for i in cube_index(addr, M, d))


def cube_center(addr: Address, M: int, d: int) -> Point:
    side = M ** len(addr)
    return tuple(Fraction(2 * i + 1, 2 * side) for i in cube_index(addr, M, d))


def cube_gap_sq(u: Address, v: Address, M: int, d: int) -> int:
    """Squared Euclidean distance between the closed cubes u and v, in
    units of M^-2h on the finer cube's scale h = max(len(u), len(v))."""
    h = max(len(u), len(v))
    su, sv = M ** (h - len(u)), M ** (h - len(v))
    total = 0
    for a, b in zip(cube_index(u, M, d), cube_index(v, M, d)):
        a, b = a * su, b * sv
        gap = max(b - a - su, a - b - sv, 0)
        total += gap * gap
    return total


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------

class MadicTree:
    """Base class: immutable after construction, memoized child lookup and
    split values.  Subclasses supply ``_children(addr)``, the sorted child
    digits of a vertex below full height.

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
        self._child_memo: dict[Address, tuple[Digits, ...]] = {}
        self._split_memo: dict[Address, int] = {}

    def _children(self, addr: Address) -> tuple[Digits, ...]:
        raise NotImplementedError

    def children(self, addr: Address) -> tuple[Digits, ...]:
        if len(addr) >= self.height:
            return ()
        got = self._child_memo.get(addr)
        if got is None:
            got = self._child_memo[addr] = self._children(addr)
        return got

    def vertices(self) -> Iterable[Address]:
        """Breadth-first enumeration of every vertex."""
        level = [()]
        yield ()
        for _ in range(self.height):
            nxt = []
            for v in level:
                for dig in self.children(v):
                    u = v + (dig,)
                    nxt.append(u)
                    yield u
            level = nxt

    def split_value(self, addr: Address) -> int:
        """split_T(addr): max over subtrees rooted there of the min number
        of splitting vertices along a ray."""
        got = self._split_memo.get(addr)
        if got is None:
            got = self._split_memo[addr] = split_combine(
                self.split_value(addr + (dg,)) for dg in self.children(addr))
        return got

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
        # each point's cube index at height J, so that its digit at height
        # k <= J is an integer division: floor(c M^k) = floor(c M^J) // M^(J-k)
        side = M ** J
        self._cubes = tuple(tuple(c.numerator * side // c.denominator for c in p)
                            for p in self.points)
        # the positions in ``points`` of the points inside each cube, in
        # ascending order, so the first is the lexicographically least
        self._member_memo: dict[Address, tuple[int, ...]] = {
            (): tuple(range(len(self.points)))}

    def _positions(self, addr: Address) -> tuple[int, ...]:
        got = self._member_memo.get(addr)
        if got is None:
            if len(addr) > self.height:
                raise InvalidInput(f"{addr} lies below the tree's height {self.height}")
            parent = self._positions(addr[:-1])
            unit, M, dig = self.M ** (self.height - len(addr)), self.M, addr[-1]
            cubes = self._cubes
            got = tuple(i for i in parent
                        if all(c // unit % M == dg for c, dg in zip(cubes[i], dig)))
            self._member_memo[addr] = got
        return got

    def _members(self, addr: Address) -> tuple[Point, ...]:
        return tuple(self.points[i] for i in self._positions(addr))

    def _children(self, addr: Address) -> tuple[Digits, ...]:
        unit, M, cubes = self.M ** (self.height - len(addr) - 1), self.M, self._cubes
        return tuple(sorted({tuple(c // unit % M for c in cubes[i])
                             for i in self._positions(addr)}))

    def min_point(self, addr: Address) -> Point:
        positions = self._positions(addr)
        if not positions:
            raise InvalidInput("empty cube")
        return self.points[positions[0]]


class DigitRuleTree(MadicTree):
    """Lazily generated tree: ``rule(addr)`` yields the child digit tuples.

    ``split_fn(addr)``, when given, must return the exact splitting number
    of the subtree rooted at ``addr``; generators whose structure makes this
    value obvious (Cantor-type sets split at every level) supply it so that
    pruning never explores the full tree.  Without it the value is computed
    recursively (and memoized by the base class), which materializes the
    subtree.

    The backing point of a vertex is the origin of its lexicographically
    minimal full-height extension, so ``min_point`` is exact and cheap.
    """

    def __init__(self, rule: Callable[[Address], tuple[Digits, ...]],
                 M: int, d: int, height: int,
                 split_fn: Callable[[Address], int] | None = None):
        super().__init__(M, d, height)
        self._rule = rule
        self._split_fn = split_fn

    def _children(self, addr: Address) -> tuple[Digits, ...]:
        return tuple(sorted(self._rule(addr)))

    def split_value(self, addr: Address) -> int:
        if self._split_fn is not None:
            return self._split_fn(addr)
        return super().split_value(addr)

    def min_point(self, addr: Address) -> Point:
        cur = addr
        while kids := self.children(cur):
            cur = cur + (kids[0],)
        return cube_origin(cur, self.M, self.d)


def cantor_tree(depth: int, digits: Sequence[int] = (0, 2), M: int = 3,
                d: int = 1) -> DigitRuleTree:
    """Cantor-type rule tree: the same digit set at every level and axis.

    Every vertex splits, so split(subtree at height h) = depth - h.
    """
    kids = tuple(product(sorted(digits), repeat=d))
    return DigitRuleTree(lambda addr: kids, M, d, depth,
                         split_fn=lambda addr: depth - len(addr))


def full_tree(depth: int, M: int = 2, d: int = 1) -> DigitRuleTree:
    """The complete M-adic tree of the given depth; encodes the M-adic
    rationals {k M^-depth} without materializing them."""
    return cantor_tree(depth, digits=range(M), M=M, d=d)


# ---------------------------------------------------------------------------
# encoding / splitting numbers
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


def agreement_height_scalar(a: Fraction, b: Fraction, M: int) -> int:
    """Largest k >= 0 with floor(a M^k) == floor(b M^k), for a != b, and
    -1 when no such k exists.

    This is the height of the youngest common ancestor of the two points in
    the (untruncated) M-adic tree, computed without materializing digits.
    The tree of a set that meets several unit intervals [n, n+1) joins
    them under one root at height -1, so an integer shift of the set
    changes no agreement height, splitting number or decomposition.
    """
    if a == b:
        raise InvalidInput("equal points have unbounded agreement")
    if math.floor(a) != math.floor(b):
        return -1
    gap = abs(a - b)
    # bracket from bit lengths, so huge denominators stay cheap: gap >
    # 2^-(bits+1) and agreement at height h needs gap M^h < 2, so no
    # height above hi agrees; binary search the largest agreeing height
    bits = gap.denominator.bit_length() - gap.numerator.bit_length()
    hi = max(0, int((bits + 2) / math.log2(M)) + 2)
    lo = 0
    # floor(a M^k) in integers, as p M^k // q: no Fraction is built
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if an * M**mid // ad == bn * M**mid // bd:
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
    stay cheap.  A run branches where its adjacent points agree least.
    One left-to-right pass over the adjacent agreement heights, with a
    stack of the open runs, records every run's children and split value;
    nothing recurses, so a chain of 20,000 nested runs ({2^-j : j = 1..20,000}
    at M = 2) needs no raised recursion limit.
    """

    def __init__(self, pts: Sequence[Fraction], M: int):
        if M < 2:
            raise InvalidInput("need M >= 2")
        self.pts = pts
        self._children: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._split: dict[tuple[int, int], int] = {}

        def close(i: int, kids: list, j: int) -> tuple[int, int]:
            self._children[i, j] = kids
            self._split[i, j] = split_combine(self.split_value(*c) for c in kids)
            return i, j

        # open runs, shallowest first: (agreement height, first point,
        # finished children); ``run`` is the last finished run
        stack, run = [], (0, 0)
        for k, (a, b) in enumerate(zip(pts, pts[1:])):
            h = agreement_height_scalar(a, b, M)
            while stack and stack[-1][0] > h:
                _, i, kids = stack.pop()
                run = close(i, kids + [run], k)
            if stack and stack[-1][0] == h:
                stack[-1][2].append(run)
            else:
                stack.append((h, run[0], [run]))
            run = (k + 1, k + 1)
        while stack:
            _, i, kids = stack.pop()
            run = close(i, kids + [run], len(pts) - 1)

    def children(self, i: int, j: int) -> list[tuple[int, int]]:
        """Runs below the vertex i..j (i < j), left to right."""
        return self._children[i, j]

    def split_value(self, i: int = 0, j: int | None = None) -> int:
        """Splitting number of the subtree spanning points i..j (default:
        the whole set)."""
        j = len(self.pts) - 1 if j is None else j
        return 0 if i == j else self._split[i, j]


def splitting_number_1d_points(points: Sequence[Fraction], M: int) -> int:
    """Splitting number of the untruncated tree of a finite 1-d rational set.

    It reads the set through the M-adic grid, so it bounds the lacunary
    order from above and need not equal it: {+-2^-j : j = 1..7}, a union of
    two lacunary sequences converging to 0, reads 2 at M = 2 at every
    integer shift."""
    pts = sorted(set(points))
    tree = CondensedTree(pts, M)  # refuses M < 2 at any size
    return tree.split_value() if len(pts) > 1 else 0


# ---------------------------------------------------------------------------
# point-set JSON
# ---------------------------------------------------------------------------

def points_to_json(points: Sequence[Point], M: int, d: int, J: int) -> str:
    """The JSON that ``encode`` prints, such as ``{"M": 3, "d": 1, "J": 4,
    "points": [["1/3"], ["2/9"]]}``; no command reads it."""
    return json.dumps({
        "M": M, "d": d, "J": J,
        "points": [[f"{c.numerator}/{c.denominator}" for c in p] for p in points],
    })
