"""Exact tube geometry: intersections, volumes, poss(x) and the trees N_x.

A tube is the prism swept by a dilated root cube translated along a
direction (1, w): its cross-section at abscissa x1 is an axis-aligned cube
of sidelength ``c_d * M^-J`` centred at ``cen(t) + x1 w``.  Because the
cross-section moves linearly in x1, every pairwise question reduces to
piecewise-linear feasibility or piecewise-polynomial integration over x1,
which is carried out in exact rational arithmetic.

``c_d = min(d^-2d, 1/(4 sqrt d))`` evaluates to the rational 1/4 for d=1
and d^-2d for d >= 2, so the dilation factor is exact; the defining
inequality 2 c_d sqrt(d) <= 1/2 is asserted by squaring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import lcm
from operator import itemgetter
from typing import Sequence

from .errors import InvalidInput, SizeCapExceeded
from .madic import (
    Address,
    Point,
    cube_center,
    point_address,
)
from .pruning import PrunedSlopeTree
from .sticky import ReferenceTree, StickyMap, sticky_pair

DEFAULT_A0 = 10


@cache
def cross_section_dilation(d: int) -> Fraction:
    """The rational c_d: 1/4 in dimension 1, d^-2d beyond."""
    cd = min(Fraction(1, 4), Fraction(1, d ** (2 * d))) if d == 1 else Fraction(1, d ** (2 * d))
    # 2 c_d sqrt(d) <= 1/2, squared: 16 c_d^2 d <= 1
    assert 16 * cd * cd * d <= 1
    return cd


def clip_x1(lo: Fraction, hi: Fraction, A0: int) -> tuple[Fraction, Fraction]:
    """The x1 window [lo, hi] cut to the extent [0, 10 A0] of every tube;
    empty when the first end is not below the second."""
    return max(lo, Fraction(0)), min(hi, Fraction(10 * A0))


@dataclass(frozen=True)
class Tube:
    """Prism rooted at a height-J cube with orientation (1, slope)."""
    root: Address
    slope: Point
    M: int
    J: int
    A0: int = DEFAULT_A0
    # formed once, and no part of a comparison
    center: Point = field(init=False, repr=False, compare=False)
    side: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "center", cube_center(self.root, self.M, self.d))
        object.__setattr__(self, "side",
                           cross_section_dilation(self.d) * Fraction(1, self.M ** self.J))

    @property
    def d(self) -> int:
        return len(self.slope)

    def section_center(self, x1: Fraction) -> Point:
        return tuple(ci + x1 * wi for ci, wi in zip(self.center, self.slope))

    def contains(self, x) -> bool:
        """Exact membership of a point (x1, y) in R^{d+1}."""
        x1, y = x[0], x[1:]
        if clip_x1(x1, x1, self.A0) != (x1, x1):  # x1 outside [0, 10 A0]
            return False
        c = self.section_center(x1)
        half = self.side / 2
        return all(abs(yi - ci) <= half for yi, ci in zip(y, c))


class SlabWindow(tuple):
    """The x1 window [rho, C1 * rho] as the plain pair (lo, hi); every
    function that takes a window takes any such pair."""
    lo, hi = property(itemgetter(0)), property(itemgetter(1))

    def __new__(cls, rho: Fraction, C1: Fraction = Fraction(2)):
        if rho <= 0 or C1 <= 1:
            raise InvalidInput("need rho > 0 and C1 > 1")
        return super().__new__(cls, (rho, rho * C1))


def make_tube(pruned: PrunedSlopeTree, root: Address, slope_code: int,
              A0: int = DEFAULT_A0) -> Tube:
    return Tube(root=root, slope=pruned.slopes[slope_code],
                M=pruned.M, J=pruned.J, A0=A0)


# ---------------------------------------------------------------------------
# pairwise intersection
# ---------------------------------------------------------------------------

def _pair_frame(p1: Tube, p2: Tube):
    if (p1.M, p1.J, p1.d, p1.A0) != (p2.M, p2.J, p2.d, p2.A0):
        raise InvalidInput("tubes from mismatched instances")
    dc = tuple(a - b for a, b in zip(p1.center, p2.center))
    dw = tuple(a - b for a, b in zip(p1.slope, p2.slope))
    return dc, dw


def _feasible_x1(dc, dw, s: Fraction, A0: int, w: tuple[Fraction, Fraction]):
    """Open x1-interval where two cross-sections of side s, whose centres
    differ by ``dc`` and slopes by ``dw``, overlap, or None."""
    lo, hi = clip_x1(*w, A0)
    if lo >= hi:
        return None
    open_lo, open_hi = Fraction(lo), Fraction(hi)
    closed = True  # window endpoints are closed, coordinate bounds open
    for a, b in zip(dc, dw):
        # need |a + x1 b| < s
        if b == 0:
            if abs(a) >= s:
                return None
            continue
        r1, r2 = (-s - a) / b, (s - a) / b
        if r1 > r2:
            r1, r2 = r2, r1
        open_lo, open_hi = max(open_lo, r1), min(open_hi, r2)
    if open_lo >= open_hi:
        return None
    return open_lo, open_hi


def assert_pair_inequalities(dc, dw, iv, M: int, J: int) -> None:
    """Assert the centre inequality and the scale inequality
    |x1||v - v'| >= M^-J / 2 at the midpoint x1 of the open overlap
    interval ``iv`` of two tubes with distinct roots, whose centres differ
    by ``dc`` and slopes by ``dw`` (Fractions; compared as integers)."""
    d = len(dc)
    x1 = (iv[0] + iv[1]) / 2
    p, q = x1.numerator, x1.denominator
    # dc_i + x1 dw_i = nums[i] / dens[i] and dw_i = dw_i.numerator / dw_i.denominator
    nums = [a.numerator * b.denominator * q + p * b.numerator * a.denominator
            for a, b in zip(dc, dw)]
    dens = [a.denominator * b.denominator * q for a, b in zip(dc, dw)]
    L, Lw = lcm(*dens), lcm(*(b.denominator for b in dw))
    vec_sq = sum((n * (L // m)) ** 2 for n, m in zip(nums, dens))  # times L^2
    speed_sq = sum((b.numerator * (Lw // b.denominator)) ** 2 for b in dw)  # times Lw^2
    cd = cross_section_dilation(d)
    m2 = M ** (2 * J)
    # |dc + x1 dw|^2 <= 4 c_d^2 d M^-2J
    if vec_sq * cd.denominator ** 2 * m2 > 4 * cd.numerator ** 2 * d * L * L:
        raise AssertionError("centre inequality fails on an intersecting pair")
    # x1^2 |dw|^2 >= M^-2J / 4
    if 4 * p * p * speed_sq * m2 < q * q * Lw * Lw:
        raise AssertionError("scale inequality |x1||v-v'| >= M^-J/2 fails")


def intersects(p1: Tube, p2: Tube, w: tuple[Fraction, Fraction]) -> bool:
    """Exact emptiness test of the prism intersection inside the window.

    On a positive answer with distinct roots, the centre inequality and the
    scale inequality are asserted (:func:`assert_pair_inequalities`).
    This Fraction test is the oracle of the integer scan in
    ``counting.enumerate_E2``.
    """
    dc, dw = _pair_frame(p1, p2)
    iv = _feasible_x1(dc, dw, p1.side, p1.A0, w)
    if iv is None:
        return False
    if p1.root != p2.root:
        assert_pair_inequalities(dc, dw, iv, p1.M, p1.J)
    return True


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_integral(p, lo, hi):
    total = Fraction(0)
    for i, a in enumerate(p):
        total += a * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return total


def pair_intersection_volume(p1: Tube, p2: Tube, w: tuple[Fraction, Fraction]) -> Fraction:
    """Exact volume of the pair intersection inside the slab window.

    The overlap of the two moving cross-sections factors per axis into
    ``max(0, s - |dc_i + x1 dw_i|)``; the product is piecewise polynomial
    of degree <= d in x1 and is integrated in closed form between the
    rational breakpoints.
    """
    dc, dw = _pair_frame(p1, p2)
    s = p1.side
    lo, hi = clip_x1(*w, p1.A0)
    if lo >= hi:
        return Fraction(0)
    cuts = {lo, hi}
    for a, b in zip(dc, dw):
        if b != 0:
            for target in (-s, Fraction(0), s):
                x = (target - a) / b
                if lo < x < hi:
                    cuts.add(x)
    xs = sorted(cuts)
    total = Fraction(0)
    for x0, x1 in zip(xs, xs[1:]):
        mid = (x0 + x1) / 2
        poly = [Fraction(1)]
        dead = False
        for a, b in zip(dc, dw):
            val = a + mid * b
            if abs(val) >= s:
                dead = True
                break
            if val >= 0:
                poly = _poly_mul(poly, [s - a, -b])
            else:
                poly = _poly_mul(poly, [s + a, b])
        if not dead:
            total += _poly_integral(poly, x0, x1)
    return total


def tube_slab_volume(tube: Tube, w: tuple[Fraction, Fraction]) -> Fraction:
    lo, hi = clip_x1(*w, tube.A0)
    if lo >= hi:
        return Fraction(0)
    return tube.side ** tube.d * (hi - lo)


# ---------------------------------------------------------------------------
# union volume: quadrature of exact slice measures + Cauchy-Schwarz bound
# ---------------------------------------------------------------------------

BOX_CAP = 4096


def _union_measure(boxes) -> Fraction:
    """Exact measure of a union of axis-aligned boxes, each a tuple of
    per-axis (lo, hi) pairs: cut the first axis at the box ends and recurse
    on the boxes that cover each strip; in one dimension the boxes are
    intervals, merged in order."""
    if len(boxes[0]) == 1:
        total, cur_lo, cur_hi = Fraction(0), None, None
        for lo, hi in sorted(b[0] for b in boxes):
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        return total + (cur_hi - cur_lo)
    cuts = sorted({end for b in boxes for end in b[0]})
    by_start = sorted(boxes, key=lambda b: b[0][0])
    total, active, i = Fraction(0), [], 0
    for lo, hi in zip(cuts, cuts[1:]):
        while i < len(by_start) and by_start[i][0][0] <= lo:
            active.append(by_start[i])
            i += 1
        # every box end is a cut, so a started box that ends after lo
        # covers the whole strip
        active = [b for b in active if b[0][1] > lo]
        if active:
            total += (hi - lo) * _union_measure([b[1:] for b in active])
    return total


def _slice_union_measure(tubes: Sequence[Tube], x1: Fraction) -> Fraction:
    """Exact d-dimensional measure of the union of cross-sections at x1.
    The sweep merges intervals in up to (2n)^(d-1) strips of n boxes, so
    sets with n^(d-1) > BOX_CAP are refused."""
    d = tubes[0].d
    if len(tubes) ** (d - 1) > BOX_CAP:
        raise SizeCapExceeded(
            f"too many boxes for the slice union: {len(tubes)}^{d - 1} > {BOX_CAP}")
    half = tubes[0].side / 2
    return _union_measure([tuple((ci - half, ci + half) for ci in t.section_center(x1))
                           for t in tubes])


def union_volume(tubes: Sequence[Tube], w: tuple[Fraction, Fraction], slices: int = 64):
    """(quadrature estimate, Cauchy-Schwarz lower bound) of the union volume
    inside the window.

    The estimate averages exact per-slice union measures over ``slices``
    midpoints; the lower bound is (sum of tube volumes)^2 over the full
    pairwise-intersection sum, both exact rationals.
    """
    if not tubes:
        raise InvalidInput("empty tube list")
    if slices < 1:
        raise InvalidInput("need at least one slice")
    lo, hi = clip_x1(*w, tubes[0].A0)
    if lo >= hi:
        return Fraction(0), Fraction(0)
    width = (hi - lo) / slices
    est = Fraction(0)
    for k in range(slices):
        x1 = lo + width * k + width / 2
        est += _slice_union_measure(tubes, x1) * width

    vols = [tube_slab_volume(t, w) for t in tubes]
    numer = sum(vols) ** 2
    denom = sum(vols)  # diagonal terms
    for i, t1 in enumerate(tubes):
        for t2 in tubes[i + 1:]:
            denom += 2 * pair_intersection_volume(t1, t2, w)
    bound = numer / denom if denom else Fraction(0)
    return est, bound


# ---------------------------------------------------------------------------
# Poss(x) and the reference trees
# ---------------------------------------------------------------------------

def poss(x, pruned: PrunedSlopeTree) -> dict[Address, int]:
    """Root cubes that can carry a tube through x, with the unique
    compatible slope for each.

    Characterized by ``t`` meeting ``x - x1 * Omega_N``; at most one slope
    fits a given root once x1 >= A0 = ``DEFAULT_A0``, which is asserted.
    """
    x1, y, A0 = x[0], tuple(x[1:]), DEFAULT_A0
    if not (A0 <= x1 <= 10 * A0):
        raise InvalidInput(f"x1 = {x1} outside [{A0}, {10 * A0}]")
    out: dict[Address, int] = {}
    for code, wvec in enumerate(pruned.slopes):
        pre = tuple(yi - x1 * wi for yi, wi in zip(y, wvec))
        if all(0 <= c < 1 for c in pre):
            t = point_address(pre, pruned.M, pruned.J)
            if t in out:
                raise AssertionError("two slopes fit one root; C0 too small")
            out[t] = code
    return out


def poss_strict(x, pruned: PrunedSlopeTree) -> dict[Address, int]:
    """The subset of poss(x) whose dilated tube actually contains x."""
    out = {}
    for t, code in poss(x, pruned).items():
        if make_tube(pruned, t, code).contains(x):
            out[t] = code
    return out


def reference_trees(x, pruned: PrunedSlopeTree) -> ReferenceTree:
    """N_x, the percolation substrate at x: the reference tree of the
    prescription poss(x), whose edge into each reference cube carries the
    bit kappa telling which branch of its splitting vertex the ideal slope
    takes.  Weak stickiness, every two pairs passing the two-pair rule
    ``sticky.sticky_pair``, is asserted since the paper proves it; the
    kappa labels are then well defined, stickiness being pairwise.

    With no possible root, N_x is the root alone, a leaf: there
    ``survival_exact`` gives 1 while no ray of a root survives.
    """
    items = list(poss(x, pruned).items())
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if a[1] != b[1] and pruned.slope_yca(a[1], b[1]) not in pruned.gamma:
                raise AssertionError("slope ancestor is not a splitting vertex")
            if not sticky_pair(pruned, a, b):
                raise AssertionError("weak stickiness h(u) < lambda(w) fails; raise C0")
    return ReferenceTree(pruned, items)


def inclusion_check(x, sticky_map: StickyMap):
    """Witness root for membership of x in the realized union of tubes.

    Returns a root t in Poss(x) whose realized slope matches the ideal one
    and whose (dilated) tube contains x, or None; absence of a witness is
    equivalent to non-membership.
    """
    return next((t for t, code in poss_strict(x, sticky_map.pruned).items()
                 if sticky_map.slope_code(t) == code), None)
