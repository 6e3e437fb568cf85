"""Enumerators for intersecting tube pairs, triples and quadruples.

The pair collection ``E2[u, w; rho]`` gathers sticky-admissible root-slope
pairs with prescribed youngest common ancestors whose tubes meet inside an
x1 window.  :func:`enumerate_E2` decides the meeting on an integer
lattice: root centres differ by delta/M^J, the slopes are the integer
numerators ``pruned.sigma`` over the instance's one denominator
``pruned.D``, and whether some x1 in the window puts the two
cross-sections within the tube side on every axis is a set of integer
comparisons, run in one numpy pass per call.  What a scan reads of
neither u nor its roots is one cached plan per (instance, w, rho): per
code pair, the closed box of root offsets that can hit and, in d >= 2
where cross forms cut the box, a bool table over that box alone (in
d = 1 a box is all hits), complete and read-only once the plan is built
(a plan that cannot be built raises on every call, however few its
roots).  One rule holds for every scan and join here: a call that cannot
return a record returns nothing before it reads a root, as when its plan
holds no hit, lambda(w) <= h(u) makes no pair sticky, or a join's first
pair collection is empty.  The scan reads its hits as arrays keyed by
(root pair, code pair) off those boxes and zips the records from them
last; a sum grouped by configuration, such as the sum of probability
times intersection volume over E2, should read those arrays, not the
records.
Slope ycas, slope metrics and the lattice come off the pruned instance,
as in every module, and each root's cube index off its entry in the root
table of ``sticky._root``; only the oracles recompute slope ancestors
inline, to stay independent.
:func:`enumerate_E2_bruteforce` is its independent oracle, a plain loop
over every root and slope pair through the Fraction test
``tubes.intersects``.  The triple and quadruple collections are joins over
two pair collections (one, when their anchors are equal).  Both read the
configuration type off their anchors, returning nothing before any pair
collection when the anchors rule it out, and check only the cross pairs
a join adds with ``sticky.sticky_pair``, stickiness being pairwise.  The
oracles, :func:`bruteforce_E4` among them, classify and merge with
``classify_roots`` and ``is_sticky_admissible`` instead.  E2, E3 and E4
return tuples of (root, code) pairs.  Any input off its one form raises
InvalidInput before any early return: ``roots`` is a list or tuple of
roots, an anchor u a cube of the root lattice, a w a splitting vertex.
Everything here is desk-scale and exhaustive, guarded by hard size caps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, product
from math import isqrt, prod
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, SizeCapExceeded
from .madic import Address, cube_address, cube_origin, youngest_common_ancestor
from .pruning import PrunedSlopeTree, slope_metrics
from .sticky import (_check_root, _max_cross, _root, classify_roots, is_sticky_admissible,
                     sticky_pair)
from .tubes import (
    DEFAULT_A0,
    SlabWindow,
    clip_x1,
    cross_section_dilation,
    intersects,
    make_tube,
)

ROOT_CAP = 3 ** 8
VERDICT_CAP = 1 << 20  # root offsets in the boxes of one E2 plan
_PAIR_BLOCK = 1 << 14  # root pairs per block of the E2 array scan


def all_root_cubes(pruned: PrunedSlopeTree, cap: int = ROOT_CAP):
    """Every height-J cube of the root tree, as addresses: after the cap
    check, a new list of the same tuple objects on every call, which
    :func:`_root_cubes` builds once."""
    n = pruned.M ** (pruned.d * pruned.J)
    if n > cap:
        raise SizeCapExceeded(f"{n} root cubes exceed the scan cap {cap}")
    return list(_root_cubes(pruned.M, pruned.d, pruned.J))


@lru_cache(maxsize=16)
def _root_cubes(M: int, d: int, J: int) -> tuple:
    return tuple(cube_address(idx, M, J) for idx in product(range(M ** J), repeat=d))


def _scan_roots(pruned: PrunedSlopeTree, roots, cap: int = ROOT_CAP):
    """``roots``, a list or tuple, or every root cube when it is None."""
    if roots is not None and type(roots) not in (list, tuple):
        raise InvalidInput(f"roots must be a list or tuple, not {type(roots).__name__}")
    return all_root_cubes(pruned, cap) if roots is None else roots


def _check_anchors(pruned: PrunedSlopeTree, us=(), ws=()) -> None:
    """Refuse root anchors ``us`` and slope anchors ``ws`` unless each is a
    cube of the lattice, checked as ``sticky._check_root`` checks an
    anchor, and each slope anchor a splitting vertex."""
    for a in (*us, *ws):
        _check_root(pruned, a, anchor=True)
    for w in ws:
        if w not in pruned.gamma:
            raise InvalidInput(f"{w!r} is not a splitting vertex")


# ---------------------------------------------------------------------------
# pair collections
# ---------------------------------------------------------------------------

class _Plan(NamedTuple):
    """An E2 plan of :func:`_plan`, read-only: in code order, the (c1, c2)
    code pairs whose slope leaves separate exactly at w and whose closed
    box ``lo[q] <= delta <= hi[q]`` of root offsets (int64, a row per pair,
    a column per axis) holds a hit, and ``tables``, (q, bool table over
    box q, row-major from lo[q], True for a hit) for each d >= 2 box that
    cross forms cut.  The scan reads unsigned offsets from ``low``, the
    boxes' overall low corner: delta - low <= ``reach`` within the boxes'
    overall bounds, and delta - low - ``start`` <= ``span`` in a box,
    where start = lo - low and span = hi - lo."""

    pairs: tuple
    lo: np.ndarray
    hi: np.ndarray
    tables: tuple
    low: np.ndarray
    reach: np.ndarray
    start: np.ndarray
    span: np.ndarray


@lru_cache(maxsize=256)
def _plan(pruned: PrunedSlopeTree, w: Address, p: int, q: int):
    """What an E2 scan over [rho, 2 rho], rho = p/q in lowest terms, with
    slope anchor w reads of neither u nor its roots, or None when no code
    pair's box holds a hit, so that no such scan need read a root; the
    plan is complete when this returns, and nothing writes to it again.

    The window is cut to [lo, hi] by ``clip_x1`` to the extent [0, 10 A0]
    of every tube, A0 = ``tubes.DEFAULT_A0``, and the tube side is
    S/(E M^J).  With D the slope-lattice denominator ``pruned.D``, the
    slope difference of a code pair is b/D on each axis, ``b`` holding the
    signed integers; a root offset delta (centres delta/M^J apart)
    overlaps at some x1 in [lo, hi] exactly when every axis keeps delta in
    the pair's closed box and every cross form (i, j, f_i, f_j, bound) has
    f_i delta_i + f_j delta_j < bound.  The box comes from lo < r2 and
    r1 < hi on a moving axis (i, sgn, |b_i|) and from |a| < s on a still
    one, cut to the reach of a hit; the cross forms are r1_i < r2_j, so a
    d = 1 box is all hits.  Each offset in a box other than 0 (no root
    pair has offset 0) is decided once, by the cross forms (d >= 2) and,
    for a hit, by :func:`_assert_configuration`, whose Fraction oracle is
    ``tubes.assert_pair_inequalities``.  Boxes of more than ``VERDICT_CAP``
    offsets in all raise SizeCapExceeded before any is decided, in d = 1
    too, as does a failing check; either way nothing is cached, so every
    call on the key raises, a call with no roots included.
    """
    win = SlabWindow(Fraction(p, q), 2)
    M, d, J = pruned.M, pruned.d, pruned.J
    K, D, sigma = M ** J, pruned.D, pruned.sigma
    rho_sq = slope_metrics(pruned, w).rho_sq
    # a hit has M^-J / 2 <= |x1||v1 - v2| <= 2 rho rho_w
    if 4 * win.hi ** 2 * rho_sq < Fraction(1, K * K):
        return None
    lo, hi = clip_x1(*win, DEFAULT_A0)
    if lo >= hi:
        return None
    cd = cross_section_dilation(d)
    S, E = cd.numerator, cd.denominator  # tube side S / (E M^J)
    # a hit has |cen(t1) - cen(t2)| <= 2 rho rho_w + 2 c_d sqrt(d) M^-J;
    # no |delta|^2 exceeds d (K - 1)^2, and no box end matters past the
    # reach, so the offsets and the box ends fit int64
    reach_sq = 2 * win.hi ** 2 * rho_sq + Fraction(8 * d) * cd * cd / (K * K)
    lim = isqrt(min(int(reach_sq * K * K), d * (K - 1) ** 2)) + 1
    still = -(-S // E) - 1  # |delta| E < S
    pl, ql, ph, qh = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    codes = range(2 ** pruned.N)
    cands = []
    for c1 in codes:
        for c2 in codes:
            if pruned.slope_yca(c1, c2) != w:
                continue
            b = tuple(s1 - s2 for s1, s2 in zip(sigma[c1], sigma[c2]))
            box, moving = [], []
            for i, bi in enumerate(b):
                if bi == 0:
                    box.append((-still, still))
                    continue
                sgn, B = (1, bi) if bi > 0 else (-1, -bi)
                # x = sgn delta: x < (S ql D - pl E K B) / (E ql D) and
                # x > -(S qh D + ph E K B) / (E qh D)
                x_hi = -((pl * E * K * B - S * ql * D) // (E * ql * D)) - 1
                x_lo = -(S * qh * D + ph * E * K * B) // (E * qh * D) + 1
                box.append((x_lo, x_hi) if sgn > 0 else (-x_hi, -x_lo))
                moving.append((i, sgn, B))
            # E (x_j B_i - x_i B_j) < S (B_i + B_j)
            cross = tuple((i, j, -E * si * Bj, E * sj * Bi, S * (Bi + Bj))
                          for i, si, Bi in moving for j, sj, Bj in moving if i != j)
            box = [(max(l, -lim), min(r, lim)) for l, r in box]
            cands.append(((c1, c2), box, cross, tuple(moving), b))
    size = sum(prod(max(0, r - l + 1) for l, r in box) for _, box, *_ in cands)
    if size > VERDICT_CAP:
        raise SizeCapExceeded(f"a plan of {size} box offsets exceeds the cap {VERDICT_CAP}")
    pairs, boxes, tables = [], [], []
    for pair, box, cross, moving, b in cands:
        # every offset of the box, row-major, and which are hits
        delta = list(product(*(range(l, r + 1) for l, r in box)))
        hit = [any(dl) and all(fi * dl[i] + fj * dl[j] < bound for i, j, fi, fj, bound
                               in cross) for dl in delta]
        for dl in compress(delta, hit):
            _assert_configuration(pruned, dl, moving, b, lo, hi, S, E)
        if any(hit):
            # no root pair has offset 0, so only cross forms cut a box
            if any(any(dl) > h for dl, h in zip(delta, hit)):
                tables.append((len(pairs), np.array(hit).reshape([r - l + 1 for l, r in box])))
            pairs.append(pair)
            boxes.append(box)
    if not pairs:
        return None
    first, last = np.array(boxes, dtype=np.int64).transpose(2, 0, 1)
    low = first.min(axis=0)
    plan = _Plan(tuple(pairs), first, last, tuple(tables), low,
                 (last.max(axis=0) - low).astype(np.uint64), first - low,
                 (last - first).astype(np.uint64))
    for a in (*plan[1:3], *(t for _, t in tables), *plan[4:]):
        a.flags.writeable = False  # shared by every call with this key
    return plan


def enumerate_E2(pruned: PrunedSlopeTree, u: Address, w: Address, rho, roots=None):
    """All sticky-admissible intersecting pairs ((t1, c1), (t2, c2)) with
    D(t1, t2) = u and D(v1, v2) = w, meeting inside [rho, 2 rho].

    The pairs come out with t1, then t2, in ``roots`` order, then (c1, c2)
    in code order; root pairs are drawn from the roots under u whose
    digits at height h(u) differ.  The test of ``tubes.intersects`` (closed
    window ends, open coordinate bounds) becomes integer comparisons on the
    lattice of :func:`_plan`, the part of a scan that is cached, keyed on
    rho's numerator and denominator; its boxes and tables are complete
    when the plan is built and only read here.  A call checks its anchors,
    ``roots`` and the int64 bound first; a plan it cannot build (boxes
    over ``VERDICT_CAP``, a failing configuration check) raises.  Every
    hit has root yca u and slope yca w, so by the two-pair rule
    ``sticky_pair`` it is sticky exactly when lambda(w) > h(u).  A call
    that cannot return a record, with no plan or with lambda(w) <= h(u),
    returns [] before it reads a root.  Any other call reads each root
    through the instance's root table (``sticky._root``) before the filter
    on u, so it refuses every root it reads that is off the lattice, a
    list among them.  One numpy pass over blocks of t1 keeps the root
    pairs from different branches of u whose offset lies within the
    boxes' overall bounds, then tests each against every box and its
    table; the records are zipped from the hit arrays last.
    ``enumerate_E2_bruteforce`` is the independent Fraction oracle.
    """
    _check_anchors(pruned, (u,), (w,))
    roots = _scan_roots(pruned, roots)
    M, d, J, h = pruned.M, pruned.d, pruned.J, len(u)
    if d * M ** (2 * J) >= 2 ** 63:
        raise InvalidInput("root offsets too large for the int64 scan")
    if type(rho) is not int and type(rho) is not Fraction:
        rho = Fraction(rho)
    plan = _plan(pruned, w, rho.numerator, rho.denominator)
    if plan is None or h >= J or pruned.gamma[w].lam <= h:
        return []
    # every root read through the table; per root under u, its cube index
    # per axis, (n, d), and its branch of u
    get, under, idx, grp, branch = pruned.roots.get, [], [], [], {}
    for t in roots:
        try:
            got = get(t)
        except TypeError:  # a list or unhashable digits, refused by _root
            got = None
        if got is None or got[0] is not t:
            got = _root(pruned, t)
        if t[:h] == u:
            under.append(t)
            idx.append(got[1])
            grp.append(branch.setdefault(t[h], len(branch)))
    if len(under) < 2:
        return []
    pairs, reach, start, span = plan.pairs, plan.reach, plan.start, plan.span
    idx, grp = np.array(idx, dtype=np.int64), np.array(grp)
    first = idx - plan.low

    out = []
    rows = max(1, _PAIR_BLOCK // len(under))
    for b0 in range(0, len(under), rows):
        # delta - low per (t1, t2, axis); unsigned, at most reach in bounds
        x = first[b0:b0 + rows, None] - idx
        keep = grp[b0:b0 + rows, None] != grp
        for i in range(d):
            keep &= x[:, :, i].view(np.uint64) <= reach[i]
        i1, i2 = keep.nonzero()  # row-major: t1, then t2
        # per kept pair and box, delta - lo per axis, unsigned, at most span
        at = x[i1, i2, None] - start
        inside = (at.view(np.uint64) <= span).all(axis=2)
        for q, table in plan.tables:
            k = inside[:, q].nonzero()[0]
            inside[k, q] = table[tuple(at[k, q].T)]
        hit_p, hit_q = inside.nonzero()  # t1, t2, then (c1, c2)
        out += [((under[a], pairs[q][0]), (under[b], pairs[q][1])) for a, b, q
                in zip((i1[hit_p] + b0).tolist(), i2[hit_p].tolist(), hit_q.tolist())]
    return out


def _assert_configuration(pruned, delta, moving, b, lo, hi, S, E):
    """The centre and scale inequalities of one lattice configuration, at
    the midpoint of its overlap interval, in integers: root offset
    ``delta`` (centres delta/M^J apart), slope difference b/D per axis and
    tube side S/(E M^J).  ``tubes.assert_pair_inequalities`` is the
    Fraction oracle; the two raise the same messages."""
    K, D = pruned.M ** pruned.J, pruned.D
    # the overlap interval is the window cut, on each moving axis with
    # x = sgn delta, to r1 = D (-S - E x) / (E K B) and r2 = D (S - E x) / (E K B);
    # its ends are (numerator, positive denominator), compared cross-multiplied
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    for i, sgn, B in moving:
        x, den = sgn * delta[i], E * K * B
        r1, r2 = D * (-S - E * x), D * (S - E * x)
        if r1 * ld > ln * den:
            ln, ld = r1, den
        if r2 * hd < hn * den:
            hn, hd = r2, den
    # the midpoint x1 = P / Q, unreduced: both tests are homogeneous in (P, Q)
    DQ, KP = D * 2 * ld * hd, K * (ln * hd + hn * ld)
    # |delta/K + x1 b/D|^2 <= 4 c_d^2 d K^-2 with c_d = S/E
    if sum((x * DQ + KP * y) ** 2 for x, y in zip(delta, b)) * E * E \
            > 4 * S * S * len(delta) * DQ * DQ:
        raise AssertionError("centre inequality fails on an intersecting pair")
    # x1^2 |b/D|^2 >= K^-2 / 4
    if 4 * KP * KP * sum(y * y for y in b) < DQ * DQ:
        raise AssertionError("scale inequality |x1||v-v'| >= M^-J/2 fails")


def _oracle_parts(pruned, roots, ws):
    """What an oracle call reads of no root pair, built once per call: the
    Fraction tube of every (root, code), and per slope anchor of ``ws``
    the code pairs, in code order, whose slope leaves have it as youngest
    common ancestor."""
    codes, leaf = range(2 ** pruned.N), pruned.slope_leaf
    tube = {(t, c): make_tube(pruned, t, c) for t in roots for c in codes}
    pairs = [[(c1, c2) for c1 in codes for c2 in codes
              if youngest_common_ancestor(leaf(c1), leaf(c2)) == w] for w in ws]
    return tube, pairs


def enumerate_E2_bruteforce(pruned, u, w, rho, roots=None):
    """Oracle of ``enumerate_E2``: every (t1, t2, c1, c2) with the ancestor
    filters, stickiness and the Fraction test ``tubes.intersects``, with
    no prefilter."""
    _check_anchors(pruned, (u,), (w,))
    roots = _scan_roots(pruned, roots)
    for t in roots:
        _check_root(pruned, t)
    win = SlabWindow(Fraction(rho), 2)
    tube, (pairs,) = _oracle_parts(pruned, roots, (w,))
    out = []
    for t1 in roots:
        for t2 in roots:
            if t1 == t2 or youngest_common_ancestor(t1, t2) != u:
                continue
            for c1, c2 in pairs:
                if not is_sticky_admissible(pruned, [(t1, c1), (t2, c2)])[0]:
                    continue
                if intersects(tube[t1, c1], tube[t2, c2], win):
                    out.append(((t1, c1), (t2, c2)))
    return out


# ---------------------------------------------------------------------------
# slope tuple complexity
# ---------------------------------------------------------------------------

def slope_complexity(pruned: PrunedSlopeTree, verts) -> int:
    """The exponent decrement: m-hat for 2 vertices, m for 3 or 4.

    The 2 vertices must be nested.  Triples and quadruples may repeat
    entries (at most three distinct): the distinct vertices, sorted by
    height and padded with the shallowest (the maximal-height-first
    convention of the configuration permutations), are w1, w2, w3.  w1
    must contain w2 and w3; m is 2 nu(w3) + nu(w2) + nu(w1) when w3 lies
    inside w2, and 2 (nu(w3) + nu(w2)) when they are disjoint.
    """
    if type(verts) not in (list, tuple) or len(verts) not in (2, 3, 4):
        raise InvalidInput("slope complexity takes a list or tuple of 2 to 4 vertices")
    _check_anchors(pruned, ws=verts)
    nu = pruned.nu
    if len(verts) == 2:
        w1, w2 = sorted(verts, key=len)
        if w2[: len(w1)] != w1:
            raise InvalidInput("pair of slope vertices must be nested")
        return 2 * nu(w2) + nu(w1)
    vs = sorted(dict.fromkeys(verts), key=len)
    if len(vs) > 3:
        raise InvalidInput("more than three distinct slope vertices")
    w1, w2, w3 = vs[:1] * (3 - len(vs)) + vs
    if w2[: len(w1)] != w1 or w3[: len(w1)] != w1:
        raise InvalidInput("slope vertices lack the required nesting")
    if w3[: len(w2)] == w2:  # w3 inside w2
        return 2 * nu(w3) + nu(w2) + nu(w1)
    return 2 * (nu(w3) + nu(w2))


# ---------------------------------------------------------------------------
# triple and quadruple collections
# ---------------------------------------------------------------------------

def _check_join(pruned, ctype, anchors: dict, ctypes: tuple):
    """Refuse a configuration type outside ``ctypes``, anchors without u,
    u2, w or w2 and anchors that :func:`_check_anchors` refuses."""
    if ctype not in ctypes:
        raise InvalidInput(f"configuration type {ctype!r} is not one of "
                           f"{', '.join(map(str, ctypes))}")
    missing = [k for k in ("u", "u2", "w", "w2") if k not in anchors]
    if missing:
        raise InvalidInput(f"anchors lack {', '.join(missing)}")
    _check_anchors(pruned, (anchors["u"], anchors["u2"]), (anchors["w"], anchors["w2"]))


def _joined_pairs(pruned, anchors, rho, roots):
    """The two pair collections of a join, E2[u, w] and E2[u2, w2], one
    when the anchors are equal; an empty first one skips the second."""
    a, b = (anchors["u"], anchors["w"]), (anchors["u2"], anchors["w2"])
    e2a = enumerate_E2(pruned, *a, rho, roots)
    return e2a, e2a if b == a or not e2a else enumerate_E2(pruned, *b, rho, roots)


def enumerate_E3(pruned: PrunedSlopeTree, ctype: int, anchors: dict, rho, roots=None):
    """Sticky-admissible triples ((t1,v1), (t2,v2), (t2',v2')) of the given
    3-point type whose two tube pairs both meet the window, with the
    prescribed anchor vertices.

    The anchors fix the type, as in :func:`enumerate_E4`.  Both pairs
    share t1, so u2 is u or lies inside it: none when it does not, 1 when
    u2 is strictly inside u, and, when u = u2, 2 if t2 and t2' share a
    branch of u and 1 if not.  The two joined pairs are sticky, so
    the triple is when (t2, v2), (t2', v2') is.  The optional anchors of
    type 2, ``t`` = D(t2, t2') and ``vtheta`` = D(v2, v2'), filter its
    triples; a ``t`` that is not a cube of the root lattice and a
    ``vtheta`` that is neither a splitting vertex nor a slope leaf raise
    InvalidInput, as do a type other than 1 or 2 and anchors without u,
    u2, w or w2, all before any early return.  A call that cannot return a
    record reads no root it need not: a type its anchors rule out ends it
    before either pair collection, an empty E2[u, w] before E2[u2, w2].
    """
    _check_join(pruned, ctype, anchors, (1, 2))
    t, vtheta = anchors.get("t"), anchors.get("vtheta")
    if t is not None:
        _check_root(pruned, t, anchor=True)
    if vtheta is not None:
        _check_root(pruned, vtheta, anchor=True)
        if vtheta not in pruned.gamma and \
                vtheta not in map(pruned.slope_leaf, range(len(pruned.slopes))):
            raise InvalidInput(f"{vtheta!r} is neither a splitting vertex nor a slope leaf")
    u, u2, h = anchors["u"], anchors["u2"], len(anchors["u"])
    types = () if u2[:h] != u else (1,) if len(u2) > h else (1, 2)
    if ctype not in types:
        return []
    e2a, e2b = _joined_pairs(pruned, anchors, rho, roots)
    shared = {}  # the pairs of e2b by their first tube, in e2b order
    for first, second in e2b:
        shared.setdefault(first, []).append(second)
    out = []
    for a, b in e2a:
        tb, cb = b
        for c in shared.get(a, ()):
            td, cd = c
            if tb == td or (u == u2 and (tb[h] == td[h]) != (ctype == 2)):
                continue
            if not sticky_pair(pruned, b, c):
                continue
            if ctype == 2:
                if t not in (None, youngest_common_ancestor(tb, td)):
                    continue
                if vtheta not in (None, pruned.slope_yca(cb, cd)):
                    continue
            out.append((a, b, c))
    return out


def enumerate_E4(pruned: PrunedSlopeTree, ctype: int, anchors: dict, rho, roots=None):
    """Sticky-admissible quadruples ((t1,v1), (t2,v2), (t1',v1'), (t2',v2'))
    of the given 4-point type with both windowed intersections; necessary
    location conditions are asserted on every returned tuple.

    Every pair of E2[u, w] has yca u and every pair of E2[u2, w2] yca u2,
    so the anchors fix the type: none when h(u) > h(u2) (every candidate is
    swapped), 1 when u2 is not inside u, 2 when u2 is strictly inside u,
    and, when u = u2, 3 if the two pairs share a branch of u and 1 if not.
    The two joined pairs are sticky, so the quadruple is when its four
    cross pairs are.  A type other than 1, 2 or 3, or anchors without u,
    u2, w or w2, raise InvalidInput.  As in :func:`enumerate_E3`, a type
    its anchors rule out ends a call before either pair collection, an
    empty E2[u, w] before E2[u2, w2].
    """
    _check_join(pruned, ctype, anchors, (1, 2, 3))
    u, u2, h = anchors["u"], anchors["u2"], len(anchors["u"])
    types = () if h > len(u2) else (1,) if u2[:h] != u else (2,) if u2 != u else (1, 3)
    if ctype not in types:
        return []
    e2a, e2b = _joined_pairs(pruned, anchors, rho, roots)
    partners = {}  # the pairs of e2b, in e2b order, by the branches of u they join
    # every pair of e2a has slope yca w and every pair of e2b w2, so the
    # bound of the necessary conditions is one per call
    rw, rw2 = (slope_metrics(pruned, anchors[k]).rho_sq for k in ("w", "w2"))
    bound = 64 * Fraction(rho) ** 2 * (rw if ctype == 2 else min(rw, rw2))
    dist = {}  # cross ancestor -> its squared distance to the child boundary of u
    out = []
    for a, b in e2a:
        key = frozenset((a[0][h], b[0][h])) if u == u2 else None
        if key not in partners:
            partners[key] = [pair for pair in e2b if key is None or key.isdisjoint(
                (pair[0][0][h], pair[1][0][h])) == (ctype == 1)]
        for c, d in partners[key]:
            if len({a[0], b[0], c[0], d[0]}) != 4:
                continue
            if not all(sticky_pair(pruned, x, y) for x in (a, b) for y in (c, d)):
                continue
            _assert_necessary_conditions(pruned, (a, b, c, d), ctype, u, bound, dist)
            out.append((a, b, c, d))
    return out


def _dist_to_child_boundary_sq(pruned, s: Address, u: Address) -> Fraction:
    """Squared distance from the cube s to the boundary of the child of u
    containing it (0 when s = u or s touches that boundary)."""
    if len(s) <= len(u):
        return Fraction(0)
    M, d = pruned.M, pruned.d
    co, so = cube_origin(s[: len(u) + 1], M, d), cube_origin(s, M, d)
    side_c, side_s = Fraction(1, M ** (len(u) + 1)), Fraction(1, M ** len(s))
    best = min(min(x - c, c + side_c - x - side_s) for x, c in zip(so, co))
    return best * best if best > 0 else Fraction(0)


def _assert_necessary_conditions(pruned, pairs, ctype: int, u: Address, bound, dist):
    """Geometric necessity checks with a generous documented constant.

    Every enumerated quadruple must place its cross ancestors within
    C * rho * rho_w of the relevant child boundaries (C = 8, four times the
    window's 2, covers the derivations with margin); recorded violations
    are bugs.  ``bound`` is the squared limit (C rho)^2 rho_w^2 of the call,
    with rho_w the smaller of the two slope anchors' for type 3, and
    ``dist`` memoizes ``_dist_to_child_boundary_sq`` per cross ancestor.
    """
    (ta, _), (tb, _), (tc, _), (td, _) = pairs
    if ctype == 2:
        crosses = [_max_cross((ta, tb), (tc, td))[1]]
    elif ctype == 3:
        crosses = sorted((youngest_common_ancestor(a, b)
                          for a in (ta, tb) for b in (tc, td)), key=len)[-2:]
    else:
        return
    for s in crosses:
        if s not in dist:
            dist[s] = _dist_to_child_boundary_sq(pruned, s, u)
    # sum dist(s_i, bdry(u_i)) <= C Delta; compare via squares with slack
    if max(dist[s] for s in crosses) > bound:
        raise AssertionError("type-2 anchor too far from the child boundary" if ctype == 2
                             else "type-3 anchors violate the distance constraint")


def bruteforce_E4(pruned: PrunedSlopeTree, ctype: int, anchors: dict, rho, roots=None):
    """Quartic oracle of ``enumerate_E4`` over all root quadruples and slope
    assignments, with ``classify_roots`` and ``is_sticky_admissible``.  The
    ``tubes.intersects`` verdict of each ordered tube pair is taken once
    per call, since many quadruples share a pair."""
    _check_join(pruned, ctype, anchors, (1, 2, 3))
    roots = _scan_roots(pruned, roots, cap=3 ** 5)
    for t in roots:
        _check_root(pruned, t)
    win = SlabWindow(Fraction(rho), 2)
    u, u2, w, w2 = anchors["u"], anchors["u2"], anchors["w"], anchors["w2"]
    tube, (pairs, pairs2) = _oracle_parts(pruned, roots, (w, w2))
    meets = {}

    def meet(t1, c1, t2, c2):
        key = (t1, c1, t2, c2)
        if key not in meets:
            meets[key] = intersects(tube[t1, c1], tube[t2, c2], win)
        return meets[key]

    out = []
    for ta, tb, tc, td in product(roots, repeat=4):
        if len({ta, tb, tc, td}) != 4 or youngest_common_ancestor(ta, tb) != u \
                or youngest_common_ancestor(tc, td) != u2:
            continue
        cfg = classify_roots((ta, tb, tc, td))
        if cfg.swapped or cfg.ctype != ctype:
            continue
        for (ca, cb), (cc, cd) in product(pairs, pairs2):
            prs = [(ta, ca), (tb, cb), (tc, cc), (td, cd)]
            if is_sticky_admissible(pruned, prs)[0] and meet(ta, ca, tb, cb) \
                    and meet(tc, cc, td, cd):
                out.append(tuple(prs))
    return out

