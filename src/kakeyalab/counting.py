"""Enumerators for intersecting tube tuples and exact summation diagnostics.

The pair collection ``E2[u, w; rho]`` gathers sticky-admissible root-slope
pairs with prescribed youngest common ancestors whose tubes meet inside an
x1 window.  :func:`enumerate_E2` decides the meeting on an integer
lattice: root centres differ by delta/M^J, the slopes are the integer
numerators ``pruned.sigma`` over the instance's one denominator
``pruned.D``, and whether some x1 in the window puts the two
cross-sections within the tube side on every axis is a comparison of
Python ints; stickiness is tested on geometric hits only.  Slope
ancestors and the lattice are the per-instance tables every module reads;
only the oracles recompute slope ancestors inline, to stay independent.
:func:`enumerate_E2_bruteforce` is its independent oracle, a plain loop
over every root and slope pair through the Fraction test
``tubes.intersects``.  The triple and quadruple collections are joins over
pair collections filtered by root configuration type, with
:func:`bruteforce_E4` as the quartic oracle.  Everything here is
desk-scale and exhaustive, guarded by hard size caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import InvalidInput, SizeCapExceeded
from .madic import Address, cube_index, youngest_common_ancestor
from .pruning import PrunedSlopeTree, slope_metrics
from .sticky import _max_cross, classify_roots, is_sticky_admissible, mu
from .tubes import (
    SlabWindow,
    assert_pair_inequalities,
    clip_x1,
    cross_section_dilation,
    intersects,
    make_tube,
)

ROOT_CAP = 3 ** 8


def all_root_cubes(pruned: PrunedSlopeTree, cap: int = ROOT_CAP):
    """Every height-J cube of the root tree, as addresses."""
    n = pruned.M ** (pruned.d * pruned.J)
    if n > cap:
        raise SizeCapExceeded(f"{n} root cubes exceed the scan cap {cap}")
    M, d, J = pruned.M, pruned.d, pruned.J
    out = []
    for combo in product(range(M ** J), repeat=d):
        addr = tuple(tuple((c // M ** k) % M for c in combo)
                     for k in range(J - 1, -1, -1))
        out.append(addr)
    return out


# ---------------------------------------------------------------------------
# pair collections
# ---------------------------------------------------------------------------

def _slope_pairs(pruned: PrunedSlopeTree, w: Address, lo: Fraction,
                 hi: Fraction, S: int, E: int):
    """The code pairs (c1, c2) whose slope leaves separate exactly at w,
    each with the lattice form of its overlap test.

    With D the slope-lattice denominator ``pruned.D``, the slope difference
    of the pair is b/D on each axis; a root offset delta (centres delta/M^J
    apart, tube side S/(E M^J)) overlaps at some x1 in [lo, hi] exactly
    when every axis keeps delta in its closed integer ``box`` and every
    ``cross`` form (i, j, f_i, f_j, bound) has f_i delta_i + f_j delta_j
    < bound.  The box comes from lo < r2 and r1 < hi on a moving axis and
    from |a| < s on a still one; the cross forms are r1_i < r2_j.
    """
    K, D, sigma = pruned.M ** pruned.J, pruned.D, pruned.sigma
    still = -(-S // E) - 1  # |delta| E < S
    pl, ql, ph, qh = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    codes = range(2 ** pruned.N)
    out = []
    for c1 in codes:
        for c2 in codes:
            if pruned.slope_yca(c1, c2) != w:
                continue
            box, moving = [], []
            for i, (s1, s2) in enumerate(zip(sigma[c1], sigma[c2])):
                b = s1 - s2
                if b == 0:
                    box.append((-still, still))
                    continue
                sgn, B = (1, b) if b > 0 else (-1, -b)
                # x = sgn delta: x < (S ql D - pl E K B) / (E ql D) and
                # x > -(S qh D + ph E K B) / (E qh D)
                x_hi = -((pl * E * K * B - S * ql * D) // (E * ql * D)) - 1
                x_lo = -(S * qh * D + ph * E * K * B) // (E * qh * D) + 1
                box.append((x_lo, x_hi) if sgn > 0 else (-x_hi, -x_lo))
                moving.append((i, sgn, B))
            # E (x_j B_i - x_i B_j) < S (B_i + B_j)
            cross = [(i, j, -E * si * Bj, E * sj * Bi, S * (Bi + Bj))
                     for i, si, Bi in moving for j, sj, Bj in moving if i != j]
            dw = tuple(a - b for a, b in zip(pruned.slopes[c1], pruned.slopes[c2]))
            out.append((c1, c2, box, cross, moving, dw))
    return out, D


def enumerate_E2(pruned: PrunedSlopeTree, u: Address, w: Address,
                 rho, C1=Fraction(2), A0: int = 10, roots=None):
    """All sticky-admissible intersecting pairs ((t1, c1), (t2, c2)) with
    D(t1, t2) = u and D(v1, v2) = w, meeting inside [rho, C1 rho].

    The pairs come out with t1, then t2, in ``roots`` order, then (c1, c2)
    in code order.  Root pairs are drawn from the roots under u whose
    digits at height h(u) differ.  The geometry is decided on an integer
    lattice: root centres differ by delta/M^J, slopes are numerators over
    one common denominator, and the test of ``tubes.intersects`` (closed
    window ends, open coordinate bounds) becomes Python-int comparisons.
    Stickiness is tested only on geometric hits, and every hit has the
    centre and scale inequalities asserted.  ``enumerate_E2_bruteforce``
    is the independent Fraction oracle.
    """
    if w not in pruned.gamma:
        raise InvalidInput("slope anchor must be a splitting vertex")
    if roots is None:
        roots = all_root_cubes(pruned)
    win = SlabWindow(Fraction(rho), Fraction(C1))
    M, d, J, h = pruned.M, pruned.d, pruned.J, len(u)
    K = M ** J
    rho_sq = slope_metrics(pruned, w).rho_sq
    # a hit has M^-J / 2 <= |x1||v1 - v2| <= C1 rho rho_w
    if 4 * win.hi ** 2 * rho_sq < Fraction(1, K * K):
        return []
    lo, hi = clip_x1(win.lo, win.hi, A0)
    if lo >= hi or h >= J:
        return []
    cd = cross_section_dilation(d)
    S, E = cd.numerator, cd.denominator  # tube side S / (E M^J)
    pairs, D = _slope_pairs(pruned, w, lo, hi, S, E)
    # a hit has |cen(t1) - cen(t2)| <= C1 rho rho_w + 2 c_d sqrt(d) M^-J
    reach_sq = 2 * win.hi ** 2 * rho_sq + Fraction(8 * d) * cd * cd / (K * K)
    reach = int(reach_sq * K * K)
    under = [(t, cube_index(t, M, d), t[h]) for t in roots if t[:h] == u]

    out = []
    for t1, k1, g1 in under:
        for t2, k2, g2 in under:
            if g1 == g2:
                continue
            delta = tuple(a - b for a, b in zip(k1, k2))
            if sum(x * x for x in delta) > reach:
                continue
            for c1, c2, box, cross, moving, dw in pairs:
                if not all(l <= x <= r for x, (l, r) in zip(delta, box)):
                    continue
                if not all(fi * delta[i] + fj * delta[j] < bound
                           for i, j, fi, fj, bound in cross):
                    continue
                # the overlap interval of this axis, x = sgn delta:
                # r1 = D (-S - E x) / (E K B) and r2 = D (S - E x) / (E K B)
                lows, highs = [lo], [hi]
                for i, sgn, B in moving:
                    x = sgn * delta[i]
                    lows.append(Fraction(D * (-S - E * x), E * K * B))
                    highs.append(Fraction(D * (S - E * x), E * K * B))
                dc = tuple(Fraction(x, K) for x in delta)
                assert_pair_inequalities(dc, dw, (max(lows), min(highs)), M, J)
                if is_sticky_admissible(pruned, [(t1, c1), (t2, c2)])[0]:
                    out.append(((t1, c1), (t2, c2)))
    return out


def enumerate_E2_bruteforce(pruned, u, w, rho, C1=Fraction(2), A0: int = 10,
                            roots=None):
    """Oracle of ``enumerate_E2``: every (t1, t2, c1, c2) with the ancestor
    filters, stickiness and the Fraction test ``tubes.intersects``, with
    no prefilter."""
    if w not in pruned.gamma:
        raise InvalidInput("slope anchor must be a splitting vertex")
    if roots is None:
        roots = all_root_cubes(pruned)
    win = SlabWindow(Fraction(rho), Fraction(C1))
    codes = range(2 ** pruned.N)
    out = []
    for t1 in roots:
        for t2 in roots:
            if t1 == t2 or youngest_common_ancestor(t1, t2) != u:
                continue
            for c1 in codes:
                for c2 in codes:
                    if youngest_common_ancestor(pruned.slope_leaf(c1),
                                                pruned.slope_leaf(c2)) != w:
                        continue
                    if not is_sticky_admissible(pruned, [(t1, c1), (t2, c2)])[0]:
                        continue
                    if intersects(make_tube(pruned, t1, c1, A0),
                                  make_tube(pruned, t2, c2, A0), win):
                        out.append(((t1, c1), (t2, c2)))
    return out


# ---------------------------------------------------------------------------
# slope tuple complexity
# ---------------------------------------------------------------------------

def rearrange_slope_vertices(pruned: PrunedSlopeTree, verts):
    """Canonical (w1, w2, w3) with h(w1) <= h(w2) <= h(w3), w2, w3 inside w1.

    Accepts 1-3 distinct splitting vertices under the containment structure
    of the counting bounds (each pair nested, or two disjoint under a
    common third); raises InvalidInput when no rearrangement exists.
    """
    vs = list(dict.fromkeys(tuple(v) for v in verts))
    for v in vs:
        if v not in pruned.gamma:
            raise InvalidInput(f"{v} is not a splitting vertex")
    if len(vs) > 3:
        raise InvalidInput("more than three distinct slope vertices")
    # coincidences replicate the shallower ancestor, matching the
    # maximal-height-first selection of the counting argument
    while len(vs) < 3:
        vs.append(min(vs, key=len))

    def nested(a, b):
        return a[: len(b)] == b or b[: len(a)] == a

    pairs_nested = [(i, j) for i in range(3) for j in range(i + 1, 3)
                    if nested(vs[i], vs[j])]
    if len(pairs_nested) == 3:
        out = sorted(vs, key=len)
        return tuple(out)
    # exactly one disjoint pair allowed; the third must contain both
    disj = [(i, j) for i in range(3) for j in range(i + 1, 3)
            if not nested(vs[i], vs[j])]
    if len(disj) != 1:
        raise InvalidInput("slope vertices lack the required nesting")
    i, j = disj[0]
    k = 3 - i - j
    if not (nested(vs[i], vs[k]) and nested(vs[j], vs[k])
            and len(vs[k]) <= min(len(vs[i]), len(vs[j]))):
        raise InvalidInput("no vertex dominates the disjoint pair")
    w3, w2 = sorted((vs[i], vs[j]), key=len, reverse=True)[0], None
    w2 = vs[j] if vs[i] == w3 else vs[i]
    return (vs[k], w2, w3)


def slope_complexity(pruned: PrunedSlopeTree, verts) -> int:
    """The exponent decrement: m-hat for 2 vertices, m for 3 or 4.

    Quadruples may repeat entries (at most three distinct); coincidences
    are resolved by keeping the distinct vertices and replicating the
    deepest, the same maximal-height-first convention used for the
    configuration permutations.
    """
    given = [tuple(v) for v in verts]
    if len(given) == 2:
        w1, w2 = sorted(given, key=len)
        if w2[: len(w1)] != w1:
            raise InvalidInput("pair of slope vertices must be nested")
        return 2 * pruned.nu(w2) + pruned.nu(w1)
    if len(given) not in (3, 4):
        raise InvalidInput("slope complexity takes 2, 3, or 4 vertices")
    w1, w2, w3 = rearrange_slope_vertices(pruned, given)
    nu = pruned.nu
    if w3[: len(w2)] == w2:  # w3 inside w2
        return 2 * nu(w3) + nu(w2) + nu(w1)
    return 2 * (nu(w3) + nu(w2))


# ---------------------------------------------------------------------------
# triple and quadruple collections
# ---------------------------------------------------------------------------

@dataclass
class TupleRecord:
    pairs: tuple
    config: object
    anchors: dict = field(default_factory=dict)


def enumerate_E3(pruned: PrunedSlopeTree, ctype: int, anchors: dict,
                 rho, C1=Fraction(2), A0: int = 10, roots=None):
    """Sticky-admissible triples {(t1,v1),(t2,v2),(t2',v2')} of the given
    3-point type whose two tube pairs both meet the window, with the
    prescribed anchor vertices."""
    u, u2 = anchors["u"], anchors["u2"]
    w, w2 = anchors["w"], anchors["w2"]
    e2a = enumerate_E2(pruned, u, w, rho, C1, A0, roots)
    e2b = enumerate_E2(pruned, u2, w2, rho, C1, A0, roots)
    shared = {}  # the pairs of e2b by their first tube, in e2b order
    for first, second in e2b:
        shared.setdefault(first, []).append(second)
    out = []
    for (ta, ca), (tb, cb) in e2a:
        for td, cd in shared.get((ta, ca), ()):
            if len({ta, tb, td}) != 3:
                continue
            cfg = classify_roots((ta, tb, td))
            if cfg.swapped or cfg.ctype != ctype:
                continue
            prs = [(ta, ca), (tb, cb), (td, cd)]
            ok, _ = is_sticky_admissible(pruned, prs)
            if not ok:
                continue
            if ctype == 2:
                t = youngest_common_ancestor(tb, td)
                vt = pruned.slope_yca(cb, cd)
                if anchors.get("t") not in (None, t):
                    continue
                if anchors.get("vtheta") not in (None, vt):
                    continue
            out.append(TupleRecord(pairs=tuple(prs), config=cfg))
    return out


def enumerate_E4(pruned: PrunedSlopeTree, ctype: int, anchors: dict,
                 rho, C1=Fraction(2), A0: int = 10, roots=None,
                 check_necessary: bool = True):
    """Sticky-admissible quadruples of the given 4-point type with both
    windowed intersections; necessary location conditions are asserted on
    every returned tuple when ``check_necessary`` is set."""
    u, u2 = anchors["u"], anchors["u2"]
    w, w2 = anchors["w"], anchors["w2"]
    e2a = enumerate_E2(pruned, u, w, rho, C1, A0, roots)
    e2b = enumerate_E2(pruned, u2, w2, rho, C1, A0, roots)
    win_rho = Fraction(rho)
    out = []
    for (ta, ca), (tb, cb) in e2a:
        for (tc, cc), (td, cd) in e2b:
            if len({ta, tb, tc, td}) != 4:
                continue
            cfg = classify_roots(((ta, tb), (tc, td)))
            if cfg.swapped or cfg.ctype != ctype:
                continue
            prs = [(ta, ca), (tb, cb), (tc, cc), (td, cd)]
            ok, _ = is_sticky_admissible(pruned, prs)
            if not ok:
                continue
            rec = TupleRecord(pairs=tuple(prs), config=cfg)
            if check_necessary:
                _assert_necessary_conditions(pruned, rec, win_rho, C1)
            out.append(rec)
    return out


def _dist_to_child_boundary_sq(pruned, s: Address, u: Address) -> Fraction:
    """Squared distance from the cube s to the boundary of the child of u
    containing it (0 when s = u or s touches that boundary)."""
    if len(s) <= len(u):
        return Fraction(0)
    child = s[: len(u) + 1]
    from .madic import cube_origin
    co = cube_origin(child, pruned.M, pruned.d)
    so = cube_origin(s, pruned.M, pruned.d)
    side_c = Fraction(1, pruned.M ** len(child))
    side_s = Fraction(1, pruned.M ** len(s))
    best = None
    for a in range(pruned.d):
        lo_gap = so[a] - co[a]
        hi_gap = (co[a] + side_c) - (so[a] + side_s)
        g = min(lo_gap, hi_gap)
        best = g if best is None else min(best, g)
    return best * best if best > 0 else Fraction(0)


def _assert_necessary_conditions(pruned, rec: TupleRecord, rho, C1):
    """Geometric necessity checks with a generous documented constant.

    Every enumerated quadruple must place its cross ancestors within
    C * rho * rho_w of the relevant child boundaries (C = 4 C1 covers the
    derivations with margin); recorded violations are bugs.
    """
    (ta, ca), (tb, cb), (tc, cc), (td, cd) = rec.pairs
    cfg = rec.config
    w, w2 = pruned.slope_yca(ca, cb), pruned.slope_yca(cc, cd)
    rho_w_sq = slope_metrics(pruned, w).rho_sq if w in pruned.gamma else Fraction(0)
    rho_w2_sq = slope_metrics(pruned, w2).rho_sq if w2 in pruned.gamma else Fraction(0)
    margin = (4 * Fraction(C1) * Fraction(rho)) ** 2
    if cfg.ctype == 2:
        _, t = _max_cross((ta, tb), (tc, td))
        dsq = _dist_to_child_boundary_sq(pruned, t, cfg.u)
        if dsq > margin * rho_w_sq:
            raise AssertionError("type-2 anchor too far from the child boundary")
    if cfg.ctype == 3:
        crosses = sorted((youngest_common_ancestor(a, b)
                          for a in (ta, tb) for b in (tc, td)),
                         key=len)
        s1, s2 = crosses[-2], crosses[-1]
        delta_sq = min(rho_w_sq, rho_w2_sq) * Fraction(rho) ** 2
        d1 = _dist_to_child_boundary_sq(pruned, s1, cfg.u)
        d2 = _dist_to_child_boundary_sq(pruned, s2, cfg.u)
        # sum dist(s_i, bdry(u_i)) <= C Delta; compare via squares with slack
        if max(d1, d2) > 4 * margin * delta_sq / Fraction(rho) ** 2 * Fraction(rho) ** 2:
            if max(d1, d2) > 16 * Fraction(C1) ** 2 * delta_sq:
                raise AssertionError("type-3 anchors violate the distance constraint")


def bruteforce_E4(pruned: PrunedSlopeTree, ctype: int, anchors: dict,
                  rho, C1=Fraction(2), A0: int = 10, roots=None):
    """Quartic oracle over all root quadruples and slope assignments."""
    if roots is None:
        roots = all_root_cubes(pruned, cap=3 ** 5)
    win = SlabWindow(Fraction(rho), Fraction(C1))
    u, u2, w, w2 = anchors["u"], anchors["u2"], anchors["w"], anchors["w2"]
    out = []
    codes = range(2 ** pruned.N)
    for ta, tb, tc, td in product(roots, repeat=4):
        if len({ta, tb, tc, td}) != 4:
            continue
        if youngest_common_ancestor(ta, tb) != u:
            continue
        if youngest_common_ancestor(tc, td) != u2:
            continue
        cfg = classify_roots(((ta, tb), (tc, td)))
        if cfg.swapped or cfg.ctype != ctype:
            continue
        for ca, cb, cc, cd in product(codes, repeat=4):
            if youngest_common_ancestor(pruned.slope_leaf(ca),
                                        pruned.slope_leaf(cb)) != w:
                continue
            if youngest_common_ancestor(pruned.slope_leaf(cc),
                                        pruned.slope_leaf(cd)) != w2:
                continue
            prs = [(ta, ca), (tb, cb), (tc, cc), (td, cd)]
            ok, _ = is_sticky_admissible(pruned, prs)
            if not ok:
                continue
            if not intersects(make_tube(pruned, ta, ca, A0),
                              make_tube(pruned, tb, cb, A0), win):
                continue
            if not intersects(make_tube(pruned, tc, cc, A0),
                              make_tube(pruned, td, cd, A0), win):
                continue
            out.append(TupleRecord(pairs=tuple(prs), config=cfg))
    return out


# ---------------------------------------------------------------------------
# summation diagnostics
# ---------------------------------------------------------------------------

@dataclass
class SumDiagnostic:
    label: str
    lhs: float
    rhs_shape: float
    ratio: float
    exact_assert: bool = False


def diagnostics_to_csv(rows, path):
    """Write (anchor/label, count or sum, bound shape, ratio) rows."""
    import csv
    from pathlib import Path
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["anchor", "count", "bound", "ratio"])
        for r in rows:
            if isinstance(r, SumDiagnostic):
                wr.writerow([r.label, r.lhs, r.rhs_shape, r.ratio])
            else:
                wr.writerow(list(r))
    return path


def summation_diagnostics(pruned: PrunedSlopeTree) -> list[SumDiagnostic]:
    """Exact evaluation of the slope- and root-vertex sums of the
    summation bounds on this instance, reported as ratios to the shape of
    each bound.  The alpha = 1 case carries constant exactly 1 and is
    asserted rather than reported.
    """
    out = []
    gamma1 = pruned.psi(())
    nu0, h0 = pruned.nu(gamma1), len(gamma1)
    descendants = [g for g in pruned.gamma if g[: len(gamma1)] == gamma1]

    # geometric slope sums over splitting vertices below gamma1
    for alpha, label in ((2, "alpha>1"), (1, "alpha=1"), (Fraction(1, 2), "alpha<1")):
        lhs = sum(Fraction(1, 2) ** (alpha * pruned.nu(g)) if alpha != Fraction(1, 2)
                  else Fraction(0) for g in descendants)
        if alpha == Fraction(1, 2):
            lhs_f = sum(2.0 ** (-0.5 * pruned.nu(g)) for g in descendants)
            rhs = 2.0 ** (-0.5 * nu0) * 2.0 ** (pruned.N * 0.5)
            out.append(SumDiagnostic(f"slope-sum {label}", lhs_f, rhs,
                                     lhs_f / rhs))
            continue
        if alpha == 1:
            rhs_exact = pruned.N * Fraction(1, 2 ** nu0)
            if lhs > rhs_exact:
                raise AssertionError("alpha=1 sum exceeds N 2^-nu with constant 1")
            out.append(SumDiagnostic("slope-sum alpha=1 (exact constant)",
                                     float(lhs), float(rhs_exact),
                                     float(lhs / rhs_exact), exact_assert=True))
        else:
            rhs = Fraction(1, 2 ** (alpha * nu0))
            out.append(SumDiagnostic(f"slope-sum {label}", float(lhs),
                                     float(rhs), float(lhs / rhs)))

    # weighted slope sum with the M^-beta h factor
    lhs = sum(Fraction(1, pruned.M ** len(g)) * Fraction(1, 2 ** pruned.nu(g))
              for g in descendants)
    rhs = Fraction(1, pruned.M ** h0) * Fraction(1, 2 ** nu0)
    out.append(SumDiagnostic("slope-sum weighted beta=1 alpha=1",
                             float(lhs), float(rhs), float(lhs / rhs)))

    # root-vertex sums s(beta) with y the whole hyperplane
    deepest = max(pruned.gamma, key=lambda g: (len(g), g))
    hw = len(deepest)
    nuw = pruned.nu(deepest)
    d = pruned.d

    def s_beta(beta: int) -> Fraction:
        total = Fraction(0)
        for k in range(0, hw + 1):
            count = pruned.M ** (d * k)
            total += count * Fraction(1, pruned.M ** (beta * k)) * \
                2 ** mu(pruned, deepest, k)
        return total

    cases = [("beta<d", d - 1, 2 ** nuw * Fraction(pruned.M ** ((d - (d - 1)) * hw))),
             ("beta=d", d, 2 ** nuw * hw if hw else 2 ** nuw),
             ("beta>d", d + 1, 2 ** nuw * Fraction(1)),
             ("2M^d<M^beta", 2 * d + 1, Fraction(1))]
    for label, beta, rhs in cases:
        lhs = s_beta(beta)
        rhsf = Fraction(rhs)
        out.append(SumDiagnostic(f"root-sum {label} (beta={beta})",
                                 float(lhs), float(rhsf),
                                 float(lhs / rhsf) if rhsf else float("inf")))

    # windowed root sums over a thin parallelepiped (needs d >= 2)
    if d >= 2:
        from math import floor
        long_side = Fraction(1, pruned.M ** h0)
        short_side = Fraction(1, pruned.M ** min(hw, h0 + 2))
        eps = long_side

        def count_in_box(k: int) -> int:
            per_axis = []
            for a in range(d):
                side = long_side if a < d - 1 else short_side
                per_axis.append(max(0, floor(side * pruned.M ** k)))
            n = 1
            for c in per_axis:
                n *= c
            return n

        for label, alpha_exp, short in (("s+", 2 * (d - 1), False),
                                        ("s-", 2 * d - 1, True)):
            total = Fraction(0)
            for k in range(0, hw + 1):
                scale = Fraction(1, pruned.M ** k)
                if scale > eps:
                    continue
                if short and scale > short_side:
                    continue
                if not short and scale < short_side:
                    continue
                total += count_in_box(k) * Fraction(1, pruned.M ** (alpha_exp * k)) \
                    * 2 ** mu(pruned, deepest, k)
            if label == "s+":
                rhs = 2 ** nuw * long_side ** (d - 1) * eps ** (alpha_exp - d + 1)
            else:
                rhs = 2 ** nuw * long_side ** (d - 1) * short_side \
                    * min(eps, short_side) ** (alpha_exp - d)
            out.append(SumDiagnostic(f"windowed root-sum {label}",
                                     float(total), float(rhs),
                                     float(total / rhs) if rhs else float("inf")))
    return out
