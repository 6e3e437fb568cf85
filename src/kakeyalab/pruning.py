"""Extraction of a binary-splitting, Euclidean-separated slope set.

Given a direction-set tree with splitting number above the feasibility
threshold ``(N+1)(2*C0+1)^d``, :func:`prune` produces 2^N slopes whose
height-J encoding tree has:

  (i)   exactly N splitting vertices on every ray,
  (ii)  exactly two children at every splitting vertex,
  (iii) Euclidean separation C0 * M^-h between the first splitting
        descendants of the two children of any splitting vertex, where h is
        the smaller of their heights,
  (iv)  C0 * M^-J <= the minimum pairwise slope distance (J minimal such).

The block step (:func:`find_separated_pair`) walks a budget-pruned subtree
breadth-first to the first generation with more than ``(2*C0+1)^d``
vertices; a pigeonhole argument guarantees a pair of cubes there separated
by ``C0`` sidelengths, and the per-ray split budget drops by at most
``(2*C0+1)^d`` in the process.

All vertex bookkeeping of the result (splitting indices, fundamental
heights, basic slope cubes, the binary coding of slopes, the youngest
common ancestors of slope pairs and the integer slope lattice) lives on
:class:`PrunedSlopeTree`; every other module reads it from there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InfeasibleInstance, InvalidInput
from .madic import (
    Address,
    Point,
    PointSetTree,
    cube_distance_sq,
    encode_set,
    point_address,
    point_distance_sq,
    youngest_common_ancestor,
)


def leq_rational_plus_sqrt(lhs: Fraction, coeff: Fraction, radicand: int) -> bool:
    """Exact test of ``lhs <= coeff * sqrt(radicand)`` for rational inputs."""
    if lhs <= 0:
        return True
    if coeff <= 0:
        return False
    return lhs * lhs <= coeff * coeff * radicand


# ---------------------------------------------------------------------------
# budgeted subtree and the block step
# ---------------------------------------------------------------------------

def _budget_children(tree, addr: Address, budget: int):
    """Children kept in the canonical subtree whose rays all split >= budget.

    At a vertex we either keep every child that still supports budget-1
    splits (if at least two do, the vertex itself splits), or descend into
    the single child carrying the full budget.
    """
    kids = [addr + (dg,) for dg in tree.children(addr)]
    if not kids:
        raise InfeasibleInstance(f"ray ended with split budget {budget} left")
    if budget <= 0:
        return [(kids[0], 0)]
    rich = [(c, tree.split_value(c)) for c in kids]
    eligible = [c for c, s in rich if s >= budget - 1]
    if len(eligible) >= 2:
        return [(c, budget - 1) for c in eligible]
    best, s = max(rich, key=lambda cs: (cs[1], cs[0]))
    if s < budget:
        raise InfeasibleInstance(
            f"no child of {addr} supports {budget} further splits")
    return [(best, budget)]


def find_separated_pair(tree, root: Address, n0: int, c0: int):
    """Block step: first over-threshold generation and a separated pair.

    Returns ``(k, v1, v2)`` with ``k`` the smallest absolute height at
    which the budgeted subtree below ``root`` has more than ``(2*C0+1)^d``
    vertices and ``dist(v1, v2) >= C0 * M^-k``.  Ties are broken by taking
    the lexicographically least pair among those of maximal separation.
    """
    threshold = (2 * c0 + 1) ** tree.d
    if n0 < threshold:
        raise InvalidInput(f"budget {n0} below block threshold {threshold}")
    if tree.split_value(root) < n0:
        raise InfeasibleInstance(
            f"subtree splits {tree.split_value(root)} < required {n0}")
    level = [(root, n0)]
    k = len(root)
    while len(level) <= threshold:
        k += 1
        if k > tree.height:
            raise InfeasibleInstance("ran out of tree height during block step")
        nxt = []
        for addr, b in level:
            nxt.extend(_budget_children(tree, addr, b))
        level = nxt

    floor_sq = Fraction(c0 * c0, tree.M ** (2 * k))
    best = None
    addrs = sorted(a for a, _ in level)
    for i, u in enumerate(addrs):
        for v in addrs[i + 1:]:
            dsq = cube_distance_sq(u, v, tree.M, tree.d)
            if dsq >= floor_sq:
                key = (-dsq, u, v)
                if best is None or key < best:
                    best = key
    if best is None:
        raise AssertionError(
            "pigeonhole violation: no separated pair at the threshold level")
    _, v1, v2 = best
    return k, v1, v2


# ---------------------------------------------------------------------------
# pruned tree bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaInfo:
    """One splitting vertex of the pruned slope tree."""
    addr: Address
    nu: int            # splitting index: number of splits on the ray up to here
    lam: int           # height of its first splitting descendants (J at index N)
    h_cubes: tuple     # the two basic slope cubes below, in bit order
    next_gammas: tuple # splitting vertex identified by each basic cube (None at index N)


class PrunedSlopeTree:
    """Slope set plus all derived structure from the pruning stage."""

    def __init__(self, tree: PointSetTree, N: int, C0: int):
        self.tree = tree
        self.M, self.d, self.J, self.N, self.C0 = tree.M, tree.d, tree.height, N, C0
        self._analyze()

    # -- construction -------------------------------------------------------

    def _first_split_below(self, addr: Address):
        """Descend the single-child chain; return the first splitting vertex
        or the leaf if the chain never splits again."""
        cur = addr
        while True:
            kids = self.tree.children(cur)
            if len(kids) != 1:
                return cur
            cur = cur + (kids[0],)

    def _analyze(self):
        tree, N = self.tree, self.N
        gamma1 = self._first_split_below(())
        if len(tree.children(gamma1)) < 2:
            raise InvalidInput("slope tree has no splitting vertex")
        self.gamma: dict[Address, GammaInfo] = {}
        self.gamma_levels: list[list[Address]] = [[] for _ in range(N + 1)]
        self.H: list[list[Address]] = [[] for _ in range(N + 1)]
        self.H[0] = [gamma1]
        self._psi: dict[tuple, Address] = {(): gamma1}
        self._psi_inv: dict[Address, tuple] = {gamma1: ()}
        slopes: dict[int, Point] = {}

        stack = [(gamma1, 1, ())]
        while stack:
            g, j, bits = stack.pop()
            kids = tree.children(g)
            if len(kids) != 2:
                raise InvalidInput(
                    f"splitting vertex {g} has {len(kids)} children, not 2")
            # the older (lexicographically larger) child is the 0th offspring
            ordered = sorted(kids, reverse=True)
            nexts, downs = [], []
            for dg in ordered:
                downs.append(self._first_split_below(g + (dg,)))
            if j < N:
                lam = min(len(x) for x in downs)
            else:
                lam = self.J
            cubes = []
            for bit, (dg, down) in enumerate(zip(ordered, downs)):
                cube = down[:lam]
                cubes.append(cube)
                code = bits + (bit,)
                self._psi[code] = cube
                self._psi_inv[cube] = code
                if j < N:
                    nexts.append(down)
                    stack.append((down, j + 1, code))
                else:
                    nexts.append(None)
                    members = tree._members(down)
                    if len(members) != 1:
                        raise InvalidInput(
                            f"leaf {down} carries {len(members)} slope points")
                    slopes[int("".join(map(str, code)), 2)] = members[0]
            info = GammaInfo(addr=g, nu=j, lam=lam,
                             h_cubes=tuple(cubes), next_gammas=tuple(nexts))
            self.gamma[g] = info
            self.gamma_levels[j].append(g)
            self.H[j].extend(cubes)

        if len(slopes) != 2 ** N:
            raise InvalidInput(f"expected 2^{N} slopes, found {len(slopes)}")
        self.slopes: tuple[Point, ...] = tuple(slopes[c] for c in range(2 ** N))
        self._slope_codes = {s: c for c, s in enumerate(self.slopes)}
        self._leaves = tuple(point_address(s, self.M, self.J) for s in self.slopes)
        # the slope lattice: slope coordinates are sigma[code][i] / D, and D
        # is a multiple of M^J so that root centre offsets are integers too
        self.D = lcm(self.M ** self.J, *(x.denominator for v in self.slopes for x in v))
        self.sigma = tuple(tuple(x.numerator * (self.D // x.denominator) for x in v)
                           for v in self.slopes)
        self.fundamental_heights = tuple(sorted(
            {info.lam for info in self.gamma.values()} | {self.J}))
        self._code_bits = tuple(
            tuple((code >> (N - 1 - i)) & 1 for i in range(N))
            for code in range(2 ** N))
        # eta[code][j-1] = height of the j-th basic slope cube on the ray
        self.eta = []
        for bits in self._code_bits:
            hts, g = [], gamma1
            for b in bits:
                info = self.gamma[g]
                hts.append(info.lam)
                g = info.next_gammas[b]
            self.eta.append(tuple(hts))
        # lookup tables filled on first use (slope_yca here, the rest by
        # :mod:`kakeyalab.sticky`): the reference cubes per (root, code)
        # alone would be K * 2^N entries, and an instance-level table dies
        # with the instance
        self.ref_cubes: dict[tuple[Address, int], tuple] = {}
        self.slope_ycas: dict[tuple[int, int], Address] = {}
        self.mus: dict[tuple[Address, int], int] = {}

    # -- basic accessors -----------------------------------------------------

    def code_bits(self, code: int) -> tuple:
        return self._code_bits[code]

    def bits_code(self, bits) -> int:
        out = 0
        for b in bits:
            out = out * 2 + b
        return out

    def slope_index(self, point: Point) -> int:
        code = self._slope_codes.get(point)
        if code is None:
            raise InvalidInput(f"{point} is not a slope of this instance")
        return code

    def slope_leaf(self, code: int) -> Address:
        """Address of the height-J cube holding the slope with this code."""
        return self._leaves[code]

    def slope_yca(self, c1: int, c2: int) -> Address:
        """Youngest common ancestor of two slope leaves, memoized per code
        pair; repeat calls return the same address."""
        key = (c1, c2)
        got = self.slope_ycas.get(key)
        if got is None:
            got = youngest_common_ancestor(self._leaves[c1], self._leaves[c2])
            self.slope_ycas[key] = got
        return got

    def psi(self, bits) -> Address:
        """Basic slope cube for a bit string of length 0..N."""
        key = tuple(bits)
        if key not in self._psi:
            raise InvalidInput(f"bit string {key} outside the coding tree")
        return self._psi[key]

    def psi_inverse(self, cube: Address) -> tuple:
        if cube not in self._psi_inv:
            raise InvalidInput(f"{cube} is not a basic slope cube")
        return self._psi_inv[cube]

    def nu(self, addr: Address) -> int:
        return self.gamma[addr].nu

    def lam(self, addr: Address) -> int:
        return self.gamma[addr].lam

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        def frac(x):
            return f"{x.numerator}/{x.denominator}"

        return json.dumps({
            "M": self.M, "d": self.d, "N": self.N, "J": self.J, "C0": self.C0,
            "slopes": [[frac(c) for c in p] for p in self.slopes],
            "splitting_vertices": [
                {"address": [list(dg) for dg in info.addr],
                 "nu": info.nu, "lambda": info.lam,
                 "children": [[list(dg) for dg in c] for c in info.h_cubes]}
                for info in sorted(self.gamma.values(), key=lambda i: (i.nu, i.addr))
            ],
            "psi": {"".join(map(str, bits)): [list(dg) for dg in cube]
                    for bits, cube in sorted(self._psi.items())},
            "fundamental_heights": list(self.fundamental_heights),
        }, indent=1)


# ---------------------------------------------------------------------------
# the pruning pipeline
# ---------------------------------------------------------------------------

def prune(tree, N: int, C0: int) -> PrunedSlopeTree:
    """Run the N-block pruning on a direction-set tree.

    Raises InfeasibleInstance (reporting the computed splitting number)
    when the hypothesis split > (N+1)(2*C0+1)^d fails.
    """
    if N < 1 or C0 < 1:
        raise InvalidInput("need N >= 1 and C0 >= 1")
    threshold = (2 * C0 + 1) ** tree.d
    need = (N + 1) * threshold
    have = tree.split_value(())
    if have <= need:
        raise InfeasibleInstance(
            f"splitting number {have} does not exceed (N+1)(2C0+1)^d = {need}")

    frontier = [((), need)]
    for _ in range(N):
        nxt = []
        for addr, budget in frontier:
            k, v1, v2 = find_separated_pair(tree, addr, budget, C0)
            nxt.append((v1, budget - threshold))
            nxt.append((v2, budget - threshold))
        frontier = nxt

    points = [tree.min_point(leaf) for leaf, _ in frontier]
    if len(set(points)) != 2 ** N:
        raise InvalidInput("representative points collide")

    delta_sq = min(point_distance_sq(p, q)
                   for i, p in enumerate(points) for q in points[i + 1:])
    J = max(len(leaf) for leaf, _ in frontier)
    while Fraction(C0 * C0, tree.M ** (2 * J)) > delta_sq:
        J += 1

    pruned = PrunedSlopeTree(encode_set(points, tree.M, J), N, C0)
    check_pruned_invariants(pruned)
    return pruned


def check_pruned_invariants(p: PrunedSlopeTree) -> None:
    """Exhaustively assert properties (i)-(iv) on the finite output tree."""
    # (i) every ray splits exactly N times; (ii) two children per split
    for code in range(2 ** p.N):
        leaf = p.slope_leaf(code)
        splits = [leaf[:h] for h in range(p.J)
                  if len(p.tree.children(leaf[:h])) >= 2]
        if len(splits) != p.N:
            raise AssertionError(f"ray of slope {code} splits {len(splits)} times")
        for v in splits:
            if len(p.tree.children(v)) != 2:
                raise AssertionError(f"splitting vertex {v} not binary")
    # level cardinalities
    for j in range(1, p.N + 1):
        if len(p.gamma_levels[j]) != 2 ** (j - 1):
            raise AssertionError(f"|G_{j}| != 2^{j - 1}")
        if len(p.H[j]) != 2 ** j:
            raise AssertionError(f"|H_{j}| != 2^{j}")
    # (iii) separation of first splitting descendants
    for info in p.gamma.values():
        if info.nu >= p.N:
            continue
        g1, g2 = info.next_gammas
        h = min(len(g1), len(g2))
        dsq = cube_distance_sq(g1, g2, p.M, p.d)
        if dsq < Fraction(p.C0 * p.C0, p.M ** (2 * h)):
            raise AssertionError(f"separation fails below {info.addr}")
    # (iv) with minimal J
    delta_sq = min(point_distance_sq(a, b)
                   for i, a in enumerate(p.slopes) for b in p.slopes[i + 1:])
    if Fraction(p.C0 ** 2, p.M ** (2 * p.J)) > delta_sq:
        raise AssertionError("C0 M^-J exceeds the minimum slope distance")
    # eta is nondecreasing and ends at J
    for code in range(2 ** p.N):
        e = p.eta[code]
        if list(e) != sorted(e) or e[-1] != p.J:
            raise AssertionError("eta heights not monotone to J")
    # fundamental heights: at most sum_j 2^(j-1) of them below J
    if len(p.fundamental_heights) > 2 ** p.N:
        raise AssertionError("too many fundamental heights")


# ---------------------------------------------------------------------------
# slope metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeMetrics:
    rho_sq: Fraction
    delta_sq: Fraction

    @property
    def rho(self) -> float:
        return float(self.rho_sq) ** 0.5

    @property
    def delta(self) -> float:
        return float(self.delta_sq) ** 0.5


def slope_metrics(p: PrunedSlopeTree, gamma_addr: Address) -> SlopeMetrics:
    """Exact sup/inf distances between slope points across the two children
    of a splitting vertex, with the comparability inequality asserted."""
    if gamma_addr not in p.gamma:
        raise InvalidInput(f"{gamma_addr} is not a splitting vertex")
    kids = p.tree.children(gamma_addr)
    side0 = p.tree._members(gamma_addr + (kids[0],))
    side1 = p.tree._members(gamma_addr + (kids[1],))
    dists = [point_distance_sq(a, b) for a in side0 for b in side1]
    m = SlopeMetrics(rho_sq=max(dists), delta_sq=min(dists))
    # delta <= rho <= (1 + 2 sqrt(d)/C0) delta, exactly
    assert m.delta_sq <= m.rho_sq
    lhs = m.rho_sq - (1 + Fraction(4 * p.d, p.C0 ** 2)) * m.delta_sq
    if not leq_rational_plus_sqrt(lhs, Fraction(4, p.C0) * m.delta_sq, p.d):
        raise AssertionError("comparability bound rho <= (1+2 sqrt(d)/C0) delta fails")
    # rho <= sqrt(d) M^-h(gamma), i.e. rho^2 <= d M^-2h
    if m.rho_sq > Fraction(p.d, p.M ** (2 * len(gamma_addr))):
        raise AssertionError("rho exceeds the diameter of gamma")
    return m

