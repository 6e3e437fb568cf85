"""Random sticky slope assignment and exact assignment probabilities.

The randomization source is a warehouse of Bernoulli(1/2) bits, one per
spatial cube at a fundamental height, realized lazily from a seed through
the documented splitmix64 chain (see :mod:`kakeyalab._mix`).

A root cube's slope is read off by walking its chain of basic spatial
cubes: at the j-th stage the current splitting vertex gamma dictates the
basic height lambda(gamma); the bit of the root's ancestor at that height
selects one of gamma's two branches.  After N stages the collected bits
are the binary code of the assigned slope.

For prescribed assignments on a finite set of roots, the probability is an
exact dyadic rational: 1/2 to the number of distinct reference cubes, a
reference cube being the ancestor of a root at the height of the j-th
basic slope cube of its prescribed slope.  The event is realizable exactly
when no reference cube is forced to carry two different bits, which is
what :func:`is_sticky_admissible` decides; the closed forms of
:func:`prob_closed_form` reproduce the same exponent from the youngest
common ancestors of roots and slopes alone.

Every input of these checks is computed once per instance and looked up
in the tables that :mod:`kakeyalab.counting`, :mod:`kakeyalab.tubes` and
:mod:`kakeyalab.fast1d` read too: the pruned tree builds its code-bit,
slope-index and slope-lattice tables up front and memoizes
``slope_yca`` per code pair; the reference cubes per (root, code) and mu
per (vertex, height) are memoized on it here.  One private pass
normalizes a prescription's pairs and merges their constraints, once per
call of :func:`is_sticky_admissible`, :func:`prob_exact`,
:func:`prob_closed_form` or :func:`assignment_query`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from ._mix import bit_from_keys
from .errors import InvalidInput, SizeCapExceeded
from .madic import Address, ancestor, cube_index, youngest_common_ancestor
from .pruning import PrunedSlopeTree


class BernoulliWarehouse:
    """Seeded, order-independent Bernoulli(1/2) bits per spatial cube.

    Bits are keyed by (height, per-axis cell indices); a fixed seed yields
    an identical realization no matter the query order.  ``overrides``
    allows exhaustive enumeration and forced-bit experiments.
    """

    def __init__(self, seed: int, M: int, overrides: dict | None = None):
        self.seed = seed
        self.M = M
        self.overrides = overrides or {}
        self._memo: dict[tuple, int] = {}

    def key_of(self, addr: Address) -> tuple:
        return (len(addr), cube_index(addr, self.M, len(addr[0]) if addr else 1))

    def bit(self, addr: Address) -> int:
        key = self.key_of(addr)
        if key in self.overrides:
            return self.overrides[key]
        got = self._memo.get(key)
        if got is None:
            got = bit_from_keys(self.seed, key[0], *key[1])
            self._memo[key] = got
        return got


@dataclass(frozen=True)
class ChainStep:
    level: int
    basic_cube: Address
    bit: int


def walk_chain(pruned: PrunedSlopeTree, t: Address, bit_of) -> list[tuple[Address, int]]:
    """The chain of basic spatial cubes of t, each with the bit ``bit_of``
    gives it: at each stage the current splitting vertex gamma names the
    basic height lambda(gamma), and the bit of t's ancestor there picks
    gamma's branch."""
    steps, g = [], pruned.psi(())
    for _ in range(pruned.N):
        info = pruned.gamma[g]
        q = ancestor(t, info.lam)
        b = bit_of(q)
        steps.append((q, b))
        g = info.next_gammas[b]
    return steps


class StickyMap:
    """A realized random slope assignment over all root cubes."""

    def __init__(self, pruned: PrunedSlopeTree, warehouse: BernoulliWarehouse):
        self.pruned = pruned
        self.warehouse = warehouse

    def chain(self, t: Address) -> list[ChainStep]:
        """Basic spatial cubes of the root cube t and their realized bits."""
        if len(t) != self.pruned.J:
            raise InvalidInput("chain is defined on root cubes (height J)")
        return [ChainStep(level=j, basic_cube=q, bit=b) for j, (q, b)
                in enumerate(walk_chain(self.pruned, t, self.warehouse.bit), start=1)]

    def slope_code(self, t: Address) -> int:
        return self.pruned.bits_code([s.bit for s in self.chain(t)])

    def extend(self, q: Address) -> Address:
        """Slope-tree vertex assigned to an arbitrary root-tree vertex.

        Follows the proof formula: find the largest basic level whose cube
        still contains q, then take the height-h(q) vertex on the ray of
        the next assignment.  Between a splitting vertex's height and the
        next basic height the value depends on which basic subcube's bit
        one follows; we canonically follow the lexicographically minimal
        root below q.  ``extend_is_canonical`` reports whether the value
        is independent of that choice.
        """
        vertex, _ = self._extendad(q)
        return vertex

    def extend_is_canonical(self, q: Address) -> bool:
        return self._extendad(q)[1]

    def _extendad(self, q: Address):
        p = self.pruned
        h = len(q)
        g = p.psi(())
        if h == 0:
            return (), True
        while True:
            info = p.gamma[g]
            if info.lam > h:
                if h <= len(g):
                    return ancestor(g, h), True
                # window case: h(gamma) < h < lambda(gamma): follow the
                # lex-min basic subcube of q
                pad = q + ((0,) * p.d,) * (info.lam - h)
                b = self.warehouse.bit(pad)
                return ancestor(info.h_cubes[b], h), False
            q_b = ancestor(q, info.lam)
            b = self.warehouse.bit(q_b)
            nxt = info.next_gammas[b]
            if nxt is None:
                # consumed all N bits; q is at height >= J = lam
                bits = [bit for _, bit in walk_chain(p, q, self.warehouse.bit)]
                leaf = p.slope_leaf(p.bits_code(bits))
                return ancestor(leaf, h), True
            if info.lam == h:
                return info.h_cubes[b], True
            g = nxt


def sample_assignment(pruned: PrunedSlopeTree, seed: int) -> StickyMap:
    """Realize the Bernoulli warehouse for a seed and wrap it as a map."""
    return StickyMap(pruned, BernoulliWarehouse(seed, pruned.M))


# ---------------------------------------------------------------------------
# prescribed-assignment probabilities
# ---------------------------------------------------------------------------

def _normalize_pairs(pruned: PrunedSlopeTree, pairs):
    """(root tuple, slope code) pairs.  A slope is an integer code (a numpy
    integer too) or a slope point; each code is range-checked before any
    table lookup, since a negative code would otherwise index from the end."""
    out = []
    n_codes, J = len(pruned.slopes), pruned.J
    for t, v in pairs:
        try:
            code = operator.index(v)
        except TypeError:
            try:
                point = tuple(v)
            except TypeError:
                raise InvalidInput(f"slope {v!r} is neither a code nor a point") from None
            code = pruned.slope_index(point)
        if not 0 <= code < n_codes:
            raise InvalidInput(f"slope code {code} outside 0..{n_codes - 1}")
        if len(t) != J:
            raise InvalidInput("roots must be height-J cubes")
        out.append((tuple(t), code))
    return out


def reference_cubes(pruned: PrunedSlopeTree, t: Address, code: int) -> tuple:
    """The reference cubes of a root under a prescribed slope: ancestors of
    t at the heights of the slope's basic cubes, paired with the bit each
    must carry.  Memoized on the instance per (t, code); repeat calls
    return the same tuple."""
    key = (t, code)
    got = pruned.ref_cubes.get(key)
    if got is None:
        n_codes = len(pruned.slopes)
        if not 0 <= code < n_codes:
            raise InvalidInput(f"slope code {code} outside 0..{n_codes - 1}")
        got = tuple((ancestor(t, h), b)
                    for h, b in zip(pruned.eta[code], pruned.code_bits(code)))
        pruned.ref_cubes[key] = got
    return got


@dataclass(frozen=True)
class AssignmentQuery:
    """Prescribed roots and slopes with their derived reference structure.

    ``levels[j]`` holds the distinct reference cubes of depth j (the tree
    of the prescription, root omitted); ``n`` counts them all, which is
    the exponent of the assignment probability.  Only well-defined for
    admissible prescriptions.
    """
    pairs: tuple
    levels: tuple
    n: int
    bits: dict

    @property
    def probability(self) -> Fraction:
        return Fraction(1, 2 ** self.n)


def _constraints(pruned: PrunedSlopeTree, pairs, required: bool):
    """The one admissibility pass: normalized pairs and the bit each of
    their distinct reference cubes must carry, merged once.  When some
    cube would need two bits the constraints are None, or InvalidInput is
    raised if ``required``."""
    pairs = _normalize_pairs(pruned, pairs)
    constraints: dict[Address, int] = {}
    for t, code in pairs:
        for cube, bit in reference_cubes(pruned, t, code):
            if constraints.setdefault(cube, bit) != bit:
                if required:
                    raise InvalidInput("assignment is not sticky-admissible")
                return pairs, None
    return pairs, constraints


def assignment_query(pruned: PrunedSlopeTree, pairs) -> AssignmentQuery:
    pairs, constraints = _constraints(pruned, pairs, required=True)
    levels: list[set] = [set() for _ in range(pruned.N + 1)]
    for t, code in pairs:
        for j, (cube, _) in enumerate(reference_cubes(pruned, t, code), start=1):
            levels[j].add(cube)
    return AssignmentQuery(pairs=tuple(pairs),
                           levels=tuple(tuple(sorted(s)) for s in levels),
                           n=len(constraints), bits=constraints)


def is_sticky_admissible(pruned: PrunedSlopeTree, pairs):
    """Whether some warehouse realization assigns every listed root its
    prescribed slope; returns (flag, certifying partial bit assignment)."""
    constraints = _constraints(pruned, pairs, required=False)[1]
    return constraints is not None, constraints


def prob_exact(pruned: PrunedSlopeTree, pairs) -> Fraction:
    """Exact probability of the prescribed assignment: 2^-(number of
    distinct reference cubes)."""
    return Fraction(1, 2 ** len(_constraints(pruned, pairs, required=True)[1]))


def prob_enumerate(pruned: PrunedSlopeTree, pairs, cap_bits: int = 20) -> Fraction:
    """Oracle: exhaust all realizations of the warehouse bits that can
    influence the listed roots, and count the matching ones."""
    pairs = _normalize_pairs(pruned, pairs)
    cubes = sorted({ancestor(t, h)
                    for t, _ in pairs for h in pruned.fundamental_heights})
    if len(cubes) > cap_bits:
        raise SizeCapExceeded(f"{len(cubes)} bits exceed the enumeration cap")

    hits = 0
    for assignment in product((0, 1), repeat=len(cubes)):
        table = dict(zip(cubes, assignment))
        good = True
        for t, code in pairs:
            got = [bit for _, bit in walk_chain(pruned, t, table.__getitem__)]
            if pruned.bits_code(got) != code:
                good = False
                break
        if good:
            hits += 1
    return Fraction(hits, 2 ** len(cubes))


# ---------------------------------------------------------------------------
# mu / theta / Q_u helpers
# ---------------------------------------------------------------------------

def theta(pruned: PrunedSlopeTree, w: Address, k: int) -> Address | None:
    """Basic slope cube containing the slope-tree vertex w of maximal
    height <= k, or None when no basic cube that shallow contains w."""
    best = None
    for h in range(min(k, len(w)), 0, -1):
        if w[:h] in pruned._psi_inv and len(pruned.psi_inverse(w[:h])) >= 1:
            best = w[:h]
            break
    return best


def mu(pruned: PrunedSlopeTree, w: Address, k: int) -> int:
    """Number of basic slope cubes of height <= k containing w, that is
    the code length of theta(w, k).  Memoized on the instance per (w, k)."""
    key = (w, k)
    got = pruned.mus.get(key)
    if got is None:
        th = theta(pruned, w, k)
        got = 0 if th is None else len(pruned.psi_inverse(th))
        pruned.mus[key] = got
    return got


def root_ancestor_at_mu(pruned: PrunedSlopeTree, u: Address, w: Address,
                        k: int) -> Address:
    """Ancestor of the root-tree vertex u at the height of theta(w, k)."""
    th = theta(pruned, w, k)
    return ancestor(u, 0 if th is None else len(th))


# ---------------------------------------------------------------------------
# root configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootConfiguration:
    size: int
    ctype: int
    pairs: tuple          # canonicalized ((t1, t2), ...) or ((t1, t2), (t1p, t2p))
    swapped: bool         # whether the canonical order swapped the input
    u: Address
    u2: Address


def classify_roots(roots) -> RootConfiguration:
    """Configuration type of a 3-tuple (t1, t2, t2') or an ordered pair of
    pairs ((t1, t2), (t1', t2')) of distinct root cubes."""
    roots = tuple(roots)
    if len(roots) == 3:
        t1, t2, t2p = roots
        if len({t1, t2, t2p}) != 3:
            raise InvalidInput("roots must be distinct")
        u = youngest_common_ancestor(t1, t2)
        u2 = youngest_common_ancestor(t1, t2p)
        swapped = len(u2) < len(u)
        if swapped:
            t2, t2p = t2p, t2
            u, u2 = u2, u
        # now u2 (deeper) is contained in u
        if len(u2) > len(u) or u == u2 == youngest_common_ancestor(t2, t2p):
            ctype = 1
        else:
            ctype = 2
        return RootConfiguration(3, ctype, ((t1, t2), (t1, t2p)), swapped, u, u2)

    if len(roots) == 2 and all(len(r) == 2 for r in roots):
        (t1, t2), (t1p, t2p) = roots
    elif len(roots) == 4:
        t1, t2, t1p, t2p = roots
    else:
        raise InvalidInput("expected 3 roots or two root pairs")
    if len({t1, t2, t1p, t2p}) != 4:
        raise InvalidInput("roots must be distinct")
    u = youngest_common_ancestor(t1, t2)
    u2 = youngest_common_ancestor(t1p, t2p)
    swapped = len(u) > len(u2)
    if swapped:
        (t1, t2), (t1p, t2p) = (t1p, t2p), (t1, t2)
        u, u2 = u2, u
    # h(u) <= h(u2): u2 is either disjoint from u, equal, or strictly inside
    if u2[: len(u)] != u:
        ctype = 1  # disjoint ancestors
    elif len(u2) > len(u):
        ctype = 2
    else:
        cross = [youngest_common_ancestor(a, b)
                 for a in (t1, t2) for b in (t1p, t2p)]
        ctype = 1 if all(c == u for c in cross) else 3
    return RootConfiguration(4, ctype, ((t1, t2), (t1p, t2p)), swapped, u, u2)


def prob_closed_form(pruned: PrunedSlopeTree, pairs) -> Fraction:
    """Closed-form probability for 2, 3, or 4 prescribed root-slope pairs.

    Dispatches on the root configuration type and evaluates the power of
    1/2 whose exponent combines N with mu at the youngest common ancestors
    dictated by the type.  Inputs must be sticky-admissible.
    """
    pairs = _constraints(pruned, pairs, required=True)[0]
    n = len(pairs)
    N = pruned.N
    if n == 1:
        return Fraction(1, 2 ** N)

    if n == 2:
        (t1, c1), (t2, c2) = pairs
        if t1 == t2:
            if c1 != c2:
                raise InvalidInput("one root with two slopes")
            return Fraction(1, 2 ** N)
        u = youngest_common_ancestor(t1, t2)
        w = pruned.slope_yca(c1, c2)
        return Fraction(1, 2 ** (2 * N - mu(pruned, w, len(u))))

    if n == 3:
        (ta, ca), (tb, cb), (tc, cc) = pairs
        cfg = classify_roots((ta, tb, tc))
        if cfg.swapped:
            (tb, cb), (tc, cc) = (tc, cc), (tb, cb)
        k, k2 = len(cfg.u), len(cfg.u2)
        w = pruned.slope_yca(ca, cb)
        w2 = pruned.slope_yca(ca, cc)
        if cfg.ctype == 1:
            expo = 3 * N - mu(pruned, w, k) - mu(pruned, w2, k2)
        else:
            t = youngest_common_ancestor(tb, tc)
            vt = pruned.slope_yca(cb, cc)
            expo = 3 * N - mu(pruned, w, k) - mu(pruned, vt, len(t))
        return Fraction(1, 2 ** expo)

    if n == 4:
        (ta, ca), (tb, cb), (tC, cC), (td, cd) = pairs
        cfg = classify_roots(((ta, tb), (tC, td)))
        if cfg.swapped:
            (ta, ca), (tb, cb), (tC, cC), (td, cd) = (tC, cC), (td, cd), (ta, ca), (tb, cb)
        k, k2 = len(cfg.u), len(cfg.u2)
        w = pruned.slope_yca(ca, cb)
        w2 = pruned.slope_yca(cC, cd)
        if cfg.ctype == 1:
            z = youngest_common_ancestor(cfg.u, cfg.u2)
            v = youngest_common_ancestor(w, w2)
            expo = (4 * N - mu(pruned, w, k) - mu(pruned, w2, k2)
                    - mu(pruned, v, len(z)))
        elif cfg.ctype == 2:
            (i2, j2), t = _max_cross((ta, tb), (tC, td))
            vtheta = pruned.slope_yca((ca, cb)[i2], (cC, cd)[j2])
            expo = (4 * N - mu(pruned, w, k) - mu(pruned, w2, k2)
                    - mu(pruned, vtheta, len(t)))
        else:
            (i2, j2), s2 = _max_cross((ta, tb), (tC, td), strictly_below=cfg.u)
            i1, j1 = 1 - i2, 1 - j2
            s1 = youngest_common_ancestor((ta, tb)[i1], (tC, td)[j1])
            th1 = pruned.slope_yca((ca, cb)[i1], (cC, cd)[j1])
            th2 = pruned.slope_yca((ca, cb)[i2], (cC, cd)[j2])
            expo = (4 * N - mu(pruned, w, k) - mu(pruned, th1, len(s1))
                    - mu(pruned, th2, len(s2)))
        return Fraction(1, 2 ** expo)

    raise InvalidInput("closed forms exist for 2, 3, or 4 pairs only")


def _max_cross(pair1, pair2, strictly_below: Address | None = None):
    """The cross ancestor D(t_i, t_j') of maximal height, optionally among
    those strictly below a given vertex; ties resolve lexicographically."""
    best = None
    for i in range(2):
        for j in range(2):
            dd = youngest_common_ancestor(pair1[i], pair2[j])
            if strictly_below is not None and len(dd) <= len(strictly_below):
                continue
            key = (-len(dd), i, j)
            if best is None or key < best[0]:
                best = (key, (i, j), dd)
    if best is None:
        raise InvalidInput("no qualifying cross ancestor")
    return best[1], best[2]
