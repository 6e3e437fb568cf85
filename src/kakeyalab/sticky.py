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
common ancestors of roots and slopes alone, counting a repeated pair once.

Stickiness is pairwise: a prescription is admissible exactly when every
two of its pairs are, since a conflict is one cube given two bits, and
one pair's reference cubes lie at distinct heights.  :func:`sticky_pair`
decides two pairs by one height comparison for the E2 scan and the joins
of :mod:`kakeyalab.counting` and for ``tubes.reference_trees``.

Every input of these checks is computed once per instance and looked up
in the tables that :mod:`kakeyalab.counting`, :mod:`kakeyalab.tubes` and
:mod:`kakeyalab.fast1d` read too: the pruned tree builds its code-bit,
slope-lattice and basic-height (``eta``) tables up front, and its root
table holds, per checked root, the object checked, its cube index (read
by the E2 scan) and its reference cubes by code.  :func:`_root` alone
checks a root and fills the table.  Two codes that share their first s
bits have the first s basic slope cubes of their rays in common and part
at their slope yca D(v, v'), so mu(D(v, v'), h) counts the first s
heights of ``eta`` that are at most h, and lambda(D(v, v')) is the
(s + 1)-th: no slope address is walked.  :func:`is_sticky_admissible`,
:func:`prob_exact`, :func:`prob_closed_form` and :class:`ReferenceTree`
share one private pass per prescription: it checks the pairs, reads each
root's entry in the root table (a root that is not the very object
checked before goes through :func:`_root`) and merges their constraints.
Nothing is converted: a root is a tuple of digit tuples, a pair a 2-tuple
(root, code) of any integer code and a prescription a list or tuple of
pairs, and any other form raises InvalidInput where it enters.  The
instance keeps the last pass, and a call whose pairs are the identical,
immutable objects reuses it, so a caller that asks for the verdict and
both probabilities of one list makes one pass.  Two module caches hold
what depends on no instance: :func:`classify_roots` keeps the
configurations of the last ``CONFIG_CACHE_SIZE`` root tuples (a sweep
asks about one root tuple for each of its code tuples), each with every
root-only height and cross index that the closed form reads, so a
prescription pays only for its code-pair lookups in ``eta``; and every
probability is the one shared ``Fraction`` 2^-n of its exponent.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

from ._mix import bit_from_keys
from .errors import InvalidInput, SizeCapExceeded
from .madic import Address, cube_index, youngest_common_ancestor
from .pruning import PrunedSlopeTree

CONFIG_CACHE_SIZE = 1024  # root tuples whose configuration classify_roots keeps


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


def walk_chain(pruned: PrunedSlopeTree, t: Address, bit_of) -> list[tuple[Address, int]]:
    """The chain of basic spatial cubes of t, each with the bit ``bit_of``
    gives it: at each stage the current splitting vertex gamma names the
    basic height lambda(gamma), and the bit of t's ancestor there picks
    gamma's branch."""
    steps, g = [], pruned.psi(())
    for _ in range(pruned.N):
        info = pruned.gamma[g]
        q = t[:info.lam]
        b = bit_of(q)
        steps.append((q, b))
        g = info.next_gammas[b]
    return steps


class StickyMap:
    """A realized random slope assignment over all root cubes."""

    def __init__(self, pruned: PrunedSlopeTree, warehouse: BernoulliWarehouse):
        self.pruned = pruned
        self.warehouse = warehouse

    def chain(self, t: Address) -> list[tuple[Address, int]]:
        """Basic spatial cubes of the root cube t, top down, each with its
        realized bit."""
        _check_root(self.pruned, t)
        return walk_chain(self.pruned, t, self.warehouse.bit)

    def slope_code(self, t: Address) -> int:
        return self.pruned.bits_code([b for _, b in self.chain(t)])


def sample_assignment(pruned: PrunedSlopeTree, seed: int) -> StickyMap:
    """Realize the Bernoulli warehouse for a seed and wrap it as a map."""
    return StickyMap(pruned, BernoulliWarehouse(seed, pruned.M))


# ---------------------------------------------------------------------------
# prescribed-assignment probabilities
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _half_power(n: int) -> Fraction:
    """2^-n, one shared ``Fraction`` per exponent."""
    return Fraction(1, 2 ** n)


def _check_root(pruned: PrunedSlopeTree, t, anchor: bool = False) -> None:
    """Refuse t unless it is a cube of the lattice, a tuple of digits, each
    a d-tuple of ints in 0..M-1: J digits for a root, at most J for an
    ``anchor``."""
    M, d, J = pruned.M, pruned.d, pruned.J
    ok = type(t) is tuple and (len(t) <= J if anchor else len(t) == J)
    for digit in t if ok else ():  # plain loops: nested all()s cost 3x as much
        ok = ok and type(digit) is tuple and len(digit) == d
        for x in digit if ok else ():
            ok = ok and type(x) is int and 0 <= x < M
    if not ok:
        what = f"anchor {t!r} is not a cube of height at most {J}" if anchor \
            else f"root {t!r} is not a height-{J} cube"
        raise InvalidInput(f"{what} of the base-{M} lattice")


def _code(pruned: PrunedSlopeTree, code) -> int:
    """A slope code as an int in 0..2^N - 1 (a numpy integer or a bool
    reads as its int), else InvalidInput."""
    try:
        code = operator.index(code)
    except TypeError:
        raise InvalidInput(f"slope {code!r} is not a code") from None
    if not 0 <= code < len(pruned.slopes):
        raise InvalidInput(f"slope code {code} outside 0..{len(pruned.slopes) - 1}")
    return code


def _root(pruned: PrunedSlopeTree, t) -> tuple:
    """Root t's entry in the root table ``pruned.roots``: (the root object
    checked, its cube index per axis, its reference cubes by code, filled
    on first use).  A root is checked to be a height-J cube of the lattice
    when it enters, and again when it only equals the object checked,
    since an equal root may have other digit types (1.0 or True for 1)."""
    try:
        got = pruned.roots.get(t)
    except TypeError:  # unhashable, so off the lattice
        got = None
    if got is None or got[0] is not t:
        _check_root(pruned, t)
        if got is None:
            got = pruned.roots[t] = (t, cube_index(t, pruned.M, pruned.d),
                                     [None] * len(pruned.slopes))
    return got


def reference_cubes(pruned: PrunedSlopeTree, t: Address, code: int) -> tuple:
    """The reference cubes of a root under a prescribed slope: ancestors of
    t at the heights of the slope's basic cubes, paired with the bit each
    must carry.  Kept in t's root table entry, so repeat calls return the
    same tuple; every call reads the code by :func:`_code` and the root by
    :func:`_root`."""
    code = _code(pruned, code)
    t, _, by_code = _root(pruned, t)
    got = by_code[code]
    if got is None:
        got = by_code[code] = tuple(
            (t[:h], b) for h, b in zip(pruned.eta[code], pruned.code_bits(code)))
    return got


def _constraints(pruned: PrunedSlopeTree, pairs, required: bool):
    """The admissibility pass of a prescription, a list or tuple of pairs:
    its checked (root, int code) pairs and the bit each of their distinct
    reference cubes must carry, or None when some cube would need two
    bits.  The instance keeps the last pass in ``last_pass``; a call whose
    pairs are the very objects that pass read reuses it.  ``required`` is
    applied after that lookup, so an inadmissible prescription raises
    InvalidInput on every call."""
    if type(pairs) is not list and type(pairs) is not tuple:
        raise InvalidInput(f"{type(pairs).__name__} is not a list or tuple of pairs")
    read, keys, constraints = pruned.last_pass
    if len(pairs) != len(read) or not all(map(operator.is_, pairs, read)):
        keys, constraints = _pass(pruned, pairs)
    if constraints is None and required:
        raise InvalidInput("assignment is not sticky-admissible")
    return keys, constraints


def _pass(pruned: PrunedSlopeTree, pairs):
    """One pass over a prescription: it checks each pair, a 2-tuple (root,
    code), and merges the reference cubes kept in its root's table entry.
    A pair off the fast path (not a tuple, or a code that is a non-int or
    out of range) is checked here, its code read by :func:`_code`, and a
    root that the table misses or holds as another object by
    :func:`_root`; a conflict ends the merging but not these checks.
    Every accepted pair is immutable, so every pass is kept in
    ``last_pass``, with int codes; a pair that raises stores nothing."""
    table, n_codes = pruned.roots, len(pruned.slopes)
    keys, constraints = [], {}
    for pair in pairs:
        try:
            t, code = pair
        except (TypeError, ValueError):  # not two items, refused below
            t = code = None
        if type(code) is not int or type(pair) is not tuple or not 0 <= code < n_codes:
            if type(pair) is not tuple or len(pair) != 2:
                raise InvalidInput(f"pair {pair!r} is not a 2-tuple (root, code)")
            code = _code(pruned, code)
            pair = (t, code)
        try:
            got = table.get(t)
        except TypeError:  # unhashable digits, left to _root
            got = None
        if got is None or got[0] is not t:
            got = _root(pruned, t)
        keys.append(pair)
        cubes = got[2][code]
        if cubes is None:
            cubes = reference_cubes(pruned, got[0], code)
        if constraints is not None:
            for cube, bit in cubes:
                if constraints.setdefault(cube, bit) != bit:
                    constraints = None
                    break
    keys = tuple(keys)
    pruned.last_pass = (tuple(pairs), keys, constraints)
    return keys, constraints


class ReferenceTree:
    """The tree of the reference cubes of an admissible prescription.

    ``rays[t]`` lists root t's N reference cubes, top down; ``bits`` maps
    every cube to the bit kappa it must carry and ``parent`` to the cube
    above it on its ray (the root ``()`` at level 1).  ``n`` counts the
    cubes, the exponent of the probability.  Percolation reads a vertex
    as its path of cubes from the root through :meth:`children`; N_x is
    this tree for the prescription poss(x).  An inadmissible prescription
    raises ``InvalidInput``.
    """

    def __init__(self, pruned: PrunedSlopeTree, pairs):
        self.pairs, bits = _constraints(pruned, pairs, required=True)
        self.bits = dict(bits)
        self.rays = {t: tuple(cube for cube, _ in reference_cubes(pruned, t, code))
                     for t, code in self.pairs}
        self.parent: dict[Address, Address] = {}
        for ray in self.rays.values():
            for up, cube in zip(((),) + ray, ray):
                if self.parent.setdefault(cube, up) != up:
                    raise AssertionError("reference tree ill-defined: conflicting edges")
        self.n = len(self.bits)

    def children(self, path: tuple) -> tuple[Address, ...]:
        """The cubes one level below the end of ``path``, which lists the
        cubes from level 1 to level ``len(path)`` (the root is ``()``).
        With no pairs the tree is the root alone, a leaf."""
        end = path[-1] if path else ()
        return tuple(sorted(cube for cube, up in self.parent.items() if up == end))


def sticky_pair(pruned: PrunedSlopeTree, a, b) -> bool:
    """Whether two checked (root, code) pairs are sticky-admissible
    together: always with equal codes, else iff the roots differ and
    lambda(D(v1, v2)) > h(D(t1, t2)).  The codes share their bits down to
    D(v1, v2) and differ at its basic height lambda, where the two roots
    conflict iff they share their ancestor.  With s = N - bit_length(c1 ^
    c2) shared leading bits, that height is eta[c1][s], c1's (s + 1)-th
    basic height."""
    (t1, c1), (t2, c2) = a, b
    if c1 == c2:
        return True
    return t1 != t2 and pruned.eta[c1][pruned.N - (c1 ^ c2).bit_length()] > len(
        youngest_common_ancestor(t1, t2))


def is_sticky_admissible(pruned: PrunedSlopeTree, pairs):
    """Whether some warehouse realization assigns every listed root its
    prescribed slope; returns (flag, certifying partial bit assignment).
    The certificate is a fresh dict, None when there is none."""
    constraints = _constraints(pruned, pairs, required=False)[1]
    if constraints is None:
        return False, None
    return True, dict(constraints)


def prob_exact(pruned: PrunedSlopeTree, pairs) -> Fraction:
    """Exact probability of the prescribed assignment: 2^-(number of
    distinct reference cubes)."""
    return _half_power(len(_constraints(pruned, pairs, required=True)[1]))


def prob_enumerate(pruned: PrunedSlopeTree, pairs, cap_bits: int = 20) -> Fraction:
    """Oracle: exhaust all realizations of the warehouse bits that can
    influence the listed roots, and count the matching ones."""
    pairs = _constraints(pruned, pairs, required=False)[0]
    cubes = sorted({t[:h] for t, _ in pairs for h in pruned.fundamental_heights})
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
# root configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootConfiguration:
    """The configuration of a root tuple and every root-only quantity that
    :func:`prob_closed_form` reads.  ``size`` counts the distinct roots;
    ``pairs``, ``swapped``, ``u`` and ``u2`` describe the canonical order
    of those.  Each ``(i, j, h)`` of ``terms`` takes
    mu(D(v_i, v_j), h) off the exponent, and ``meet``, of 4-pair type 1,
    the least of its three, where i and j index the roots as given and v_i
    is the prescribed slope of root i."""
    size: int
    ctype: int
    pairs: tuple          # canonicalized ((t1, t2), ...) or ((t1, t2), (t1p, t2p))
    swapped: bool         # whether the canonical order swapped the input
    u: Address
    u2: Address
    terms: tuple
    meet: tuple = ()


def classify_roots(roots) -> RootConfiguration:
    """Configuration type of a list or tuple of distinct root cubes, each a
    tuple: (t1, t2, t2') or, for the ordered pairs (t1, t2) and (t1',
    t2'), (t1, t2, t1', t2').  The configurations of the last
    ``CONFIG_CACHE_SIZE`` root tuples are kept, and invalid input raises
    on every call.  With no instance, it checks only the form of its
    roots (a list or tuple of 3 or 4, each a tuple, hashable and
    distinct), never that they are cubes of a lattice: callers holding an
    instance check that, as ``sticky._root`` does."""
    if type(roots) not in (list, tuple) or len(roots) not in (3, 4) \
            or not all(type(t) is tuple for t in roots):
        raise InvalidInput("expected a list or tuple of 3 or 4 roots, each a tuple")
    try:
        cfg = _configuration(tuple(roots))
    except TypeError:  # the cache key: a digit that cannot be hashed
        raise InvalidInput(f"roots {roots!r} hold an unhashable digit") from None
    if cfg.size != len(roots):
        raise InvalidInput("roots must be distinct")
    return cfg


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def _configuration(roots: tuple) -> RootConfiguration:
    """The configuration of a flat tuple of roots.  A repeated root is read
    once: its configuration is that of the distinct roots in order of first
    appearance, with their terms indexed into ``roots``."""
    distinct = tuple(dict.fromkeys(roots))
    if len(distinct) < len(roots):
        cfg = _configuration(distinct)
        at = [roots.index(t) for t in distinct]
        return replace(cfg, terms=tuple((at[i], at[j], h) for i, j, h in cfg.terms),
                       meet=tuple((at[i], at[j], h) for i, j, h in cfg.meet))
    if len(roots) == 1:
        return RootConfiguration(1, 0, (), False, roots[0], roots[0], ())
    if len(roots) == 2:
        u = youngest_common_ancestor(*roots)
        return RootConfiguration(2, 1, (roots,), False, u, u, ((0, 1, len(u)),))

    if len(roots) == 3:
        t1, t2, t2p = roots
        b, c = 1, 2  # the input indices of t2 and t2p
        u = youngest_common_ancestor(t1, t2)
        u2 = youngest_common_ancestor(t1, t2p)
        swapped = len(u2) < len(u)
        if swapped:
            t2, t2p, b, c = t2p, t2, c, b
            u, u2 = u2, u
        # now u2 (deeper) is contained in u
        terms = (0, b, len(u)), (0, c, len(u2))
        ctype = 1
        if len(u2) == len(u):
            t = youngest_common_ancestor(t2, t2p)
            if not u == u2 == t:
                ctype, terms = 2, ((0, b, len(u)), (b, c, len(t)))
        return RootConfiguration(3, ctype, ((t1, t2), (t1, t2p)), swapped, u, u2, terms)

    if len(roots) != 4:
        raise InvalidInput("closed forms exist for at most 4 distinct roots")
    t1, t2, t1p, t2p = roots
    ij, ij2 = (0, 1), (2, 3)  # the input indices of each pair
    u = youngest_common_ancestor(t1, t2)
    u2 = youngest_common_ancestor(t1p, t2p)
    swapped = len(u) > len(u2)
    if swapped:
        (t1, t2), (t1p, t2p), ij, ij2 = (t1p, t2p), (t1, t2), ij2, ij
        u, u2 = u2, u
    k, k2 = len(u), len(u2)
    pairs, meet = ((t1, t2), (t1p, t2p)), ()
    # h(u) <= h(u2): u2 is either disjoint from u, equal, or strictly inside
    if u2[:k] != u:
        ctype = 1  # disjoint ancestors
    elif k2 > k:
        ctype = 2
        (i, j), t = _max_cross(*pairs)
        terms = (*ij, k), (*ij2, k2), (ij[i], ij2[j], len(t))
    elif all(youngest_common_ancestor(a, b) == u for a in pairs[0] for b in pairs[1]):
        ctype = 1
    else:
        ctype = 3
        (i2, j2), s2 = _max_cross(*pairs, strictly_below=u)
        i1, j1 = 1 - i2, 1 - j2
        s1 = youngest_common_ancestor(pairs[0][i1], pairs[1][j1])
        terms = (*ij, k), (ij[i1], ij2[j1], len(s1)), (ij[i2], ij2[j2], len(s2))
    if ctype == 1:
        # mu at the yca of all four slopes, the shortest of D(v1, v2),
        # D(v1', v2') and D(v1, v1'), so the least of their mu (mu only
        # grows down a path of the slope tree)
        kz = len(youngest_common_ancestor(u, u2))
        terms = (*ij, k), (*ij2, k2)
        meet = (*ij, kz), (*ij2, kz), (ij[0], ij2[0], kz)
    return RootConfiguration(4, ctype, pairs, swapped, u, u2, terms, meet)


classify_roots.cache_info = _configuration.cache_info


def _code_mu(pruned: PrunedSlopeTree, c1: int, c2: int, h: int) -> int:
    """mu(D(v_c1, v_c2), h), the number of basic slope cubes of height <= h
    above the slope yca.  Those above it are the first s of either code's
    ray, s = N - bit_length(c1 ^ c2) the number of leading bits the codes
    share, so mu counts the first s heights of ``eta[c1]`` that are at
    most h."""
    return bisect_right(pruned.eta[c1], h, 0, pruned.N - (c1 ^ c2).bit_length())


def prob_closed_form(pruned: PrunedSlopeTree, pairs) -> Fraction:
    """Closed-form probability of a prescription of at most 4 distinct
    root-slope pairs, each counted once.

    The power of 1/2 whose exponent is N per pair less mu at the youngest
    common ancestors that the root configuration type dictates: the root
    side is read off the cached :class:`RootConfiguration`, the slope side
    off the basic heights ``eta`` of the codes.  Inputs must be
    sticky-admissible, so a repeated root carries one code.
    """
    pairs = _constraints(pruned, pairs, required=True)[0]
    if len(pairs) < 2:
        return _half_power(len(pairs) * pruned.N)
    roots, codes = zip(*pairs)
    cfg = _configuration(roots)
    expo = cfg.size * pruned.N
    for i, j, h in cfg.terms:
        expo -= _code_mu(pruned, codes[i], codes[j], h)
    if cfg.meet:
        expo -= min(_code_mu(pruned, codes[i], codes[j], h) for i, j, h in cfg.meet)
    return _half_power(expo)


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
