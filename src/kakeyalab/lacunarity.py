"""Constructive lacunary decompositions, witnesses, and example generators.

A *lacunary sequence* toward a limit ``alpha`` with constant ``lam`` is a
sequence whose distances to ``alpha`` contract by at least ``lam`` at each
step.  A *lacunary set of order N* is certified here by a
:class:`LacunaryWitness`: a special sequence plus, for each gap between
consecutive special points, a child witness of order N-1.

``decompose_split_one`` turns any 1-d set whose tree has splitting number 1
into at most ``6M`` lacunary sequences with constant <= 1/M, following the
constructive splitting-vertex argument (two sides of the anchor point, one
class per digit, indices thinned mod 3).  ``decompose_lacunary_order``
recurses on the maximal-split ray to produce verified witnesses of order N.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InvalidInput, SizeCapExceeded
from .madic import (
    CondensedTree,
    agreement_height_scalar,
    cantor_tree,
    encode_set,
    full_tree,
    point_digit,
    splitting_number_1d_points,
)

Rational = Fraction


# ---------------------------------------------------------------------------
# sequences and witnesses
# ---------------------------------------------------------------------------

def is_lacunary_sequence(seq: Sequence[Rational], alpha: Rational,
                         lam: Rational) -> bool:
    """Exact check of the contraction |a_{k+1} - alpha| <= lam |a_k - alpha|.

    The sequence is taken in its given (convergence) order.
    """
    for a, b in zip(seq, seq[1:]):
        if abs(b - alpha) > lam * abs(a - alpha):
            return False
    return True


@dataclass
class LacunaryWitness:
    """Certificate that a set is lacunary of order <= ``order``.

    ``special`` is the special sequence in convergence order; ``alpha`` its
    limit.  ``children`` maps a gap index to the witness for the set's part
    inside that gap.  Gaps are indexed over the ascending sort ``s`` of
    ``special + (alpha,)``: gap ``i < len(s)-1`` is ``[s_i, s_{i+1})`` and
    index ``len(s)-1`` is the closing gap ``[s_max, oo)``.  (For infinite
    special sequences the closing gap is empty; keeping it lets finite
    truncations of textbook examples verify, e.g. a lacunary sequence as
    its own special sequence.)

    Order-0 witnesses certify sets of at most one point and carry no data.
    """
    order: int
    lam: Rational = Fraction(1, 2)
    special: tuple = ()
    alpha: Rational = Fraction(0)
    children: dict = field(default_factory=dict)

    def sorted_support(self) -> list:
        return sorted(set(self.special) | {self.alpha})

    def to_jsonable(self):
        """Witness JSON for audits, the children keyed by gap index."""
        return {
            "order": self.order,
            "lambda": str(self.lam),
            "alpha": str(self.alpha),
            "special": [str(a) for a in self.special],
            "children": {str(k): w.to_jsonable() for k, w in self.children.items()},
        }


def _gap_index(sorted_support: list, u: Rational) -> int:
    """The gap of u: the last support point at or below u (0 below the
    first); the largest point is its own pseudo-gap."""
    return max(0, bisect_right(sorted_support, u) - 1)


def verify_witness(points: Sequence[Rational], w: LacunaryWitness) -> bool:
    """Verify a witness against a finite set, exactly.

    Returns False on any failed containment or contraction; raises
    InvalidInput on structurally malformed witnesses (bad orders, children
    at nonexistent gaps, unsorted data that cannot be interpreted).
    """
    pts = sorted(set(points))
    if w.order < 0:
        raise InvalidInput("negative witness order")
    if w.order == 0:
        if w.children:
            raise InvalidInput("order-0 witness with children")
        return len(pts) <= 1
    if not w.special:
        raise InvalidInput("positive-order witness without special sequence")
    if not (0 < w.lam < 1):
        raise InvalidInput(f"lacunarity constant {w.lam} outside (0,1)")
    if not is_lacunary_sequence(w.special, w.alpha, w.lam):
        return False
    support = w.sorted_support()
    ngaps = len(support)  # indices 0..len-2 are intervals, len-1 the max point
    for k, child in w.children.items():
        if not (0 <= k < ngaps):
            raise InvalidInput(f"child witness at nonexistent gap {k}")
        if child.order > w.order - 1:
            raise InvalidInput("child witness order too high")
    if not pts:
        return True
    if pts[0] < support[0]:
        return False
    buckets: dict[int, list] = {}
    for u in pts:
        buckets.setdefault(_gap_index(support, u), []).append(u)
    for k, bucket in buckets.items():
        child = w.children.get(k)
        if child is None:
            if len(bucket) > 1:
                return False
        elif not verify_witness(bucket, child):
            return False
    return True


# ---------------------------------------------------------------------------
# split-1 decomposition (the 6M-sequence construction)
# ---------------------------------------------------------------------------

def _anchor(tree: CondensedTree, N: int) -> Rational:
    """The least point of the deepest split-N vertex.  All split-N vertices
    lie on one ray; descend it from the root."""
    i0, j0 = 0, len(tree.pts) - 1
    while i0 != j0:
        deeper = [(a, b) for a, b in tree.children(i0, j0)
                  if tree.split_value(a, b) == N]
        if not deeper:
            break
        i0, j0 = deeper[0]
    return tree.pts[i0]


def _thinned(classes: dict):
    """The entries of each class in ascending order, split by index mod 3:
    the nonempty parts, class by class.  Ascending branch height means
    decreasing distance to the anchor, i.e. convergence order."""
    for key in sorted(classes):
        entries = sorted(classes[key])
        yield from filter(None, (entries[ell::3] for ell in range(3)))


def _branch_data(points: Sequence[Rational], anchor: Rational, M: int):
    """For each point != anchor: (agreement height j, side, digit at j+1).
    Below the root (j = -1) the digit is the point's unit interval counted
    from the anchor's, which an integer shift leaves unchanged."""
    out = []
    for a in points:
        if a == anchor:
            continue
        j = agreement_height_scalar(a, anchor, M)
        side = 1 if a > anchor else -1
        dig = (point_digit(a, M, j + 1) if j >= 0
               else math.floor(a) - math.floor(anchor))
        out.append((a, j, side, dig))
    return out


def decompose_split_one(points: Sequence[Rational], M: int):
    """Decompose a splitting-number-1 set into <= 6M lacunary sequences,
    plus one for each further unit interval [n, n+1) that the set meets
    (its tree's root has one child per interval).

    Returns a list of (sequence, alpha) pairs: each sequence is in
    convergence order toward the shared anchor alpha and has lacunarity
    constant <= 1/M.  Their union (as sets) covers the input.
    """
    pts = sorted(set(points))
    tree = CondensedTree(pts, M)
    if not pts:
        return []
    if len(pts) == 1:
        return [((pts[0],), pts[0])]
    split = tree.split_value()
    if split != 1:
        raise InvalidInput(f"splitting number is {split}, not 1")
    anchor = _anchor(tree, 1)

    classes: dict[tuple, list] = {}
    for a, j, side, dig in _branch_data(pts, anchor, M):
        classes.setdefault((side, dig), []).append((j, a))
    if any(len({j for j, _ in e}) != len(e) for e in classes.values()):
        raise InvalidInput("two branch points at one M-adic distance; "
                           "splitting number cannot be 1")

    # some point lies off the anchor, so there is a first sequence; it
    # takes the anchor
    sequences = [(tuple(a for _, a in part), anchor) for part in _thinned(classes)]
    sequences[0] = (sequences[0][0] + (anchor,), anchor)
    units = len({math.floor(a) for a in pts})
    if len(sequences) > 6 * M + units - 1:
        raise AssertionError(f"{len(sequences)} sequences exceed 6M + {units - 1}")
    return sequences


def decompose_lacunary_order(points: Sequence[Rational], M: int,
                             _depth: int = 0):
    """Cover a finite 1-d set by lacunary sets of order split(T(set;M)).

    Returns ``(pieces, order)`` where pieces is a list of
    ``(subset tuple, LacunaryWitness)``; every witness has order <= the
    set's splitting number and passes :func:`verify_witness`.  The achieved
    fan-out (len of the list) is the recorded stand-in for the
    non-explicit covering constant.
    """
    pts = sorted(set(points))
    if _depth > 64:
        raise SizeCapExceeded("decomposition recursion too deep")
    tree = CondensedTree(pts, M)
    if len(pts) <= 1:
        return [(tuple(pts), LacunaryWitness(order=0))], 0
    N = tree.split_value()
    if N == 1:
        pieces = [(seq, LacunaryWitness(order=1, lam=Fraction(1, M),
                                        special=seq, alpha=alpha))
                  for seq, alpha in decompose_split_one(pts, M)]
        return pieces, 1
    anchor = _anchor(tree, N)

    # group off-ray points by branch vertex, recurse into each group
    groups: dict[tuple, list] = {}
    for a, j, side, dig in _branch_data(pts, anchor, M):
        groups.setdefault((side, dig, j), []).append(a)

    sub_pieces: dict[tuple, list] = {}
    for key, grp in groups.items():
        pieces, order = decompose_lacunary_order(grp, M, _depth + 1)
        if order > N - 1:
            raise AssertionError("off-ray subtree with too-large split")
        sub_pieces[key] = pieces

    # classes as in the split-1 construction; one special point per branch
    # vertex (the left endpoint of its cube)
    out = []
    by_class: dict[tuple, list] = {}
    for (side, dig, j), grp in groups.items():
        v_origin = Fraction(math.floor(min(grp) * M ** (j + 1)), M ** (j + 1))
        by_class.setdefault((side, dig), []).append((j, v_origin, (side, dig, j)))
    for chosen in _thinned(by_class):
        special = tuple(v for _, v, _ in chosen)
        for copy in range(max(len(sub_pieces[k]) for _, _, k in chosen)):
            support_pts: list = []
            w = LacunaryWitness(order=N, lam=Fraction(1, M),
                                special=special, alpha=anchor)
            sup_sorted = w.sorted_support()
            for j, v_origin, k in chosen:
                pieces = sub_pieces[k]
                if copy < len(pieces):  # every sub-piece holds a point
                    subset, cw = pieces[copy]
                    w.children[_gap_index(sup_sorted, v_origin)] = cw
                    support_pts.extend(subset)
            out.append((tuple(sorted(support_pts)), w))
    # some point lies off the anchor, so there is a first piece; it takes
    # the anchor
    subset, w = out[0]
    out[0] = (tuple(sorted(subset + (anchor,))), w)
    return out, N


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def project(points, direction):
    """Scalar projections x . w / |w|^2 of points onto a rational direction.

    Affine-equivalent to the orthogonal projection, hence interchangeable
    for lacunarity purposes; exactness is preserved because no square root
    is taken.
    """
    w = tuple(direction)
    nsq = sum(c * c for c in w)
    if nsq == 0:
        raise InvalidInput("zero direction")
    return [sum(c * v for c, v in zip(p, w)) / nsq for p in points]


def direction_evidence(points, M: int):
    """Splitting numbers of scalar projections along sampled directions.

    The universal quantifier over rotations is undecidable for finite
    data, so this reports *evidence*: per sampled rational direction, the
    splitting number of the projected set.  The directions are the
    canonical axes plus the diagonal sign patterns (1, +-1, ...).
    """
    pts = list(points)
    d = len(pts[0])
    directions = []
    for a in range(d):
        e = [Fraction(0)] * d
        e[a] = Fraction(1)
        directions.append(tuple(e))
    if d > 1:
        for signs in itertools.product((1, -1), repeat=d - 1):
            directions.append((Fraction(1),) + tuple(Fraction(s) for s in signs))
    out = {}
    for w in directions:
        proj = project(pts, w)
        lo = min(proj)
        span = max(proj) - lo
        scale = span if span else Fraction(1)
        normalized = sorted({(x - lo) / (2 * scale) for x in proj})
        out[tuple(w)] = splitting_number_1d_points(normalized, M) \
            if len(normalized) > 1 else 0
    return out


# ---------------------------------------------------------------------------
# example generators
# ---------------------------------------------------------------------------

# The keys each kind reads: those of ``generate``, ``depth`` for the lazy
# trees of ``cantor`` and ``full``, and ``J``, the height at which
# :func:`spec_tree` encodes a point set.
SPEC_KEYS = {
    "cantor": ("L", "depth", "J"),
    "full": ("depth",),
    "dyadic": ("m", "J"),
    "power": ("lam", "J"),
    "two_scale": ("M1", "M2", "jmax", "kmax", "J"),
    "perturbed_geometric": ("jmax", "J"),
    "nsw": ("m", "ratio", "count", "J"),
    "carbery": ("lam", "kmax", "d", "J"),
    "counterexample_u": ("jmax", "J"),
    "counterexample_v": ("jmax", "J"),
    "counterexample_sum": ("jmax", "J"),
    "parcet_rogers": ("lmax", "J"),
}


def _spec_int(kind: str, key: str, raw: str, lo: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise InvalidInput(f"{kind}: {key}={raw!r} is not an integer") from None
    if value < lo:
        raise InvalidInput(f"{kind}: {key}={value} is below {lo}")
    return value


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: tuple = ()

    @classmethod
    def parse(cls, text: str) -> "GeneratorSpec":
        """Parse minispec strings like ``cantor:L=6`` or ``dyadic:m=3``.

        An unknown kind, an item without ``=`` and a key that the kind does
        not read (:data:`SPEC_KEYS`) raise ``InvalidInput``.
        """
        kind, colon, rest = (part.strip() for part in text.partition(":"))
        if kind not in SPEC_KEYS:
            raise InvalidInput(f"unknown generator kind {kind!r}")
        params = []
        for item in rest.split(",") if colon else ():
            k, eq, v = item.partition("=")
            if not eq:
                raise InvalidInput(f"{kind}: item {item!r} is not key=value")
            if k.strip() not in SPEC_KEYS[kind]:
                raise InvalidInput(f"{kind}: unknown key {k.strip()!r}; "
                                   f"known: {', '.join(SPEC_KEYS[kind])}")
            params.append((k.strip(), v.strip()))
        return cls(kind, tuple(params))

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def integer(self, key: str, default: int | None, lo: int = 0) -> int | None:
        """The integer value of ``key``, ``default`` when it is absent;
        ``InvalidInput`` unless it parses and is at least ``lo``."""
        raw = self.get(key)
        return default if raw is None else _spec_int(self.kind, key, raw, lo)

    def ratio(self, key: str, default: str) -> Fraction:
        """The rational value of ``key`` (``default`` when absent), which
        must lie strictly between 0 and 1."""
        raw = self.get(key, default)
        try:
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise InvalidInput(f"{self.kind}: {key}={raw!r} is not a rational") from None
        if not 0 < value < 1:
            raise InvalidInput(f"{self.kind}: {key}={raw} is not in (0, 1)")
        return value


def spec_tree(spec: GeneratorSpec | str, M: int):
    """The M-adic tree of a minispec.  A spec with ``depth`` gives the lazy
    ``cantor`` or ``full`` tree; any other spec gives the tree of its
    points, encoded at the spec's ``J`` or, without one, at the bit length
    of the largest denominator over floor(log2 M), clipped to 8..40."""
    if isinstance(spec, str):
        spec = GeneratorSpec.parse(spec)
    depth = spec.integer("depth", None)  # only cantor and full read it
    if depth is not None:
        return (cantor_tree if spec.kind == "cantor" else full_tree)(depth, M=M)
    pts = generate(spec)
    J = spec.integer("J", None, lo=1)
    if J is None:
        bits = max(c.denominator for p in pts for c in p).bit_length()
        J = min(max(8, bits // max(1, M.bit_length() - 1)), 40)
    return encode_set(pts, M, J)


DENOMINATOR_CAP_BITS = 512


def _check_cap(values, cap: int = DENOMINATOR_CAP_BITS):
    for v in values:
        if isinstance(v, Fraction) and v.denominator.bit_length() > cap:
            raise SizeCapExceeded(
                f"denominator needs {v.denominator.bit_length()} bits, cap {cap}")


def stern_brocot_rationals(lo: Fraction, hi: Fraction, count: int):
    """First ``count`` rationals of the Stern-Brocot enumeration of [lo,hi].

    Deterministic: emits the endpoints, then mediants in breadth-first
    order.  Documented so that runs are reproducible.
    """
    out = [lo, hi]
    frontier = [(lo, hi)]
    while len(out) < count:
        nxt = []
        for a, b in frontier:
            med = Fraction(a.numerator + b.numerator, a.denominator + b.denominator)
            out.append(med)
            if len(out) >= count:
                return out[:count]
            nxt.extend([(a, med), (med, b)])
        frontier = nxt
    return out[:count]


def counterexample_raw(j_hi: int = 3):
    """The dyadic counterexample pair (U, V) in raw coordinates.

    U_j sits between consecutive dyadic scales with tail offsets q_{jk}
    that reassemble into affine dyadic blocks inside U + V; V is the
    negative dyadic sequence.  Denominators grow like 2^(2^(j^2)) and
    are not capped: they need at most 2^(j_hi^2) + j_hi + 1 bits.
    """
    # V must reach the scales 2^-(N_j - k) that cancel the leading part of U
    V = [Fraction(-1, 2 ** j) for j in range(1, 2 ** (j_hi * j_hi))]
    return _counterexample_u(j_hi), sorted(V)


def _counterexample_u(j_hi: int) -> list[Fraction]:
    """U of ``counterexample_raw`` alone: 2^(j_hi + 1) - 4 points, against
    the 2^(j_hi^2) - 1 of V."""
    U: list[Fraction] = []
    for j in range(2, j_hi + 1):
        Nj = 2 ** (j * j)
        Mj = 2 ** j
        for k in range(1, Mj + 1):
            q = Fraction(1, 2 ** Nj) * (1 + Fraction(k, Mj))
            U.append(Fraction(1, 2 ** (Nj - k)) + q)
    return sorted(U)


def generate(spec: GeneratorSpec | str):
    """Produce the deterministic finite rational point set of a generator.

    Points are d-tuples of Fractions in [0,1)^d; direction-set generators
    return the [0,1)^d tail of directions normalized as (1, x).
    """
    if isinstance(spec, str):
        spec = GeneratorSpec.parse(spec)
    kind = spec.kind

    if kind == "cantor":
        L = spec.integer("L", 3)
        digits = (0, 2)
        if L > 24:
            raise SizeCapExceeded("cantor level > 24 would materialize 2^24 points")
        pts = []
        for combo in itertools.product(digits, repeat=L):
            x = sum(Fraction(g, 3 ** (i + 1)) for i, g in enumerate(combo))
            pts.append((x,))
        return sorted(pts)

    if kind == "dyadic":
        m = spec.integer("m", 3)
        if m > 20:
            raise SizeCapExceeded("dyadic m > 20")
        return [(Fraction(k, 2 ** m),) for k in range(2 ** m)]

    if kind == "power":
        lam = spec.ratio("lam", "1/2")
        J = spec.integer("J", 10, lo=1)
        pts = [(lam ** j,) for j in range(1, J + 1)]
        _check_cap([p[0] for p in pts])
        return sorted(pts)

    if kind == "two_scale":
        M1 = spec.integer("M1", 2, lo=2)
        M2 = spec.integer("M2", 3, lo=2)
        jmax = spec.integer("jmax", 6, lo=1)
        kmax = spec.integer("kmax", 6, lo=1)
        vals = sorted({Fraction(1, M1 ** j) + Fraction(1, M2 ** k)
                       for j in range(1, jmax + 1) for k in range(1, kmax + 1)})
        # halve to keep inside [0,1)
        return [(v / 2,) for v in vals]

    if kind == "perturbed_geometric":
        jmax = spec.integer("jmax", 8, lo=1)
        vals = sorted({Fraction(1, 2 ** (2 * j)) + s * Fraction(1, 4 ** (2 * j))
                       for j in range(1, jmax + 1) for s in (1, -1)})
        _check_cap(vals)
        return [(v,) for v in vals]

    if kind == "nsw":
        exps = tuple(_spec_int(kind, "m", x, 1)
                     for x in spec.get("m", "1+2").split("+"))
        ratio = spec.ratio("ratio", "1/2")
        count = spec.integer("count", 8, lo=1)
        pts = [tuple(ratio ** (j * m) for m in exps) for j in range(1, count + 1)]
        _check_cap([c for p in pts for c in p])
        return sorted(pts)

    if kind == "carbery":
        lam = spec.ratio("lam", "1/2")
        kmax = spec.integer("kmax", 4, lo=1)
        d = spec.integer("d", 2, lo=1)
        pts = [tuple(lam ** k for k in combo)
               for combo in itertools.product(range(1, kmax + 1), repeat=d)]
        _check_cap([c for p in pts for c in p])
        return sorted(set(pts))

    if kind in ("counterexample_u", "counterexample_v", "counterexample_sum"):
        # denominators here intrinsically reach 2^(2^(jmax^2)), so the
        # package cap does not apply; V has 2^(jmax^2) - 1 points
        jmax = spec.integer("jmax", 3, lo=2)
        if jmax > 3 and kind != "counterexample_u":
            raise SizeCapExceeded(f"{kind}: jmax > 3 would materialize "
                                  f"2^{jmax * jmax} - 1 points of V")
        if kind == "counterexample_u":
            return [(u,) for u in _counterexample_u(jmax)]
        U, V = counterexample_raw(j_hi=jmax)
        if kind == "counterexample_v":
            return [(v + 1,) for v in V]  # shift into [0,1); affine-safe
        s = sorted({u + v for u in U for v in V})
        return [((x + 1) / 2,) for x in s]  # affine map into [0,1)

    if kind == "parcet_rogers":
        lmax = spec.integer("lmax", 8, lo=1)
        pts = [v[:2] for v in parcet_rogers_directions(lmax)]
        _check_cap([c for p in pts for c in p])
        return pts

    raise InvalidInput(f"unknown generator kind {kind!r}")


def parcet_rogers_directions(lmax: int = 8):
    """Raw 3-vectors (q_l 2^-l, 2^-l, 1) of the Parcet-Rogers direction set."""
    qs = stern_brocot_rationals(Fraction(1, 2), Fraction(2, 3), lmax)
    return [(q * Fraction(1, 2 ** l), Fraction(1, 2 ** l), Fraction(1))
            for l, q in enumerate(qs, start=1)]
