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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import InvalidInput, SizeCapExceeded
from .madic import (
    CondensedTree,
    agreement_height_scalar,
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
        return {
            "order": self.order,
            "lambda": str(self.lam),
            "alpha": str(self.alpha),
            "special": [str(a) for a in self.special],
            "children": {str(k): w.to_jsonable() for k, w in self.children.items()},
        }


def _gap_index(sorted_support: list, u: Rational) -> int:
    m = len(sorted_support)
    if u >= sorted_support[-1]:
        return m - 1
    lo, hi = 0, m - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sorted_support[mid] <= u:
            lo = mid
        else:
            hi = mid - 1
    return lo


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


def transform_witness(w: LacunaryWitness, c1: Rational, c2: Rational) -> LacunaryWitness:
    """Witness for c1*U + c2 given one for U (lacunarity is affine-invariant)."""
    if c1 == 0:
        raise InvalidInput("degenerate scaling")
    if w.order == 0:
        return LacunaryWitness(order=0)
    support = w.sorted_support()
    new = LacunaryWitness(
        order=w.order, lam=w.lam,
        special=tuple(c1 * a + c2 for a in w.special),
        alpha=c1 * w.alpha + c2,
    )
    nsup = new.sorted_support()
    m = len(support)
    for k, child in w.children.items():
        if k == m - 1:
            old_anchor = support[-1]
        else:
            old_anchor = support[k] if c1 > 0 else support[k + 1]
        # gaps keep their anchor point up to reflection; the max-point
        # pseudo-gap maps to the min element under reflection, which then
        # belongs to the lowest interval gap
        img = c1 * old_anchor + c2
        nk = _gap_index(nsup, img)
        new.children[nk] = transform_witness(child, c1, c2)
    return new


# ---------------------------------------------------------------------------
# split-1 decomposition (the 6M-sequence construction)
# ---------------------------------------------------------------------------

def _branch_data(points: Sequence[Rational], anchor: Rational, M: int):
    """For each point != anchor: (agreement height j, side, digit at j+1)."""
    out = []
    for a in points:
        if a == anchor:
            continue
        j = agreement_height_scalar(a, anchor, M)
        side = 1 if a > anchor else -1
        out.append((a, j, side, point_digit(a, M, j + 1)))
    return out


def decompose_split_one(points: Sequence[Rational], M: int):
    """Decompose a splitting-number-1 set into <= 6M lacunary sequences.

    Returns a list of (sequence, alpha) pairs: each sequence is in
    convergence order toward the shared anchor alpha and has lacunarity
    constant <= 1/M.  Their union (as sets) covers the input.
    """
    pts = sorted(set(points))
    if not pts:
        return []
    if len(pts) == 1:
        return [((pts[0],), pts[0])]
    tree = CondensedTree(pts, M)
    split = tree.split_value()
    if split != 1:
        raise InvalidInput(f"splitting number is {split}, not 1")

    # the deepest splitting vertex: adjacent pair of maximal agreement height
    heights = tree.heights
    deep = max(range(len(heights)), key=lambda i: heights[i])
    hmax = heights[deep]
    # points inside that vertex form a contiguous run around `deep`
    lo = deep
    while lo > 0 and heights[lo - 1] >= hmax:
        lo -= 1
    anchor = pts[lo]

    classes: dict[tuple, list] = {}
    for a, j, side, dig in _branch_data(pts, anchor, M):
        classes.setdefault((side, dig), []).append((j, a))

    sequences = []
    anchor_used = False
    for key in sorted(classes):
        entries = sorted(classes[key])
        js = [j for j, _ in entries]
        if len(set(js)) != len(js):
            raise InvalidInput("two branch points at one M-adic distance; "
                               "splitting number cannot be 1")
        for ell in range(3):
            sub = tuple(a for idx, (j, a) in enumerate(entries) if idx % 3 == ell)
            if not sub:
                continue
            if not anchor_used:
                sub = sub + (anchor,)
                anchor_used = True
            sequences.append((sub, anchor))
    if not anchor_used:
        sequences.append(((anchor,), anchor))
    if len(sequences) > 6 * M:
        raise AssertionError(f"{len(sequences)} sequences exceeds the 6M bound")
    return sequences


def _witness_from_sequence(seq, alpha, M) -> LacunaryWitness:
    return LacunaryWitness(order=1, lam=Fraction(1, M), special=tuple(seq),
                           alpha=alpha)


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
    if len(pts) <= 1:
        return [(tuple(pts), LacunaryWitness(order=0))], 0
    tree = CondensedTree(pts, M)
    N = tree.split_value()
    if N == 1:
        pieces = [(seq, _witness_from_sequence(seq, alpha, M))
                  for seq, alpha in decompose_split_one(pts, M)]
        return pieces, 1

    # all split-N vertices lie on one ray; descend to the deepest one and
    # anchor at its lexicographically minimal point
    i0, j0 = 0, len(pts) - 1
    while i0 != j0:
        deeper = [(a, b) for a, b in tree.children(i0, j0)
                  if tree.split_value(a, b) == N]
        if not deeper:
            break
        i0, j0 = deeper[0]
    anchor = pts[i0]

    # group off-ray points by branch vertex, recurse into each group
    groups: dict[tuple, list] = {}
    for a, j, side, dig in _branch_data(pts, anchor, M):
        groups.setdefault((side, dig, j), []).append(a)

    sub_pieces: dict[tuple, list] = {}
    max_fan = 1
    for key, grp in groups.items():
        pieces, order = decompose_lacunary_order(grp, M, _depth + 1)
        if order > N - 1:
            raise AssertionError("off-ray subtree with too-large split")
        sub_pieces[key] = pieces
        max_fan = max(max_fan, len(pieces))

    # classes as in the split-1 construction; one special point per branch
    # vertex (the left endpoint of its cube)
    out = []
    anchor_used = False
    by_class: dict[tuple, list] = {}
    for (side, dig, j), grp in groups.items():
        v_origin = Fraction(int(min(grp) * M ** (j + 1)), M ** (j + 1))
        by_class.setdefault((side, dig), []).append((j, v_origin, (side, dig, j)))
    for ckey in sorted(by_class):
        entries = sorted(by_class[ckey])
        for ell in range(3):
            # ascending branch height = decreasing distance to the anchor,
            # i.e. already in convergence order
            chosen = [e for idx, e in enumerate(entries) if idx % 3 == ell]
            if not chosen:
                continue
            special = tuple(v for _, v, _ in chosen)
            for copy in range(max(len(sub_pieces[k]) for _, _, k in chosen)):
                support_pts: list = []
                w = LacunaryWitness(order=N, lam=Fraction(1, M),
                                    special=special, alpha=anchor)
                sup_sorted = w.sorted_support()
                for j, v_origin, k in chosen:
                    pieces = sub_pieces[k]
                    if copy >= len(pieces):
                        continue
                    subset, cw = pieces[copy]
                    if not subset:
                        continue
                    w.children[_gap_index(sup_sorted, v_origin)] = cw
                    support_pts.extend(subset)
                if not support_pts:
                    continue
                if not anchor_used:
                    support_pts.append(anchor)
                    anchor_used = True
                out.append((tuple(sorted(support_pts)), w))
    if not anchor_used:
        out.append(((anchor,), LacunaryWitness(order=0)))
    return out, N


# ---------------------------------------------------------------------------
# projections and cone sections
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


def cone_section(omega, j: int):
    """Intersect the cone over a direction set with the hyperplane x_j = 1.

    ``omega`` is an iterable of rational (d+1)-vectors; ``j`` is 1-indexed.
    """
    out = []
    for v in omega:
        if v[j - 1] == 0:
            raise InvalidInput(f"component {j} vanishes for {v}")
        out.append(tuple(c / v[j - 1] for c in v))
    return out


def direction_evidence(points, M: int, directions=None):
    """Splitting numbers of scalar projections along sampled directions.

    The universal quantifier over rotations is undecidable for finite
    data, so this reports *evidence*: per sampled rational direction, the
    splitting number of the projected set.  Defaults to the canonical axes
    plus the diagonal sign patterns (1, +-1, ...).
    """
    pts = list(points)
    d = len(pts[0])
    if directions is None:
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
# trees of ``cantor`` and ``full``, and ``J``, the height at which the
# harness encodes a point set.
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


DENOMINATOR_CAP_BITS = 512


def _check_cap(values, cap_bits):
    for v in values:
        if isinstance(v, Fraction) and v.denominator.bit_length() > cap_bits:
            raise SizeCapExceeded(
                f"denominator needs {v.denominator.bit_length()} bits, cap {cap_bits}")


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


def counterexample_raw(j_hi: int = 3, j_lo: int = 2, cap_bits: int | None = None):
    """The dyadic counterexample pair (U, V) in raw coordinates.

    U_j sits between consecutive dyadic scales with tail offsets q_{jk}
    that reassemble into affine dyadic blocks inside U + V; V is the
    negative dyadic sequence.  Denominators grow like 2^(2^(j^2)); the
    default cap admits the requested j_hi exactly.
    """
    if cap_bits is None:
        cap_bits = 2 ** (j_hi * j_hi) + j_hi + 8
    U: list[Fraction] = []
    for j in range(j_lo, j_hi + 1):
        Nj = 2 ** (j * j)
        Mj = 2 ** j
        for k in range(1, Mj + 1):
            q = Fraction(1, 2 ** Nj) * (1 + Fraction(k, Mj))
            U.append(Fraction(1, 2 ** (Nj - k)) + q)
    # V must reach the scales 2^-(N_j - k) that cancel the leading part of U
    V = [Fraction(-1, 2 ** j) for j in range(1, 2 ** (j_hi * j_hi))]
    _check_cap(U, cap_bits)
    return sorted(U), sorted(V)


def generate(spec: GeneratorSpec | str, cap_bits: int = DENOMINATOR_CAP_BITS):
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
        _check_cap([p[0] for p in pts], cap_bits)
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
        _check_cap(vals, cap_bits)
        return [(v,) for v in vals]

    if kind == "nsw":
        exps = tuple(_spec_int(kind, "m", x, 1)
                     for x in spec.get("m", "1+2").split("+"))
        ratio = spec.ratio("ratio", "1/2")
        count = spec.integer("count", 8, lo=1)
        pts = [tuple(ratio ** (j * m) for m in exps) for j in range(1, count + 1)]
        _check_cap([c for p in pts for c in p], cap_bits)
        return sorted(pts)

    if kind == "carbery":
        lam = spec.ratio("lam", "1/2")
        kmax = spec.integer("kmax", 4, lo=1)
        d = spec.integer("d", 2, lo=1)
        pts = [tuple(lam ** k for k in combo)
               for combo in itertools.product(range(1, kmax + 1), repeat=d)]
        _check_cap([c for p in pts for c in p], cap_bits)
        return sorted(set(pts))

    if kind in ("counterexample_u", "counterexample_v", "counterexample_sum"):
        # denominators here intrinsically reach 2^(2^(jmax^2)); the cap is
        # sized to the request rather than the package default
        jmax = spec.integer("jmax", 3, lo=2)
        U, V = counterexample_raw(j_hi=jmax, cap_bits=None)
        if kind == "counterexample_u":
            return [(u,) for u in U]
        if kind == "counterexample_v":
            return [(v + 1,) for v in V]  # shift into [0,1); affine-safe
        s = sorted({u + v for u in U for v in V})
        return [((x + 1) / 2,) for x in s]  # affine map into [0,1)

    if kind == "parcet_rogers":
        lmax = spec.integer("lmax", 8, lo=1)
        qs = stern_brocot_rationals(Fraction(1, 2), Fraction(2, 3), lmax)
        pts = [(q * Fraction(1, 2 ** l), Fraction(1, 2 ** l))
               for l, q in enumerate(qs, start=1)]
        _check_cap([c for p in pts for c in p], cap_bits)
        return pts

    raise InvalidInput(f"unknown generator kind {kind!r}")


def parcet_rogers_directions(lmax: int = 8):
    """Raw 3-vectors (q_l 2^-l, 2^-l, 1) of the Parcet-Rogers direction set."""
    qs = stern_brocot_rationals(Fraction(1, 2), Fraction(2, 3), lmax)
    return [(q * Fraction(1, 2 ** l), Fraction(1, 2 ** l), Fraction(1))
            for l, q in enumerate(qs, start=1)]
