"""Vectorized exact computations for one-dimensional instances.

The root hyperplane is the unit interval split into K = M^J cells, so a
root cube is just an integer index and a realized assignment is an integer
array of slope codes.  A window is any (lo, hi) pair of Fractions, clipped
to [0, 10 A0] as [A/q, B/q].  Three quantities are computed exactly:

* the slope-code array, by walking the basic-cube chain level by level
  with warehouse bits drawn from the same splitmix64 chain as the scalar
  warehouse (bit-for-bit identical).  The walk keeps one entry per cube at
  the current decision height, whose roots share their code so far, and
  draws one bit per cube; only the last level, at height J, is one bit
  per root;

* pairwise slab-intersection sums, on an integer lattice, with one pass
  for all the windows of a call.  Let D be the instance's slope-lattice
  denominator (a multiple of K and of every slope denominator,
  ``PrunedSlopeTree.D``) and sigma = D * slope.  Two tubes with root
  offset g overlap by a tent profile; at a window end p/q it is read at
  the integer X = 4 g Q + 4 p dsigma, in units of the tube side over
  Q = q D / K.  The profile's antiderivative is 0 or 1 outside one open
  g-interval of length 1/2, so per slope pair and end the sum is 2 Q^2
  times a count of pairs with i - j >= g plus at most one interior term,
  an integer quadratic in X.  g, its column and that term depend on the
  pair only through dsigma, so they are found once per distinct slope
  difference and end.  The roots are grouped by slope with one stable
  sort; each slope's table packs, at each index, the number of its roots
  below it over one bit that says whether the index is itself such a root,
  and the roots of every steeper slope gather from it once per distinct
  window end: one gather gives both the pairs with i - j >= g and those at
  g - 1.  With b the bit length of the largest slope class, a segment sum
  stays under 2^(3b), so a class of 2^20 or more roots is refused.  The
  counts add up in int64 per (dsigma, end); each end's counts, as Python
  ints, give one Fraction F(p/q), and a window's sum is F(hi) - F(lo);

* union quadrature by the midpoint rule, on one integer scale per window:
  the s slice midpoints share the denominator 2 s q, and each root moves
  by a fixed step from slice to slice.  One bound on every position,
  found once per window, picks the integer type: positions under 2^30
  are sorted in int32, which numpy sorts about twice as fast as int64,
  and their gaps stay under 2^31; positions under 2^62 are sorted in
  int64, and a window whose positions need more is refused.

Everything returned is a Fraction; numpy only holds int64 counts and int32
or int64 positions, and every product that can exceed 63 bits is a Python
int.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from ._mix import GOLDEN, MASK64
from .errors import InvalidInput
from .pruning import PrunedSlopeTree
from .tubes import DEFAULT_A0, clip_x1, cross_section_dilation

# the tube side is one W-th of a root cell
W = int(1 / cross_section_dilation(1))


def _np_mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (x + np.uint64(GOLDEN)) & np.uint64(MASK64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _tent_antiderivative(x: int, Q: int) -> int:
    """2 Q^2 times the antiderivative of the unit tent max(0, 1 - |y|),
    taken from -1, at y = x / Q < 1.  Its one caller reads it at g - 1,
    where x < Q since g is the least integer at which x reaches Q."""
    if x <= -Q:
        return 0
    if x <= 0:
        return (x + Q) ** 2
    return 2 * Q * Q - (Q - x) ** 2


def cs_bound(window: tuple[Fraction, Fraction], pair: Fraction,
             a0: int = DEFAULT_A0) -> Fraction:
    """Cauchy-Schwarz lower bound on the union volume in the x1 window:
    the total tube volume squared over itself plus the pairwise sum
    ``pair`` (the same for every K, since K tubes of side 1/(W K))."""
    lo, hi = clip_x1(*window, a0)
    if lo >= hi:
        return Fraction(0)
    diag = cross_section_dilation(1) * (hi - lo)
    return diag * diag / (diag + pair)


class FastInstance:
    """Per-instance arrays for vectorized slope assignment (d = 1)."""

    def __init__(self, pruned: PrunedSlopeTree):
        if pruned.d != 1:
            raise InvalidInput("fast path is one-dimensional")
        self.pruned = pruned
        self.M, self.J, self.N = pruned.M, pruned.J, pruned.N
        self.K = self.M ** self.J
        if self.K > 2 ** 31:
            raise InvalidInput("instance too large even for the fast path")

        # gamma ids in a flat table; slope codes enter at the last level
        ids = {g: i for i, g in enumerate(pruned.gamma)}
        self.lam = np.zeros(len(ids), dtype=np.int64)
        self.child = np.zeros((len(ids), 2), dtype=np.int64)
        for g, info in pruned.gamma.items():
            self.lam[ids[g]] = info.lam
            self.child[ids[g]] = [-1 if nxt is None else ids[nxt]
                                  for nxt in info.next_gammas]
        self.root_gamma = ids[pruned.psi(())]
        self.pow = np.array([self.M ** k for k in range(self.J + 1)],
                            dtype=np.int64)
        self.D = pruned.D
        self.sigma = [s for (s,) in pruned.sigma]  # Python ints
        self.by_slope = sorted(range(len(self.sigma)), key=self.sigma.__getitem__)
        # in the narrowest integer type, which numpy's stable sort radix-sorts
        self.slope_rank = np.argsort(self.by_slope).astype(
            np.min_scalar_type(len(self.sigma) - 1))

    def assign(self, seed: int) -> np.ndarray:
        """Slope codes for every root index under the given seed."""
        # the warehouse bit of a cube is mix(mix(z0 ^ height) ^ cell) & 1,
        # and its first mix depends on the height alone
        z0 = _np_mix64(np.uint64((seed ^ GOLDEN) & MASK64))
        z1 = _np_mix64(z0 ^ np.arange(self.J + 1, dtype=np.uint64))
        # the roots below one cube at the current decision height share its
        # gamma and their code so far, so the walk keeps one entry per cube:
        # its index, height, gamma and code, in root order
        cube = np.zeros(1, dtype=np.int64)
        h = np.zeros(1, dtype=np.int64)
        cur = np.full(1, self.root_gamma, dtype=np.int64)
        code = np.zeros(1, dtype=np.int64)
        for _ in range(self.N - 1):
            # each entry splits into its M^(lam - h) subcubes at height lam
            lam = self.lam[cur]
            reps = self.pow[lam - h]
            first = np.cumsum(reps) - reps  # of each entry's subcubes
            cube = np.repeat(cube * reps - first, reps) + np.arange(reps.sum())
            h, cur, code = lam.repeat(reps), cur.repeat(reps), code.repeat(reps)
            bits = (_np_mix64(z1[h] ^ cube.astype(np.uint64)) & np.uint64(1)).astype(np.int64)
            code = code * 2 + bits
            cur = self.child[cur, bits]
        # the last decision height is J (pruning sets lambda = J at index
        # N), where the cubes are the roots
        bits = _np_mix64(z1[self.J] ^ np.arange(self.K, dtype=np.uint64)) & np.uint64(1)
        return np.repeat(code * 2, self.pow[self.J - h]) + bits.astype(np.int64)

    def pair_sum(self, codes: np.ndarray, windows, a0: int = DEFAULT_A0
                 ) -> tuple[Fraction, ...]:
        """Exact sums over ordered root pairs t1 != t2 of the volume of
        P_{t1} meet P_{t2} inside each x1 (lo, hi) window, one per window.

        One pass serves every window: each distinct end e of a clipped,
        non-empty window is gathered once into F(e), the sum up to x1 = e,
        and a window's sum is F(hi) - F(lo); an empty window gives 0.  The
        counts are packed two to an int64, so a slope class of 2^20 or more
        roots is refused."""
        clipped = [clip_x1(*w, a0) for w in windows]
        ends = sorted({e for lo, hi in clipped if lo < hi for e in (lo, hi)})
        if not ends:
            return (Fraction(0),) * len(clipped)
        K = self.K
        # roots grouped by slope, shallowest first (the slopes are distinct)
        sizes = np.bincount(codes, minlength=len(self.sigma))[self.by_slope].tolist()
        # each count table entry below is a count under 2^b shifted by b
        # over one bit, so it is under 2^(2b); a segment sums fewer than
        # 2^b entries, so its low field stays under 2^b and its sum under
        # 2^(3b), which int64 holds up to b = 20
        b = max(sizes).bit_length()
        if 3 * b > 62:
            raise InvalidInput("a slope class of 2^20 or more roots overflows packed counts")
        starts = np.cumsum([0] + sizes).tolist()
        roots = np.argsort(self.slope_rank[codes], kind="stable")
        sig = [self.sigma[c] for c in self.by_slope]
        present = [k for k, n in enumerate(sizes) if n]
        # every slope difference of two non-empty classes, each once
        dsig = sorted({sig[m] - sig[k] for at, k in enumerate(present)
                       for m in present[at + 1:]})
        row = {ds: r for r, ds in enumerate(dsig)}
        # each end p/q on its own scale Q = q D / K
        ps = [e.numerator for e in ends]
        Qs = [e.denominator * (self.D // K) for e in ends]
        # per difference and end: the least g where the profile's
        # antiderivative reaches 1; the one g below it may be interior.
        # clip_x1 makes p >= 0, so g <= 1 for ds > 0 and the gather index
        # i + 1 - g never goes below 0; only the top clip at K applies
        gs = [[-((W * p * ds - Q) // (W * Q)) for p, Q in zip(ps, Qs)] for ds in dsig]
        col = np.array([[min(1 - g, K) for g in r] for r in gs], dtype=np.int64)
        # per (difference, end): the pairs with i - j >= g and with i - j = g - 1
        n_ge = np.zeros((len(dsig), len(ends)), dtype=np.int64)
        n_at = np.zeros_like(n_ge)
        # scratch for the gathers: the indices into a table and the entries
        idx, got = np.empty(K, dtype=np.int64), np.empty(K, dtype=np.int64)
        for at, k in enumerate(present[:-1]):
            steeper = present[at + 1:]
            # table[x] = (number of roots j < x of slope k) << b, by run
            # length from its roots (ascending, the sort being stable), plus
            # 1 when x is itself such a root; since below[x + 1] = below[x]
            # + [x in slope k], one gather at i + 1 - g reads the pairs
            # with i - j >= g and those at exactly g - 1.  table[K] has low
            # bit 0, as the top clip needs
            pos = roots[starts[k]:starts[k + 1]]
            table = np.repeat(np.arange(sizes[k] + 1, dtype=np.int64) << b,
                              np.diff(pos, prepend=-1, append=K))
            table[pos] += 1
            # the steeper roots, whose pairs are summed per steeper slope,
            # an end at a time into the scratch; take clips to 0..K
            lo = starts[k + 1]
            i, ix, entry = roots[lo:], idx[:K - lo], got[:K - lo]
            counts = [sizes[m] for m in steeper]
            first = [starts[m] - lo for m in steeper]
            rows = [row[sig[m] - sig[k]] for m in steeper]
            sums = np.empty((len(ends), len(steeper)), dtype=np.int64)
            for c, out in zip(col[rows].T, sums):
                np.add(i, np.repeat(c, counts), out=ix)
                table.take(ix, mode="clip", out=entry)
                np.add.reduceat(entry, first, out=out)
            np.add.at(n_ge, rows, (sums >> b).T)
            np.add.at(n_at, rows, (sums & ((1 << b) - 1)).T)
        den = lcm(*dsig)
        F = {}
        for j, (e, p, Q) in enumerate(zip(ends, ps, Qs)):
            # the interior candidate of each difference is read at g - 1
            num = sum((2 * Q * Q * ge + eq * _tent_antiderivative(W * ((r[j] - 1) * Q + p * ds), Q))
                      * (den // ds)
                      for ds, r, ge, eq in zip(dsig, gs, n_ge[:, j].tolist(), n_at[:, j].tolist()))
            F[e] = Fraction(num, W * W * self.D * e.denominator ** 2 * den)
        return tuple(F[hi] - F[lo] if lo < hi else Fraction(0) for lo, hi in clipped)

    def union_quadrature(self, codes: np.ndarray,
                         window: tuple[Fraction, Fraction],
                         slices: int, a0: int = DEFAULT_A0) -> Fraction:
        """Midpoint rule over ``slices`` equal slices of the window, each
        the exact length of the union of cross-sections there.

        Every slice sorts the K root positions on the window's integer
        scale and sums their gaps, each capped at the tube side.  The
        positions are int32 when their bound fits 30 bits (every
        ``ACCEPT_CFG`` window does: at most 25 bits at N = 2..5, 29 at 6),
        int64 up to 62 bits, and a window that needs more raises
        ``InvalidInput``."""
        if slices < 1:
            raise InvalidInput("need at least one slice")
        lo, hi = clip_x1(*window, a0)
        if lo >= hi:
            return Fraction(0)
        # the clipped window is [A/q, B/q] over its ends' common denominator
        q = lcm(lo.denominator, hi.denominator)
        A, B = int(lo * q), int(hi * q)
        # slice k sits at (2 slices A + (B - A)(2k + 1)) / den
        K, den = self.K, 2 * slices * q
        scale = lcm(2 * K * den, W * K, self.D * den)
        unit = scale // (self.D * den)
        last = 2 * slices * B - (B - A)  # the largest numerator
        # every position, and every term and partial sum of one, is under
        # 2^bits in absolute value, so every sorted gap is under 2^(bits + 1)
        # and int32 holds them all up to bits = 30
        bits = (scale + last * max(map(abs, self.sigma)) * unit).bit_length()
        if bits > 62:
            raise InvalidInput("integer scale too large for int64 slices")
        dtype = np.int32 if bits <= 30 else np.int64
        moves = np.array(self.sigma, dtype=dtype)[codes] * unit
        start = (np.arange(K, dtype=dtype) * (scale // K) + scale // (2 * K)
                 + (2 * slices * A + B - A) * moves)
        side, covered = scale // (W * K), 0
        # two scratch arrays for every slice: the sorted positions and gaps
        pos, gaps = np.empty(K, dtype=dtype), np.empty(K - 1, dtype=dtype)
        for k in range(slices):
            np.multiply(moves, 2 * k * (B - A), out=pos)
            pos += start
            pos.sort()
            np.subtract(pos[1:], pos[:-1], out=gaps)
            # K - 1 gaps of at most side each may pass 2^31 together
            covered += int(np.minimum(gaps, side, out=gaps).sum(dtype=np.int64)) + side
        return Fraction((B - A) * covered, slices * q * scale)
