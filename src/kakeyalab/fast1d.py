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
  an integer quadratic in X.  g, its gather offset and the Python-int
  weights of the two counts depend on the pair only through dsigma and
  the end, so the plan ``_pair_plan``, keyed on K, D, sigma and the sorted
  ends, holds them for every pair of the instance's slope classes, filled
  or not, with each end's Fraction denominator; a call reads the plan and
  counts only its own realization.  The roots are grouped by slope with
  one stable sort; each slope's table packs, at each index, the number of
  its roots below it over one bit that says whether the index is itself
  such a root, and the roots of every steeper slope gather from it once
  per distinct window end: one gather gives both the pairs with i - j >= g
  and those at g - 1.  With b the bit length of the largest slope class, a
  segment sum stays under 2^(3b), so a class of 2^20 or more roots is
  refused, and an instance of 2^23 or more roots is refused before any
  table is built.  Every segment sum goes into one (class, class, end)
  int64 array, added up per dsigma once per call; each end's counts, as
  Python ints, give one Fraction F(p/q), and a window's sum is
  F(hi) - F(lo);

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

The gather indices and entries of a pair-sum call and the sorted positions
and gaps of a quadrature slice live on one workspace: two int64 arrays per
thread, grown only when a larger K arrives, so that back-to-back calls
reuse their pages instead of faulting in fresh ones, and so that two
threads never write into each other's scratch.  The quadrature views them
as int32 or int64.  A kernel overwrites whatever it reads there, and
nothing it returns or keeps is backed by them.  Each count table is still
built anew by ``repeat``, which is faster than an in-place build on a
reused array.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from threading import local
from typing import NamedTuple

import numpy as np

from ._mix import GOLDEN, MASK64
from .errors import InvalidInput, SizeCapExceeded
from .pruning import PrunedSlopeTree
from .tubes import DEFAULT_A0, clip_x1, cross_section_dilation

# the tube side is one W-th of a root cell
W = int(1 / cross_section_dilation(1))
# the workspace keeps 16 K bytes for the largest K a thread has seen, and
# each pair_sum count table takes a transient 8 (K + 1): together 24 (K + 1)
# bytes, about 115 MB at K = 3^14 (N = 7) and about 1 GB at 3^16 (N = 8)
PAIR_SUM_ROOT_CAP = 2 ** 23

# each thread's two int64 scratch arrays, in ``buffers``
_workspace = local()


def _scratch(K: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Two arrays of K entries of ``dtype`` (int32 or int64), views of this
    thread's workspace, which grows to K int64 entries per array when it
    holds fewer.  Their contents are whatever the last call left."""
    bufs = getattr(_workspace, "buffers", ())
    if not bufs or len(bufs[0]) < K:
        bufs = _workspace.buffers = (np.empty(K, np.int64), np.empty(K, np.int64))
    return bufs[0].view(dtype)[:K], bufs[1].view(dtype)[:K]


def workspace_bytes() -> int:
    """The size in bytes of the workspace this thread holds."""
    return sum(b.nbytes for b in getattr(_workspace, "buffers", ()))


def _np_mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x + np.uint64(GOLDEN)
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


class _PairPlan(NamedTuple):
    offsets: np.ndarray     # (class, class, end) gather offsets, read for k < m
    by_row: np.ndarray      # the flat (class, steeper class) pairs by difference row
    row_starts: np.ndarray  # where each row's pairs start in by_row
    w_ge: list              # per end, each row's weight of its pairs with i - j >= g
    w_at: list              # per end, each row's weight of its pairs at g - 1
    dens: list              # per end, the Fraction denominator of F(end)


# an experiment reads one plan per N and window set
@lru_cache(maxsize=16)
def _pair_plan(K: int, D: int, sigma: tuple, ends: tuple) -> _PairPlan:
    """What ``FastInstance.pair_sum`` reads of neither the codes nor the
    roots: for every pair of slope classes, shallowest first, the row of
    their slope difference dsigma, and per row and end the least offset g
    where the profile's antiderivative reaches 1, as the gather offset
    1 - g into the shallower class's count table, and the Python-int
    weights of the two counts, over each end's one denominator.  The
    classes are all of the instance's, filled or not, so the common
    denominator spans every slope difference."""
    sig = sorted(sigma)
    C = len(sig)
    # every slope difference, each once, and its row
    dsig = sorted({sm - sk for at, sk in enumerate(sig) for sm in sig[at + 1:]})
    row = {ds: r for r, ds in enumerate(dsig)}
    # (row 0 below the diagonal, where no pair is read)
    rows = np.array([[row.get(sm - sk, 0) for sm in sig] for sk in sig], dtype=np.int64)
    # each end p/q on its own scale Q = q D / K
    ps = [e.numerator for e in ends]
    Qs = [e.denominator * (D // K) for e in ends]
    # per difference and end: the least g where the profile's
    # antiderivative reaches 1; the one g below it may be interior.
    # clip_x1 makes p >= 0, so g <= 1 for ds > 0 and the gather index
    # i + 1 - g never goes below 0; only the top clip at K applies
    gs = [[-((W * p * ds - Q) // (W * Q)) for p, Q in zip(ps, Qs)] for ds in dsig]
    col = np.array([[min(1 - g, K) for g in r] for r in gs], dtype=np.int64)
    # the pairs k < m of classes, grouped by row for one reduceat; every
    # row has a pair, since the differences come from the pairs
    k, m = np.triu_indices(C, 1)
    order = np.argsort(rows[k, m], kind="stable")
    by_row = (k * C + m)[order]
    row_starts = np.searchsorted(rows[k, m][order], np.arange(len(dsig)))
    den = lcm(*dsig)
    # the interior candidate of each difference is read at g - 1
    w_ge = [[2 * Q * Q * (den // ds) for ds in dsig] for Q in Qs]
    w_at = [[_tent_antiderivative(W * ((r[j] - 1) * Q + p * ds), Q) * (den // ds)
             for ds, r in zip(dsig, gs)] for j, (p, Q) in enumerate(zip(ps, Qs))]
    dens = [W * W * D * e.denominator ** 2 * den for e in ends]
    return _PairPlan(col[rows], by_row, row_starts, w_ge, w_at, dens)


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
        and a window's sum is F(hi) - F(lo); an empty window gives 0.  What
        depends only on the instance and the ends is read from
        ``_pair_plan``, so a call counts only its own realization.  An
        instance of 2^23 or more roots is refused with ``SizeCapExceeded``
        before any array is built, and a slope class of 2^20 or more roots
        with ``InvalidInput``, since the counts are packed two to an int64."""
        K = self.K
        if K >= PAIR_SUM_ROOT_CAP:
            raise SizeCapExceeded(f"{K} roots reach the pair-sum cap of 2^23: "
                                  "its workspace and count tables take 24 (K + 1) bytes")
        clipped = [clip_x1(*w, a0) for w in windows]
        ends = tuple(sorted({e for lo, hi in clipped if lo < hi for e in (lo, hi)}))
        if not ends:
            return (Fraction(0),) * len(clipped)
        plan = _pair_plan(K, self.D, tuple(self.sigma), ends)
        # roots grouped by slope, shallowest first (the slopes are distinct)
        ranks = self.slope_rank[codes]
        sizes = np.bincount(ranks, minlength=len(self.sigma))
        # each count table entry below is a count under 2^b shifted by b
        # over one bit, so it is under 2^(2b); a segment sums fewer than
        # 2^b entries, so its low field stays under 2^b and its sum under
        # 2^(3b), which int64 holds up to b = 20
        b = int(sizes.max()).bit_length()
        if 3 * b > 62:
            raise InvalidInput("a slope class of 2^20 or more roots overflows packed counts")
        roots = np.argsort(ranks, kind="stable")
        present = np.flatnonzero(sizes)
        counts = sizes[present]
        stops = np.cumsum(counts)  # one past each present class's roots
        levels = np.arange(counts.max() + 1, dtype=np.int64) << b
        runs = np.empty_like(levels)  # the run lengths of one class's table
        # the packed counts of each (class, steeper class, end) segment
        sums = np.zeros(plan.offsets.shape, dtype=np.int64)
        # scratch for the gathers: the indices into a table and the entries
        idx, got = _scratch(K, np.int64)
        for at, k in enumerate(present[:-1].tolist()):
            stop = int(stops[at])
            start = stop - int(counts[at])
            # table[x] = (number of roots j < x of slope k) << b, by run
            # length from its roots (ascending, the sort being stable), plus
            # 1 when x is itself such a root; since below[x + 1] = below[x]
            # + [x in slope k], one gather at i + 1 - g reads the pairs
            # with i - j >= g and those at exactly g - 1.  table[K] has low
            # bit 0, as the top clip needs
            pos, n = roots[start:stop], stop - start
            runs[0], runs[n] = pos[0] + 1, K - pos[-1]
            np.subtract(pos[1:], pos[:-1], out=runs[1:n])
            table = levels[:n + 1].repeat(runs[:n + 1])
            table[pos] += 1
            # the steeper roots, whose pairs are summed per steeper slope,
            # an end at a time into the scratch; take clips to 0..K
            steeper = present[at + 1:]
            i, ix, entry = roots[stop:], idx[:K - stop], got[:K - stop]
            reps, first = counts[at + 1:], stops[at:-1] - stop
            out = np.empty((len(ends), len(steeper)), dtype=np.int64)
            for c, seg in zip(plan.offsets[k, steeper].T, out):
                np.add(i, c.repeat(reps), out=ix)
                table.take(ix, mode="clip", out=entry)
                np.add.reduceat(entry, first, out=seg)
            sums[k, steeper] = out.T
        # one aggregation per call: the counts of every class pair, grouped
        # by slope difference, into the pairs with i - j >= g and at g - 1
        packed = sums.reshape(-1, len(ends)).take(plan.by_row, axis=0)
        n_ge = np.add.reduceat(packed >> b, plan.row_starts).T.tolist()
        n_at = np.add.reduceat(packed & ((1 << b) - 1), plan.row_starts).T.tolist()
        F = {e: Fraction(sum(map(mul, w_ge, ge)) + sum(map(mul, w_at, eq)), den)
             for e, w_ge, w_at, den, ge, eq
             in zip(ends, plan.w_ge, plan.w_at, plan.dens, n_ge, n_at)}
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
        pos, gaps = _scratch(K, dtype)
        gaps = gaps[:K - 1]
        for k in range(slices):
            np.multiply(moves, 2 * k * (B - A), out=pos)
            pos += start
            pos.sort()
            np.subtract(pos[1:], pos[:-1], out=gaps)
            # the K - 1 capped gaps sum to under K side <= scale / W, which
            # fits the positions' dtype: scale < 2^30 on the int32 path
            covered += int(np.minimum(gaps, side, out=gaps).sum(dtype=dtype)) + side
        return Fraction((B - A) * covered, slices * q * scale)
