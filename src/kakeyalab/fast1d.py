"""Vectorized exact computations for one-dimensional instances.

The root hyperplane is the unit interval split into K = M^J cells, so a
root cube is just an integer index and a realized assignment is an integer
array of slope codes.  A window is any (lo, hi) pair of Fractions, clipped
to [0, 10 A0] as [A/q, B/q].  Three quantities are computed exactly:

* the slope-code array, by walking the basic-cube chain level by level
  with warehouse bits drawn from the same splitmix64 chain as the scalar
  warehouse (bit-for-bit identical);

* pairwise slab-intersection sums, on an integer lattice.  Let D be the
  instance's slope-lattice denominator (a multiple of K and of every
  slope denominator, ``PrunedSlopeTree.D``) and sigma = D * slope.  Two
  tubes with root offset g overlap by a tent profile; at an end p/q it is
  read at the integer X = 4 g Q + 4 p dsigma, in units of the tube side
  over Q = q D / K.  The profile's antiderivative is 0 or 1 outside one open
  g-interval of length 1/2, so per slope pair and endpoint the sum is
  2 Q^2 times a count of pairs with i - j >= g plus at most one interior
  term, an integer quadratic in X.  The counts gather one cumulative code
  count per slope over the roots of every steeper slope (int64, at most
  K^2 <= 2^62); the integers, grouped by dsigma, give one Fraction;

* union quadrature by the midpoint rule, on one integer scale per window:
  the s slice midpoints share the denominator 2 s q, and each root moves
  by a fixed step from slice to slice; a window whose positions need more
  than 62 bits is refused.

Everything returned is a Fraction; numpy only holds int64 counts and
positions, and every product that can exceed 63 bits is a Python int.
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
    taken from -1, at y = x / Q."""
    if x <= -Q:
        return 0
    if x <= 0:
        return (x + Q) ** 2
    if x < Q:
        return 2 * Q * Q - (Q - x) ** 2
    return 2 * Q * Q


def _lattice(window: tuple[Fraction, Fraction], a0: int):
    """The window clipped to [0, 10 a0] with its ends over their common
    denominator q: (A, B, q) for [A/q, B/q], or None when it is empty."""
    a, b = clip_x1(*window, a0)
    if a >= b:
        return None
    q = lcm(a.denominator, b.denominator)
    return a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q


def cs_bound(window: tuple[Fraction, Fraction], pair: Fraction,
             a0: int = DEFAULT_A0) -> Fraction:
    """Cauchy-Schwarz lower bound on the union volume in the x1 window:
    the total tube volume squared over itself plus the pairwise sum
    ``pair`` (the same for every K, since K tubes of side 1/(W K))."""
    if (lat := _lattice(window, a0)) is None:
        return Fraction(0)
    A, B, q = lat
    diag = cross_section_dilation(1) * Fraction(B - A, q)
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
        self.slope_rank = np.argsort(self.by_slope)

    def _bits(self, seed: int, heights: np.ndarray, cells: np.ndarray) -> np.ndarray:
        z0 = _np_mix64(np.uint64((seed ^ GOLDEN) & MASK64))
        z1 = _np_mix64(z0 ^ heights.astype(np.uint64))
        z2 = _np_mix64(z1 ^ cells.astype(np.uint64))
        return (z2 & np.uint64(1)).astype(np.int64)

    def assign(self, seed: int) -> np.ndarray:
        """Slope codes for every root index under the given seed."""
        roots = np.arange(self.K, dtype=np.int64)
        cur = np.full(self.K, self.root_gamma, dtype=np.int64)
        code = np.zeros(self.K, dtype=np.int64)
        for _ in range(self.N):
            h = self.lam[cur]
            anc = roots // self.pow[self.J - h]
            bits = self._bits(seed, h, anc)
            code = code * 2 + bits
            cur = self.child[cur, bits]
        return code

    def pair_sum(self, codes: np.ndarray, window: tuple[Fraction, Fraction],
                 a0: int = DEFAULT_A0) -> Fraction:
        """Exact sum over ordered root pairs t1 != t2 of the volume of
        P_{t1} meet P_{t2} inside the x1 window."""
        if (lat := _lattice(window, a0)) is None:
            return Fraction(0)
        A, B, q = lat
        K, sigma = self.K, self.sigma
        Q = q * (self.D // K)
        ends = ((1, B), (-1, A))
        # roots grouped by slope, shallowest first (the slopes are distinct)
        sizes = np.bincount(codes, minlength=len(sigma))[self.by_slope].tolist()
        starts = np.cumsum([0] + sizes).tolist()
        roots = np.argsort(self.slope_rank[codes], kind="stable")
        below = np.zeros(K + 1, dtype=np.int64)
        by_dsigma: dict[int, int] = {}
        for k, c2 in enumerate(self.by_slope):
            steeper = [m for m in range(k + 1, len(sigma)) if sizes[m]]
            if not sizes[k] or not steeper:
                continue
            # below[m] = number of roots j < m with code c2
            np.cumsum(codes == c2, out=below[1:])
            dsig = [sigma[self.by_slope[m]] - sigma[c2] for m in steeper]
            # per steeper slope and end: the least g where the profile's
            # antiderivative reaches 1; the one g below it may be interior
            gs = [[-((W * p * ds - Q) // (W * Q)) for _, p in ends] for ds in dsig]
            h = np.array([[min(max(g - e, -K), K + 1) for g in row for e in (0, 1)]
                          for row in gs], dtype=np.int64).T
            counts = [sizes[m] for m in steeper]
            i = roots[starts[steeper[0]]:starts[steeper[-1] + 1]]
            # pairs (i, j) with i - j >= h, summed per steeper slope
            ge = np.add.reduceat(
                below[np.clip(i - np.repeat(h, counts, axis=1) + 1, 0, K)],
                np.cumsum([0] + counts[:-1]), axis=1).T.tolist()
            for ds, row, n_ge in zip(dsig, gs, ge):
                for (sign, p), g, (at_g, below_g) in zip(ends, row, (n_ge[:2], n_ge[2:])):
                    x = W * (g - 1) * Q + W * p * ds  # the interior candidate
                    by_dsigma[ds] = by_dsigma.get(ds, 0) + sign * (
                        2 * Q * Q * at_g + (below_g - at_g) * _tent_antiderivative(x, Q))
        den = lcm(*by_dsigma)
        num = sum(v * (den // ds) for ds, v in by_dsigma.items())
        return Fraction(num, W * W * self.D * q * q * den)

    def union_quadrature(self, codes: np.ndarray,
                         window: tuple[Fraction, Fraction],
                         slices: int, a0: int = DEFAULT_A0) -> Fraction:
        """Midpoint rule over ``slices`` equal slices of the window, each
        the exact length of the union of cross-sections there."""
        if slices < 1:
            raise InvalidInput("need at least one slice")
        if (lat := _lattice(window, a0)) is None:
            return Fraction(0)
        A, B, q = lat
        # slice k sits at (2 slices A + (B - A)(2k + 1)) / den
        K, den = self.K, 2 * slices * q
        scale = lcm(2 * K * den, W * K, self.D * den)
        unit = scale // (self.D * den)
        last = 2 * slices * B - (B - A)  # the largest numerator
        if (scale + last * max(map(abs, self.sigma)) * unit).bit_length() > 62:
            raise InvalidInput("integer scale too large for int64 slices")
        moves = np.array(self.sigma, dtype=np.int64)[codes] * unit
        start = (np.arange(K, dtype=np.int64) * (scale // K) + scale // (2 * K)
                 + (2 * slices * A + B - A) * moves)
        side, covered = scale // (W * K), 0
        for k in range(slices):
            pos = np.sort(start + 2 * k * (B - A) * moves)
            covered += int(np.minimum(np.diff(pos), side).sum()) + side
        return Fraction((B - A) * covered, slices * q * scale)
