"""Vectorized exact computations for one-dimensional instances.

The root hyperplane is the unit interval split into K = M^J cells, so a
root cube is just an integer index and a realized assignment is an integer
array of slope codes.  Three quantities are computed exactly:

* the slope-code array, by walking the basic-cube chain level by level
  with warehouse bits drawn from the same splitmix64 chain as the scalar
  warehouse (bit-for-bit identical);

* pairwise slab-intersection sums: for a fixed ordered slope pair the
  pair volume depends only on the root index difference g, and its
  antiderivative is flat outside a window of width half a cell, so the sum
  collapses to two rank counts plus at most a couple of exact boundary
  terms per slope pair -- no pair enumeration;

* per-slice union lengths for quadrature, by sorting integer-scaled
  interval endpoints (all positions share a modest common denominator).

Everything returned is a Fraction; numpy only shuffles integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from ._mix import GOLDEN, MASK64
from .errors import InvalidInput
from .pruning import PrunedSlopeTree
from .tubes import clip_x1, cross_section_dilation


def _np_mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (x + np.uint64(GOLDEN)) & np.uint64(MASK64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


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
        n = len(ids)
        self.lam = np.zeros(n, dtype=np.int64)
        self.child = np.zeros((n, 2), dtype=np.int64)
        for g, info in pruned.gamma.items():
            i = ids[g]
            self.lam[i] = info.lam
            for b in (0, 1):
                nxt = info.next_gammas[b]
                if nxt is None:
                    self.child[i, b] = -1
                else:
                    self.child[i, b] = ids[nxt]
        self.root_gamma = ids[pruned.psi(())]
        self.pow = np.array([self.M ** k for k in range(self.J + 1)],
                            dtype=np.int64)
        self.slopes = pruned.slopes  # Fractions, code order

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

    # -- pairwise slab-intersection sums -----------------------------------

    def pair_sum(self, codes: np.ndarray, window: tuple[Fraction, Fraction],
                 a0: int = 10) -> Fraction:
        """Exact sum over ordered root pairs t1 != t2 of the volume of
        P_{t1} meet P_{t2} inside the x1 window."""
        a, b = clip_x1(*window, a0)
        if a >= b:
            return Fraction(0)
        s = cross_section_dilation(1) * Fraction(1, self.M ** self.J)
        mj = Fraction(1, self.M ** self.J)
        groups = [np.flatnonzero(codes == c) for c in range(2 ** self.N)]
        total = Fraction(0)
        for c1 in range(2 ** self.N):
            A1 = groups[c1]
            if A1.size == 0:
                continue
            for c2 in range(c1 + 1, 2 ** self.N):
                A2 = groups[c2]
                if A2.size == 0:
                    continue
                dslope = self.slopes[c1][0] - self.slopes[c2][0]
                if dslope == 0:
                    continue
                lo_u, hi_u = sorted((a * dslope, b * dslope))
                t_hi = self._antiderivative_sum(A1, A2, hi_u, s, mj)
                t_lo = self._antiderivative_sum(A1, A2, lo_u, s, mj)
                total += 2 * (t_hi - t_lo) / abs(dslope)
        return total

    def _antiderivative_sum(self, A1, A2, shift: Fraction, s: Fraction,
                            mj: Fraction) -> Fraction:
        """Sum over (i, j) in A1 x A2 of F((i-j) M^-J + shift), where F is
        the antiderivative of the triangular overlap profile."""

        def F(x: Fraction) -> Fraction:
            if x <= -s:
                return Fraction(0)
            if x >= s:
                return s * s
            if x <= 0:
                return (x + s) * (x + s) / 2
            return s * s / 2 + s * x - x * x / 2

        # g-thresholds: F = 0 for g <= G_neg, F = s^2 for g >= G_pos;
        # G_pos - G_neg = 2 s M^J = 1/2, so at most two interior integers
        import math
        g_neg = (-s - shift) / mj
        g_pos = (s - shift) / mj
        lo_int = math.floor(g_neg)
        hi_int = math.ceil(g_pos)

        # count pairs with i - j >= hi_int
        n_hi = int(np.searchsorted(A2, A1 - hi_int, side="right").sum())
        total = s * s * n_hi
        for g in range(lo_int + 1, hi_int):
            idx = np.searchsorted(A2, A1 - g)
            idx = np.minimum(idx, A2.size - 1)
            n_g = int(np.count_nonzero(A2[idx] == (A1 - g)))
            if n_g:
                total += n_g * F(g * mj + shift)
        return total

    # -- per-slice union lengths --------------------------------------------

    def slice_union(self, codes: np.ndarray, x1: Fraction) -> Fraction:
        """Exact length of the union of cross-sections at abscissa x1."""
        s = cross_section_dilation(1) * Fraction(1, self.M ** self.J)
        scale = 2 * self.M ** self.J * x1.denominator
        for w in self.slopes:
            scale = scale * w[0].denominator // gcd(scale, w[0].denominator)
        scale = scale * s.denominator // gcd(scale, s.denominator)
        if scale.bit_length() + 5 > 62:
            raise InvalidInput("integer scale too large for int64 slices")
        offs = np.zeros(2 ** self.N, dtype=np.int64)
        for c, w in enumerate(self.slopes):
            val = x1 * w[0] * scale
            assert val.denominator == 1
            offs[c] = int(val)
        base = np.arange(self.K, dtype=np.int64) * int(Fraction(scale, self.M ** self.J)) \
            + int(Fraction(scale, 2 * self.M ** self.J))
        pos = np.sort(base + offs[codes])
        s_scaled = s * scale
        assert s_scaled.denominator == 1
        s_int = int(s_scaled)
        gaps = np.diff(pos)
        covered = int(np.minimum(gaps, s_int).sum()) + s_int
        return Fraction(covered, scale)

    def union_quadrature(self, codes: np.ndarray,
                         window: tuple[Fraction, Fraction],
                         slices: int, a0: int = 10) -> Fraction:
        a, b = clip_x1(*window, a0)
        if a >= b:
            return Fraction(0)
        width = (b - a) / slices
        total = Fraction(0)
        for k in range(slices):
            total += self.slice_union(codes, a + width * k + width / 2) * width
        return total

    def slab_totals(self, codes: np.ndarray,
                    window: tuple[Fraction, Fraction], a0: int = 10):
        """(sum of per-tube volumes, pairwise sum, Cauchy-Schwarz bound)."""
        a, b = clip_x1(*window, a0)
        if a >= b:
            return Fraction(0), Fraction(0), Fraction(0)
        s = cross_section_dilation(1) * Fraction(1, self.M ** self.J)
        diag = self.K * s * (b - a)
        pair = self.pair_sum(codes, window, a0)
        return diag, pair, diag * diag / (diag + pair)
