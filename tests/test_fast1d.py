"""The integer-lattice kernels of ``fast1d`` against the scalar ``tubes``
reference, and the named errors at the edges of their range."""

from fractions import Fraction as F
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from kakeyalab.errors import InvalidInput
from kakeyalab.fast1d import FastInstance, cs_bound
from kakeyalab.harness import kakeya_tubes
from kakeyalab.madic import cantor_tree, full_tree
from kakeyalab.pruning import prune
from kakeyalab.tubes import DEFAULT_A0, pair_intersection_volume, union_volume

SLICES = 3
TOP = 10 * DEFAULT_A0  # the far end of every tube

TREES = {"full2": lambda: full_tree(25, M=2, d=1), "cantor3": lambda: cantor_tree(25),
         "full3": lambda: full_tree(25, M=3, d=1), "cantor4": lambda: cantor_tree(25, M=4),
         "full4": lambda: full_tree(25, M=4, d=1)}
# (tree, N, C0) with K = M^J <= 81, for M = 2, 3, 4 and C0 = 1, 2
INSTANCES = [
    ("full2", 1, 1), ("full2", 2, 1), ("full2", 3, 1), ("full2", 1, 2),
    ("full2", 2, 2), ("cantor3", 1, 1), ("cantor3", 2, 1), ("cantor3", 1, 2),
    ("full3", 2, 2), ("cantor4", 1, 1), ("cantor4", 1, 2), ("full4", 2, 1),
]


@lru_cache(maxsize=None)
def instance(name, n, c0):
    pruned = prune(TREES[name](), N=n, C0=c0)
    assert pruned.M ** pruned.J <= 81
    return pruned, FastInstance(pruned)


def scalar_pair_sum(family, w):
    return 2 * sum(pair_intersection_volume(a, b, w)
                   for i, a in enumerate(family) for b in family[i + 1:])


def check_against_scalar(pruned, fast, codes, w, may_refuse=True):
    """The window w is an (lo, hi) pair whose ends may lie outside
    [0, 10 A0]; both paths clip it with ``tubes.clip_x1``."""
    family = kakeya_tubes(pruned, codes)
    pair = fast.pair_sum(codes, w)
    assert pair == scalar_pair_sum(family, w)
    est, cs = union_volume(family, w, SLICES)
    assert cs_bound(w, pair) == cs
    try:
        assert fast.union_quadrature(codes, w, SLICES) == est
    except InvalidInput:
        if not may_refuse:
            raise
        # the slice positions would need more than 62 bits


fractions = st.builds(F, st.integers(-3 * TOP, 3 * TOP), st.integers(1, 12))
tiny = st.builds(lambda k, e: F(k, 3 ** e), st.integers(1, 3 ** 6), st.integers(20, 30))
windows = st.one_of(
    st.tuples(fractions, fractions),
    # straddling 0 and 10 A0
    st.tuples(st.builds(lambda x: -x, fractions.map(abs)), fractions.map(abs)),
    st.tuples(fractions.map(lambda x: TOP - abs(x)), fractions.map(lambda x: TOP + abs(x))),
    # ends with large denominators
    st.tuples(tiny, st.builds(lambda x, y: x + y, tiny, st.sampled_from([F(1, 3), F(1)]))),
).map(lambda ends: tuple(sorted(ends)))


# no shrink phase: shrinking would rerun the slow scalar oracle for every
# candidate, turning a wrong kernel into a long run instead of a failure
@pytest.mark.parametrize("key", INSTANCES)
@settings(max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2 ** 32), w=windows)
def test_lattice_kernels_match_scalar_tubes(key, seed, w):
    pruned, fast = instance(*key)
    check_against_scalar(pruned, fast, fast.assign(seed), w)


@pytest.mark.parametrize("w", [
    (F(1, 3 ** 30), F(1, 3)),
    (F(1, 3) - F(1, 3 ** 30), F(1) + F(2, 3 ** 31)),
])
def test_windows_with_3_to_the_30_denominators(w):
    pruned, fast = instance("cantor3", 2, 1)
    codes = fast.assign(11)
    assert fast.pair_sum(codes, w) > 0
    # both windows lie inside the 62-bit range of the quadrature
    check_against_scalar(pruned, fast, codes, w, may_refuse=False)


def test_more_than_2_to_the_31_roots_is_refused():
    too_big = SimpleNamespace(d=1, M=3, J=20, N=2)  # K = 3^20 > 2^31
    with pytest.raises(InvalidInput, match="too large"):
        FastInstance(too_big)


@pytest.mark.parametrize("window, a0", [
    ((F(1, 3 ** 40), F(1, 3 ** 39)), DEFAULT_A0),  # slice denominators near 3^40
    ((F(10 ** 16), F(10 ** 16 + 1)), 10 ** 16),    # the far slab of A0 = 10^16
    ((F(1, 3 ** 30), F(100)), DEFAULT_A0),         # 61 bits at the first slice, 64 at the last
])
def test_slices_beyond_62_bits_are_refused(window, a0):
    _, fast = instance("cantor3", 2, 1)
    with pytest.raises(InvalidInput, match="int64"):
        fast.union_quadrature(fast.assign(0), window, 8, a0)
