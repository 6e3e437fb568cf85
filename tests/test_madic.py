import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    agreement_height_reference,
    counted_tree,
    cube_distance_sq,
    path_tree,
    point_set_vertex,
    random_counts,
    random_points,
    split_values,
)
from kakeyalab.errors import InvalidInput, SizeCapExceeded
from kakeyalab.madic import (
    CondensedTree,
    agreement_height_scalar,
    cantor_tree,
    cube_center,
    cube_gap_sq,
    cube_origin,
    encode_set,
    full_tree,
    point_address,
    split_combine,
    splitting_number,
    splitting_number_1d_points,
    splitting_number_bruteforce,
    youngest_common_ancestor,
)


def test_encode_half_intervals():
    t = encode_set([(F(0),), (F(1, 2),)], 2, 1)
    assert t.children(()) == ((0,), (1,))


def test_encode_cantor_digits():
    pts = [(F(a, 3) + F(b, 9) + F(c, 27),)
           for a in (0, 2) for b in (0, 2) for c in (0, 2)]
    t = encode_set(pts, 3, 3)
    for v in t.vertices():
        if len(v) < 3:
            assert t.children(v) == ((0,), (2,))


def test_encode_full_binary():
    m = 4
    t = encode_set([(F(k, 2 ** m),) for k in range(2 ** m)], 2, m)
    assert all(len(t.children(v)) == 2 for v in t.vertices() if len(v) < m)
    assert sum(len(v) == m for v in t.vertices()) == 2 ** m


def test_encode_rejects_bad_coordinates():
    with pytest.raises(InvalidInput):
        encode_set([(F(3, 2),)], 2, 2)
    with pytest.raises(InvalidInput):
        encode_set([(0.5,)], 2, 2)


def test_encode_idempotent():
    pts = [(F(1, 2 ** j),) for j in range(1, 6)]
    t = encode_set(pts, 2, 6)
    reps = [t.min_point(v) for v in t.vertices() if len(v) == t.height]
    t2 = encode_set(reps, 2, 6)
    assert set(t.vertices()) == set(t2.vertices())


@pytest.mark.parametrize("d", [1, 2])
def test_point_set_digits_match_fraction_reference(d):
    # every cube below a present vertex, present or not, against the
    # Fraction digits of each point
    rng = random.Random(4100 + d)
    for _ in range(12):
        M, J = rng.randrange(2, 5), rng.randrange(1, 6)
        pts = random_points(rng, rng.randrange(1, 15), d)
        t = encode_set(pts, M, J)
        for v in t.vertices():
            if len(v) == J:
                continue
            members, kids = point_set_vertex(pts, M, v)
            assert t._members(v) == tuple(members) and t.min_point(v) == members[0]
            assert t.children(v) == kids
            for dig in itertools.product(range(M), repeat=d):
                members, _ = point_set_vertex(pts, M, v + (dig,))
                assert t._members(v + (dig,)) == tuple(members)


def test_point_set_refuses_cubes_below_its_height():
    # a digit below height J is not an integer division of the cube index
    t = encode_set([(F(1, 3),)], 3, 2)
    with pytest.raises(InvalidInput):
        t.min_point(((1,), (0,), (0,)))


@pytest.mark.parametrize("d", [1, 2])
def test_cube_gap_matches_fraction_reference(d):
    # cubes of unequal heights, apart, touching and nested
    rng = random.Random(3200 + d)
    heights = set()
    for _ in range(400):
        M = rng.randrange(2, 5)
        u, v = (tuple(tuple(rng.randrange(M) for _ in range(d))
                      for _ in range(rng.randrange(6))) for _ in range(2))
        if rng.random() < 0.3:
            v = u[:rng.randrange(len(u) + 1)] + v
        heights.add(len(u) == len(v))
        got = F(cube_gap_sq(u, v, M, d), M ** (2 * max(len(u), len(v))))
        assert got == cube_distance_sq(u, v, M, d)
    assert heights == {True, False}


def test_yca_basics():
    assert youngest_common_ancestor(((0,), (1,)), ((0,), (0,))) == ((0,),)
    u = ((1,), (2,), (0,))
    assert youngest_common_ancestor(u, u) == u


@given(st.lists(st.integers(0, 2), max_size=6),
       st.lists(st.integers(0, 2), max_size=6))
def test_yca_is_longest_common_prefix(a, b):
    u = tuple((x,) for x in a)
    v = tuple((x,) for x in b)
    got = youngest_common_ancestor(u, v)
    n = len(got)
    assert u[:n] == v[:n]
    assert n == len(u) or n == len(v) or u[n] != v[n]


@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_cube_origin_and_center_lie_in_their_cube(M, d, data):
    digit = st.tuples(*[st.integers(0, M - 1)] * d)
    addr = tuple(data.draw(st.lists(digit, max_size=6)))
    J = len(addr)
    org, cen = cube_origin(addr, M, d), cube_center(addr, M, d)
    assert point_address(org, M, J) == addr
    assert point_address(cen, M, J) == addr
    assert all(c - o == F(1, 2 * M ** J) for c, o in zip(cen, org))


def test_splitting_number_examples():
    assert splitting_number(encode_set([(F(1, 2 ** j),) for j in range(1, 11)], 2, 12)) == 1
    for m in (3, 6):
        pts = [(F(k, 2 ** m),) for k in range(2 ** m)]
        assert splitting_number(encode_set(pts, 2, m)) == m
    for n in (2, 3):
        pts = [(F(k, 4 ** n),) for k in range(4 ** n)]
        assert splitting_number(encode_set(pts, 2, 2 * n)) == 2 * n
        assert splitting_number(encode_set(pts, 4, n)) == n


def test_splitting_path_and_binary():
    path = path_tree(5)
    assert splitting_number_bruteforce(path) == 0
    tree = full_tree(3, 2)
    assert splitting_number(tree) == 3


def test_bruteforce_cap():
    with pytest.raises(SizeCapExceeded):
        splitting_number_bruteforce(full_tree(5, 2), cap=20)


def test_dp_matches_bruteforce_on_random_trees():
    for seed in range(60):
        t = counted_tree(random_counts(seed, max_height=3, max_branch=3))
        assert t.split_value(()) == splitting_number_bruteforce(t, cap=200)


def test_split_monotone_in_lineages_and_subtrees():
    counts = random_counts(11, max_height=4, max_branch=3)
    t = counted_tree(counts)
    vals = split_values(t)
    for v, sv in vals.items():
        for u, su in vals.items():
            if len(u) > len(v) and u[: len(v)] == v:
                assert su <= sv
    # subtree monotonicity: dropping a child only lowers the value
    trimmed = dict(counts)
    for addr, n in list(trimmed.items()):
        if n > 1:
            trimmed[addr] = n - 1
            break
    assert counted_tree(trimmed).split_value(()) <= t.split_value(())


def test_max_split_vertices_lie_on_a_ray():
    for seed in range(40):
        t = counted_tree(random_counts(seed, max_height=4, max_branch=3))
        n = t.split_value(())
        peaks = [v for v, s in split_values(t).items() if s == n]
        for a in peaks:
            for b in peaks:
                k = min(len(a), len(b))
                assert a[:k] == b[:k]  # pairwise comparable


def test_condensed_split_matches_tree_dp():
    import random
    rng = random.Random(3)
    for _ in range(25):
        pts = sorted({F(rng.randrange(1, 3 ** 6), 3 ** 6) for _ in range(rng.randrange(2, 12))})
        tree_val = splitting_number(encode_set([(p,) for p in pts], 3, 6))
        assert splitting_number_1d_points(pts, 3) == tree_val


def test_agreement_height_scalar():
    assert agreement_height_scalar(F(0), F(1, 2), 2) == 0
    assert agreement_height_scalar(F(0), F(1, 4), 2) == 1
    assert agreement_height_scalar(F(3, 8), F(1, 4), 2) == 2
    assert agreement_height_scalar(F(5, 8), F(1, 4), 2) == 0


@pytest.mark.parametrize("M", [2, 3, 5, 10])
def test_agreement_height_scalar_matches_fraction_floors(M):
    # seeded pairs over mixed denominators, negative points and pairs a
    # tiny gap apart among them, so that heights reach the hundreds
    rng = random.Random(M)
    for _ in range(500):
        a = F(rng.randrange(-10 ** 6, 10 ** 6), rng.choice((1, 7, M ** 5, 10 ** 6 + 3)))
        gap = F(rng.choice((-1, 1)), rng.choice((2, 9, M ** rng.randrange(1, 300),
                                                  rng.randrange(1, 10 ** 90))))
        b = a + gap if rng.random() < 0.8 else F(rng.randrange(-10 ** 6, 10 ** 6), 999)
        if a != b:
            assert agreement_height_scalar(a, b, M) == agreement_height_reference(a, b, M)


def test_rule_tree_lazy_depth():
    t = cantor_tree(40)
    assert t.split_value(()) == 40
    assert t.min_point(((0,), (2,))) == (F(2, 9),)
    # exploration is linear in depth, never exponential
    assert len(t._child_memo) <= 2 * t.height


def test_deep_set_splitting_is_cheap():
    from kakeyalab.lacunarity import counterexample_raw
    U, _ = counterexample_raw(3)
    assert splitting_number_1d_points(U, 2) == 1


def test_condensed_tree_does_not_recurse(monkeypatch):
    # a chain 1,500 runs deep: one pass with a stack, no recursion limit
    def refuse(limit):
        raise AssertionError("the recursion limit was touched")
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert splitting_number_1d_points([F(1, 2 ** j) for j in range(1, 1501)], 2) == 1


def _reference_tree(pts, M):
    """The recursive definition: a run branches where its adjacent points
    agree least, and its split value combines its children's."""
    heights = [agreement_height_scalar(a, b, M) for a, b in zip(pts, pts[1:])]

    def children(i, j):
        m = min(heights[i:j])
        groups, start = [], i
        for k in range(i, j):
            if heights[k] == m:
                groups.append((start, k))
                start = k + 1
        return groups + [(start, j)]

    def split(i, j):
        return 0 if i == j else split_combine(split(a, b) for a, b in children(i, j))
    return children, split


@pytest.mark.parametrize("M", [1, 0, -2])
def test_condensed_tree_refuses_bases_below_two(M):
    # as MadicTree does; agreement heights divide by log2 M
    with pytest.raises(InvalidInput, match="need M >= 2"):
        CondensedTree([F(1, 4), F(1, 2)], M)


@pytest.mark.parametrize("M", [2, 3, 5])
def test_condensed_tree_matches_the_recursive_definition(M):
    rng = random.Random(M)
    for _ in range(60):
        pts = sorted({F(rng.randrange(-3 * M ** 4, 3 * M ** 4), M ** rng.randrange(1, 5))
                      for _ in range(rng.randrange(2, 40))})
        if len(pts) < 2:
            continue
        tree, (children, split) = CondensedTree(pts, M), _reference_tree(pts, M)
        runs = [(0, len(pts) - 1)]
        while runs:
            i, j = runs.pop()
            assert tree.split_value(i, j) == split(i, j)
            if i < j:
                assert tree.children(i, j) == children(i, j)
                runs.extend(children(i, j))
