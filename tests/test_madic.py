from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import counted_tree, random_counts
from kakeyalab.errors import InvalidInput, SizeCapExceeded
from kakeyalab.madic import (
    PointSetTree,
    agreement_height_scalar,
    cantor_tree,
    cube_center,
    cube_origin,
    encode_set,
    full_tree,
    is_sticky,
    point_address,
    points_from_json,
    points_to_json,
    splitting_number,
    splitting_number_1d_points,
    splitting_number_bruteforce,
    split_values,
    youngest_common_ancestor,
)
from kakeyalab.percolation import path_tree


def test_encode_half_intervals():
    t = encode_set([(F(0),), (F(1, 2),)], 2, 1)
    assert t.children(()) == ((0,), (1,))


def test_encode_cantor_digits():
    pts = [(F(a, 3) + F(b, 9) + F(c, 27),)
           for a in (0, 2) for b in (0, 2) for c in (0, 2)]
    t = encode_set(pts, 3, 3)
    for v in t.vertices(2):
        assert t.children(v) == ((0,), (2,))


def test_encode_full_binary():
    m = 4
    t = encode_set([(F(k, 2 ** m),) for k in range(2 ** m)], 2, m)
    assert all(len(t.children(v)) == 2 for v in t.vertices(m - 1))
    assert len(t.leaves()) == 2 ** m


def test_encode_rejects_bad_coordinates():
    with pytest.raises(InvalidInput):
        encode_set([(F(3, 2),)], 2, 2)
    with pytest.raises(InvalidInput):
        encode_set([(0.5,)], 2, 2)


def test_encode_idempotent():
    pts = [(F(1, 2 ** j),) for j in range(1, 6)]
    t = encode_set(pts, 2, 6)
    reps = [t.min_point(v) for v in t.leaves()]
    t2 = encode_set(reps, 2, 6)
    assert set(t.vertices()) == set(t2.vertices())


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


def test_is_sticky():
    ident = {((0,),): ((0,),), ((0,), (1,)): ((0,), (1,))}
    assert is_sticky(ident, None)
    bad_height = {((0,), (1,)): ((0,),)}
    assert not is_sticky(bad_height, None)
    broken = {((0,),): ((1,),), ((0,), (0,)): ((0,), (0,))}
    assert not is_sticky(broken, None)


def test_rule_tree_lazy_depth():
    t = cantor_tree(40)
    assert t.split_value(()) == 40
    assert t.min_point(((0,), (2,))) == (F(2, 9),)
    # exploration is linear in depth, never exponential
    assert len(t._child_memo) <= 2 * t.height


def test_points_json_roundtrip():
    pts = [(F(1, 3), F(2, 9)), (F(0), F(1, 2))]
    text = points_to_json(pts, 3, 2, 4)
    back, M, d, J = points_from_json(text)
    assert back == tuple(pts) and (M, d, J) == (3, 2, 4)


def test_deep_set_splitting_is_cheap():
    from kakeyalab.lacunarity import counterexample_raw
    U, _ = counterexample_raw(3)
    assert splitting_number_1d_points(U, 2) == 1
