from fractions import Fraction as F

import pytest

from kakeyalab.errors import InfeasibleInstance, InvalidInput
from kakeyalab.madic import (
    cantor_tree,
    cube_distance_sq,
    encode_set,
    full_tree,
    youngest_common_ancestor,
)
from kakeyalab.pruning import (
    check_pruned_invariants,
    find_separated_pair,
    leq_rational_plus_sqrt,
    prune,
    slope_metrics,
)


def test_block_step_on_wide_root():
    # 6 children at height 1 exceeds (2*2+1)^1, so k = 1 and the best pair
    # spans the full interval with gap >= 2 * M^-1
    t = full_tree(6, M=6)
    k, v1, v2 = find_separated_pair(t, (), 5, 2)
    assert k == 1
    assert cube_distance_sq(v1, v2, 6, 1) >= F(4, 36)


def test_block_step_cantor_depth():
    t = cantor_tree(25)
    k, v1, v2 = find_separated_pair(t, (), 20, 2)
    assert k == 3  # first generation with more than 5 vertices
    assert cube_distance_sq(v1, v2, 3, 1) >= F(4, 3 ** 6)
    # lexicographically least pair of maximal separation: the extremes
    assert v1 == ((0,), (0,), (0,)) and v2 == ((2,), (2,), (2,))


def test_block_step_insufficient_splits():
    t = encode_set([(F(1, 2 ** j),) for j in range(1, 10)], 2, 12)
    with pytest.raises(InfeasibleInstance):
        find_separated_pair(t, (), 8, 2)


def test_prune_cantor_instance():
    p = prune(cantor_tree(40), N=3, C0=2)
    assert len(p.slopes) == 8
    check_pruned_invariants(p)
    for g in p.gamma:
        slope_metrics(p, g)


def test_prune_dyadic_instance():
    p = prune(full_tree(25, 2), N=2, C0=2)
    assert len(p.slopes) == 4
    check_pruned_invariants(p)
    # every ray splits exactly twice
    for code in range(4):
        leaf = p.slope_leaf(code)
        splits = sum(1 for h in range(p.J)
                     if len(p.tree.children(leaf[:h])) >= 2)
        assert splits == 2


def test_prune_rejects_small_split():
    with pytest.raises(InfeasibleInstance) as exc:
        prune(cantor_tree(10), N=3, C0=2)
    assert "10" in str(exc.value)  # reports the computed splitting number


def test_metrics_singleton_children():
    # at the deepest splitting vertices each child holds one slope, so the
    # sup and inf coincide
    p = prune(cantor_tree(40), N=2, C0=2)
    for g in p.gamma_levels[p.N]:
        m = slope_metrics(p, g)
        assert m.rho_sq == m.delta_sq


def test_metrics_reject_nonsplitting_vertex():
    p = prune(cantor_tree(40), N=2, C0=2)
    leaf = p.slope_leaf(0)
    with pytest.raises(InvalidInput):
        slope_metrics(p, leaf[: p.J - 1])


def test_psi_bijection_and_roundtrip():
    p = prune(cantor_tree(40), N=3, C0=2)
    assert p.psi(()) == min(p.gamma, key=len)  # the first splitting vertex
    images = {p.psi(p.code_bits(c)) for c in range(8)}
    assert len(images) == 2 ** 3 == len(p.slopes)
    for c in range(8):
        bits = p.code_bits(c)
        assert p.psi_inverse(p.psi(bits)) == bits
    for j in range(1, 4):
        assert len({p.psi(p.code_bits(c)[:j]) for c in range(8)}) == 2 ** j


def test_psi_is_sticky():
    from kakeyalab.madic import is_sticky
    p = prune(cantor_tree(40), N=3, C0=2)
    mapping = {}
    for c in range(8):
        bits = p.code_bits(c)
        for j in range(1, 4):
            # domain: binary-tree address; image heights padded to match by
            # checking lineage preservation directly instead
            mapping[tuple((b,) for b in bits[:j])] = p.psi(bits[:j])
    for u, fu in mapping.items():
        for v, fv in mapping.items():
            if len(u) > len(v) and u[: len(v)] == v:
                assert fu[: len(fv)] == fv


def test_psi_malformed_length():
    p = prune(cantor_tree(40), N=2, C0=2)
    with pytest.raises(InvalidInput):
        p.psi((0, 1, 0))


def test_eta_monotone_and_fundamental_heights():
    p = prune(cantor_tree(40), N=3, C0=2)
    for code in range(8):
        e = p.eta[code]
        assert list(e) == sorted(e) and e[-1] == p.J
    assert p.J in p.fundamental_heights
    assert len(p.fundamental_heights) <= 2 ** p.N


@pytest.mark.parametrize("instance", [
    lambda: prune(cantor_tree(25), 2, 1),
    lambda: prune(cantor_tree(30, d=2), 2, 1),
], ids=["d1", "d2"])
def test_slope_tables_match_their_definitions(instance):
    p = instance()
    for c1 in range(2 ** p.N):
        for c2 in range(2 ** p.N):
            got = p.slope_yca(c1, c2)
            assert got == youngest_common_ancestor(p.slope_leaf(c1), p.slope_leaf(c2))
            assert p.slope_yca(c1, c2) is got
    assert p.D % p.M ** p.J == 0
    for code, slope in enumerate(p.slopes):
        assert len(p.sigma[code]) == p.d
        assert all(F(s, p.D) == x for s, x in zip(p.sigma[code], slope))


def test_minimal_j():
    # shrinking J by one must violate either the separation requirement or
    # the leaf heights of the pruned skeleton
    p = prune(cantor_tree(40), N=2, C0=2)
    from kakeyalab.madic import point_distance_sq
    delta_sq = min(point_distance_sq(a, b)
                   for i, a in enumerate(p.slopes) for b in p.slopes[i + 1:])
    max_split_height = max(len(g) for g in p.gamma)
    assert p.J > max_split_height
    smaller = p.J - 1
    assert (F(p.C0 ** 2, p.M ** (2 * smaller)) > delta_sq
            or any(smaller < len(p.slope_leaf(c)) for c in range(4))
            or smaller < max(p.lam(g) for g in p.gamma_levels[1]))


def test_surd_comparison_helper():
    assert leq_rational_plus_sqrt(F(-1), F(0), 2)
    assert leq_rational_plus_sqrt(F(7, 5), F(1), 2)      # 1.4 <= sqrt 2
    assert not leq_rational_plus_sqrt(F(3, 2), F(1), 2)  # 1.5 > sqrt 2
    assert not leq_rational_plus_sqrt(F(1), F(-1), 2)


def test_pruned_json_serialization():
    import json
    p = prune(cantor_tree(40), N=2, C0=2)
    obj = json.loads(p.to_json())
    assert obj["N"] == 2 and obj["J"] == p.J
    assert len(obj["slopes"]) == 4
    assert len(obj["splitting_vertices"]) == 3
    assert obj["psi"][""] == [list(d) for d in p.psi(())]
