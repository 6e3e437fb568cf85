import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest

from helpers import all_roots_1d, root_addr
from kakeyalab.errors import InvalidInput, SizeCapExceeded
from kakeyalab.fast1d import FastInstance
from kakeyalab.madic import cantor_tree, full_tree, youngest_common_ancestor
from kakeyalab.pruning import prune
from kakeyalab.sticky import (
    BernoulliWarehouse,
    assignment_query,
    classify_roots,
    is_sticky_admissible,
    mu,
    prob_closed_form,
    prob_enumerate,
    prob_exact,
    reference_cubes,
    root_ancestor_at_mu,
    sample_assignment,
    theta,
    walk_chain,
)


def tiny_instance():
    return prune(full_tree(12, 2), N=2, C0=1)


@pytest.fixture(scope="module")
def inst():
    return tiny_instance()


@pytest.fixture(scope="module")
def roots(inst):
    return all_roots_1d(inst)


def test_warehouse_determinism_and_overrides():
    w1 = BernoulliWarehouse(31, 3)
    w2 = BernoulliWarehouse(31, 3)
    addr = ((1,), (2,), (0,))
    assert w1.bit(addr) == w2.bit(addr)
    forced = BernoulliWarehouse(31, 3, overrides={w1.key_of(addr): 1 - w1.bit(addr)})
    assert forced.bit(addr) == 1 - w1.bit(addr)


def test_warehouse_bit_frequency(inst):
    # empirical frequency of the first-level bit over many roots stays
    # within 3 binomial sigmas of 1/2
    n = 10 ** 4
    w = BernoulliWarehouse(5, 2)
    bits = [w.bit(root_addr(i, 2, 14)) for i in range(n)]
    freq = sum(bits) / n
    assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / n)


def test_same_seed_identical_map(inst, roots):
    s1 = sample_assignment(inst, 42)
    s2 = sample_assignment(inst, 42)
    assert [s1.slope_code(t) for t in roots] == [s2.slope_code(t) for t in roots]


def test_assignment_is_sticky_on_root_cubes_chainwise(inst, roots):
    # chains share prefixes: roots in one basic cube draw the same bits
    sm = sample_assignment(inst, 9)
    for t in roots:
        steps = sm.chain(t)
        assert [s.level for s in steps] == [1, 2]
        for s in steps:
            assert t[: len(s.basic_cube)] == s.basic_cube


def test_extend_on_chain_vertices(inst, roots):
    sm = sample_assignment(inst, 13)
    # root hyperplane maps to the slope-tree root
    assert sm.extend(()) == ()
    for t in roots[:8]:
        # a root cube maps to its assigned slope leaf
        leaf = inst.slope_leaf(sm.slope_code(t))
        assert sm.extend(t) == leaf
        # parent/child consistency wherever the value is chain-independent
        for h in range(1, inst.J + 1):
            q, parent = t[:h], t[: h - 1]
            if sm.extend_is_canonical(q) and sm.extend_is_canonical(parent):
                assert sm.extend(q)[: len(sm.extend(parent))] == sm.extend(parent)


def test_extend_heights(inst, roots):
    sm = sample_assignment(inst, 3)
    for t in roots[:4]:
        for h in range(inst.J + 1):
            assert len(sm.extend(t[:h])) == h


def test_single_pair_probability(inst, roots):
    assert prob_exact(inst, [(roots[0], 0)]) == F(1, 4)
    assert prob_exact(inst, [(roots[5], 3)]) == F(1, 4)


@pytest.mark.parametrize("bad", [-1, 4, (F(1, 3),), 1.0, None],
                         ids=["negative", "past_last", "unknown_point", "float", "none"])
def test_out_of_range_slopes_rejected(inst, roots, bad):
    # code -1 must not be read as code 2^N - 1 = 3 by a table lookup
    prs = [(roots[0], bad), (roots[5], 3)]
    for fn in (is_sticky_admissible, prob_exact, prob_closed_form,
               prob_enumerate, assignment_query):
        with pytest.raises(InvalidInput):
            fn(inst, prs)
    if isinstance(bad, int):
        with pytest.raises(InvalidInput):
            reference_cubes(inst, roots[0], bad)


@pytest.mark.parametrize("instance", [
    lambda: prune(full_tree(16, 2), N=3, C0=1),
    lambda: prune(cantor_tree(25), N=2, C0=1),
], ids=["M2", "M3"])
def test_reference_cubes_replay_the_chain_walk(instance):
    # walk_chain finds each basic height by following the splitting
    # vertices, independently of the eta and code-bit tables behind
    # reference_cubes
    p = instance()
    for i in range(p.M ** p.J):
        t = root_addr(i, p.M, p.J)
        for code in range(2 ** p.N):
            bits = iter(int(b) for b in format(code, f"0{p.N}b"))
            want = tuple(walk_chain(p, t, lambda q: next(bits)))
            got = reference_cubes(p, t, code)
            assert got == want
            assert reference_cubes(p, t, code) is got
    assert len(p.ref_cubes) == p.M ** p.J * 2 ** p.N


def test_numpy_codes_read_as_their_ints():
    p = prune(cantor_tree(25), N=2, C0=1)
    codes = FastInstance(p).assign(5)
    roots = all_roots_1d(p)
    for idx in [(0, 1), (3, 40), (2, 9, 80), (0, 27, 54), (1, 2, 30, 31), (5, 6, 70, 71)]:
        raw = [(roots[i], codes[i]) for i in idx]
        ints = [(roots[i], int(codes[i])) for i in idx]
        assert isinstance(raw[0][1], np.integer)
        for fn in (is_sticky_admissible, prob_exact, prob_closed_form):
            assert fn(p, raw) == fn(p, ints)


def test_n1_slope_frequency():
    # N=1: each root draws one bit; the 0-branch frequency over 10^4 roots
    # stays within 3 binomial sigmas of 1/2
    import math
    from kakeyalab.fast1d import FastInstance
    p1 = prune(full_tree(16, 2), N=1, C0=1)
    fast = FastInstance(p1)
    codes = np.concatenate([fast.assign(s) for s in range(
        max(1, 10 ** 4 // (p1.M ** p1.J)) + 1)])[:10 ** 4]
    freq = float(np.mean(codes == 0))
    assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / 10 ** 4)


def test_admissibility_obvious_cases(inst, roots):
    ok, cert = is_sticky_admissible(inst, [(roots[0], 2)])
    assert ok and len(cert) == inst.N
    # close roots, far slopes, outside the window exception: pick roots in
    # the same first-level basic cube but prescribe slopes splitting at the
    # tree root whose first basic height is below the roots' agreement
    g1 = inst.psi(())
    lam1 = inst.gamma[g1].lam
    t1, t2 = roots[0], roots[1]
    assert len(youngest_common_ancestor(t1, t2)) >= lam1
    codes = [(c1, c2) for c1 in range(4) for c2 in range(4)
             if len(youngest_common_ancestor(inst.slope_leaf(c1),
                                             inst.slope_leaf(c2))) < lam1]
    assert codes
    for c1, c2 in codes:
        ok, _ = is_sticky_admissible(inst, [(t1, c1), (t2, c2)])
        assert not ok


def test_admissibility_equals_enumeration(inst, roots):
    rng = random.Random(7)
    for _ in range(200):
        ts = rng.sample(roots, 4)
        prs = [(t, rng.randrange(4)) for t in ts]
        ok, _ = is_sticky_admissible(inst, prs)
        freq = prob_enumerate(inst, prs)
        assert ok == (freq > 0)
        if ok:
            assert prob_exact(inst, prs) == freq


def test_probability_triple_agreement_sampled(inst, roots):
    rng = random.Random(17)
    for size in (2, 3, 4):
        seen = 0
        while seen < 120:
            ts = rng.sample(roots, size)
            prs = [(t, rng.randrange(4)) for t in ts]
            ok, _ = is_sticky_admissible(inst, prs)
            if not ok:
                continue
            seen += 1
            assert prob_exact(inst, prs) == prob_closed_form(inst, prs) \
                == prob_enumerate(inst, prs)


def test_closed_form_invariant_under_relabelling(inst, roots):
    rng = random.Random(23)
    for size in (3, 4):
        seen = 0
        while seen < 40:
            ts = rng.sample(roots, size)
            prs = [(t, rng.randrange(4)) for t in ts]
            ok, _ = is_sticky_admissible(inst, prs)
            if not ok:
                continue
            seen += 1
            base = prob_closed_form(inst, prs)
            for _ in range(3):
                rng.shuffle(prs)
                assert prob_closed_form(inst, prs) == base


def test_enumeration_cap(inst, roots):
    with pytest.raises(SizeCapExceeded):
        prob_enumerate(inst, [(t, 0) for t in roots], cap_bits=4)


def test_classification_totality(inst, roots):
    # every distinct triple gets exactly one type, and each pairing of
    # every distinct quadruple as well
    small = roots[::2]
    for ts in combinations(small, 3):
        cfg = classify_roots(ts)
        assert cfg.ctype in (1, 2)
    for ts in combinations(small[:8], 4):
        for pairing in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)):
            quad = tuple(ts[i] for i in pairing)
            cfg = classify_roots(((quad[0], quad[1]), (quad[2], quad[3])))
            assert cfg.ctype in (1, 2, 3)


def test_four_point_type_example():
    # d=1, M=2: sibling pairs under opposite halves form type 1 with
    # disjoint ancestors
    t1, t2 = root_addr(0, 2, 2), root_addr(1, 2, 2)
    t1p, t2p = root_addr(2, 2, 2), root_addr(3, 2, 2)
    cfg = classify_roots(((t1, t2), (t1p, t2p)))
    assert cfg.ctype == 1 and cfg.size == 4


def test_three_point_classification_matches_conditions(inst, roots):
    rng = random.Random(3)
    for _ in range(200):
        ts = rng.sample(roots, 3)
        cfg = classify_roots(ts)
        (ta, tb), (_, tc) = cfg.pairs
        u = youngest_common_ancestor(ta, tb)
        u2 = youngest_common_ancestor(ta, tc)
        assert len(u) <= len(u2)
        if cfg.ctype == 1:
            assert len(u2) > len(u) or u == youngest_common_ancestor(tb, tc)
        else:
            assert u == u2
            assert len(youngest_common_ancestor(tb, tc)) > len(u)


def test_duplicate_roots_rejected(inst, roots):
    with pytest.raises(InvalidInput):
        classify_roots((roots[0], roots[0], roots[1]))


def test_height_relations_on_admissible_pairs(inst, roots):
    # the realizable relation is h(u) < lambda(D(v1,v2)); the stronger
    # h(u) <= h(D(v1,v2)) fails inside the window between a splitting
    # vertex and its basic height, where bits live on deeper cubes
    window_cases = 0
    for ta, tb in combinations(roots, 2):
        for ca, cb in product(range(4), repeat=2):
            ok, _ = is_sticky_admissible(inst, [(ta, ca), (tb, cb)])
            if not ok or ca == cb:
                continue
            k = len(youngest_common_ancestor(ta, tb))
            w = youngest_common_ancestor(inst.slope_leaf(ca), inst.slope_leaf(cb))
            assert k < inst.gamma[w].lam
            if k > len(w):
                window_cases += 1
    assert window_cases > 0  # the literal height relation is not vacuous


def test_type2_three_point_mu_equality(inst, roots):
    rng = random.Random(11)
    seen = 0
    while seen < 60:
        ts = rng.sample(roots, 3)
        cs = [rng.randrange(4) for _ in range(3)]
        ok, _ = is_sticky_admissible(inst, list(zip(ts, cs)))
        if not ok:
            continue
        cfg = classify_roots(tuple(ts))
        if cfg.ctype != 2:
            continue
        seen += 1
        (t1, t2), (_, t2p) = cfg.pairs
        lookup = dict(zip(ts, cs))
        w = youngest_common_ancestor(inst.slope_leaf(lookup[t1]),
                                     inst.slope_leaf(lookup[t2]))
        w2 = youngest_common_ancestor(inst.slope_leaf(lookup[t1]),
                                      inst.slope_leaf(lookup[t2p]))
        k = len(cfg.u)
        assert mu(inst, w, k) == mu(inst, w2, k)


def test_type_not_preserved_by_sticky_image(inst, roots):
    # configuration types are well-defined on roots and on slope tuples,
    # but a sampled map can change the type
    found = None
    for seed in range(200):
        sm = sample_assignment(inst, seed)
        for ts in combinations(roots[:10], 4):
            cfg = classify_roots(((ts[0], ts[1]), (ts[2], ts[3])))
            leaves = [inst.slope_leaf(sm.slope_code(t)) for t in ts]
            if len(set(leaves)) != 4:
                continue
            img = classify_roots(((leaves[0], leaves[1]), (leaves[2], leaves[3])))
            if img.ctype != cfg.ctype:
                found = (seed, ts, cfg.ctype, img.ctype)
                break
        if found:
            break
    assert found is not None


def test_quadruple_nested_slope_pairs(inst, roots):
    # for admissible type-2/3 quadruples the designated slope-vertex pairs
    # are nested
    rng = random.Random(29)
    seen = 0
    while seen < 80:
        ts = rng.sample(roots, 4)
        cs = [rng.randrange(4) for _ in range(4)]
        prs = list(zip(ts, cs))
        ok, _ = is_sticky_admissible(inst, prs)
        if not ok:
            continue
        cfg = classify_roots(((ts[0], ts[1]), (ts[2], ts[3])))
        if cfg.ctype == 1:
            continue
        seen += 1
        (t1, t2), (t1p, t2p) = cfg.pairs
        lk = dict(zip(ts, cs))
        w = youngest_common_ancestor(inst.slope_leaf(lk[t1]), inst.slope_leaf(lk[t2]))
        w2 = youngest_common_ancestor(inst.slope_leaf(lk[t1p]), inst.slope_leaf(lk[t2p]))
        for i in (0, 1):
            for j in (0, 1):
                th = youngest_common_ancestor(
                    inst.slope_leaf(lk[(t1, t2)[i]]),
                    inst.slope_leaf(lk[(t1p, t2p)[j]]))
                for other in (w, w2):
                    a, b = sorted((th, other), key=len)
                    assert b[: len(a)] == a


def test_mu_theta_helpers(inst):
    g1 = inst.psi(())
    lam1 = inst.gamma[g1].lam
    leaf = inst.slope_leaf(0)
    assert theta(inst, leaf, lam1 - 1) is None
    assert mu(inst, leaf, lam1 - 1) == 0
    assert mu(inst, leaf, inst.J) == inst.N
    assert theta(inst, leaf, lam1) == leaf[:lam1]
    u = root_addr(0, 2, inst.J)
    assert root_ancestor_at_mu(inst, u, leaf, lam1) == u[:lam1]


def test_inadmissible_probability_raises(inst, roots):
    g1 = inst.psi(())
    lam1 = inst.gamma[g1].lam
    t1, t2 = roots[0], roots[1]
    bad = None
    for c1, c2 in product(range(4), repeat=2):
        ok, _ = is_sticky_admissible(inst, [(t1, c1), (t2, c2)])
        if not ok:
            bad = (c1, c2)
            break
    assert bad is not None
    with pytest.raises(InvalidInput):
        prob_exact(inst, [(t1, bad[0]), (t2, bad[1])])
    with pytest.raises(InvalidInput):
        prob_closed_form(inst, [(t1, bad[0]), (t2, bad[1])])
