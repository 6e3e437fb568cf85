import math
import random
from fractions import Fraction as F
from itertools import combinations, combinations_with_replacement, product

import numpy as np
import pytest

from helpers import all_roots_1d, extend, mu, root_addr, root_ancestor_at_mu, theta
from kakeyalab.errors import InvalidInput, SizeCapExceeded
from kakeyalab.fast1d import FastInstance
from kakeyalab.madic import cantor_tree, full_tree, youngest_common_ancestor
from kakeyalab.pruning import prune
from kakeyalab.counting import all_root_cubes
from kakeyalab import sticky
from kakeyalab.sticky import (
    CONFIG_CACHE_SIZE,
    BernoulliWarehouse,
    ReferenceTree,
    classify_roots,
    is_sticky_admissible,
    prob_closed_form,
    prob_enumerate,
    prob_exact,
    reference_cubes,
    sample_assignment,
    sticky_pair,
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
        assert len(steps) == inst.N == 2
        for cube, bit in steps:
            assert t[: len(cube)] == cube and bit in (0, 1)


def test_extend_on_chain_vertices(inst, roots):
    sm = sample_assignment(inst, 13)
    # root hyperplane maps to the slope-tree root
    assert extend(sm, ())[0] == ()
    for t in roots[:8]:
        # a root cube maps to its assigned slope leaf
        leaf = inst.slope_leaf(sm.slope_code(t))
        assert extend(sm, t)[0] == leaf
        # parent/child consistency wherever the value is chain-independent
        for h in range(1, inst.J + 1):
            (vq, canon_q), (vp, canon_p) = extend(sm, t[:h]), extend(sm, t[: h - 1])
            if canon_q and canon_p:
                assert vq[: len(vp)] == vp


def test_extend_heights(inst, roots):
    sm = sample_assignment(inst, 3)
    for t in roots[:4]:
        for h in range(inst.J + 1):
            assert len(extend(sm, t[:h])[0]) == h
        with pytest.raises(InvalidInput):
            extend(sm, t + t[-1:])


def test_single_pair_probability(inst, roots):
    assert prob_exact(inst, [(roots[0], 0)]) == F(1, 4)
    assert prob_exact(inst, [(roots[5], 3)]) == F(1, 4)


@pytest.mark.parametrize("bad", [-1, 4, (F(1, 3),), 1.0, None, "1"],
                         ids=["negative", "past_last", "unknown_point", "float", "none",
                              "string"])
def test_out_of_range_slopes_rejected(inst, roots, bad):
    # code -1 must not be read as code 2^N - 1 = 3 by a table lookup
    prs = [(roots[0], bad), (roots[5], 3)]
    for fn in (is_sticky_admissible, prob_exact, prob_closed_form,
               prob_enumerate, ReferenceTree):
        with pytest.raises(InvalidInput):
            fn(inst, prs)
    # alike cold and warm: the cubes of code 1 kept first must not answer
    # for 1.0
    for warm in (False, True):
        pruned = tiny_instance()
        if warm:
            reference_cubes(pruned, roots[0], 1)
        with pytest.raises(InvalidInput):
            reference_cubes(pruned, roots[0], bad)


def test_integer_codes_read_as_their_ints(inst, roots):
    got = reference_cubes(inst, roots[0], 1)
    assert reference_cubes(inst, roots[0], True) is got
    assert reference_cubes(inst, roots[0], np.int64(1)) is got


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
    # one root table entry per root, each with all 2^N cubes filled
    assert len(p.roots) == p.M ** p.J
    assert all(None not in by_code and len(by_code) == 2 ** p.N
               for _, _, by_code in p.roots.values())


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


def test_closed_form_reaches_every_configuration_class_at_n3():
    # 64 roots and 8 codes: seeded admissible prescriptions of 3 and 4
    # pairs reach every (size, type, swapped) class that occurs, and the
    # closed form of each equals the constraint count
    p = prune(full_tree(16, 2), N=3, C0=1)
    roots, rng, seen = all_roots_1d(p), random.Random(31), set()
    assert len(roots) == 64 and len(p.slopes) == 8
    for size in (3, 4):
        admitted = 0
        while admitted < 3000:
            prs = [(t, rng.randrange(8)) for t in rng.sample(roots, size)]
            if not is_sticky_admissible(p, prs)[0]:
                continue
            admitted += 1
            ts = [t for t, _ in prs]
            cfg = classify_roots(ts)
            seen.add((size, cfg.ctype, cfg.swapped))
            assert prob_closed_form(p, prs) == prob_exact(p, prs), prs
    assert seen == {(3, 1, False), (3, 1, True), (3, 2, False),
                    (4, 1, False), (4, 1, True), (4, 2, False), (4, 2, True),
                    (4, 3, False)}


def test_closed_form_counts_a_repeated_pair_once(inst, roots):
    # a repeated pair adds no reference cube, and the empty prescription
    # is certain: the closed form answers what prob_exact answers
    t0, t5, t8 = roots[0], roots[5], roots[8]
    for prs, want in (([], 1), ([(t0, 0), (t0, 0), (t5, 1)], F(1, 16)),
                      ([(t0, 0), (t5, 1), (t8, 0), (t0, 0)], F(1, 64))):
        assert prob_closed_form(inst, prs) is prob_exact(inst, prs) == want
    five = [(t, 0) for t in roots[:5]]
    with pytest.raises(InvalidInput, match="at most 4 distinct"):
        prob_closed_form(inst, five)
    assert prob_closed_form(inst, five[:4] + five[:1]) is prob_exact(inst, five[:4])
    rng, repeated = random.Random(37), 0
    for size in range(5):
        admitted = 0
        while admitted < 150:
            ts = [rng.choice(roots[:6]) for _ in range(size)]
            code = {t: rng.randrange(4) for t in ts}
            prs = [(t, code[t]) for t in ts]
            if not is_sticky_admissible(inst, prs)[0]:
                continue
            admitted += 1
            repeated += len(set(ts)) < size
            assert prob_closed_form(inst, prs) is prob_exact(inst, prs), prs
    assert repeated > 200


def test_closed_form_does_root_work_once_per_root_tuple(inst, roots, monkeypatch):
    # a sweep asks about all 256 code tuples of one 4-root tuple in a row:
    # the root ancestors and cross indices are computed on the first only
    quads = {}
    for quad in combinations(roots, 4):
        for ts in (quad, quad[::2] + quad[1::2]):  # nested and crossed pairs
            # the reversed tuple has the same type under another key
            quads.setdefault(classify_roots(ts[::-1]).ctype, ts)
    assert set(quads) == {1, 2, 3}
    max_cross, yca = sticky._max_cross, sticky.youngest_common_ancestor
    for ts in quads.values():
        below = {t[:h] for t in ts for h in range(inst.J + 1)}
        calls = [0]  # root-only calls per code tuple

        def on_roots(*args):
            calls[-1] += set(args) <= below
            return yca(*args)

        def cross(*args, **kwargs):
            calls[-1] += 1
            return max_cross(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(sticky, "_max_cross", cross)
            m.setattr(sticky, "youngest_common_ancestor", on_roots)
            sticky._configuration.cache_clear()
            for cs in product(range(4), repeat=4):
                prs = list(zip(ts, cs))
                if is_sticky_admissible(inst, prs)[0]:
                    assert prob_exact(inst, prs) == prob_closed_form(inst, prs)
                calls.append(0)
        assert calls[0] > 0 and not any(calls[1:]), (ts, calls)
        assert classify_roots.cache_info().misses == 1


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
            cfg = classify_roots(tuple(ts[i] for i in pairing))
            assert cfg.ctype in (1, 2, 3)


def test_four_point_type_example():
    # d=1, M=2: sibling pairs under opposite halves form type 1 with
    # disjoint ancestors
    t1, t2 = root_addr(0, 2, 2), root_addr(1, 2, 2)
    t1p, t2p = root_addr(2, 2, 2), root_addr(3, 2, 2)
    cfg = classify_roots((t1, t2, t1p, t2p))
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
    # the configuration cache keeps no failure: every call raises
    for _ in range(2):
        with pytest.raises(InvalidInput):
            classify_roots((roots[0], roots[0], roots[1]))
        with pytest.raises(InvalidInput):
            classify_roots((roots[0], roots[1], roots[2], roots[0]))


def test_configuration_cache(roots):
    assert classify_roots.cache_info().maxsize == CONFIG_CACHE_SIZE
    triple, quad = roots[1:4], roots[4:8]
    assert classify_roots(list(triple)) is classify_roots(tuple(triple))
    assert classify_roots(list(quad)) is classify_roots(tuple(quad))


def test_cached_paths_still_refuse_bad_prescriptions(inst, roots):
    # a warm configuration cache and shared powers of 1/2 change no verdict:
    # every call on an inadmissible or out-of-range prescription raises
    for ts in (roots[0:3], roots[0:4], roots[3:5] + roots[12:14]):
        verdicts = {}
        for cs in product(range(4), repeat=len(ts)):
            prs = list(zip(ts, cs))
            verdicts.setdefault(is_sticky_admissible(inst, prs)[0], prs)
        good, bad = verdicts[True], verdicts[False]
        assert prob_exact(inst, good) is prob_closed_form(inst, good)
        for _ in range(2):
            for fn in (prob_exact, prob_closed_form):
                with pytest.raises(InvalidInput, match="not sticky-admissible"):
                    fn(inst, bad)
                with pytest.raises(InvalidInput, match="outside"):
                    fn(inst, good[:-1] + [(ts[-1], 4)])
        # a conflict found early does not hide a later bad code
        with pytest.raises(InvalidInput, match="outside"):
            is_sticky_admissible(inst, bad + [(roots[15], -1)])


def _two_pair_verdicts(p, root_pairs):
    """Every (is_sticky_admissible, sticky_pair) outcome seen."""
    seen = set()
    for t1, t2 in root_pairs:
        for c1, c2 in product(range(2 ** p.N), repeat=2):
            a, b = (t1, c1), (t2, c2)
            seen.add((is_sticky_admissible(p, [a, b])[0], sticky_pair(p, a, b)))
    return seen


def _rule_instances():
    return (prune(full_tree(12, 2), 2, 1), prune(cantor_tree(25), 2, 1),
            prune(cantor_tree(30, d=2), N=2, C0=1))


def test_two_pair_stickiness_is_one_height_comparison():
    # equal codes are sticky, one root with two codes is not, and two roots
    # with distinct codes are sticky exactly when the basic height of their
    # slope yca lies above their root yca: the rule sticky_pair, behind
    # enumerate_E2's one verdict per call
    full, cantor, d2 = _rule_instances()
    for p in (full, cantor):
        pairs = combinations_with_replacement(all_root_cubes(p), 2)
        assert _two_pair_verdicts(p, pairs) == {(True, True), (False, False)}
    rng, d2_roots = random.Random(41), all_root_cubes(d2)
    sample = [rng.sample(d2_roots, 2) for _ in range(2000)]
    sample += [[t, t] for t in rng.sample(d2_roots, 100)]
    assert _two_pair_verdicts(d2, sample) == {(True, True), (False, False)}


def test_admissibility_is_pairwise():
    # a conflict is one cube given two bits, which takes two pairs, so a
    # prescription is admissible exactly when every two of its pairs are
    for p in _rule_instances():
        rng, roots = random.Random(43), all_root_cubes(p)
        codes = range(2 ** p.N)
        seen = set()
        for _ in range(1500):
            prs = [(rng.choice(roots), rng.choice(codes))
                   for _ in range(rng.choice((3, 4)))]
            ok = is_sticky_admissible(p, prs)[0]
            assert ok == all(sticky_pair(p, a, b) for a, b in combinations(prs, 2)), prs
            seen.add((len(prs), ok))
        assert seen == {(3, True), (3, False), (4, True), (4, False)}


def test_one_root_with_two_codes_is_not_admissible():
    # the two chains of one root share their cube at the first bit where
    # the codes differ, so the merge refuses before any closed form runs
    for p in _rule_instances():
        t = all_root_cubes(p)[0]
        for fn in (prob_exact, prob_closed_form):
            with pytest.raises(InvalidInput, match="not sticky-admissible"):
                fn(p, [(t, 0), (t, 1)])


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
            cfg = classify_roots(ts)
            leaves = [inst.slope_leaf(sm.slope_code(t)) for t in ts]
            if len(set(leaves)) != 4:
                continue
            img = classify_roots(leaves)
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
        cfg = classify_roots(ts)
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


@pytest.mark.parametrize("k", [3, 4])
def test_one_pass_per_prescription(monkeypatch, k):
    # a sweep asks is_sticky_admissible, then prob_exact and
    # prob_closed_form of the same list: the later calls reuse the pass,
    # numpy codes as well, which every pass reads as ints
    p = prune(full_tree(12, 2), 2, 1)
    real, passes = sticky._pass, []

    def counted(pruned, pairs):
        passes.append(pairs)
        return real(pruned, pairs)

    monkeypatch.setattr(sticky, "_pass", counted)
    ts = all_roots_1d(p)[3:3 + k]
    answers = {}
    for code in (int, np.int64):
        passes.clear()
        got = answers[code] = []
        for cs in product(range(2 ** p.N), repeat=k):
            prs = list(zip(ts, map(code, cs)))
            if is_sticky_admissible(p, prs)[0]:
                got.append(prob_exact(p, prs))
                assert prob_closed_form(p, prs) is got[-1]
        assert len(got) > 0
        assert len(passes) == 4 ** k
    assert answers[int] == answers[np.int64]


def test_equal_pairs_are_no_hit(inst, roots):
    # (t, 1.0) == (t, 1), but a float is no code: only the very pair
    # objects of the last pass reuse it
    t = roots[0]
    assert prob_exact(inst, [(t, 1)]) == F(1, 4)
    for fn in (prob_exact, prob_closed_form, is_sticky_admissible):
        with pytest.raises(InvalidInput):
            fn(inst, [(t, 1.0)])


def test_replaced_pair_gets_a_fresh_answer(inst, roots):
    t1, t2 = roots[0], roots[1]
    want = {c: is_sticky_admissible(inst, [(t1, c), (t2, 0)]) for c in range(4)}
    assert len({ok for ok, _ in want.values()}) == 2
    prs = [(t1, 0), (t2, 0)]
    for c in (1, 2, 3, 0, 2):
        prs[0] = (t1, c)
        assert is_sticky_admissible(inst, prs) == want[c]
        if want[c][0]:
            assert prob_exact(inst, prs) == F(1, 2 ** len(want[c][1]))
        else:
            with pytest.raises(InvalidInput, match="not sticky-admissible"):
                prob_exact(inst, prs)


def test_mutated_certificates_change_no_answer(inst, roots):
    prs = [(roots[0], 1), (roots[6], 1)]
    want = prob_exact(inst, prs)
    ok, cert = is_sticky_admissible(inst, prs)
    assert ok and want == F(1, 2 ** len(cert))
    cert[((1,),)] = 0
    assert prob_exact(inst, prs) == want
    ReferenceTree(inst, prs).bits.clear()
    assert prob_exact(inst, prs) == want
    assert is_sticky_admissible(inst, prs) == (True, {
        k: v for k, v in cert.items() if k != ((1,),)})


@pytest.mark.parametrize("root", [((7,),) * 4, [[0], [0], [1], [1]], ((0, 0),) * 4, None, 5],
                         ids=["off_lattice", "nested_lists", "wrong_dimension", "none", "int"])
def test_roots_off_the_lattice_rejected(inst, roots, root):
    t0 = ((0,), (0,), (1,), (1,))
    assert t0 in roots and inst.J == len(t0)
    # behind a conflict too: an inadmissible prescription still checks its roots
    for prs in ([(t0, 1), (root, 2)], [(t0, 1), (t0, 2), (root, 2)]):
        for fn in (is_sticky_admissible, prob_exact, prob_closed_form,
                   prob_enumerate, ReferenceTree):
            with pytest.raises(InvalidInput, match="lattice"):
                fn(inst, prs)
    with pytest.raises(InvalidInput, match="lattice"):
        reference_cubes(inst, root, 2)
    with pytest.raises(InvalidInput, match="lattice"):
        sample_assignment(inst, 0).slope_code(root)


@pytest.mark.parametrize("form", [
    lambda t: [t, 2], lambda t: (t, 2, 0), lambda t: (list(t), 2), lambda t: (t,),
], ids=["list_pair", "three_tuple_pair", "list_root", "one_tuple_pair"])
def test_one_pair_form_refused_cold_and_warm(form):
    # a pair is a 2-tuple (root, code) of a tuple root: nothing else is
    # converted, whether or not the root table holds t1; a refused
    # prescription leaves the last pass as it was and adds no t1 entry
    t0, t1 = ((0,), (0,), (1,), (1,)), ((1,), (0,), (0,), (1,))
    match = "lattice" if type(form(t1)[0]) is list else "2-tuple"
    for fn in (is_sticky_admissible, prob_exact, prob_closed_form,
               prob_enumerate, ReferenceTree):
        pruned = tiny_instance()
        for warm in (False, True):
            if warm:
                assert is_sticky_admissible(pruned, [(t0, 1), (t1, 2)])[0]
            before = pruned.last_pass
            with pytest.raises(InvalidInput, match=match):
                fn(pruned, [(t0, 1), form(t1)])
            assert pruned.last_pass is before
            assert (t1 in pruned.roots) == warm


def test_one_prescription_and_root_tuple_form(inst, roots):
    # a prescription is a list or tuple of pairs, and classify_roots takes
    # a list or tuple of 3 or 4 roots, flat
    prs = [(roots[0], 1), (roots[6], 1)]
    for fn in (is_sticky_admissible, prob_exact, prob_closed_form,
               prob_enumerate, ReferenceTree):
        for bad in (iter(prs), dict(prs), None):
            with pytest.raises(InvalidInput, match="list or tuple of pairs"):
                fn(inst, bad)
    a, b, c, d = roots[1:5]
    for bad in ((a, b), ((a, b), (c, d)), (a, b, c, d, roots[5]), iter((a, b, c)),
                (a, b, list(c)), (a, b, c[:-1] + ([1],))):
        with pytest.raises(InvalidInput):
            classify_roots(bad)


@pytest.mark.parametrize("digit", [1.0, True, np.int64(1)], ids=["float", "bool", "numpy"])
def test_equal_roots_of_other_digit_types_refused_cold_and_warm(digit):
    # ((0,), (0,), (1,), (digit,)) equals and hashes as a lattice root, so a
    # memo keyed on it would answer for it once the lattice root is in
    t0 = ((0,), (0,), (1,), (1,))
    bad = ((0,), (0,), (1,), (digit,))
    assert bad == t0 and hash(bad) == hash(t0)
    for fn in (is_sticky_admissible, prob_exact, prob_closed_form):
        pruned = tiny_instance()
        for warm in (False, True):
            if warm:
                assert prob_exact(pruned, [(t0, 1)]) == F(1, 4)
            with pytest.raises(InvalidInput, match="lattice"):
                fn(pruned, [(bad, 1)])
            with pytest.raises(InvalidInput, match="lattice"):
                reference_cubes(pruned, bad, 1)


def test_an_equal_distinct_lattice_root_is_accepted_warm(inst):
    t0 = ((0,), (0,), (1,), (1,))
    got = reference_cubes(inst, t0, 1)
    twin = tuple(list(t0))
    assert twin == t0 and twin is not t0
    assert reference_cubes(inst, twin, 1) is got
    assert prob_exact(inst, [(twin, 1)]) == F(1, 4)
    assert prob_closed_form(inst, [(twin, 1), (t0, 1)]) == F(1, 4)
    assert is_sticky_admissible(inst, [(twin, 1)])[0]
