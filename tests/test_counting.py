import random
from fractions import Fraction as F
from itertools import product

import pytest

from helpers import all_roots_1d
from kakeyalab.counting import (
    all_root_cubes,
    bruteforce_E4,
    enumerate_E2,
    enumerate_E2_bruteforce,
    enumerate_E3,
    enumerate_E4,
    slope_complexity,
    summation_diagnostics,
)
from kakeyalab.errors import InvalidInput, SizeCapExceeded
from kakeyalab.madic import cantor_tree, full_tree, youngest_common_ancestor
from kakeyalab.pruning import prune
from kakeyalab.sticky import classify_roots
from kakeyalab.tubes import SlabWindow, intersects, make_tube


@pytest.fixture(scope="module")
def inst3():
    return prune(cantor_tree(25), N=2, C0=1)  # M=3, J=4, 81 roots


@pytest.fixture(scope="module")
def inst2():
    return prune(full_tree(12, 2), N=2, C0=1)  # M=2, J=4, 16 roots


def test_root_cap():
    p = prune(cantor_tree(25), N=5, C0=1)
    with pytest.raises(SizeCapExceeded):
        all_root_cubes(p)


def test_e2_restricted_equals_bruteforce(inst3):
    # the lattice scan equals the Fraction oracle in content and order
    roots = all_root_cubes(inst3)
    branches = {}
    for t in roots:
        branches.setdefault(t[:2], []).append(t)
    rng = random.Random(5)  # 5 roots per height-2 branch, as in the benchmark
    subset = sorted(t for b in branches.values() for t in rng.sample(b, 5))
    d2 = prune(cantor_tree(30, d=2), N=2, C0=1)
    d2_roots = sorted(random.Random(1).sample(all_root_cubes(d2), 40))
    cases = {  # name: (instance, anchors u, rhos, A0, roots, expect hits)
        "u up to height 1": (inst3, sorted({r[:h] for r in roots for h in (0, 1)}),
                             [F(1, 3)], 10, roots, True),
        "u at height 2": (inst3, sorted(branches), [F(1, 3), F(1, 81)], 10,
                          subset, True),
        "window cut by 10 A0": (inst3, [()], [F(6)], 1, subset, True),
        "window beyond 10 A0": (inst3, [()], [F(10)], 1, subset, False),
        "rho over 3^30": (inst3, [()], [F(3 ** 29 + 1, 3 ** 30)], 10, subset, True),
        "d = 2": (d2, [()], [F(3), F(1), F(1, 3), F(1, 9)], 10, d2_roots, True),
    }
    for name, (p, us, rhos, A0, rts, hits) in cases.items():
        total = 0
        for u in us:
            for w in p.gamma:
                for rho in rhos:
                    a = enumerate_E2(p, u, w, rho, A0=A0, roots=rts)
                    b = enumerate_E2_bruteforce(p, u, w, rho, A0=A0, roots=rts)
                    assert a == b, (name, u, w, rho)
                    total += len(a)
        assert (total > 0) == hits, name


def test_tangent_pairs_are_not_hits(inst3):
    # window ends are closed and coordinate bounds open: a pair whose
    # overlap interval (r1, r2) ends exactly at lo or at hi does not meet
    g1 = inst3.psi(())
    for (t1, c1), (t2, c2) in enumerate_E2(inst3, (), g1, F(1, 3)):
        a, b = make_tube(inst3, t1, c1), make_tube(inst3, t2, c2)
        dc, dw = a.center()[0] - b.center()[0], a.slope[0] - b.slope[0]
        r1, r2 = sorted(((-a.side - dc) / dw, (a.side - dc) / dw))
        if r1 > 0:
            break
    else:
        pytest.fail("no hit whose overlap interval starts above 0")
    eps = F(1, 10 ** 9)
    for rho, hit in ((r2, False), (r2 - eps, True),
                     (r1 / 2, False), (r1 / 2 + eps, True)):
        assert intersects(a, b, SlabWindow(rho)) == hit
        got = enumerate_E2(inst3, (), g1, rho, roots=[t1, t2])
        assert (((t1, c1), (t2, c2)) in got) == hit, rho


def test_e2_trivial_scale_empty(inst3):
    g1 = inst3.psi(())
    assert enumerate_E2(inst3, (), g1, F(1, 3 ** (inst3.J + 4))) == []


def test_e2_anchor_must_be_splitting(inst3):
    with pytest.raises(InvalidInput):
        enumerate_E2(inst3, (), inst3.slope_leaf(0), F(1, 3))


def test_e2_membership_structure(inst3):
    g1 = inst3.psi(())
    pairs = enumerate_E2(inst3, (), g1, F(1, 3))
    for (t1, c1), (t2, c2) in pairs:
        assert youngest_common_ancestor(t1, t2) == ()
        assert youngest_common_ancestor(
            inst3.slope_leaf(c1), inst3.slope_leaf(c2)) == g1


def test_per_slice_count_bound(inst3):
    # slice count for fixed (t1, v1, v2) is at most C2 rho rho_w M^J
    g1 = inst3.psi(())
    rho = F(1, 3)
    pairs = enumerate_E2(inst3, (), g1, rho)
    from collections import Counter
    from kakeyalab.pruning import slope_metrics
    slices = Counter((t1, c1, c2) for (t1, c1), (t2, c2) in pairs)
    rho_w = float(slope_metrics(inst3, g1).rho)
    cap = float(rho) * rho_w * inst3.M ** inst3.J
    worst = max(v / cap for v in slices.values())
    assert worst <= 8  # fitted C2 recorded; generous but finite


def test_slope_complexity_cases(inst3):
    g1 = inst3.psi(())
    assert slope_complexity(inst3, [g1, g1, g1]) == 4 * inst3.nu(g1)
    l2 = inst3.gamma_levels[2]
    m_disjoint = slope_complexity(inst3, [g1, l2[0], l2[1]])
    assert m_disjoint == 2 * (inst3.nu(l2[0]) + inst3.nu(l2[1]))
    assert slope_complexity(inst3, [g1, l2[0]]) == 2 * inst3.nu(l2[0]) + inst3.nu(g1)
    with pytest.raises(InvalidInput):
        slope_complexity(inst3, [l2[0], l2[1]])  # disjoint pair, no m-hat


def test_slope_tuple_count_bounds():
    p = prune(cantor_tree(25), N=4, C0=1)
    codes = range(2 ** p.N)

    def D(c1, c2):
        return youngest_common_ancestor(p.slope_leaf(c1), p.slope_leaf(c2))

    quad = {}
    for ws in product(codes, repeat=4):
        key = (D(ws[0], ws[1]), D(ws[2], ws[3]), D(ws[0], ws[2]))
        quad[key] = quad.get(key, 0) + 1
    for (k1, k2, k3), cnt in quad.items():
        if not all(k in p.gamma for k in (k1, k2, k3)):
            continue
        try:
            m = slope_complexity(p, [k1, k2, k3])
        except InvalidInput:
            continue
        assert cnt <= 4 * 2 ** (4 * p.N - m)

    triple = {}
    for ws in product(codes, repeat=3):
        key = (D(ws[0], ws[1]), D(ws[1], ws[2]))
        triple[key] = triple.get(key, 0) + 1
    for (k1, k2), cnt in triple.items():
        if not all(k in p.gamma for k in (k1, k2)):
            continue
        a, b = sorted((k1, k2), key=len)
        if b[: len(a)] != a:
            continue
        mh = slope_complexity(p, [k1, k2])
        # ordered-tuple counting doubles the stated bound, exactly
        assert cnt <= 2 * 2 ** (3 * p.N - mh)


def test_e4_matches_bruteforce_and_containment(inst2):
    # the quartic scan is confined to a root subset; the lattice
    # enumerator runs on the same subset so the comparison stays exact
    roots = all_root_cubes(inst2)[:12]
    g1 = inst2.psi(())
    l2 = inst2.gamma_levels[2]
    rho = F(1, 4)
    found_any = False
    for ctype in (1, 2, 3):
        for u, u2 in (((), ()), ((), ((0,),))):
            if len(u2) < len(u):
                continue
            for w, w2 in ((g1, g1), (g1, l2[0])):
                anchors = {"u": u, "u2": u2, "w": w, "w2": w2}
                try:
                    got = enumerate_E4(inst2, ctype, anchors, rho, roots=roots)
                except InvalidInput:
                    continue
                bf = bruteforce_E4(inst2, ctype, anchors, rho, roots=roots)
                assert {r.pairs for r in got} == {r.pairs for r in bf}
                if got:
                    found_any = True
                    e2a = enumerate_E2(inst2, u, w, rho, roots=roots)
                    e2b = enumerate_E2(inst2, u2, w2, rho, roots=roots)
                    for rec in got:
                        assert tuple(rec.pairs[:2]) in {tuple(x) for x in e2a}
                        assert tuple(rec.pairs[2:]) in {tuple(x) for x in e2b}
    assert found_any


def test_e3_join_structure(inst3):
    g1 = inst3.psi(())
    anchors = {"u": (), "u2": (), "w": g1, "w2": g1}
    got = enumerate_E3(inst3, 1, anchors, F(1, 3))
    for rec in got:
        (t1, c1), (t2, c2), (t2p, c2p) = rec.pairs
        assert len({t1, t2, t2p}) == 3
        cfg = classify_roots((t1, t2, t2p))
        assert cfg.ctype == 1 and not cfg.swapped


def test_summation_diagnostics(inst3):
    rows = summation_diagnostics(inst3)
    labels = {r.label for r in rows}
    assert any("alpha=1" in l for l in labels)
    exact = [r for r in rows if r.exact_assert]
    assert exact and all(r.ratio <= 1 + 1e-12 for r in exact)
    for r in rows:
        assert r.lhs >= 0 and r.ratio >= 0


def test_summation_ratios_stable_across_n():
    # ratios of each diagnostic to its bound-shape stay within a 4x band
    # across N, for a fixed generator family
    ratios = {}
    for n in (2, 3, 4):
        p = prune(cantor_tree(25), N=n, C0=1)
        for row in summation_diagnostics(p):
            ratios.setdefault(row.label, []).append(row.ratio)
    for label, vals in ratios.items():
        vals = [v for v in vals if v > 0]
        assert max(vals) <= 4 * min(vals) + 1e-9, label


def test_summation_d2_windowed_cases():
    # a small 2-d product-Cantor instance exercises the windowed sums
    p = prune(cantor_tree(30, d=2), N=2, C0=1)
    rows = summation_diagnostics(p)
    labels = {r.label for r in rows}
    assert "windowed root-sum s+" in labels and "windowed root-sum s-" in labels


def test_diagnostics_csv(tmp_path, inst3):
    from kakeyalab.counting import diagnostics_to_csv
    rows = summation_diagnostics(inst3)
    path = diagnostics_to_csv(rows, tmp_path / "sums.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "anchor,count,bound,ratio"
    assert len(lines) == len(rows) + 1


def test_single_slope_degenerate_sums():
    # N=1: one splitting vertex; every slope sum has a single term
    p = prune(cantor_tree(25), N=1, C0=1)
    rows = summation_diagnostics(p)
    head = [r for r in rows if r.label.startswith("slope-sum alpha")]
    assert head and all(abs(r.lhs - r.rhs_shape) < 1e-9 or r.lhs <= r.rhs_shape
                        for r in head)
