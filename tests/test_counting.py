import copy
import operator
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction, Fraction as F
from functools import partial
from itertools import product

import numpy as np
import pytest

from helpers import mu
from kakeyalab import counting, sticky
from kakeyalab.counting import (
    all_root_cubes,
    bruteforce_E4,
    enumerate_E2,
    enumerate_E2_bruteforce,
    enumerate_E3,
    enumerate_E4,
    slope_complexity,
)
from kakeyalab.errors import InvalidInput, SizeCapExceeded
from kakeyalab.madic import (
    DigitRuleTree,
    cantor_tree,
    cube_index,
    full_tree,
    youngest_common_ancestor,
)
from kakeyalab.pruning import PrunedSlopeTree, prune
from kakeyalab.sticky import classify_roots, is_sticky_admissible, prob_exact
from kakeyalab.tubes import (
    SlabWindow,
    assert_pair_inequalities,
    clip_x1,
    intersects,
    make_tube,
)


@pytest.fixture(scope="module")
def inst3():
    return prune(cantor_tree(25), N=2, C0=1)  # M=3, J=4, 81 roots


@pytest.fixture(scope="module")
def inst2():
    return prune(full_tree(12, 2), N=2, C0=1)  # M=2, J=4, 16 roots


@pytest.fixture(scope="module")
def inst4():
    return prune(full_tree(12, M=4), N=2, C0=1)  # M=4, J=2, 16 roots


@pytest.fixture(scope="module")
def far():
    # M=3, J=8: slopes 8/6561 apart can meet up to x1 of about 820, past
    # the end x1 = 10 A0 = 100 of every tube; inst3's, 8/81 apart, stop near 10
    return prune(cantor_tree(25), N=4, C0=1)


@pytest.fixture(scope="module")
def far_roots(far):
    # 8 seeded roots; under u = () their pairs meet in [6, 12] and [60, 100],
    # and would meet in (100, 120] and [100, 200] were the tubes longer
    return sorted(random.Random(11).sample(all_root_cubes(far), 8))


def test_root_cap():
    p = prune(cantor_tree(25), N=5, C0=1)
    with pytest.raises(SizeCapExceeded):
        all_root_cubes(p)


def test_e2_restricted_equals_bruteforce(inst3, far, far_roots):
    # the lattice scan equals the Fraction oracle in content and order
    roots = all_root_cubes(inst3)
    branches = {}
    for t in roots:
        branches.setdefault(t[:2], []).append(t)
    rng = random.Random(5)  # 5 roots per height-2 branch, as in the benchmark
    subset = sorted(t for b in branches.values() for t in rng.sample(b, 5))
    d2 = prune(cantor_tree(30, d=2), N=2, C0=1)
    d2_roots = sorted(random.Random(1).sample(all_root_cubes(d2), 40))
    # every slope is (sigma, 0), so axis 1 of each slope pair is still; J = 8
    # gives 3^16 roots, so take 40 seeded ones under one height-5 cube
    still = prune(DigitRuleTree(lambda a: ((0, 0), (2, 0)), 3, 2, 30,
                                split_fn=lambda a: 30 - len(a)), N=2, C0=1)
    rng = random.Random(0)
    digits = list(product(range(3), repeat=2))
    top = tuple(rng.choice(digits) for _ in range(5))
    still_roots = sorted(top + tail for tail in
                         rng.sample(list(product(digits, repeat=still.J - 5)), 40))
    cases = {  # name: (instance, anchors u, rhos, roots, expect hits)
        "u up to height 1": (inst3, sorted({r[:h] for r in roots for h in (0, 1)}),
                             [F(1, 3)], roots, True),
        "u at height 2": (inst3, sorted(branches), [F(1, 3), F(1, 81)], subset, True),
        # far's pairs meet in (100, 120] and in [100, 200] were the tubes
        # longer, so a scan that kept the whole window would find them
        "window cut by 10 A0": (far, [()], [F(60)], far_roots, True),
        "window beyond 10 A0": (far, [()], [F(100)], far_roots, False),
        "rho over 3^30": (inst3, [()], [F(3 ** 29 + 1, 3 ** 30)], subset, True),
        "d = 2": (d2, [()], [F(3), F(1), F(1, 3), F(1, 9)], d2_roots, True),
        "still axis": (still, sorted({t[:h] for t in still_roots for h in (5, 6)}),
                       [F(9), F(3), F(1), F(1, 3), F(1, 9)], still_roots, True),
    }
    for name, (p, us, rhos, rts, hits) in cases.items():
        total = 0
        for u in us:
            for w in p.gamma:
                for rho in rhos:
                    a = enumerate_E2(p, u, w, rho, roots=rts)
                    b = enumerate_E2_bruteforce(p, u, w, rho, roots=rts)
                    assert a == b, (name, u, w, rho)
                    total += len(a)
        assert (total > 0) == hits, name


def _benchmark_subset(roots, seed=5):
    """5 roots per height-2 branch, as in the benchmark."""
    branches = {}
    for t in roots:
        branches.setdefault(t[:2], []).append(t)
    rng = random.Random(seed)
    return sorted(t for b in branches.values() for t in rng.sample(b, 5))


def _geometric_hits(pruned, u, w, rho, roots):
    """(centre offset, c1, c2) -> (centre offset, slope difference) of every
    geometric hit of the E2 scan under u and w, sticky or not, by the
    Fraction test."""
    under, h, hits = [t for t in roots if t[:len(u)] == u], len(u), {}
    for t1, t2 in product(under, repeat=2):
        for c1, c2 in product(range(len(pruned.slopes)), repeat=2):
            if t1[h] == t2[h] or pruned.slope_yca(c1, c2) != w:
                continue
            a, b = make_tube(pruned, t1, c1), make_tube(pruned, t2, c2)
            if intersects(a, b, SlabWindow(rho)):
                dc = tuple(x - y for x, y in zip(a.center, b.center))
                hits[dc, c1, c2] = dc, tuple(x - y for x, y in zip(a.slope, b.slope))
    return hits


def _record_configurations(monkeypatch, seen):
    """Patch the configuration check with one that records (dc, dw)."""
    monkeypatch.setattr(counting, "_assert_configuration",
                        lambda pruned, delta, moving, b, *window: seen.append(
                            (tuple(F(x, pruned.M ** pruned.J) for x in delta),
                             tuple(F(y, pruned.D) for y in b))))


def _raise_centre(*args):
    raise AssertionError("centre inequality fails on an intersecting pair")


def test_e2_asserts_each_geometric_configuration_once(inst3, monkeypatch):
    # at rho = 1/27 no pair under this height-2 anchor is sticky, but the
    # scan still asserts the inequalities of every geometric hit (at 1/3
    # the anchor has no geometric hit at all); cold plans, since a plan
    # keeps the verdicts of the configurations it has checked
    g1, u, rho = inst3.psi(()), ((1,), (0,)), F(1, 27)
    roots = _benchmark_subset(all_root_cubes(inst3))
    counting._plan.cache_clear()
    seen = []
    _record_configurations(monkeypatch, seen)
    assert enumerate_E2(inst3, u, g1, rho, roots=roots) == []
    hits = _geometric_hits(inst3, u, g1, rho, roots)
    assert hits and len(seen) == len(hits) and set(seen) == set(hits.values())

    counting._plan.cache_clear()
    monkeypatch.setattr(counting, "_assert_configuration", _raise_centre)
    with pytest.raises(AssertionError, match="centre inequality"):
        enumerate_E2(inst3, u, g1, rho, roots=roots)


def test_e2_warm_plan_keeps_configuration_verdicts(inst3, monkeypatch):
    # the plan of (instance, w, rho) keeps the verdict of every
    # configuration it has checked: a repeat call checks none, a failing
    # check is stored as no verdict and raises again, and a cleared cache
    # checks every hit again
    g1, u, rho = inst3.psi(()), ((1,), (0,)), F(1, 27)
    roots = _benchmark_subset(all_root_cubes(inst3))
    want = enumerate_E2(inst3, u, g1, rho, roots=roots)
    hits = _geometric_hits(inst3, u, g1, rho, roots)
    seen = []
    _record_configurations(monkeypatch, seen)
    warm = counting._plan.cache_info().hits
    assert enumerate_E2(inst3, u, g1, rho, roots=roots) == want
    assert counting._plan.cache_info().hits == warm + 1
    assert hits and seen == []

    counting._plan.cache_clear()
    assert enumerate_E2(inst3, u, g1, rho, roots=roots) == want
    assert len(seen) == len(hits) and set(seen) == set(hits.values())

    # the recorder stored verdicts it never checked, so start cold again
    counting._plan.cache_clear()
    monkeypatch.setattr(counting, "_assert_configuration", _raise_centre)
    for _ in range(2):
        with pytest.raises(AssertionError, match="centre inequality"):
            enumerate_E2(inst3, u, g1, rho, roots=roots)


_SCAN_RHOS = [F(1, 3), F(1, 9), F(1, 27), F(1, 81)]


def _tuple_scan_calls(pruned):
    """The benchmark's sweep: every anchor u up to height 2, every w and
    rho 1/3 to 1/81, each call on its own subset of 5 roots per branch."""
    roots = all_root_cubes(pruned)
    anchors = sorted({t[:h] for t in roots for h in (0, 1, 2)})
    return [(u, w, rho, _benchmark_subset(roots, seed)) for seed, (u, w, rho)
            in enumerate(product(anchors, sorted(pruned.gamma), _SCAN_RHOS))]


def _plans(pruned, rhos):
    """The cached plans of every w and rho, in that order, None dropped."""
    return [plan for w, rho in product(sorted(pruned.gamma), rhos) if (plan := counting._plan(
        pruned, w, rho.numerator, rho.denominator)) is not None]


def _plan_arrays(plan):
    """Every array of a plan: its box ends, scan offsets and tables."""
    return [plan.lo, plan.hi, plan.low, plan.reach, plan.start, plan.span,
            *(table for _, table in plan.tables)]


def _plan_bytes(plan):
    return plan.pairs, [q for q, _ in plan.tables], [a.tobytes() for a in _plan_arrays(plan)]


def _plan_hits(plan):
    """(offset, box index) of every hit of a plan: each offset other than
    0 in a box, where the box's table, if it has one, says hit."""
    tables = dict(plan.tables)
    hits = []
    for q, (lo, hi) in enumerate(zip(plan.lo.tolist(), plan.hi.tolist())):
        for delta in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            at = tuple(x - a for x, a in zip(delta, lo))
            if any(delta) and (q not in tables or tables[q][at]):
                hits.append((delta, q))
    return hits


def _count_configuration_checks(monkeypatch):
    """Record the arguments of every configuration check, which still runs."""
    check, checked = counting._assert_configuration, []
    monkeypatch.setattr(counting, "_assert_configuration",
                        lambda *args: checked.append(args) or check(*args))
    return checked


def test_e2_plans_check_each_configuration_once(inst3, monkeypatch):
    # the benchmark's sweep from cold plans asserts exactly the hits of
    # their verdict tables, once each: (offset, slope difference, window)
    # per hit, as often as the tables hold it; the same sweep again
    # asserts none
    calls = _tuple_scan_calls(inst3)
    checked = _count_configuration_checks(monkeypatch)
    counting._plan.cache_clear()
    want = [enumerate_E2(inst3, *call) for call in calls]
    expect = Counter()
    for rho in _SCAN_RHOS:
        lo, hi = clip_x1(*SlabWindow(rho), 10)
        for plan in _plans(inst3, [rho]):
            for delta, q in _plan_hits(plan):
                c1, c2 = plan.pairs[q]
                b = tuple(x - y for x, y in zip(inst3.sigma[c1], inst3.sigma[c2]))
                expect[delta, b, lo, hi] += 1
    assert any(want) and expect
    assert Counter((args[1], args[3], args[4], args[5]) for args in checked) == expect
    checked.clear()
    assert [enumerate_E2(inst3, *call) for call in calls] == want
    assert checked == []


def test_e2_plans_are_complete_and_read_only(inst3, monkeypatch):
    # every verdict is decided when a plan is built: the cold pass of the
    # benchmark's sweep checks one configuration per hit of the frozen
    # tables, and a warm pass checks none and reads the same plans, byte
    # for byte; no root pair has offset 0, so its row holds no hit
    calls = _tuple_scan_calls(inst3)
    checked = _count_configuration_checks(monkeypatch)
    counting._plan.cache_clear()
    for call in calls:
        enumerate_E2(inst3, *call)
    plans = _plans(inst3, _SCAN_RHOS)
    cold = [_plan_bytes(plan) for plan in plans]
    assert 0 < len(checked) == sum(len(_plan_hits(plan)) for plan in plans)
    checked.clear()
    for call in calls:
        enumerate_E2(inst3, *call)
    assert checked == [] and all(map(operator.is_, _plans(inst3, _SCAN_RHOS), plans))
    assert [_plan_bytes(plan) for plan in plans] == cold
    # every plan holds a hit; a d = 1 plan holds no table, its boxes
    # being all hits, and (c2, c1) mirrors the box of (c1, c2)
    for plan in plans:
        assert plan.tables == () and len(plan.pairs) == len(plan.lo) == len(plan.hi)
        assert not any(a.flags.writeable for a in _plan_arrays(plan))
        mirror = {pair: q for q, pair in enumerate(plan.pairs)}
        for q, (c1, c2) in enumerate(plan.pairs):
            assert (plan.lo[mirror[c2, c1]] == -plan.hi[q]).all()


def test_e2_refuses_off_lattice_roots():
    # a digit past M - 1, a negative digit, a height-3 cube and the float
    # twin of a lattice root, the oracle's refusals: first on an empty root
    # table, with the bad root read first, then on a table that holds
    # every lattice root, read last; the table never gains an entry
    pruned = prune(cantor_tree(25), N=2, C0=1)
    roots = all_root_cubes(pruned)
    bad = [((0,), (0,), (0,), (5,)), ((2,), (0,), (0,), (-1,)),
           ((2,), (2,), (2,)), ((2,), (2,), (2,), (1.0,))]
    calls = list(product(sorted(pruned.gamma), (F(1, 3), F(1, 9))))
    for t in bad:
        for w, rho in calls:
            with pytest.raises(InvalidInput, match="height-4 cube of the base-3"):
                enumerate_E2(pruned, (), w, rho, roots=[t] + roots)
    assert pruned.roots == {}
    for w, rho in calls:
        enumerate_E2(pruned, (), w, rho, roots=roots)
    table = dict(pruned.roots)
    assert len(table) == len(roots)
    for t in bad:
        for w, rho in calls:
            with pytest.raises(InvalidInput, match="height-4 cube of the base-3"):
                enumerate_E2(pruned, (), w, rho, roots=roots + [t])
    assert pruned.roots == table
    assert all(checked is t for t, (checked, _, _) in table.items())


def _count_root_checks(monkeypatch):
    """Count the calls of ``sticky._check_root``, which ``sticky._root``
    makes for every root it checks."""
    calls = []
    check = sticky._check_root
    monkeypatch.setattr(sticky, "_check_root",
                        lambda pruned, t: (calls.append(t), check(pruned, t)))
    return calls


def test_e2_refuses_a_list_root():
    # the list form of root 1 is refused by name, not read as its tuple:
    # by E2 and both oracles, on an empty root table and on one that holds
    # the tuple form, and the table gains no entry
    pruned = prune(cantor_tree(25), N=2, C0=1)
    roots = all_root_cubes(pruned)
    w = pruned.psi(())
    anchors = {"u": (), "u2": (), "w": w, "w2": w}
    lists = [list(roots[1])] + roots[::3]
    calls = (partial(enumerate_E2, pruned, (), w),
             partial(enumerate_E2_bruteforce, pruned, (), w),
             partial(bruteforce_E4, pruned, 1, anchors))
    for warm in (False, True):
        if warm:
            tuples = [roots[1]] + roots[::3]
            assert len(enumerate_E2(pruned, (), w, F(1, 3), roots=tuples)) == 1060
        table = dict(pruned.roots)
        for call in calls:
            with pytest.raises(InvalidInput, match="height-4 cube of the base-3"):
                call(F(1, 3), roots=lists)
            assert pruned.roots == table
    assert len(table) == 1 + len(roots[::3])


_G2 = ((0,), (0,))  # a level-2 splitting vertex of prune(cantor_tree(25), 2, 1)


@pytest.mark.parametrize("key, bad", [
    ("u", []), ("u", ((5,),)), ("u", ((0,),) * 5), ("u", ((1.0,),)), ("u", [(0,)]),
    ("w", []), ("w", list(_G2)), ("w", ([0], [0])), ("w", ((0,),)), ("w", ((0,), (0,), (0,))),
], ids=["u_empty_list", "u_off_lattice", "u_too_deep", "u_float_digit", "u_list",
        "w_empty_list", "w_list", "w_list_digits", "w_not_splitting", "w_below_vertex"])
def test_bad_anchors_refused_by_every_entry_point(inst3, key, bad):
    # refused by name before any early return: on the E2 scans and oracle,
    # in every position of every join type and of the E4 oracle, and, for a
    # slope vertex, by slope_complexity
    g1 = inst3.psi(())
    assert g1 == () and _G2 in inst3.gamma
    roots, rho = all_root_cubes(inst3)[:4], F(1, 3)
    good = {"u": (), "u2": ((0,),), "w": g1, "w2": _G2}
    calls = []
    for fn in (enumerate_E2, enumerate_E2_bruteforce):
        calls.append(partial(fn, inst3, bad, g1) if key == "u" else partial(fn, inst3, (), bad))
    for k in (key, key + "2"):
        anchors = {**good, k: bad}
        calls += [partial(enumerate_E3, inst3, ctype, anchors) for ctype in (1, 2)]
        calls += [partial(fn, inst3, ctype, anchors)
                  for fn in (enumerate_E4, bruteforce_E4) for ctype in (1, 2, 3)]
    match = "anchor .* of the base-3 lattice" if key == "u" else "lattice|splitting vertex"
    for call in calls:
        with pytest.raises(InvalidInput, match=match):
            call(rho, roots=roots)
    if key == "w":
        for verts in ([g1, bad], (g1, _G2, bad)):
            with pytest.raises(InvalidInput, match=match):
                slope_complexity(inst3, verts)


def test_e2_refuses_unhashable_roots():
    # a tuple root with a list digit cannot be hashed; it is refused by
    # name, cold and once its lattice twin is in the root table
    pruned = prune(cantor_tree(25), N=2, C0=1)
    roots = all_root_cubes(pruned)
    bad = ((0,), (0,), (0,), [1])
    for _ in range(2):
        with pytest.raises(InvalidInput, match="height-4 cube of the base-3"):
            enumerate_E2(pruned, (), pruned.psi(()), F(1, 3), roots=roots + [bad])
        with pytest.raises(InvalidInput, match="height-4 cube of the base-3"):
            is_sticky_admissible(pruned, [(bad, 0)])
        assert len(pruned.roots) == len(roots)


def test_calls_that_cannot_return_a_record_read_no_root(inst3, monkeypatch):
    # with an off-lattice root last, a call whose plan holds no hit (an
    # empty hull at 1/27, no plan at 1/81) or whose pairs cannot be sticky
    # (lambda(w) = 2 <= h(u)) returns [] without checking a root; a call
    # that can hit still refuses the bad root
    roots = all_root_cubes(inst3) + [((0,), (0,), (0,), (5,))]
    table = dict(inst3.roots)
    calls = _count_root_checks(monkeypatch)
    g1, u2 = inst3.psi(()), ((1,), (0,))
    assert inst3.gamma[g1].lam == len(u2) == 2
    for u, w, rho in (((), _G2, F(1, 27)), ((), _G2, F(1, 81)), (u2, g1, F(1, 3))):
        assert enumerate_E2(inst3, u, w, rho, roots=roots) == []
    assert calls == [] and inst3.roots == table
    with pytest.raises(InvalidInput, match="height-4 cube of the base-3"):
        enumerate_E2(inst3, (), g1, F(1, 3), roots=roots)
    # the sweep's plans: None exactly at level 2 for 1/27 and 1/81
    for w, rho in product(sorted(inst3.gamma), _SCAN_RHOS):
        plan = counting._plan(inst3, w, rho.numerator, rho.denominator)
        none = w in inst3.gamma_levels[2] and rho <= F(1, 27)
        assert (plan is None) == none and (none or _plan_hits(plan)), (w, rho)


def test_default_roots_are_built_once(monkeypatch):
    pruned = prune(cantor_tree(25), N=2, C0=1)
    calls = _count_root_checks(monkeypatch)
    w = pruned.psi(())
    first = enumerate_E2(pruned, (), w, F(1, 9))
    assert first and len(calls) == 3 ** 4
    assert enumerate_E2(pruned, (), w, F(1, 9)) == first
    assert len(calls) == 3 ** 4
    # a new list of the same tuples each call, so callers may extend it
    a, b = all_root_cubes(pruned), all_root_cubes(pruned)
    assert a == b and a is not b and all(map(operator.is_, a, b))


def test_probabilities_and_e2_share_one_root_table(monkeypatch):
    # on the benchmark instance, the roots that prob_exact checked are the
    # entries E2 reads: it checks none again and adds no entry
    pruned = prune(cantor_tree(25), N=2, C0=1)
    roots = _benchmark_subset(all_root_cubes(pruned))
    for t in roots:
        prob_exact(pruned, [(t, 0)])
    table = dict(pruned.roots)
    assert len(table) == len(roots)
    calls = _count_root_checks(monkeypatch)
    for w in sorted(pruned.gamma):
        enumerate_E2(pruned, (), w, F(1, 3), roots=roots)
    assert calls == []
    assert pruned.roots == table


def test_e2_plan_is_keyed_on_window(far, far_roots, monkeypatch):
    # windows whose rhos share a numerator or a denominator, one cut by the
    # tubes' end at x1 = 100 to [60, 100] and one beyond it, visited in turn
    # for every w and then in the opposite order: a plan read under another
    # window's key, or one that kept the whole window, would change the
    # pairs or the window that their configurations are checked in
    rhos = [6, 60, 100, F(1, 27), F(1, 81)]
    check, checked = counting._assert_configuration, set()
    monkeypatch.setattr(counting, "_assert_configuration",
                        lambda *args: checked.add(args[4:6]) or check(*args))
    counting._plan.cache_clear()
    want = {(w, rho): enumerate_E2_bruteforce(far, (), w, rho, roots=far_roots)
            for w in far.gamma for rho in rhos}
    assert any(want.values())
    seen_windows = set()
    for order in (rhos, rhos[::-1]):
        for w in sorted(far.gamma):
            for rho in order:
                checked.clear()
                assert enumerate_E2(far, (), w, rho, far_roots) == want[w, rho]
                assert checked <= {clip_x1(*SlabWindow(F(rho)), 10)}, (w, rho)
                seen_windows |= checked
    assert {(6, 12), (60, 100)} <= seen_windows
    for w in far.gamma:
        assert enumerate_E2(far, (), w, 6, roots=far_roots) == \
            enumerate_E2(far, (), w, F(6), roots=far_roots)


def _fraction_configuration(pruned, delta, moving, b, lo, hi, S, E):
    """Reference of ``counting._assert_configuration``: the overlap interval
    in Fractions, checked by ``tubes.assert_pair_inequalities``."""
    K, D = pruned.M ** pruned.J, pruned.D
    # the overlap interval of this axis, x = sgn delta:
    # r1 = D (-S - E x) / (E K B) and r2 = D (S - E x) / (E K B)
    lows, highs = [lo], [hi]
    for i, sgn, B in moving:
        x = sgn * delta[i]
        lows.append(F(D * (-S - E * x), E * K * B))
        highs.append(F(D * (S - E * x), E * K * B))
    dc, dw = tuple(F(x, K) for x in delta), tuple(F(y, D) for y in b)
    assert_pair_inequalities(dc, dw, (max(lows), min(highs)), pruned.M, pruned.J)


def _outcome(check, *args):
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def test_integer_configuration_check_matches_fraction_reference(inst3, monkeypatch):
    # every configuration the scan asserts whose offset its own root pairs
    # realize, then each root offset moved by up to 9 per axis, the
    # window's lower end rescaled and, in d = 1, windows that put the
    # midpoint exactly on either bound, so that both inequalities fail
    # somewhere and hold with equality somewhere; the two checks raise alike
    d2 = prune(cantor_tree(30, d=2), N=2, C0=1)
    d2_roots = sorted(random.Random(1).sample(all_root_cubes(d2), 40))
    scans = [(inst3, [(), ((0,),), ((1,),)], [F(1, 3), F(1, 9), F(1, 27), F(1, 81)], None),
             (d2, [()], [F(3), F(1), F(1, 3), F(1, 9)], d2_roots)]
    check, outcomes = counting._assert_configuration, set()
    counting._plan.cache_clear()  # warm plans check no configuration
    for pruned, us, rhos, roots in scans:
        configs = set()
        monkeypatch.setattr(counting, "_assert_configuration",
                            lambda *args: configs.add(args[1:]) or check(*args))
        for u, w, rho in product(us, sorted(pruned.gamma), rhos):
            enumerate_E2(pruned, u, w, rho, roots=roots)
        index = {t: cube_index(t, pruned.M, pruned.d) for t in roots or all_root_cubes(pruned)}
        realized = {tuple(x - y for x, y in zip(index[t1], index[t2]))
                    for t1, t2 in product(index, repeat=2) for u in us
                    if t1[:len(u)] == u == t2[:len(u)] and t1[len(u)] != t2[len(u)]}
        configs = [config for config in configs if config[0] in realized]
        assert configs
        for delta, moving, b, lo, hi, S, E in configs:
            windows = [(lo * scale, hi) for scale in (1, F(1, 9), 3, 27)]
            if pruned.d == 1:  # windows whose midpoint x1 lies on each bound
                K = pruned.M ** pruned.J
                s, dc, dw = F(S, E * K), F(delta[0], K), F(b[0], pruned.D)
                r1, r2 = sorted(((-s - dc) / dw, (s - dc) / dw))
                for x1 in ((2 * s - dc) / dw, 1 / (2 * K * abs(dw))):
                    windows.append((2 * x1 - r2, r2 + 1) if 2 * x1 >= r1 + r2
                                   else (r1 - 1, 2 * x1 - r1))
            for shift in product(range(-9, 10), repeat=len(delta)):
                moved = tuple(x + y for x, y in zip(delta, shift))
                for window in windows:
                    args = pruned, moved, moving, b, *window, S, E
                    got = _outcome(check, *args)
                    assert got == _outcome(_fraction_configuration, *args), args
                    outcomes.add(got and got.split()[0])
    assert outcomes == {None, "centre", "scale"}


@pytest.mark.parametrize("block", [3, 200])
def test_e2_blocks_do_not_change_the_scan(inst3, monkeypatch, block):
    # one t1 per block, and two per block with a ragged last block
    cases = [((), w, rho) for w in sorted(inst3.gamma) for rho in (F(1, 3), F(1, 27))]
    want = [enumerate_E2(inst3, *case) for case in cases]
    monkeypatch.setattr(counting, "_PAIR_BLOCK", block)
    assert [enumerate_E2(inst3, *case) for case in cases] == want
    assert any(want)


def test_equal_anchor_joins_compute_one_pair_collection(inst3, monkeypatch):
    roots = _benchmark_subset(all_root_cubes(inst3))
    anchors = {"u": (), "u2": (), "w": inst3.psi(()), "w2": inst3.psi(())}
    rho = F(1, 81)
    e2 = counting.enumerate_E2
    calls = []

    def counted(*args):
        calls.append(args)
        return e2(*args)

    def two_calls(pruned, anchors, rho, roots):
        return (e2(pruned, anchors["u"], anchors["w"], rho, roots),
                e2(pruned, anchors["u2"], anchors["w2"], rho, roots))

    def records(join, ctype):
        return join(inst3, ctype, anchors, rho, roots=roots)

    joins = [(enumerate_E3, 2), (enumerate_E4, 3)]
    with monkeypatch.context() as m:
        m.setattr(counting, "enumerate_E2", counted)
        got = []
        for join, ctype in joins:
            calls.clear()
            got.append(records(join, ctype))
            assert len(calls) == 1
    with monkeypatch.context() as m:
        m.setattr(counting, "_joined_pairs", two_calls)
        assert got == [records(join, ctype) for join, ctype in joins]
    assert all(got)


def test_an_empty_first_collection_ends_a_join(inst3, monkeypatch):
    # E2[(), level-2 w] at 1/27 has no plan, so the type-1 E3 join never
    # reads E2[(), top vertex]; with the anchors swapped the first
    # collection holds pairs and the join reads both
    roots = _benchmark_subset(all_root_cubes(inst3))
    e2, calls = counting.enumerate_E2, []
    monkeypatch.setattr(counting, "enumerate_E2",
                        lambda *args: calls.append(args) or e2(*args))
    for w, w2, want in ((_G2, inst3.psi(()), 1), (inst3.psi(()), _G2, 2)):
        calls.clear()
        anchors = {"u": (), "u2": (), "w": w, "w2": w2}
        assert enumerate_E3(inst3, 1, anchors, F(1, 27), roots=roots) == []
        assert len(calls) == want
    assert e2(inst3, (), inst3.psi(()), F(1, 27), roots=roots)


def test_tangent_pairs_are_not_hits(inst3):
    # window ends are closed and coordinate bounds open: a pair whose
    # overlap interval (r1, r2) ends exactly at lo or at hi does not meet
    g1 = inst3.psi(())
    for (t1, c1), (t2, c2) in enumerate_E2(inst3, (), g1, F(1, 3)):
        a, b = make_tube(inst3, t1, c1), make_tube(inst3, t2, c2)
        dc, dw = a.center[0] - b.center[0], a.slope[0] - b.slope[0]
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


def test_e2_refuses_offsets_beyond_int64(inst2):
    # d M^(2J) squared offsets must fit int64: 2^62 does, and the call goes
    # on to its plan, whose table is over the cap; 2^64 does not
    fine = copy.copy(inst2)
    fine.J = 31
    with pytest.raises(SizeCapExceeded, match="exceeds the cap"):
        enumerate_E2(fine, (), inst2.psi(()), F(1, 4), roots=[])
    fine.J = 32
    with pytest.raises(InvalidInput, match="int64"):
        enumerate_E2(fine, (), inst2.psi(()), F(1, 4), roots=[])


def test_e2_refuses_a_verdict_table_beyond_the_cap(inst2):
    # at J = 31 the boxes reach about 2^31 offsets each way: the plan's
    # table would hold far more than VERDICT_CAP entries, so the plan is
    # refused before the table is built and nothing is cached; every call
    # raises, with roots or without
    big = copy.copy(inst2)
    big.J, big.roots = 31, {}  # its own root table, so inst2's keeps no J = 31 root
    w, rho = inst2.psi(()), F(1, 4)
    for roots in ([], [((0,),) * 31, ((1,),) * 31], []):
        with pytest.raises(SizeCapExceeded, match=f"exceeds the cap {counting.VERDICT_CAP}"):
            enumerate_E2(big, (), w, rho, roots=roots)


def _box_offsets(plan):
    return int((plan.hi - plan.lo + 1).prod(axis=1).sum())


def test_e2_plans_size_boxes_not_their_hull(far):
    # ACCEPT_CFG's N = 4 instance at the top vertex and rho = 1/3: the 128
    # boxes lie at |offset| >= 1,702 and hold 248,896 offsets, under
    # VERDICT_CAP, where their hull across offset 0 would hold 1,119,616
    # entries; its E2 on nine seeded roots of all three top branches equals
    # the oracle
    w, rho = far.psi(()), F(1, 3)
    plan = counting._plan(far, w, rho.numerator, rho.denominator)
    assert len(plan.pairs) == 128 and plan.tables == ()
    assert _box_offsets(plan) == 248_896
    assert (np.abs(plan.lo).min(axis=1) >= 1_702).all()
    roots = sorted(random.Random(0).sample(all_root_cubes(far), 9))
    assert {t[0] for t in roots} == {(0,), (1,), (2,)}
    got = enumerate_E2(far, (), w, rho, roots=roots)
    assert len(got) == 1_992 and got == enumerate_E2_bruteforce(far, (), w, rho, roots=roots)


def test_e2_plan_builds_at_n5():
    # the N = 5 instance at rho = 1/81: 332,256 box offsets
    pruned = prune(cantor_tree(25), N=5, C0=1)
    plan = counting._plan(pruned, pruned.psi(()), 1, 81)
    assert _box_offsets(plan) == 332_256 <= counting.VERDICT_CAP


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
    rho_w = float(slope_metrics(inst3, g1).rho_sq) ** 0.5
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
    with pytest.raises(InvalidInput):
        slope_complexity(inst3, [g1, inst3.slope_leaf(0)])  # a leaf does not split


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


@contextmanager
def _oracle_helpers_refused(monkeypatch):
    """Make ``classify_roots`` and ``is_sticky_admissible`` raise inside
    counting.  The oracles use both; the joins read the type off their
    anchors and check stickiness pair by pair with ``sticky_pair``, so a
    fault in either helper cannot show on both sides of a comparison.
    Compute the oracle results before entering."""
    def refuse(*args):
        raise AssertionError("a join called an oracle helper")

    with monkeypatch.context() as m:
        m.setattr(counting, "classify_roots", refuse)
        m.setattr(counting, "is_sticky_admissible", refuse)
        yield


def test_e4_matches_bruteforce_and_containment(inst2, monkeypatch):
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
                bf = bruteforce_E4(inst2, ctype, anchors, rho, roots=roots)
                with _oracle_helpers_refused(monkeypatch):
                    got = enumerate_E4(inst2, ctype, anchors, rho, roots=roots)
                assert set(got) == set(bf)
                if got:
                    found_any = True
                    e2a = enumerate_E2(inst2, u, w, rho, roots=roots)
                    e2b = enumerate_E2(inst2, u2, w2, rho, roots=roots)
                    for rec in got:
                        assert rec[:2] in set(e2a)
                        assert rec[2:] in set(e2b)
    assert found_any


@pytest.mark.parametrize("ctype, count", [(1, 16), (2, 0), (3, 64)])
def test_e4_equal_anchors_match_bruteforce(inst4, ctype, count, monkeypatch):
    # at M = 4 two pairs under u = u2 can take four distinct branches of u,
    # the one instance here where that type-1 case is reachable
    roots = random.Random(1).sample(all_root_cubes(inst4), 8)
    g1 = inst4.psi(())
    anchors = {"u": (), "u2": (), "w": g1, "w2": g1}
    bf = bruteforce_E4(inst4, ctype, anchors, 1, roots=roots)
    with _oracle_helpers_refused(monkeypatch):
        got = enumerate_E4(inst4, ctype, anchors, 1, roots=roots)
    assert len(got) == len(set(got)) == count
    assert set(got) == set(bf)


def test_e4_skips_candidates_the_anchors_rule_out(inst3, monkeypatch):
    roots = _benchmark_subset(all_root_cubes(inst3))
    g1, rho = inst3.psi(()), F(1, 3)
    e2, calls, classified = counting.enumerate_E2, [], []

    def counted(*args):
        calls.append(args)
        return e2(*args)

    monkeypatch.setattr(counting, "enumerate_E2", counted)
    monkeypatch.setattr(counting, "classify_roots", classified.append)
    # no pair collection when the anchors rule out the type: every candidate
    # swapped, or u2 outside u (type 1), strictly inside (2) or equal (1, 3)
    for u, u2, ctypes in ((((0,),), (), (1, 2, 3)), (((0,),), ((2,),), (2, 3)),
                          ((), ((0,),), (1, 3)), ((), (), (2,))):
        for ctype in ctypes:
            anchors = {"u": u, "u2": u2, "w": g1, "w2": g1}
            assert enumerate_E4(inst3, ctype, anchors, rho, roots=roots) == []
    assert calls == []
    # under the Cantor root every pair takes both of its two branches, so
    # no two pairs are of type 1 and no candidate is classified
    anchors = {"u": (), "u2": (), "w": g1, "w2": g1}
    assert enumerate_E4(inst3, 1, anchors, rho, roots=roots) == []
    assert len(calls) == 1 and classified == []


def _bruteforce_E3(pruned, ctype, anchors, rho, roots):
    """Oracle of ``enumerate_E3``: every root triple and code triple with
    the anchors, the configuration type, joint stickiness and both
    Fraction intersection tests."""
    win = SlabWindow(F(rho), 2)
    codes = range(2 ** pruned.N)
    tube = {(t, c): make_tube(pruned, t, c) for t in roots for c in codes}

    def D(c1, c2):
        return youngest_common_ancestor(pruned.slope_leaf(c1), pruned.slope_leaf(c2))

    out = set()
    for ta, tb, td in product(roots, repeat=3):
        if len({ta, tb, td}) != 3 or youngest_common_ancestor(ta, tb) != anchors["u"] \
                or youngest_common_ancestor(ta, td) != anchors["u2"]:
            continue
        cfg = classify_roots((ta, tb, td))
        if cfg.swapped or cfg.ctype != ctype:
            continue
        for ca, cb, cd in product(codes, repeat=3):
            if D(ca, cb) != anchors["w"] or D(ca, cd) != anchors["w2"]:
                continue
            prs = ((ta, ca), (tb, cb), (td, cd))
            if not is_sticky_admissible(pruned, prs)[0]:
                continue
            a, b, c = (tube[pr] for pr in prs)
            if not (intersects(a, b, win) and intersects(a, c, win)):
                continue
            if ctype == 2 and (anchors.get("t") not in (None, youngest_common_ancestor(tb, td))
                               or anchors.get("vtheta") not in (None, D(cb, cd))):
                continue
            out.add(prs)
    return out


def test_e3_matches_bruteforce(inst2, inst4, monkeypatch):
    g2, l2 = inst2.psi(()), inst2.gamma_levels[2]
    g4 = inst4.psi(())
    cases = [(inst2, all_root_cubes(inst2)[:12], F(1, 4),
              {"u": u, "u2": u2, "w": g2, "w2": w2, **extra})
             for u, u2 in (((), ()), ((), ((0,),)), (((0,),), ()))
             for w2 in (g2, l2[0])
             for extra in ({}, {"t": ((0,),)}, {"vtheta": g2})]
    cases.append((inst4, random.Random(1).sample(all_root_cubes(inst4), 8), F(1),
                  {"u": (), "u2": (), "w": g4, "w2": g4}))
    found = {1: 0, 2: 0}
    for pruned, roots, rho, anchors in cases:
        for ctype in (1, 2):
            bf = _bruteforce_E3(pruned, ctype, anchors, rho, roots)
            with _oracle_helpers_refused(monkeypatch):
                got = enumerate_E3(pruned, ctype, anchors, rho, roots=roots)
            assert len(got) == len(set(got))
            assert set(got) == bf, (ctype, anchors)
            found[ctype] += len(got)
    assert all(found.values())


def test_e3_skips_candidates_the_anchors_rule_out(inst3, monkeypatch):
    roots = _benchmark_subset(all_root_cubes(inst3))
    g1, calls = inst3.psi(()), []
    # no pair collection when the anchors rule out the type: every candidate
    # swapped, u2 strictly inside u (type 1 only), or u2 neither u nor
    # inside it (no type, as every triple shares t1)
    cases = [(((0,),), (), (1, 2)), ((), ((0,),), (2,)),
             (((0,),), ((2,),), (1, 2)), (((0,),), ((2,), (1,)), (1, 2))]
    for u, u2, ctypes in cases:
        for ctype in ctypes:
            anchors = {"u": u, "u2": u2, "w": g1, "w2": g1}
            assert _bruteforce_E3(inst3, ctype, anchors, F(1, 3), roots) == set()
            with monkeypatch.context() as m:
                m.setattr(counting, "enumerate_E2", lambda *args: calls.append(args) or [])
                assert enumerate_E3(inst3, ctype, anchors, F(1, 3), roots=roots) == []
    assert calls == []


def test_joins_refuse_unknown_types_and_missing_anchors(inst3):
    g1 = inst3.psi(())
    anchors = {"u": (), "u2": (), "w": g1, "w2": g1}
    for join, ctype, valid in ((enumerate_E3, 7, "1, 2"), (enumerate_E3, 3, "1, 2"),
                               (enumerate_E4, 0, "1, 2, 3"), (enumerate_E4, "1", "1, 2, 3")):
        with pytest.raises(InvalidInput, match=f"is not one of {valid}$"):
            join(inst3, ctype, anchors, F(1, 3))
    for key in anchors:
        partial = {k: v for k, v in anchors.items() if k != key}
        for join in (enumerate_E3, enumerate_E4):
            with pytest.raises(InvalidInput, match=f"anchors lack {key}$"):
                join(inst3, 1, partial, F(1, 3))


@pytest.mark.parametrize("key, bad, match", [
    ("t", [(1,), (0,)], "anchor"), ("t", ((9,),), "anchor"), ("t", ((0,),) * 5, "anchor"),
    ("vtheta", "x", "anchor"), ("vtheta", ((7,), (7,)), "anchor"),
    ("vtheta", ((1,),), "neither a splitting vertex nor a slope leaf"),
], ids=["t_list", "t_off_lattice", "t_too_deep", "vtheta_str", "vtheta_off_lattice",
        "vtheta_not_vertex_or_leaf"])
def test_e3_refuses_bad_optional_anchors(inst3, key, bad, match):
    # the type-2 anchors t and vtheta are refused by name, for both types,
    # on anchors with records and on anchors that rule every type out
    roots, rho = all_root_cubes(inst3)[::2], F(1, 27)
    anchors = {"u": (), "u2": (), "w": (), "w2": ()}
    # good forms: a lattice cube t, here keeping 4 records, and a slope leaf
    assert len(enumerate_E3(inst3, 2, {**anchors, "t": ((1,), (0,))}, rho, roots=roots)) == 4
    enumerate_E3(inst3, 2, {**anchors, "vtheta": inst3.slope_leaf(0)}, rho, roots=roots)
    for base in (anchors, {**anchors, "u": ((0,),)}):
        for ctype in (1, 2):
            with pytest.raises(InvalidInput, match=match):
                enumerate_E3(inst3, ctype, {**base, key: bad}, rho, roots=roots)


def test_e3_join_structure(inst3):
    g1 = inst3.psi(())
    anchors = {"u": (), "u2": (), "w": g1, "w2": g1}
    got = enumerate_E3(inst3, 1, anchors, F(1, 3))
    for (t1, c1), (t2, c2), (t2p, c2p) in got:
        assert len({t1, t2, t2p}) == 3
        cfg = classify_roots((t1, t2, t2p))
        assert cfg.ctype == 1 and not cfg.swapped


# ---------------------------------------------------------------------------
# summation diagnostics
# ---------------------------------------------------------------------------

@dataclass
class SumDiagnostic:
    label: str
    lhs: float
    rhs_shape: float
    ratio: float
    exact_assert: bool = False


def summation_diagnostics(pruned: PrunedSlopeTree) -> list[SumDiagnostic]:
    """Exact evaluation of the slope- and root-vertex sums of the
    summation bounds on this instance, reported as ratios to the shape of
    each bound.  The alpha = 1 case carries constant exactly 1 and is
    asserted rather than reported.
    """
    out = []
    gamma1 = pruned.psi(())
    nu0, h0 = pruned.nu(gamma1), len(gamma1)
    descendants = [g for g in pruned.gamma if g[: len(gamma1)] == gamma1]

    # geometric slope sums over splitting vertices below gamma1, at
    # alpha = 2, 1 (asserted with constant 1) and 1/2 (in floats)
    nus = [pruned.nu(g) for g in descendants]
    lhs = sum(Fraction(1, 4 ** n) for n in nus)
    rhs = Fraction(1, 4 ** nu0)
    out.append(SumDiagnostic("slope-sum alpha>1", float(lhs), float(rhs),
                             float(lhs / rhs)))
    lhs = sum(Fraction(1, 2 ** n) for n in nus)
    rhs = pruned.N * Fraction(1, 2 ** nu0)
    if lhs > rhs:
        raise AssertionError("alpha=1 sum exceeds N 2^-nu with constant 1")
    out.append(SumDiagnostic("slope-sum alpha=1 (exact constant)", float(lhs),
                             float(rhs), float(lhs / rhs), exact_assert=True))
    lhs_f = sum(2.0 ** (-0.5 * n) for n in nus)
    rhs_f = 2.0 ** (-0.5 * nu0) * 2.0 ** (pruned.N * 0.5)
    out.append(SumDiagnostic("slope-sum alpha<1", lhs_f, rhs_f, lhs_f / rhs_f))

    # weighted slope sum with the M^-beta h factor
    lhs = sum(Fraction(1, pruned.M ** len(g)) * Fraction(1, 2 ** pruned.nu(g))
              for g in descendants)
    rhs = Fraction(1, pruned.M ** h0) * Fraction(1, 2 ** nu0)
    out.append(SumDiagnostic("slope-sum weighted beta=1 alpha=1",
                             float(lhs), float(rhs), float(lhs / rhs)))

    # root-vertex sums s(beta) with y the whole hyperplane
    deepest = max(pruned.gamma, key=lambda g: (len(g), g))
    hw = len(deepest)
    nuw = pruned.nu(deepest)
    d = pruned.d

    def s_beta(beta: int) -> Fraction:
        total = Fraction(0)
        for k in range(0, hw + 1):
            count = pruned.M ** (d * k)
            total += count * Fraction(1, pruned.M ** (beta * k)) * \
                2 ** mu(pruned, deepest, k)
        return total

    cases = [("beta<d", d - 1, 2 ** nuw * Fraction(pruned.M ** ((d - (d - 1)) * hw))),
             ("beta=d", d, 2 ** nuw * hw if hw else 2 ** nuw),
             ("beta>d", d + 1, 2 ** nuw * Fraction(1)),
             ("2M^d<M^beta", 2 * d + 1, Fraction(1))]
    for label, beta, rhs in cases:
        lhs = s_beta(beta)
        rhsf = Fraction(rhs)
        out.append(SumDiagnostic(f"root-sum {label} (beta={beta})",
                                 float(lhs), float(rhsf),
                                 float(lhs / rhsf) if rhsf else float("inf")))

    # windowed root sums over a thin parallelepiped (needs d >= 2)
    if d >= 2:
        from math import floor
        long_side = Fraction(1, pruned.M ** h0)
        short_side = Fraction(1, pruned.M ** min(hw, h0 + 2))
        eps = long_side

        def count_in_box(k: int) -> int:
            per_axis = []
            for a in range(d):
                side = long_side if a < d - 1 else short_side
                per_axis.append(max(0, floor(side * pruned.M ** k)))
            n = 1
            for c in per_axis:
                n *= c
            return n

        for label, alpha_exp, short in (("s+", 2 * (d - 1), False),
                                        ("s-", 2 * d - 1, True)):
            total = Fraction(0)
            for k in range(0, hw + 1):
                scale = Fraction(1, pruned.M ** k)
                if scale > eps:
                    continue
                if short and scale > short_side:
                    continue
                if not short and scale < short_side:
                    continue
                total += count_in_box(k) * Fraction(1, pruned.M ** (alpha_exp * k)) \
                    * 2 ** mu(pruned, deepest, k)
            if label == "s+":
                rhs = 2 ** nuw * long_side ** (d - 1) * eps ** (alpha_exp - d + 1)
            else:
                rhs = 2 ** nuw * long_side ** (d - 1) * short_side \
                    * min(eps, short_side) ** (alpha_exp - d)
            out.append(SumDiagnostic(f"windowed root-sum {label}",
                                     float(total), float(rhs),
                                     float(total / rhs) if rhs else float("inf")))
    return out


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


def test_single_slope_degenerate_sums():
    # N=1: one splitting vertex; every slope sum has a single term
    p = prune(cantor_tree(25), N=1, C0=1)
    rows = summation_diagnostics(p)
    head = [r for r in rows if r.label.startswith("slope-sum alpha")]
    assert head and all(abs(r.lhs - r.rhs_shape) < 1e-9 or r.lhs <= r.rhs_shape
                        for r in head)
