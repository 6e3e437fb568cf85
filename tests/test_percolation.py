import math
import random
from fractions import Fraction as F
from itertools import product

import pytest

from helpers import path_tree, random_tree, root_addr, star_tree
from kakeyalab.errors import InvalidInput
from kakeyalab.madic import cantor_tree, full_tree
from kakeyalab.percolation import (
    edge_resistance,
    level_counts,
    percolate_reference,
    survival_exact,
    survival_monte_carlo,
    survival_upper_bound,
    total_resistance,
)
from kakeyalab.pruning import prune
from kakeyalab.sticky import BernoulliWarehouse, sample_assignment
from kakeyalab.tubes import inclusion_check, reference_trees


def test_edge_resistances_fair_coin():
    assert edge_resistance(((0,),)) == 1          # 2^(1-1)
    assert edge_resistance(((0,), (1,))) == 2     # 2^(2-1)
    assert edge_resistance(((0,), (1,), (0,))) == 4


def test_total_resistance_examples():
    assert total_resistance(path_tree(1)) == 1
    for n in (1, 2, 3, 4):
        assert total_resistance(full_tree(n, M=2)) == F(n, 2)
        assert total_resistance(path_tree(n)) == 2 ** n - 1
    assert total_resistance(star_tree(7)) == F(1, 7)


def test_survival_exact_examples():
    assert survival_exact(full_tree(1, M=2)) == F(3, 4)
    assert survival_exact(full_tree(2, M=2)) == F(39, 64)
    for k in (2, 4, 6):
        assert survival_exact(path_tree(k)) == F(1, 2 ** k)


def test_survival_upper_bound_examples():
    sharp, merged = survival_upper_bound(full_tree(2, M=2))
    assert sharp == merged == 1
    sharp, merged = survival_upper_bound(path_tree(3))
    assert sharp == F(2, 8) == F(1, 4)
    sharp, merged = survival_upper_bound(star_tree(5))
    assert sharp == F(2, 1 + F(1, 5)) == F(5, 3)


def test_bounds_dominate_exact_on_random_trees():
    for seed in range(100):
        t = random_tree(seed, height=4, max_branch=3)
        q = survival_exact(t)
        sharp, merged = survival_upper_bound(t)
        assert q <= sharp <= merged


def test_level_merge_only_decreases_resistance():
    for seed in range(50):
        t = random_tree(seed, height=5, max_branch=2)
        counts = level_counts(t)
        merged_r = sum(F(2 ** (k - 1), counts[k]) for k in range(1, len(counts)))
        assert total_resistance(t) >= merged_r


def test_monte_carlo_within_ci():
    t = full_tree(2, M=2)
    q = float(F(39, 64))
    f = survival_monte_carlo(t, F(1, 2), 10 ** 4, 7)
    assert abs(f - q) <= 3 * math.sqrt(q * (1 - q) / 10 ** 4)
    t5 = path_tree(5)
    f5 = survival_monte_carlo(t5, F(1, 2), 10 ** 4, 8)
    q5 = 1 / 32
    assert abs(f5 - q5) <= 3 * math.sqrt(q5 * (1 - q5) / 10 ** 4)


def test_monte_carlo_deterministic():
    t = full_tree(3, M=2)
    assert survival_monte_carlo(t, F(1, 2), 500, 4) == \
        survival_monte_carlo(t, F(1, 2), 500, 4)


def test_monte_carlo_outputs_are_pinned(inst):
    """Exact frequencies on digit-tuple trees and on one N_x: working out
    each edge key and child list once per call changes no draw."""
    assert survival_monte_carlo(full_tree(8, M=2), F(1, 2), 2000, 3) == 0.3205
    assert survival_monte_carlo(full_tree(3, M=3), F(2, 3), 400, 9) == 0.9625
    assert survival_monte_carlo(random_tree(7, height=5), F(1, 2), 1000, 1) == 0.479
    rt = reference_trees((F(685, 64), F(177, 16)), inst)
    assert (len(rt.rays), rt.n, survival_exact(rt)) == (2, 6, F(15, 64))
    assert survival_monte_carlo(rt, F(1, 2), 2000, 11) == 0.2425


def test_empty_tree_rejected():
    with pytest.raises(InvalidInput):
        total_resistance(star_tree(0))


@pytest.fixture(scope="module")
def inst():
    return prune(cantor_tree(25), N=3, C0=1)


def _sample_point(rng):
    return (F(10) + F(rng.randrange(64), 64),
            F(rng.randrange(1, 12 * 16), 16))


def test_forced_bits_make_a_ray_survive(inst):
    rng = random.Random(0)
    for _ in range(50):
        x = _sample_point(rng)
        rt = reference_trees(x, inst)
        if not rt.pairs:
            continue
        t, code = min(rt.pairs)
        bits = inst.code_bits(code)
        wh = BernoulliWarehouse(1, inst.M)
        overrides = {}
        for j, cube in enumerate(rt.rays[t]):
            overrides[wh.key_of(cube)] = bits[j]
        forced = BernoulliWarehouse(1, inst.M, overrides=overrides)
        out = percolate_reference(rt, forced)
        assert out.survives and t in out.surviving_roots
        return
    pytest.skip("no populated sample point")


def test_membership_implies_survival(inst):
    # bias the points onto tubes so membership happens often enough
    from kakeyalab.tubes import make_tube
    rng = random.Random(1)
    checked = 0
    for _ in range(300):
        i = rng.randrange(inst.M ** inst.J)
        code = rng.randrange(2 ** inst.N)
        tube = make_tube(inst, root_addr(i, inst.M, inst.J), code)
        x1 = F(10) + F(rng.randrange(64), 64)
        x = (x1,) + tube.section_center(x1)
        seed = rng.randrange(10 ** 6)
        sm = sample_assignment(inst, seed)
        witness = inclusion_check(x, sm)
        if witness is None:
            continue
        rt = reference_trees(x, inst)
        out = percolate_reference(rt, sm.warehouse)
        assert out.survives
        checked += 1
    assert checked > 5


def test_survival_frequency_against_merged_bound(inst):
    rng = random.Random(2)
    x = None
    for _ in range(200):
        cand = _sample_point(rng)
        rt = reference_trees(cand, inst)
        if len(rt.rays) >= 2:
            x = cand
            break
    assert x is not None
    rt = reference_trees(x, inst)
    bound = float(survival_upper_bound(rt)[1])
    trials = 3000
    hits = sum(percolate_reference(rt, BernoulliWarehouse(s, inst.M)).survives
               for s in range(trials))
    freq = hits / trials
    sigma = math.sqrt(max(freq * (1 - freq), 1e-6) / trials)
    assert freq <= min(1.0, bound) + 3 * sigma


def test_survival_exact_on_the_reference_tree(inst):
    """survival_exact reads N_x through ``children``; it equals the share of
    the 2^E bit patterns on N_x's E reference cubes under which
    percolate_reference finds a surviving ray."""
    rng = random.Random(4)
    populated = 0
    while populated < 60:
        rt = reference_trees(_sample_point(rng), inst)
        if not rt.rays:
            continue
        populated += 1
        assert sum(level_counts(rt)) == 1 + rt.n
        cubes = list(rt.bits)
        keys = [BernoulliWarehouse(0, inst.M).key_of(c) for c in cubes]
        hits = sum(
            percolate_reference(rt, BernoulliWarehouse(
                0, inst.M, overrides=dict(zip(keys, bits)))).survives
            for bits in product((0, 1), repeat=len(cubes)))
        assert survival_exact(rt) == F(hits, 2 ** len(cubes))
        sharp, merged = survival_upper_bound(rt)
        assert survival_exact(rt) <= sharp <= merged


def test_survival_monte_carlo_on_the_reference_tree(inst):
    """survival_monte_carlo keys each edge of N_x by its own cube: the
    2,000-trial frequency lies within 4 standard errors of survival_exact."""
    rng = random.Random(5)
    trials, checked = 2000, 0
    while checked < 5:
        rt = reference_trees(_sample_point(rng), inst)
        if not rt.rays:
            continue
        q = survival_exact(rt)
        freq = survival_monte_carlo(rt, F(1, 2), trials, checked)
        assert abs(freq - float(q)) <= 4 * math.sqrt(float(q * (1 - q)) / trials)
        checked += 1


def test_distinct_edges_distinct_cubes(inst):
    rng = random.Random(3)
    for _ in range(100):
        x = _sample_point(rng)
        rt = reference_trees(x, inst)
        edges, level = [], [()]
        while level:
            level = [path + (c,) for path in level for c in rt.children(path)]
            edges += [path[-1] for path in level]
        assert len(edges) == len(set(edges)) == rt.n
