import math
import random
from fractions import Fraction as F

import pytest

from helpers import root_addr
from kakeyalab.errors import InvalidInput
from kakeyalab.madic import cantor_tree
from kakeyalab.percolation import (
    PercolationOutcome,
    edge_resistance,
    full_binary_tree,
    level_counts,
    path_tree,
    percolate_reference,
    random_tree,
    star_tree,
    survival_exact,
    survival_monte_carlo,
    survival_upper_bound,
    total_resistance,
)
from kakeyalab.pruning import prune
from kakeyalab.sticky import BernoulliWarehouse, sample_assignment
from kakeyalab.tubes import inclusion_check, poss, reference_trees


def test_edge_resistances_fair_coin():
    assert edge_resistance(((0,),)) == 1          # 2^(1-1)
    assert edge_resistance(((0,), (1,))) == 2     # 2^(2-1)
    assert edge_resistance(((0,), (1,), (0,))) == 4


def test_total_resistance_examples():
    assert total_resistance(path_tree(1)) == 1
    for n in (1, 2, 3, 4):
        assert total_resistance(full_binary_tree(n)) == F(n, 2)
        assert total_resistance(path_tree(n)) == 2 ** n - 1
    assert total_resistance(star_tree(7)) == F(1, 7)


def test_survival_exact_examples():
    assert survival_exact(full_binary_tree(1)) == F(3, 4)
    assert survival_exact(full_binary_tree(2)) == F(39, 64)
    for k in (2, 4, 6):
        assert survival_exact(path_tree(k)) == F(1, 2 ** k)


def test_survival_upper_bound_examples():
    sharp, merged = survival_upper_bound(full_binary_tree(2))
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
    t = full_binary_tree(2)
    q = float(F(39, 64))
    f = survival_monte_carlo(t, F(1, 2), 10 ** 4, 7)
    assert abs(f - q) <= 3 * math.sqrt(q * (1 - q) / 10 ** 4)
    t5 = path_tree(5)
    f5 = survival_monte_carlo(t5, F(1, 2), 10 ** 4, 8)
    q5 = 1 / 32
    assert abs(f5 - q5) <= 3 * math.sqrt(q5 * (1 - q5) / 10 ** 4)


def test_monte_carlo_deterministic():
    t = full_binary_tree(3)
    assert survival_monte_carlo(t, F(1, 2), 500, 4) == \
        survival_monte_carlo(t, F(1, 2), 500, 4)


def test_empty_tree_rejected():
    from kakeyalab.madic import ToyTree
    with pytest.raises(InvalidInput):
        total_resistance(ToyTree({}))


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
        if not rt.possible:
            continue
        t = sorted(rt.possible)[0]
        code = rt.possible[t]
        bits = inst.code_bits(code)
        wh = BernoulliWarehouse(1, inst.M)
        overrides = {}
        for j, cube in enumerate(rt.ray_of(t)):
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
        if len(rt.possible) >= 2:
            x = cand
            break
    assert x is not None
    rt = reference_trees(x, inst)
    counts = rt.vertex_counts()
    merged_r = sum(F(2 ** (k - 1), counts[k]) for k in range(1, len(counts)))
    bound = float(F(2, 1 + merged_r))
    trials = 3000
    hits = sum(percolate_reference(rt, BernoulliWarehouse(s, inst.M)).survives
               for s in range(trials))
    freq = hits / trials
    sigma = math.sqrt(max(freq * (1 - freq), 1e-6) / trials)
    assert freq <= min(1.0, bound) + 3 * sigma


def test_distinct_edges_distinct_cubes(inst):
    rng = random.Random(3)
    for _ in range(100):
        x = _sample_point(rng)
        rt = reference_trees(x, inst)
        cubes = [node.cube for node in rt.edges()]
        assert len(cubes) == len(set(cubes))
