import random
from fractions import Fraction as F

import pytest

from helpers import all_roots_1d, rasterize_pair_volume, root_addr
from kakeyalab.counting import all_root_cubes
from kakeyalab.errors import InvalidInput, SizeCapExceeded
from kakeyalab.madic import cantor_tree
from kakeyalab.percolation import level_counts
from kakeyalab.pruning import prune
from kakeyalab.sticky import sample_assignment
from kakeyalab.tubes import (
    SlabWindow,
    Tube,
    cross_section_dilation,
    inclusion_check,
    intersects,
    make_tube,
    pair_intersection_volume,
    poss,
    poss_strict,
    reference_trees,
    tube_slab_volume,
    union_volume,
)


@pytest.fixture(scope="module")
def inst():
    return prune(cantor_tree(25), N=3, C0=1)


def rand_tube(inst, rng, code=None):
    i = rng.randrange(inst.M ** inst.J)
    c = rng.randrange(2 ** inst.N) if code is None else code
    return make_tube(inst, root_addr(i, inst.M, inst.J), c)


def test_dilation_values():
    assert cross_section_dilation(1) == F(1, 4)
    assert cross_section_dilation(2) == F(1, 16)
    assert cross_section_dilation(3) == F(1, 729)


def test_identical_tubes(inst):
    rng = random.Random(0)
    t = rand_tube(inst, rng)
    w = SlabWindow(F(10), C1=F(11, 10))
    assert intersects(t, t, w)
    assert pair_intersection_volume(t, t, w) == t.side * (w.hi - w.lo)


def test_parallel_distinct_roots_disjoint(inst):
    rng = random.Random(1)
    a = rand_tube(inst, rng, code=3)
    b = Tube(root=root_addr((int("".join(str(d[0]) for d in a.root), inst.M) + 1)
                            % inst.M ** inst.J, inst.M, inst.J),
             slope=a.slope, M=inst.M, J=inst.J)
    w = SlabWindow(F(1, 3), C1=F(3))
    assert not intersects(a, b, w)
    assert pair_intersection_volume(a, b, w) == 0


def test_volume_positive_iff_intersects(inst):
    rng = random.Random(2)
    w = SlabWindow(F(1, 3), C1=F(3))
    hits = 0
    for _ in range(250):
        a, b = rand_tube(inst, rng), rand_tube(inst, rng)
        if a.root == b.root:
            continue
        has = intersects(a, b, w)
        vol = pair_intersection_volume(a, b, w)
        assert has == (vol > 0)
        hits += has
    assert hits > 3


def test_volume_vs_rasterization_oracle(inst):
    rng = random.Random(3)
    w = SlabWindow(F(1, 3), C1=F(3))
    tested = 0
    while tested < 25:
        a, b = rand_tube(inst, rng), rand_tube(inst, rng)
        if a.root == b.root or not intersects(a, b, w):
            continue
        tested += 1
        lo, hi = rasterize_pair_volume(a, b, w, cells=400)
        v = float(pair_intersection_volume(a, b, w))
        assert lo - 1e-12 <= v <= hi + 1e-12


def test_mismatched_instances_rejected(inst):
    a = make_tube(inst, root_addr(0, inst.M, inst.J), 0)
    other = Tube(root=((0,),), slope=(F(1, 2),), M=2, J=1)
    with pytest.raises(InvalidInput):
        intersects(a, other, SlabWindow(F(1, 2)))


def test_window_validation():
    assert tuple(SlabWindow(F(1, 3), F(3))) == (F(1, 3), F(1))
    with pytest.raises(InvalidInput):
        SlabWindow(F(0))
    with pytest.raises(InvalidInput):
        SlabWindow(F(1, 2), C1=F(1))


def test_union_single_tube(inst):
    t = make_tube(inst, root_addr(5, inst.M, inst.J), 1)
    w = SlabWindow(F(10), C1=F(11, 10))
    est, lb = union_volume([t], w, slices=4)
    exact = tube_slab_volume(t, w)
    assert est == exact == lb


def test_union_two_disjoint(inst):
    t1 = make_tube(inst, root_addr(0, inst.M, inst.J), 0)
    t2 = make_tube(inst, root_addr(inst.M ** inst.J - 1, inst.M, inst.J), 0)
    w = SlabWindow(F(10), C1=F(11, 10))
    est, lb = union_volume([t1, t2], w, slices=4)
    assert est == lb == 2 * tube_slab_volume(t1, w)


@pytest.fixture(scope="module")
def plane():
    """A d = 2 instance: K = 3^8 = 6,561 root squares, four slopes."""
    pruned = prune(cantor_tree(30, d=2), N=2, C0=1)
    return pruned, all_root_cubes(pruned, cap=pruned.M ** (2 * pruned.J))


def test_union_in_the_plane(plane):
    """The compressed-grid slice union of d >= 2 on disjoint, repeated and
    meeting tubes."""
    pruned, roots = plane
    w = SlabWindow(F(10), C1=F(11, 10))
    parallel = [make_tube(pruned, t, 3) for t in roots[::1000]]
    total = sum(tube_slab_volume(t, w) for t in parallel)
    assert union_volume(parallel, w, slices=4) == (total, total)
    one = tube_slab_volume(parallel[0], w)
    assert union_volume([parallel[0]] * 2, w, slices=4) == (one, one)
    # these two meet on exactly |x1 - 10| < 1/128
    a, b = make_tube(pruned, roots[0], 0), make_tube(pruned, roots[-1], 1)
    w = (F(10) - F(1, 128), F(10) + F(1, 128))
    assert intersects(a, b, w)
    est, lb = union_volume([a, b], w, slices=4)
    assert lb <= est < 2 * tube_slab_volume(a, w)
    assert lb <= 2 * tube_slab_volume(a, w) - pair_intersection_volume(a, b, w)


def test_union_in_the_plane_caps_the_box_count(plane):
    pruned, roots = plane
    tubes = [make_tube(pruned, t, 0) for t in roots[:4097]]
    with pytest.raises(SizeCapExceeded, match="too many boxes"):
        union_volume(tubes, SlabWindow(F(10), C1=F(11, 10)), slices=1)


def test_union_quadrature_self_convergence(inst):
    rng = random.Random(4)
    tubes = [rand_tube(inst, rng) for _ in range(10)]
    w = SlabWindow(F(1, 3), C1=F(3))
    ref, _ = union_volume(tubes, w, slices=512)
    err = [abs(float(union_volume(tubes, w, slices=s)[0] - ref))
           for s in (16, 32)]
    # doubling the slice count should not grow the discrepancy; allow a
    # generous factor for unlucky breakpoint alignment
    assert err[1] <= err[0] * 1.5 + 1e-12


def test_union_lower_bound_below_estimate(inst):
    rng = random.Random(5)
    tubes = [rand_tube(inst, rng) for _ in range(12)]
    w = SlabWindow(F(1, 3), C1=F(3))
    est, lb = union_volume(tubes, w, slices=128)
    assert float(lb) <= float(est) * (1 + 1e-6) + 1e-12


def test_poss_constructed_point(inst):
    rng = random.Random(6)
    for _ in range(10):
        t = root_addr(rng.randrange(inst.M ** inst.J), inst.M, inst.J)
        code = rng.randrange(2 ** inst.N)
        tube = make_tube(inst, t, code)
        x1 = F(21, 2)
        x = (x1,) + tube.section_center(x1)
        found = poss(x, inst)
        assert found.get(t) == code
        assert poss_strict(x, inst).get(t) == code


def test_poss_empty_when_preimage_outside(inst):
    # x below every tube: preimages of all slopes land left of [0,1)
    x = (F(10), F(-5))
    with pytest.raises(InvalidInput):
        poss((F(1, 2), F(0)), inst)  # x1 out of range
    assert poss(x, inst) == {}


def test_poss_strict_subset_and_v_agreement(inst):
    rng = random.Random(7)
    agree = strict_smaller = 0
    for _ in range(200):
        x = (F(10) + F(rng.randrange(64), 64),
             F(rng.randrange(1, 12 * 64), 64))
        wide = poss(x, inst)
        tight = poss_strict(x, inst)
        assert set(tight) <= set(wide)
        for t, c in tight.items():
            assert wide[t] == c
            agree += 1
        strict_smaller += len(wide) - len(tight)
    assert strict_smaller > 0  # the dilated-tube reading is strictly finer


def test_reference_tree_well_defined(inst):
    rng = random.Random(8)
    grown = 0
    for _ in range(120):
        x = (F(10) + F(rng.randrange(64), 64),
             F(rng.randrange(1, 12 * 16), 16))
        rt = reference_trees(x, inst)
        counts = level_counts(rt)
        assert len(counts) == (inst.N + 1 if rt.possible else 1)
        assert counts[0] == 1
        for j in range(1, len(counts)):
            assert counts[j] <= 2 ** j * 8  # C recorded in acceptance run
        if len(rt.possible) > 1:
            grown += 1
        # kappa labels reproduce the slope codes along each ray
        for t, code in rt.possible.items():
            bits = inst.code_bits(code)
            for j, cube in enumerate(rt.ray_of(t)):
                assert rt.levels[j + 1][cube].kappa == bits[j]
    assert grown > 0


def test_single_root_reference_is_a_path(inst):
    rng = random.Random(9)
    for _ in range(100):
        x = (F(10) + F(rng.randrange(64), 64),
             F(rng.randrange(1, 12 * 16), 16))
        rt = reference_trees(x, inst)
        if len(rt.possible) == 1:
            assert level_counts(rt) == [1] * (inst.N + 1)
            return
    pytest.skip("no single-root sample found")


def test_inclusion_check_matches_membership(inst):
    rng = random.Random(10)
    for seed in range(40):
        sm = sample_assignment(inst, seed)
        x = (F(10) + F(rng.randrange(64), 64),
             F(rng.randrange(1, 12 * 16), 16))
        witness = inclusion_check(x, sm)
        direct = None
        for t, code in poss(x, inst).items():
            if sm.slope_code(t) == code and make_tube(inst, t, code).contains(x):
                direct = t
                break
        assert (witness is None) == (direct is None)
        if witness is not None:
            tube = make_tube(inst, witness, sm.slope_code(witness))
            assert tube.contains(x)


def test_inclusion_empty_poss(inst):
    x = (F(10), F(-3))
    sm = sample_assignment(inst, 0)
    assert poss(x, inst) == {} and inclusion_check(x, sm) is None


def test_centre_inequality_asserted_on_positive_results(inst):
    # intersects() raising would fail this test; run it over many pairs
    rng = random.Random(11)
    w = SlabWindow(F(1, 9), C1=F(3))
    for _ in range(300):
        a, b = rand_tube(inst, rng), rand_tube(inst, rng)
        if a.root != b.root:
            intersects(a, b, w)


def test_intersection_size_diagnostic(inst):
    # |P1 meet P2| * (M^-J + |v-v'|) / M^-2J stays below the documented cap
    rng = random.Random(12)
    w = SlabWindow(F(1, 3), C1=F(3))
    cap = 4 ** (inst.d + 1)
    seen = 0
    while seen < 20:
        a, b = rand_tube(inst, rng), rand_tube(inst, rng)
        if a.root == b.root or a.slope == b.slope:
            continue
        vol = pair_intersection_volume(a, b, w)
        if vol == 0:
            continue
        seen += 1
        mj = F(1, inst.M ** inst.J)
        dv = abs(a.slope[0] - b.slope[0])
        ratio = vol * (mj + dv) / mj ** 2
        assert ratio <= cap
