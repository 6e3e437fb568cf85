"""The integer-lattice kernels of ``fast1d`` against the scalar ``tubes``
reference, and the named errors at the edges of their range."""

import hashlib
import sys
import threading
from fractions import Fraction as F
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from helpers import all_roots_1d, split_values
from test_acceptance import ACCEPT_CFG
from kakeyalab import fast1d
from kakeyalab._mix import trial_seed
from kakeyalab.errors import InvalidInput, SizeCapExceeded
from kakeyalab.fast1d import FastInstance, cs_bound
from kakeyalab.harness import construct_kakeya, kakeya_tubes, pruned_instance
from kakeyalab.madic import DigitRuleTree, cantor_tree, full_tree
from kakeyalab.pruning import prune
from kakeyalab.sticky import sample_assignment
from kakeyalab.tubes import (DEFAULT_A0, _slice_union_measure, clip_x1,
                             cross_section_dilation, pair_intersection_volume,
                             union_volume)

SLICES = 3
TOP = 10 * DEFAULT_A0  # the far end of every tube


def ragged_tree(depth: int = 25, lazy: bool = True) -> DigitRuleTree:
    """M = 2: the half under digit 0 is full, and under digit 1 a vertex
    splits only at even heights, so that from N = 3 on the basic heights
    of one level differ between the two halves.  ``lazy`` supplies the
    split values in closed form; otherwise they are walked."""
    def rule(addr):
        if addr[:1] == ((1,),) and len(addr) % 2:
            return ((0,),)
        return ((0,), (1,))

    def split(addr):
        h = len(addr)
        if not addr:
            return depth - 1
        if addr[0] == (0,):
            return depth - h
        return (depth - h + (h % 2 == 0)) // 2  # the even heights in h..depth-1

    return DigitRuleTree(rule, 2, 1, depth, split_fn=split if lazy else None)


TREES = {"full2": lambda: full_tree(25, M=2, d=1), "cantor3": lambda: cantor_tree(25),
         "full3": lambda: full_tree(25, M=3, d=1), "cantor4": lambda: cantor_tree(25, M=4),
         "full4": lambda: full_tree(25, M=4, d=1), "ragged2": ragged_tree}
# (tree, N, C0) with K = M^J <= 81, for M = 2, 3, 4 and C0 = 1, 2
INSTANCES = [
    ("full2", 1, 1), ("full2", 2, 1), ("full2", 3, 1), ("full2", 1, 2),
    ("full2", 2, 2), ("cantor3", 1, 1), ("cantor3", 2, 1), ("cantor3", 1, 2),
    ("full3", 2, 2), ("cantor4", 1, 1), ("cantor4", 1, 2), ("full4", 2, 1),
]


@lru_cache(maxsize=None)
def instance(name, n, c0):
    pruned = prune(TREES[name](), N=n, C0=c0)
    assert pruned.M ** pruned.J <= 81
    return pruned, FastInstance(pruned)


def scalar_pair_sum(family, w):
    return 2 * sum(pair_intersection_volume(a, b, w)
                   for i, a in enumerate(family) for b in family[i + 1:])


def check_against_scalar(pruned, fast, codes, w, may_refuse=True):
    """The window w is an (lo, hi) pair whose ends may lie outside
    [0, 10 A0]; both paths clip it with ``tubes.clip_x1``."""
    family = kakeya_tubes(pruned, codes)
    (pair,) = fast.pair_sum(codes, [w])
    assert pair == scalar_pair_sum(family, w)
    est, cs = union_volume(family, w, SLICES)
    assert cs_bound(w, pair) == cs
    try:
        assert fast.union_quadrature(codes, w, SLICES) == est
    except InvalidInput:
        if not may_refuse:
            raise
        # the slice positions would need more than 62 bits


fractions = st.builds(F, st.integers(-3 * TOP, 3 * TOP), st.integers(1, 12))
tiny = st.builds(lambda k, e: F(k, 3 ** e), st.integers(1, 3 ** 6), st.integers(20, 30))
windows = st.one_of(
    st.tuples(fractions, fractions),
    # straddling 0 and 10 A0
    st.tuples(st.builds(lambda x: -x, fractions.map(abs)), fractions.map(abs)),
    st.tuples(fractions.map(lambda x: TOP - abs(x)), fractions.map(lambda x: TOP + abs(x))),
    # ends with large denominators
    st.tuples(tiny, st.builds(lambda x, y: x + y, tiny, st.sampled_from([F(1, 3), F(1)]))),
).map(lambda ends: tuple(sorted(ends)))


# no shrink phase: shrinking would rerun the slow scalar oracle for every
# candidate, turning a wrong kernel into a long run instead of a failure
@pytest.mark.parametrize("key", INSTANCES)
@settings(max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2 ** 32), w=windows)
def test_lattice_kernels_match_scalar_tubes(key, seed, w):
    pruned, fast = instance(*key)
    check_against_scalar(pruned, fast, fast.assign(seed), w)


@pytest.mark.parametrize("w", [
    (F(1, 3 ** 30), F(1, 3)),
    (F(1, 3) - F(1, 3 ** 30), F(1) + F(2, 3 ** 31)),
])
def test_windows_with_3_to_the_30_denominators(w):
    pruned, fast = instance("cantor3", 2, 1)
    codes = fast.assign(11)
    assert fast.pair_sum(codes, [w])[0] > 0
    # both windows lie inside the 62-bit range of the quadrature
    check_against_scalar(pruned, fast, codes, w, may_refuse=False)


class SliceDtypes:
    """``fast1d._scratch`` recording every dtype it is asked for: the
    scratch arrays of the quadrature's slices."""

    def __init__(self):
        self.seen = set()
        self.scratch = fast1d._scratch

    def __call__(self, K, dtype):
        self.seen.add(np.dtype(dtype))
        return self.scratch(K, dtype)


# the three windows' positions are bounded by 2^30 at K = 81, and by 2^31
# and 2^50
SLICE_WINDOWS = [((F(1, 288950), F(1, 3)), np.int32),
                 ((F(1, 288952), F(1, 3)), np.int64),
                 ((F(1, 3 ** 25), F(1, 3)), np.int64)]


@pytest.mark.parametrize("w, dtype", SLICE_WINDOWS)
def test_slices_on_both_sides_of_30_bits(w, dtype, monkeypatch):
    pruned, fast = instance("cantor3", 2, 1)
    codes = fast.assign(11)
    want = union_volume(kakeya_tubes(pruned, codes), w, SLICES)[0]
    spy = SliceDtypes()
    monkeypatch.setattr(fast1d, "_scratch", spy)
    assert fast.union_quadrature(codes, w, SLICES) == want
    assert spy.seen == {np.dtype(dtype)}


@pytest.mark.parametrize("n", ACCEPT_CFG.n_values)
def test_accept_cfg_windows_sort_in_int32(n, monkeypatch):
    cfg = ACCEPT_CFG
    fast, codes = construct_kakeya(pruned_instance(cfg, n),
                                   trial_seed(cfg.master_seed, "cell", n, 0))
    spy = SliceDtypes()
    monkeypatch.setattr(fast1d, "_scratch", spy)
    for w in [(F(cfg.A0), F(cfg.A0 + 1))] + [
            (F(cfg.M) ** -r, F(cfg.M) ** (1 - r)) for r in cfg.ratio_r_range(n)]:
        fast.union_quadrature(codes, w, cfg.slices, cfg.A0)
    assert spy.seen == {np.dtype(np.int32)}


@st.composite
def window_lists(draw):
    """One to four windows: a drawn window, then pairs of the ends of it
    and of at most one more, so that ends repeat across windows and
    windows repeat, come reversed or are empty; ``windows`` reaches past
    0 and 10 A0, where they are clipped."""
    ws = draw(st.lists(windows, min_size=1, max_size=2))
    ends = st.sampled_from([e for w in ws for e in w])
    return [ws[0], *draw(st.lists(st.tuples(ends, ends), max_size=3))]


@pytest.mark.parametrize("key", INSTANCES[::2])
@settings(max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2 ** 32), ws=window_lists())
def test_one_pass_over_many_windows_matches_scalar_per_window(key, seed, ws):
    pruned, fast = instance(*key)
    codes = fast.assign(seed)
    family = kakeya_tubes(pruned, codes)
    oracle = {w: scalar_pair_sum(family, w) for w in set(ws)}
    assert fast.pair_sum(codes, ws) == tuple(oracle[w] for w in ws)


@pytest.mark.parametrize("n", [2, 4])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32), ends=st.lists(fractions | tiny, min_size=3, max_size=3))
def test_pair_sums_add_over_adjacent_windows(n, seed, ends):
    fast = FastInstance(prune(cantor_tree(25), N=n, C0=1))  # K = 81, 6561
    codes = fast.assign(seed)
    a, b, c = sorted(ends)
    assert sum(fast.pair_sum(codes, [(a, b), (b, c)])) == fast.pair_sum(codes, [(a, c)])[0]


def _edge_codes(fast, case):
    """K = 81 code arrays at the edges of the per-slope count tables."""
    shallow, *middle, steep = fast.by_slope
    codes = fast.assign(5)
    if case == "one slope empty":
        codes[codes == middle[0]] = middle[1]
    elif case == "one slope only":
        codes[:] = middle[0]
    else:  # the first and last roots alone carry the outer slopes
        codes = np.array(middle * fast.K)[:fast.K]
        codes[0], codes[-1] = (shallow, steep) if case == "outer slopes at the ends" else (steep, shallow)
    return codes


@pytest.mark.parametrize("case", ["one slope empty", "one slope only",
                                  "outer slopes at the ends", "outer slopes reversed"])
def test_count_table_edges_match_scalar(case):
    pruned, fast = instance("cantor3", 2, 1)
    codes = _edge_codes(fast, case)
    family = kakeya_tubes(pruned, codes)
    ws = [(F(1, 9), F(1, 3)), (F(1, 3), F(1)), (F(0), F(TOP)), (F(1, 27), F(5, 2))]
    assert fast.pair_sum(codes, ws) == tuple(scalar_pair_sum(family, w) for w in ws)


def dense_pair_sum(fast, codes, w, a0=DEFAULT_A0):
    """Integer oracle over all ordered root pairs with sigma_i > sigma_j:
    the tent antiderivative at X = W (g Q + p dsigma), g = i - j, on each
    end's scale Q = q D / K, summed in numpy per pair of slopes and in
    Python ints per slope difference."""
    lo, hi = clip_x1(*w, a0)
    if lo >= hi:
        return F(0)
    W = int(1 / cross_section_dilation(1))
    sigma = np.array(fast.sigma, dtype=np.int64)[codes]
    by_class = {s: np.flatnonzero(sigma == s) for s in set(sigma.tolist())}

    def at(e):
        p, Q = e.numerator, e.denominator * (fast.D // fast.K)
        per_ds = {}
        for si, i in by_class.items():
            for sj, j in by_class.items():
                if si > sj:
                    x = W * (np.subtract.outer(i, j) * Q + p * (si - sj))
                    tent = np.where(x <= -Q, 0, np.where(
                        x <= 0, (x + Q) ** 2,
                        np.where(x < Q, 2 * Q * Q - (Q - x) ** 2, 2 * Q * Q)))
                    per_ds[si - sj] = per_ds.get(si - sj, 0) + int(tent.sum())
        return sum((F(v, ds) for ds, v in per_ds.items()), F(0)) / (
            W * W * fast.D * e.denominator ** 2)

    return at(hi) - at(lo)


# an end at 0 (g = 1 for every slope difference), a window past 10 A0
# (cut there, where the gather clips at K), the far slab and the
# ACCEPT_CFG near windows
ORACLE_WINDOWS = [(F(0), F(1, 3)), (F(1, 3), F(2 * TOP)), (F(DEFAULT_A0), F(DEFAULT_A0 + 1)),
                  *((F(1, 3 ** r), F(1, 3 ** (r - 1))) for r in ACCEPT_CFG.r_values)]


def test_dense_oracle_matches_scalar_tubes():
    pruned, fast = instance("cantor3", 2, 1)
    assert fast.K == 81
    codes = fast.assign(3)
    family = kakeya_tubes(pruned, codes)
    for w in ORACLE_WINDOWS:
        assert dense_pair_sum(fast, codes, w) == scalar_pair_sum(family, w)


def test_pair_sums_past_81_roots_match_the_dense_oracle():
    fast = FastInstance(prune(cantor_tree(25), N=3, C0=1))
    assert (fast.K, len(fast.sigma)) == (729, 8)
    # the first root in the steepest class and the last in the shallowest:
    # at a clipped end that pair reads the table next to its top entry
    edges = fast.assign(1)
    edges[0], edges[-1] = fast.by_slope[-1], fast.by_slope[0]
    # the plan spans all 8 classes while this realization fills 7
    emptied = fast.assign(2)
    emptied[emptied == fast.by_slope[3]] = fast.by_slope[4]
    assert len(np.unique(emptied)) == 7
    for codes in (fast.assign(0), edges, emptied):
        assert fast.pair_sum(codes, ORACLE_WINDOWS) == tuple(
            dense_pair_sum(fast, codes, w) for w in ORACLE_WINDOWS)


@lru_cache(maxsize=None)
def cantor3_n4():
    """cantor3 at N = 4: K = 6561 roots in 16 slope classes."""
    pruned = prune(cantor_tree(25), N=4, C0=1)
    return pruned, FastInstance(pruned)


def scalar_quadrature(family, w):
    """The estimate of ``tubes.union_volume`` alone: its Cauchy-Schwarz
    bound loops over all tube pairs, about 20 s at 729 tubes.  At K = 81,
    seed 11 and the slice windows it meets ``union_volume`` through
    ``test_slices_on_both_sides_of_30_bits``."""
    lo, hi = clip_x1(*w, DEFAULT_A0)
    width = (hi - lo) / SLICES
    return sum((_slice_union_measure(family, lo + width * k + width / 2) * width
                for k in range(SLICES)), F(0))


# at the third slice window's ends the dense oracle's 2 Q^2 outgrows int64
PAIR_WINDOWS = [w for w, _ in SLICE_WINDOWS[:2]]


def test_kernels_ignore_what_the_workspace_holds(monkeypatch):
    """Garbage in the workspace before every call, at K = 81, then 6561,
    then 81 again, through int32 and int64 views; the workspace grows only
    for a larger K and a later call reuses its arrays."""
    small, large = instance("cantor3", 2, 1), cantor3_n4()
    want = {}
    for pruned, fast in (small, large):
        codes = fast.assign(11)
        family = kakeya_tubes(pruned, codes)
        want[fast.K] = (codes, tuple(dense_pair_sum(fast, codes, w) for w in PAIR_WINDOWS),
                        [scalar_quadrature(family, w) for w, _ in SLICE_WINDOWS])
    rng = np.random.default_rng(0)

    def poison():
        for buf in fast1d._workspace.buffers:
            buf[:] = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                                  len(buf), dtype=np.int64)

    # a workspace that starts empty, as in a new thread
    monkeypatch.setattr(fast1d, "_workspace", threading.local())
    assert fast1d.workspace_bytes() == 0
    held, largest = None, 0
    for _, fast in (small, large, small):
        codes, pairs, volumes = want[fast.K]
        for _ in range(2):
            assert fast.pair_sum(codes, PAIR_WINDOWS) == pairs
            bufs = fast1d._workspace.buffers
            # the same two arrays unless this K is the largest so far
            assert (bufs is held) == (fast.K <= largest)
            held, largest = bufs, max(largest, fast.K)
            assert fast1d.workspace_bytes() == 16 * largest
            for (w, _), volume in zip(SLICE_WINDOWS, volumes):
                poison()
                assert fast.union_quadrature(codes, w, SLICES) == volume
                assert fast1d._workspace.buffers is held
            poison()


def test_threads_keep_their_own_workspace():
    """Four threads alternate kernel calls at K = 81 and 6561 and switch
    every microsecond; a shared workspace would mix their scratch."""
    jobs = []
    for _, fast in (instance("cantor3", 2, 1), cantor3_n4()):
        codes = fast.assign(3)
        jobs.append((fast, codes, fast.pair_sum(codes, PAIR_WINDOWS),
                     [fast.union_quadrature(codes, w, SLICES) for w, _ in SLICE_WINDOWS]))
    wrong, done = [], []

    def work(turn):
        for rep in range(40):
            fast, codes, pairs, volumes = jobs[(turn + rep) % 2]
            if fast.pair_sum(codes, PAIR_WINDOWS) != pairs:
                wrong.append(("pair_sum", fast.K))
            if [fast.union_quadrature(codes, w, SLICES) for w, _ in SLICE_WINDOWS] != volumes:
                wrong.append(("union_quadrature", fast.K))
        done.append(turn)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(turn,)) for turn in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and sorted(done) == [0, 1, 2, 3]


def test_a_slope_class_of_2_to_the_20_roots_is_refused():
    # hand-set pair-sum attributes: 2^20 roots, slopes 0 and 3 / 2^20;
    # no tree small enough for tier-1 prunes to that many roots
    fast = SimpleNamespace(K=2 ** 20, D=2 ** 20, sigma=[0, 3], by_slope=[0, 1],
                           slope_rank=np.array([0, 1], dtype=np.uint8))
    codes = np.zeros(2 ** 20, dtype=np.int64)
    with pytest.raises(InvalidInput, match="2\\^20"):
        FastInstance.pair_sum(fast, codes, [(F(0), F(1))])
    # one root fewer in that class fits the packed counts
    codes[2 ** 19] = 1
    ws = [(F(0), F(1, 3)), (F(1, 3), F(1))]
    got = FastInstance.pair_sum(fast, codes, ws)
    assert got == tuple(dense_pair_sum(fast, codes, w) for w in ws) and got[0] > 0


def test_an_instance_of_2_to_the_23_roots_is_refused():
    # N = 8 (K = 3^16) would take about 1 GB of count tables, N = 7 (3^14)
    # about 115 MB; the refusal comes before any array is built, so one
    # code stands in for all K of them
    assert 3 ** 14 < fast1d.PAIR_SUM_ROOT_CAP == 2 ** 23 < 3 ** 16
    fast = SimpleNamespace(K=2 ** 23, D=2 ** 23, sigma=[0, 3],
                           slope_rank=np.array([0, 1], dtype=np.uint8))
    held = fast1d.workspace_bytes()
    with pytest.raises(SizeCapExceeded, match="2\\^23"):
        FastInstance.pair_sum(fast, np.zeros(1, dtype=np.int64), [(F(0), F(1))])
    assert fast1d.workspace_bytes() == held


def test_the_pair_plan_is_keyed_on_k_d_sigma_and_the_ends():
    # cantor3 at N = 2 and the digits-{0, 1} tree share K = D = 81 but not
    # sigma; the near windows' ends are a proper subset of the oracle
    # windows', so a plan keyed without the ends would serve the near
    # windows first and then lack ends for the oracle windows
    insts = [instance("cantor3", 2, 1)[1], FastInstance(prune(cantor_tree(25), N=3, C0=1)),
             FastInstance(prune(cantor_tree(25, digits=(0, 1)), N=2, C0=1))]
    assert insts[0].K == insts[2].K == insts[0].D == insts[2].D == 81
    assert insts[0].sigma != insts[2].sigma
    near = [(F(ACCEPT_CFG.M) ** -r, F(ACCEPT_CFG.M) ** (1 - r)) for r in ACCEPT_CFG.r_values]
    visits = [(fast, ws) for fast in insts for ws in (near, ORACLE_WINDOWS)]
    fast1d._pair_plan.cache_clear()
    want = {}
    for fast, ws in visits + visits[::-1]:
        codes = fast.assign(4)
        key = (id(fast), id(ws))
        if key not in want:
            want[key] = tuple(dense_pair_sum(fast, codes, w) for w in ws)
        assert fast.pair_sum(codes, ws) == want[key]
        hits = fast1d._pair_plan.cache_info().hits
        assert fast.pair_sum(codes, ws) == want[key]
        assert fast1d._pair_plan.cache_info().hits == hits + 1


def test_no_windows_give_no_sums():
    _, fast = instance("cantor3", 2, 1)
    assert fast.pair_sum(fast.assign(0), []) == ()


def test_more_than_2_to_the_31_roots_is_refused():
    too_big = SimpleNamespace(d=1, M=3, J=20, N=2)  # K = 3^20 > 2^31
    with pytest.raises(InvalidInput, match="too large"):
        FastInstance(too_big)


@pytest.mark.parametrize("window, a0", [
    ((F(1, 3 ** 40), F(1, 3 ** 39)), DEFAULT_A0),  # slice denominators near 3^40
    ((F(10 ** 16), F(10 ** 16 + 1)), 10 ** 16),    # the far slab of A0 = 10^16
    ((F(1, 3 ** 30), F(100)), DEFAULT_A0),         # 61 bits at the first slice, 64 at the last
])
def test_slices_beyond_62_bits_are_refused(window, a0):
    _, fast = instance("cantor3", 2, 1)
    with pytest.raises(InvalidInput, match="int64"):
        fast.union_quadrature(fast.assign(0), window, 8, a0)


def test_ragged_tree_split_values_are_exact():
    for depth in (9, 10):
        assert split_values(ragged_tree(depth)) == split_values(ragged_tree(depth, lazy=False))
    pruned = prune(ragged_tree(), N=3, C0=1)
    assert {info.lam for info in pruned.gamma.values() if info.nu == 2} == {5, 8}


# (tree, N) with K <= 6561 at C0 = 1
ORACLE_INSTANCES = [(name, n) for name in TREES for n in (2, 3, 4)
                    if (name, n) != ("cantor4", 4)]


@pytest.mark.parametrize("name, n", ORACLE_INSTANCES)
def test_cube_walk_matches_the_scalar_chain_walk(name, n):
    pruned = prune(TREES[name](), N=n, C0=1)
    fast = FastInstance(pruned)
    assert fast.K <= 6561
    roots = all_roots_1d(pruned)
    for seed in (0, 7, 2 ** 40 + 3):
        smap = sample_assignment(pruned, seed)
        assert fast.assign(seed).tolist() == [smap.slope_code(t) for t in roots]


# sha256 of the little-endian int64 slope codes of ACCEPT_CFG trial 0
ACCEPT_CODE_DIGESTS = {
    5: "d14168511e79d520550be992d48f5fc6597a4605724619820af5c05e0c58d3aa",
    6: "c7537f86d89582ee6cf044972c02f8976fba1daca1b3207462b36e4adc6f8394",
}


@pytest.mark.parametrize("n", sorted(ACCEPT_CODE_DIGESTS))
def test_accept_cfg_code_arrays_are_pinned(n):
    pruned = pruned_instance(ACCEPT_CFG, n)
    _, codes = construct_kakeya(pruned, trial_seed(ACCEPT_CFG.master_seed, "cell", n, 0))
    assert hashlib.sha256(codes.astype("<i8").tobytes()).hexdigest() == ACCEPT_CODE_DIGESTS[n]
