"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 11 is implemented as stated and fails at desk scale: the N = 4 -> 5
drop of the near/far ratio happens inside one slab window, and the ratio
grows only once 1/E|far| outpaces N, far past N = 5. Criterion 10 checks that the mean
far-slab volume decays in N, which the paper's C/N bound makes falsifiable.
The analysis of both, with the measured tables, is in the README section
"Criteria 10 and 11 at desk scale".
Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import math
import random
import time
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest

from helpers import (
    all_roots_1d,
    counted_tree,
    random_counts,
    rasterize_pair_volume,
    root_addr,
)
from kakeyalab.fast1d import FastInstance
from kakeyalab.harness import (
    ExperimentConfig,
    count_inversions,
    experiment_far_slab,
    experiment_moments,
    experiment_ratio,
    run_cell,
    spearman_rho,
)
from kakeyalab.lacunarity import (
    decompose_lacunary_order,
    decompose_split_one,
    is_lacunary_sequence,
    verify_witness,
)
from kakeyalab.madic import (
    agreement_height_scalar,
    cantor_tree,
    encode_set,
    full_tree,
    point_digit,
    splitting_number,
    splitting_number_1d_points,
    splitting_number_bruteforce,
)
from kakeyalab.percolation import (
    level_counts,
    path_tree,
    percolate_reference,
    random_tree,
    survival_exact,
    survival_monte_carlo,
    survival_upper_bound,
    total_resistance,
)
from kakeyalab.pruning import check_pruned_invariants, prune, slope_metrics
from kakeyalab.sticky import (
    is_sticky_admissible,
    prob_closed_form,
    prob_enumerate,
    prob_exact,
    sample_assignment,
)
from kakeyalab.tubes import (
    SlabWindow,
    inclusion_check,
    intersects,
    make_tube,
    pair_intersection_volume,
    reference_trees,
)


def verdict(num: int, ok: bool, detail: str, t0: float, cap: float):
    dt = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} ({dt:.1f}s / cap {cap:.0f}s) {detail}")
    assert dt < cap, f"criterion {num} exceeded its time budget: {dt:.1f}s"
    return dt


def test_criterion_01_splitting_number_exactness():
    t0 = time.time()
    per_case_cap = 1.0
    c0 = time.time()
    geo = encode_set([(F(1, 2 ** j),) for j in range(1, 21)], 2, 24)
    assert splitting_number(geo) == 1
    assert time.time() - c0 < per_case_cap
    for m in range(1, 11):
        c0 = time.time()
        pts = [(F(k, 2 ** m),) for k in range(2 ** m)]
        assert splitting_number(encode_set(pts, 2, m)) == m
        assert time.time() - c0 < per_case_cap
    for n in range(1, 5):
        c0 = time.time()
        pts = [(F(k, 4 ** n),) for k in range(4 ** n)]
        assert splitting_number(encode_set(pts, 2, 2 * n)) == 2 * n
        assert splitting_number(encode_set(pts, 4, n)) == n
        assert time.time() - c0 < per_case_cap
    verdict(1, True, "geometric=1, dyadic=m (m<=10), quartic 2N/N (N<=4)",
            t0, 60)


def test_criterion_02_dp_vs_bruteforce():
    t0 = time.time()
    for seed in range(200):
        t = counted_tree(random_counts(seed, max_height=4, max_branch=3))
        assert t.split_value(()) == splitting_number_bruteforce(t, cap=500)
    verdict(2, True, "200 random trees, DP == exhaustive subtree oracle", t0, 30)


def _random_split_one_set(seed: int, M: int):
    """Anchored construction: every branch hangs off the anchor's ray, so
    the splitting number is exactly 1 by construction."""
    rng = random.Random(seed)
    depth = rng.randrange(8, 14)
    anchor = F(rng.randrange(M ** depth), M ** depth)
    pts = {anchor}
    for j in sorted(rng.sample(range(depth - 1), rng.randrange(3, 7))):
        adig = point_digit(anchor, M, j + 1)
        choices = [g for g in range(M) if g != adig]
        dig = rng.choice(choices)
        base = F(int(anchor * M ** j), M ** j) + F(dig, M ** (j + 1))
        pts.add(base + F(rng.randrange(M ** (depth - j - 1)), M ** depth))
    return sorted(pts)


def test_criterion_03_lacunary_decompositions():
    t0 = time.time()
    done = 0
    seed = 0
    while done < 50:
        M = 2 if done % 2 == 0 else 3
        pts = _random_split_one_set(seed, M)
        seed += 1
        if splitting_number_1d_points(pts, M) != 1:
            continue
        done += 1
        seqs = decompose_split_one(pts, M)
        assert len(seqs) <= 6 * M
        assert all(is_lacunary_sequence(s, a, F(1, M)) for s, a in seqs)
        assert set().union(*[set(s) for s, _ in seqs]) == set(pts)
        pieces, order = decompose_lacunary_order(pts, M)
        assert all(verify_witness(list(sub), w) for sub, w in pieces)
        assert set().union(*[set(s) for s, _ in pieces]) == set(pts)
    verdict(3, True, "50 random split-1 sets: <=6M sequences, witnesses verified",
            t0, 60)


def test_criterion_04_pruning_invariants():
    t0 = time.time()
    A0, C0 = 10, 2
    assert C0 > 4 * math.sqrt(1) / A0
    for tree, label in ((cantor_tree(40), "cantor d=1 M=3"),
                        (full_tree(40, 2), "dyadic M=2")):
        for n in (2, 3, 4):
            p = prune(tree, N=n, C0=C0)
            check_pruned_invariants(p)
            for g in p.gamma:
                slope_metrics(p, g)  # asserts the rho/delta comparability
    verdict(4, True, "pruning invariants (i)-(iv) + rho/delta comparability, "
            "N in {2,3,4}", t0, 60)


class _FrequencyOracle:
    """Vectorized exhaustive warehouse enumeration for an N=2 instance
    whose second basic height is J (true for the sweep instance)."""

    def __init__(self, pruned):
        assert pruned.N == 2
        g1 = pruned.psi(())
        info = pruned.gamma[g1]
        self.lam1 = info.lam
        for b in (0, 1):
            nxt = info.next_gammas[b]
            assert pruned.gamma[nxt].lam == pruned.J
        self.pruned = pruned
        self.J = pruned.J
        self.M = pruned.M
        self._assign_cache = {
            m: np.array([[(x >> k) & 1 for k in range(m)]
                         for x in range(2 ** m)], dtype=np.int8)
            for m in range(1, 9)
        }

    def _columns(self, roots):
        """Per root, the warehouse columns of its two reference cubes."""
        cubes = {}
        cols = []
        for t in roots:
            i = int("".join(str(d[0]) for d in t), self.M)
            c1 = (self.lam1, i // self.M ** (self.J - self.lam1))
            c2 = (self.J, i)
            for c in (c1, c2):
                if c not in cubes:
                    cubes[c] = len(cubes)
            cols.append((cubes[c1], cubes[c2]))
        return cols, len(cubes)

    def frequency(self, pairs) -> F:
        cols, m = self._columns([t for t, _ in pairs])
        A = self._assign_cache[m]
        good = np.ones(2 ** m, dtype=bool)
        for (t, code), (p1, p2) in zip(pairs, cols):
            got = 2 * A[:, p1] + A[:, p2]
            good &= got == code
        return F(int(np.count_nonzero(good)), 2 ** m)

    def frequencies(self, roots) -> list[F]:
        """``frequency`` of every code tuple of the roots, in the order of
        ``product(range(4), repeat=len(roots))``: one count per code
        tuple from one pass over all 2^m warehouse realizations."""
        cols, m = self._columns(roots)
        A = self._assign_cache[m]
        index = np.zeros(2 ** m, dtype=np.int64)
        for p1, p2 in cols:
            index = 4 * index + 2 * A[:, p1] + A[:, p2]
        counts = np.bincount(index, minlength=4 ** len(roots))
        return [F(int(c), 2 ** m) for c in counts]


def test_criterion_05_probability_triple_agreement():
    t0 = time.time()
    pruned = prune(full_tree(12, 2), N=2, C0=1)
    assert pruned.J <= 6
    warehouse_bits = sum(pruned.M ** (pruned.d * k)
                         for k in pruned.fundamental_heights)
    assert warehouse_bits <= 20
    roots = all_roots_1d(pruned)
    codes = range(2 ** pruned.N)
    oracle = _FrequencyOracle(pruned)

    # the vectorized oracles must agree with the scalar enumerator
    rng = random.Random(0)
    for _ in range(60):
        prs = [(t, rng.randrange(4)) for t in rng.sample(roots, 3)]
        ts, cs = zip(*prs)
        at = (cs[0] * 4 + cs[1]) * 4 + cs[2]
        assert oracle.frequencies(ts)[at] == oracle.frequency(prs) \
            == prob_enumerate(pruned, prs)

    checked = {2: 0, 3: 0, 4: 0}
    for size in (2, 3, 4):
        for ts in combinations(roots, size):
            freqs = oracle.frequencies(ts)
            for cs, freq in zip(product(codes, repeat=size), freqs, strict=True):
                prs = list(zip(ts, cs))
                ok, _ = is_sticky_admissible(pruned, prs)
                if not ok:
                    assert freq == 0
                    continue
                checked[size] += 1
                assert prob_exact(pruned, prs) == prob_closed_form(pruned, prs) \
                    == freq
    assert all(v > 0 for v in checked.values())
    verdict(5, True,
            f"all admissible tuples agree exactly "
            f"(2pt {checked[2]}, 3pt {checked[3]}, 4pt {checked[4]})",
            t0, 600)


def test_criterion_06_percolation():
    t0 = time.time()
    assert survival_exact(full_tree(1, M=2)) == F(3, 4)
    assert survival_exact(full_tree(2, M=2)) == F(39, 64)
    for seed in range(100):
        t = random_tree(seed, height=5, max_branch=3)
        sharp, _ = survival_upper_bound(t)
        assert survival_exact(t) <= sharp
    q = float(F(39, 64))
    f = survival_monte_carlo(full_tree(2, M=2), F(1, 2), 10 ** 4, 12)
    assert abs(f - q) <= 3 * math.sqrt(q * (1 - q) / 10 ** 4)
    for n in range(1, 7):
        assert total_resistance(full_tree(n, M=2)) == F(n, 2)
    verdict(6, True, "exact survivals, 100 random-tree bounds, MC in 3 sigma",
            t0, 120)


def test_criterion_07_reference_tree_percolation():
    t0 = time.time()
    pruned = prune(cantor_tree(25), N=3, C0=1)
    rng = random.Random(42)
    counterexamples = 0
    fitted_c = 0.0
    members = 0
    for _ in range(500):
        i = rng.randrange(pruned.M ** pruned.J)
        code = rng.randrange(2 ** pruned.N)
        tube = make_tube(pruned, root_addr(i, pruned.M, pruned.J), code)
        x1 = F(10) + F(rng.randrange(128), 128)
        jitter = F(rng.randrange(-3, 4), 32 * pruned.M ** pruned.J)
        x = (x1, tube.section_center(x1)[0] + jitter)
        seed = rng.randrange(10 ** 9)
        sm = sample_assignment(pruned, seed)
        rt = reference_trees(x, pruned)
        for j, n_j in enumerate(level_counts(rt)[1:], start=1):
            fitted_c = max(fitted_c, n_j / 2 ** j)
        witness = inclusion_check(x, sm)
        if witness is None:
            continue
        members += 1
        out = percolate_reference(rt, sm.warehouse)
        if not out.survives:
            counterexamples += 1
    assert counterexamples == 0
    assert members > 20
    assert fitted_c <= 64  # one fitted constant across all samples
    verdict(7, True,
            f"500 samples, {members} memberships, 0 counterexamples, "
            f"fitted C = {fitted_c:.2f}", t0, 300)


def test_criterion_08_geometry_oracles():
    t0 = time.time()
    pruned = prune(cantor_tree(25), N=3, C0=1)
    rng = random.Random(31)
    w = SlabWindow(F(1, 3), C1=F(3))
    tested = hits = 0
    while tested < 100:
        a = make_tube(pruned, root_addr(rng.randrange(3 ** pruned.J), 3, pruned.J),
                      rng.randrange(8))
        b = make_tube(pruned, root_addr(rng.randrange(3 ** pruned.J), 3, pruned.J),
                      rng.randrange(8))
        if a.root == b.root:
            continue
        tested += 1
        # intersects() asserts the centre and scale inequalities internally
        has = intersects(a, b, w)
        exact = float(pair_intersection_volume(a, b, w))
        lo, hi = rasterize_pair_volume(a, b, w, cells=1000)
        assert lo - 1e-12 <= exact <= hi + 1e-12
        hits += has
    assert hits >= 10
    verdict(8, True, f"100 pairs vs 1000-cell raster bracket ({hits} intersecting)",
            t0, 300)


ACCEPT_CFG = ExperimentConfig(seeds=200, n_values=(2, 3, 4, 5),
                              r_values=(1, 2), C0=1, slices=8)


def test_criterion_09_moments():
    t0 = time.time()
    table = experiment_moments(ACCEPT_CFG)
    rows = table["rows"]
    for which in ("ratio1", "ratio2"):
        at_n2 = {r["R"]: r[which] for r in rows if r["N"] == 2}
        for r in rows:
            assert r[which] <= 4 * at_n2[r["R"]], (which, r)
    detail = "; ".join(
        f"R={rr} ratio1 " + "/".join(f"{r['ratio1']:.3f}" for r in rows if r["R"] == rr)
        for rr in (1, 2))
    verdict(9, True, detail, t0, 1800)


def test_criterion_10_far_slab_trend():
    t0 = time.time()
    table = experiment_far_slab(ACCEPT_CFG)
    rows = table["rows"]
    means = [r["mean_far"] for r in rows]
    # each step must drop by more than 3 combined standard errors, which
    # implies a strict decrease
    steps = [(a["mean_far"] - b["mean_far"],
              math.hypot(a["stderr_far"], b["stderr_far"]))
             for a, b in zip(rows, rows[1:])]
    ok = all(drop > 3 * se for drop, se in steps)
    in_se = ["%.1f" % (drop / se if se else
                       math.copysign(math.inf, drop) if drop else 0.0)
             for drop, se in steps]
    verdict(10, ok,
            f"mean far = {['%.5f' % v for v in means]}, "
            f"steps in s.e. = {in_se}, "
            f"N*mean = {['%.3f' % r['n_times_mean'] for r in rows]} "
            "(README: Criteria 10 and 11 at desk scale)",
            t0, 900)
    assert ok, (
        "mean far-slab volume must fall at every step in N by more than 3 "
        f"combined standard errors; measured means {means} with steps "
        f"{in_se} standard errors. E|far| <= C/N makes 1/E|far| grow with N.")


def _median(vs):
    # the upper median, as experiment_ratio takes it
    return sorted(vs)[len(vs) // 2]


def test_criterion_11_ratio_trend():
    t0 = time.time()
    table = experiment_ratio(ACCEPT_CFG, seeds=50)
    seq_lb = [table["per_n"][n]["median_ratio_lb"] for n in ACCEPT_CFG.n_values]
    inv = count_inversions(seq_lb)
    ok = inv <= 1
    M = ACCEPT_CFG.M
    windows = []
    for n in ACCEPT_CFG.n_values:
        rs = table["per_n"][n]["r_range"]
        width = sum(F(1, M ** (r - 1)) - F(1, M ** r) for r in rs)
        far = _median([row["far"] for row in table["rows"] if row["N"] == n])
        windows.append(f"N={n}: R in {list(rs)}, near width {width}, "
                       f"median far {far:.5f}")
    verdict(11, ok,
            f"median CS-only ratios = {['%.3f' % v for v in seq_lb]}, "
            f"inversions = {inv} (README: Criteria 10 and 11 at desk scale)",
            t0, 2700)
    assert ok, (
        "median near/far ratio must be nondecreasing with at most one "
        f"inversion; measured {inv} inversions on {seq_lb}. "
        + "; ".join(windows) + ". The N = 4 -> 5 drop lies inside the fixed "
        "window R = 2, where the near CS bound falls as E[moment1] grows "
        "with N while far falls only slightly; see the README section "
        "'Criteria 10 and 11 at desk scale'.")
