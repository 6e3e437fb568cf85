"""The three benchmark workloads.

Each workload is a closed loop over items (one client, the next item starts
when the previous one returns).  Items come in rounds; round ``r`` is built
from ``(seed, r)`` alone.  A run is a whole number of rounds, so parent and
child commits do the same work: ``seconds / ROUND_SECONDS`` of them, where
``ROUND_SECONDS`` is about one round's wall time at the time of writing on
a 2.1 GHz Xeon.  A workload object offers

* ``setup()``: fixtures built before the first timed item;
* ``round(r)``: ``(items, finish)``, where items is a list of
  ``(key, callable)`` and ``finish`` (or None) runs after the round's items
  inside the timed phase;
* ``check(done, rng)``: output checks on completed items, run after the
  timed phase; returns the keys of items that failed them, or whose check
  raised.

Program functions are always looked up as module attributes at call time
(``counting.enumerate_E2``), so the traced run sees every call.
"""

from __future__ import annotations

import random
import traceback
from fractions import Fraction
from itertools import combinations, product

from kakeyalab import counting, harness, madic, pruning, sticky, tubes

import golden


def agrees(compare, *args) -> bool:
    """``compare(*args)``, an oracle comparison; one that raises disagrees."""
    try:
        return compare(*args)
    except Exception:
        traceback.print_exc()
        return False


class CellSweep:
    """The acceptance experiment, scaled down in seeds.

    One item is one trial index: the far-slab volume, the pairwise moments
    and the near-slab estimate and bound of ``run_cell`` for every N.  Each
    round is one ``ExperimentConfig`` whose moments, far-slab and ratio
    tables are built from the cached cells at the end of the round, so work
    moved out of ``run_cell`` into the experiments still counts.
    """

    name = "cell_sweep"
    TRIALS_PER_ROUND = 10
    ROUND_SECONDS = 5.0
    CHECK_TRIALS = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.values: dict[str, list] = {}  # key -> [(label, Fraction)]
        self.n2: dict[str, tuple] = {}     # key -> inputs of the N = 2 cell

    def config(self, r: int):
        return harness.ExperimentConfig(
            n_values=(2, 3, 4, 5), r_values=(1, 2), C0=1, slices=8,
            master_seed=self.seed * 1000 + r, seeds=self.TRIALS_PER_ROUND)

    def setup(self):
        cfg = self.config(0)
        for n in cfg.n_values:
            harness.pruned_instance(cfg, n)

    def round(self, r: int):
        cfg = self.config(r)
        items = [(f"r{r}t{t}", self._trial_fn(cfg, r, t))
                 for t in range(cfg.seeds)]

        def finish():
            harness.experiment_moments(cfg)
            harness.experiment_far_slab(cfg)
            harness.experiment_ratio(cfg)

        return items, finish

    def _trial_fn(self, cfg, r: int, t: int):
        key = f"r{r}t{t}"

        def trial():
            labelled = []
            for n in cfg.n_values:
                cell = harness.run_cell(cfg, n, t)
                vals = [("far", cell.far)]
                vals += [(f"moment1[{R}]", cell.moment1[R]) for R in cfg.r_values]
                vals += [("near_est", cell.near_est), ("near_lb", cell.near_lb)]
                labelled += [(f"N{n}.{label}", v) for label, v in vals]
                if n == 2:
                    self.n2[key] = (cfg, cell.seed, dict(vals), cell.ratio_rs)
            self.values[key] = labelled

        return trial

    @property
    def digests(self) -> dict[str, str]:
        return {k: golden.fraction_digest(v) for k, v in self.values.items()}

    def check(self, done, rng):
        failed = set()
        if self.seed == golden.DEFAULT_SEED:
            failed.update(golden.mismatches(golden.load(), {
                k: golden.fraction_digest(self.values[k]) for k in done}))
        for key in rng.sample(done, min(self.CHECK_TRIALS, len(done))):
            if not agrees(self._scalar_n2_agrees, *self.n2[key]):
                failed.add(key)
        return sorted(failed)

    @staticmethod
    def _scalar_n2_agrees(cfg, cell_seed, vals, ratio_rs) -> bool:
        """Recompute an N = 2 cell on the scalar path: the sticky map's
        chain walk for the slopes, then ``tubes`` for every volume."""
        pruned = harness.pruned_instance(cfg, 2)
        smap = sticky.sample_assignment(pruned, cell_seed)
        M, J = pruned.M, pruned.J
        codes = [smap.slope_code(madic.point_address((Fraction(i, M ** J),), M, J))
                 for i in range(M ** J)]
        family = harness.kakeya_tubes(pruned, codes, cfg.A0)

        def near_window(R):
            return tubes.SlabWindow(Fraction(1, M ** R), Fraction(M))

        far, _ = tubes.union_volume(
            family, tubes.SlabWindow(Fraction(cfg.A0), Fraction(cfg.A0 + 1, cfg.A0)),
            cfg.slices)
        want = {"far": far, "near_est": Fraction(0), "near_lb": Fraction(0)}
        for R in ratio_rs:
            est, lb = tubes.union_volume(family, near_window(R), cfg.slices)
            want["near_est"] += est
            want["near_lb"] += lb
        for R in cfg.r_values:
            w = near_window(R)
            want[f"moment1[{R}]"] = 2 * sum(
                tubes.pair_intersection_volume(a, b, w)
                for i, a in enumerate(family) for b in family[i + 1:])
        return want == vals


class ProbSweep:
    """Criterion 5's instance: sticky admissibility and the exact
    assignment probabilities of every root tuple's code tuples.

    One item is one root tuple across all of its code tuples.  Every ten
    rounds sweep every 2-root and 3-root tuple of the 16 roots once, in a
    seeded order; each round also takes a seeded sample of 4-root tuples,
    so all rounds hold the same mix (12, 56 and 10 tuples).  The sample is
    kept small so that the median item is a 3-root tuple from where their
    latencies lie dense; with more 4-root tuples it moves up into a sparse
    stretch, and ``item_ms_p50`` jumps with small shifts in host speed.
    """

    name = "prob_sweep"
    ROUND_SECONDS = 0.5
    ROUNDS_PER_SWEEP = 10
    FOUR_ROOT_SAMPLE = 10
    CHECK_ITEMS = 30

    def __init__(self, seed: int):
        self.seed = seed
        self.tuples: dict[str, tuple] = {}

    def setup(self):
        self.pruned = pruning.prune(madic.full_tree(12, 2), N=2, C0=1)
        M, J = self.pruned.M, self.pruned.J
        roots = [madic.point_address((Fraction(i, M ** J),), M, J)
                 for i in range(M ** J)]
        self.by_size = {k: list(combinations(roots, k)) for k in (2, 3, 4)}

    def _sweep(self, s: int) -> dict:
        """Seeded order of the 2-root and 3-root tuples in sweep s."""
        rng = random.Random(f"{self.name}:{self.seed}:sweep{s}")
        return {k: rng.sample(self.by_size[k], len(self.by_size[k])) for k in (2, 3)}

    def round(self, r: int):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        sweep, part = divmod(r, self.ROUNDS_PER_SWEEP)
        chosen = {}
        for k, order in self._sweep(sweep).items():
            per_round = len(order) // self.ROUNDS_PER_SWEEP
            chosen[k] = order[part * per_round:(part + 1) * per_round]
        chosen[4] = rng.sample(self.by_size[4], self.FOUR_ROOT_SAMPLE)
        items = []
        for k, tuples_k in chosen.items():
            for i, ts in enumerate(tuples_k):
                key = f"r{r}.{k}root{i}"
                self.tuples[key] = ts
                items.append((key, self._item_fn(ts)))
        return items, None

    def code_tuples(self, ts):
        for cs in product(range(2 ** self.pruned.N), repeat=len(ts)):
            yield list(zip(ts, cs))

    def _item_fn(self, ts):
        def item():
            for prs in self.code_tuples(ts):
                ok, _ = sticky.is_sticky_admissible(self.pruned, prs)
                if ok and sticky.prob_exact(self.pruned, prs) != \
                        sticky.prob_closed_form(self.pruned, prs):
                    raise AssertionError(f"prob_exact != prob_closed_form at {prs}")

        return item

    def check(self, done, rng):
        failed = []
        for key in rng.sample(done, min(self.CHECK_ITEMS, len(done))):
            if not agrees(self._enumerate_agrees, self.tuples[key]):
                failed.append(key)
        return failed

    def _enumerate_agrees(self, ts) -> bool:
        for prs in self.code_tuples(ts):
            ok, _ = sticky.is_sticky_admissible(self.pruned, prs)
            want = sticky.prob_exact(self.pruned, prs) if ok else Fraction(0)
            if sticky.prob_enumerate(self.pruned, prs) != want:
                return False
        return True


class TupleScan:
    """Exhaustive intersecting-tuple scans on ``prune(cantor_tree(25), 2, 1)``.

    A round is ``enumerate_E2`` over every anchor u up to height 2, every
    splitting vertex w and rho in {1/3, 1/9, 1/27, 1/81}, plus the E3/E4
    joins at the scales where one call stays near or under a second.  Each
    call scans its own seeded subset of the 81 roots, the same number from
    every height-2 branch: a call's cost depends on how many of its roots
    share a branch, so a plain random subset would make the slowest calls,
    and with them ``item_ms_tail``, vary several tens of percent from seed
    to seed.  One item is one call.

    A round holds 156 E2 calls and 30 joins.  Two E2 calls per round (u the
    root, w the top vertex, rho 1/3 and 1/9) take 0.3-1.2 s, far above the
    rest, so the share of items beyond ``item_ms_tail`` must not be the
    same 2 in 200: at five rounds of 186 items the tail is p98, inside the
    next group of six E2 calls per round (about 0.1 s each), and not on
    the edge between two groups, where it would jump with the seed.
    """

    name = "tuple_scan"
    ROUND_SECONDS = 5.5
    PER_BRANCH = 5  # roots per height-2 branch (9 branches of 9 roots)
    RHOS = (Fraction(1, 3), Fraction(1, 9), Fraction(1, 27), Fraction(1, 81))
    CHECK_E2 = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.kept: dict[str, tuple] = {}
        self.check_keys: set[str] = set()

    def setup(self):
        self.pruned = pruning.prune(madic.cantor_tree(25), N=2, C0=1)
        self.roots = counting.all_root_cubes(self.pruned)
        self.branches: dict[tuple, list] = {}
        for t in self.roots:
            self.branches.setdefault(t[:2], []).append(t)
        self.anchors = sorted({t[:h] for t in self.roots for h in (0, 1, 2)})
        self.gammas = sorted(self.pruned.gamma)

    def round(self, r: int):
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        p = self.pruned
        items = []
        for rho in self.RHOS:
            for u in self.anchors:
                for w in self.gammas:
                    key = f"r{r}.E2.{len(items)}"
                    items.append((key, self._e2_fn(key, u, w, rho, self._subset(rng))))
        if r == 0:
            self.check_keys = set(rng.sample([k for k, _ in items], self.CHECK_E2))

        # the join anchors below the top cycle with the round, alike for
        # every seed: which of them a round gets moves the slowest joins
        g1 = p.psi(())
        g2 = p.gamma_levels[2][r % len(p.gamma_levels[2])]
        a = ((r % p.M,),)
        for rho, (w, w2) in ((Fraction(1, 81), (g1, g1)),
                             (Fraction(1, 27), (g1, g2)),
                             (Fraction(1, 81), (g1, g2))):
            for u, u2 in (((), ()), (a, a)):
                anchors = {"u": u, "u2": u2, "w": w, "w2": w2}
                for size, ctypes in ((3, (1, 2)), (4, (1, 2, 3))):
                    for ctype in ctypes:
                        items.append((f"r{r}.E{size}.{len(items)}", self._join_fn(
                            size, ctype, anchors, rho, self._subset(rng))))
        return items, None

    def _subset(self, rng):
        return sorted(t for branch in self.branches.values()
                      for t in rng.sample(branch, self.PER_BRANCH))

    def _e2_fn(self, key, u, w, rho, roots):
        def item():
            got = counting.enumerate_E2(self.pruned, u, w, rho, roots=roots)
            if key in self.check_keys:
                self.kept[key] = (u, w, rho, roots, got)

        return item

    def _join_fn(self, size, ctype, anchors, rho, roots):
        def item():
            fn = counting.enumerate_E3 if size == 3 else counting.enumerate_E4
            fn(self.pruned, ctype, anchors, rho, roots=roots)

        return item

    def check(self, done, rng):
        done = set(done)
        failed = []
        for key, (u, w, rho, roots, got) in sorted(self.kept.items()):
            if key in done and not agrees(
                    lambda: got == counting.enumerate_E2_bruteforce(
                        self.pruned, u, w, rho, roots=roots)):
                failed.append(key)
        return failed


WORKLOADS = {wl.name: wl for wl in (CellSweep, ProbSweep, TupleScan)}
