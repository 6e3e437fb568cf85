"""Per-layer metrics of the traced run.

The layers are the package modules.  ``install`` wraps their public
functions at every binding a caller looks up; ``metrics`` turns the spans
into the per-layer figures.  Times and call counts are per completed item
of the timed phase, except the set-up figures (``pruning.prune.s``,
``harness.pruned_instance.s``), which cover the set-up before the first
item.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import numpy as np

from kakeyalab import counting, fast1d, harness, madic, pruning, sticky, tubes

from spans import Tracer, self_times
from stats import median

RUN_CELL = "harness.run_cell"
E2 = "counting.enumerate_E2"
JOINS = ("counting.enumerate_E3", "counting.enumerate_E4")


class LayerTracer(Tracer):
    """A tracer with the per-call facts the ratios need."""

    def __init__(self):
        super().__init__("kakeyalab")
        self.run_cell_n: dict[int, int] = {}
        self.far_windows: set[int] = set()
        self.pair_sum_seen: set = set()
        self.pair_sum_repeats = 0
        self.admissible: list[int] = []
        self.intersect_hits = 0
        self.e2_results = 0

    def install_all(self):
        FI, PST = fast1d.FastInstance, pruning.PrunedSlopeTree
        for owner, attr, name, hook in (
                (harness, "run_cell", RUN_CELL, _on_run_cell),
                (harness, "pruned_instance", "harness.pruned_instance", None),
                (harness, "experiment_far_slab", "harness.experiment_far_slab", None),
                (harness, "experiment_moments", "harness.experiment_moments", None),
                (harness, "experiment_ratio", "harness.experiment_ratio", None),
                (FI, "assign", "fast1d.assign", None),
                (FI, "pair_sum", "fast1d.pair_sum", _on_pair_sum),
                (FI, "slab_totals", "fast1d.slab_totals", None),
                (FI, "union_quadrature", "fast1d.union_quadrature", _on_quadrature),
                (FI, "slice_union", "fast1d.slice_union", None),
                (pruning, "prune", "pruning.prune", None),
                (PST, "slope_leaf", "pruning.slope_leaf", None),
                (sticky, "is_sticky_admissible", "sticky.is_sticky_admissible",
                 _on_admissible),
                (sticky, "prob_exact", "sticky.prob_exact", None),
                (sticky, "prob_closed_form", "sticky.prob_closed_form", None),
                (tubes, "intersects", "tubes.intersects", _on_intersects),
                (tubes, "make_tube", "tubes.make_tube", None),
                (counting, "enumerate_E2", E2, _on_e2),
                (counting, "enumerate_E3", JOINS[0], None),
                (counting, "enumerate_E4", JOINS[1], None)):
            self.install(owner, attr, name, hook)
        # too frequent to time: a span per call would swamp the run
        self.install(madic, "youngest_common_ancestor",
                     "madic.youngest_common_ancestor", count_only=True)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_run_cell(tr, idx, args, kwargs, result):
    tr.run_cell_n[idx] = _arg(args, kwargs, 1, "n")


def _on_pair_sum(tr, idx, args, kwargs, result):
    codes, window = _arg(args, kwargs, 1, "codes"), _arg(args, kwargs, 2, "window")
    # the codes array lives for the whole cell, so its id names it there
    key = (tr.ancestor(idx, RUN_CELL), id(codes), tuple(window))
    if key in tr.pair_sum_seen:
        tr.pair_sum_repeats += 1
    tr.pair_sum_seen.add(key)


def _on_quadrature(tr, idx, args, kwargs, result):
    if _arg(args, kwargs, 2, "window")[0] >= 1:
        tr.far_windows.add(idx)


def _on_admissible(tr, idx, args, kwargs, result):
    if result[0]:
        tr.admissible.append(idx)


def _on_intersects(tr, idx, args, kwargs, result):
    tr.intersect_hits += bool(result)


def _on_e2(tr, idx, args, kwargs, result):
    tr.e2_results += len(result)


def metrics(tr: LayerTracer, t_ready: float, items: int) -> dict[str, float]:
    """Per-layer figures from the spans of one traced process, all but
    ``trace.overhead_frac``, which compares two processes."""
    name, parent, start, end = tr.arrays()
    dur = end - start
    own = self_times(parent, start, end)
    ids = {n: i for i, n in enumerate(tr.names)}
    timed = start >= t_ready
    per_item = 1.0 / max(items, 1)

    def mask(n, phase=timed):
        return (name == ids[n]) & phase if n in ids else np.zeros_like(timed)

    def calls(n):
        return int(mask(n).sum())

    def calls_any_phase(n):
        return int((name == ids[n]).sum()) if n in ids else 0

    def total(n, values=dur, phase=timed):
        return float(values[mask(n, phase)].sum())

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"harness.run_cell.self_s": total(RUN_CELL, own) * per_item}

    # a cell served from the cache calls nothing below run_cell
    cells = np.flatnonzero(mask(RUN_CELL))
    has_child = np.zeros(len(name), dtype=bool)
    has_child[parent[parent >= 0]] = True
    computed = cells[has_child[cells]]
    for n in (2, 3, 4, 5):
        ms = [dur[i] * 1e3 for i in computed if tr.run_cell_n.get(int(i)) == n]
        out[f"harness.run_cell.ms_p50.N{n}"] = median(ms) if ms else 0.0
    out["harness.cell_cache.hit_ratio"] = ratio(len(cells) - len(computed), len(cells))
    out["harness.pruned_instance.s"] = total("harness.pruned_instance", phase=~timed)

    out["fast1d.assign.s"] = total("fast1d.assign") * per_item
    out["fast1d.pair_sum.calls"] = calls("fast1d.pair_sum") * per_item
    out["fast1d.pair_sum.s"] = total("fast1d.pair_sum") * per_item
    out["fast1d.pair_sum.repeat_ratio"] = ratio(
        tr.pair_sum_repeats, len(tr.pair_sum_seen) + tr.pair_sum_repeats)
    out["fast1d.slab_totals.self_s"] = total("fast1d.slab_totals", own) * per_item
    quad = np.flatnonzero(mask("fast1d.union_quadrature"))
    far = np.isin(quad, list(tr.far_windows))
    out["fast1d.union_quadrature.far.s"] = float(dur[quad[far]].sum()) * per_item
    out["fast1d.union_quadrature.near.s"] = float(dur[quad[~far]].sum()) * per_item
    out["fast1d.slice_union.calls"] = calls("fast1d.slice_union") * per_item

    out["pruning.prune.s"] = total("pruning.prune", phase=~timed)
    out["pruning.slope_leaf.calls"] = calls("pruning.slope_leaf") * per_item
    out["pruning.slope_leaf.s"] = total("pruning.slope_leaf") * per_item

    adm = "sticky.is_sticky_admissible"
    out[f"{adm}.calls"] = calls(adm) * per_item
    out[f"{adm}.s"] = total(adm) * per_item
    # only the tuples a caller asks about: prob_exact and prob_closed_form
    # check their own argument again
    in_sticky = np.isin(name[parent], [i for n, i in ids.items()
                                       if n.startswith("sticky.")]) & (parent >= 0)
    asked = (name == ids.get(adm, -1)) & ~in_sticky
    out["sticky.admissible_ratio"] = ratio(
        int(asked[tr.admissible].sum()), int(asked.sum()))
    out["sticky.prob_exact.s"] = total("sticky.prob_exact") * per_item
    out["sticky.prob_closed_form.s"] = total("sticky.prob_closed_form") * per_item

    out["tubes.intersects.calls"] = calls("tubes.intersects") * per_item
    out["tubes.intersects.s"] = total("tubes.intersects") * per_item
    out["tubes.intersects.hit_ratio"] = ratio(
        tr.intersect_hits, calls_any_phase("tubes.intersects"))
    out["tubes.make_tube.calls"] = calls("tubes.make_tube") * per_item
    out["tubes.make_tube.s"] = total("tubes.make_tube") * per_item

    out["counting.enumerate_E2.self_s"] = total(E2, own) * per_item
    out["counting.join.self_s"] = sum(total(j, own) for j in JOINS) * per_item
    in_e2 = np.isin(parent, np.flatnonzero(name == ids[E2])) if E2 in ids \
        else np.zeros_like(timed)
    tests_in_e2 = int((mask("tubes.intersects", in_e2)).sum())
    out["counting.E2.tests_per_result"] = ratio(tests_in_e2, tr.e2_results)

    out["madic.youngest_common_ancestor.calls"] = \
        tr.counts.get("madic.youngest_common_ancestor", 0) * per_item
    return out
