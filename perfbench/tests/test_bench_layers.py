from fractions import Fraction
from itertools import product
from time import perf_counter

from kakeyalab import madic, pruning, sticky

from layers import LayerTracer, metrics


def test_admissible_ratio_counts_only_the_callers_questions():
    pruned = pruning.prune(madic.full_tree(12, 2), N=2, C0=1)
    M, J = pruned.M, pruned.J
    roots = [madic.point_address((Fraction(i, M ** J),), M, J) for i in (0, 1, 2)]
    tr = LayerTracer()
    tr.install_all()
    try:
        t_ready = perf_counter()
        asked = admissible = 0
        for cs in product(range(2 ** pruned.N), repeat=len(roots)):
            prs = list(zip(roots, cs))
            ok, _ = sticky.is_sticky_admissible(pruned, prs)
            asked += 1
            admissible += ok
            if ok:
                sticky.prob_exact(pruned, prs)
                sticky.prob_closed_form(pruned, prs)
    finally:
        tr.uninstall()
    out = metrics(tr, t_ready, asked)
    assert 0 < admissible < asked
    assert out["sticky.admissible_ratio"] == admissible / asked
