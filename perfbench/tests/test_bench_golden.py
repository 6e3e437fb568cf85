import random
from fractions import Fraction as F

import golden


def test_digest_is_stable_and_sees_every_part():
    base = [("N2.far", F(3, 7)), ("N2.near_lb", F(1, 9))]
    d = golden.fraction_digest(base)
    assert d == golden.fraction_digest(list(base))
    assert len(d) == 16 and int(d, 16) >= 0
    assert d != golden.fraction_digest([("N2.far", F(3, 7)), ("N2.near_lb", F(2, 9))])
    assert d != golden.fraction_digest([("N2.far", F(3, 7)), ("N2.near_lb", F(1, 8))])
    assert d != golden.fraction_digest([("N2.fax", F(3, 7)), ("N2.near_lb", F(1, 9))])
    assert d != golden.fraction_digest(base[::-1])


def test_mismatches_compare_only_shared_keys():
    expected = {"r0t0": "aa", "r0t1": "bb"}
    assert golden.mismatches(expected, {"r0t0": "aa", "r0t1": "bb", "r9t9": "zz"}) == []
    assert golden.mismatches(expected, {"r0t1": "cc", "r0t0": "aa"}) == ["r0t1"]
    assert golden.mismatches({}, {"r0t0": "aa"}) == []


def test_committed_digests_cover_exactly_a_default_run():
    from run import SPEC
    from worker import rounds_for
    from workloads import CellSweep

    rounds = rounds_for(SPEC["run_seconds"], CellSweep)
    assert set(golden.load()) == {f"r{r}t{t}" for r in range(rounds)
                                  for t in range(CellSweep.TRIALS_PER_ROUND)}


def test_committed_digest_matches_program_output():
    from workloads import CellSweep

    table = golden.load()
    wl = CellSweep(golden.DEFAULT_SEED)
    wl.setup()
    items, _ = wl.round(0)
    key, trial = items[0]
    trial()
    assert golden.mismatches(table, wl.digests) == []
    assert wl.digests[key] == table[key]


def test_digests_are_checked_for_the_default_seed_only(monkeypatch):
    from workloads import CellSweep

    monkeypatch.setattr(golden, "load", lambda: {"r0t0": "not-a-digest"})
    for seed, want in ((golden.DEFAULT_SEED, ["r0t0"]), (1, [])):
        wl = CellSweep(seed)
        wl.CHECK_TRIALS = 0
        wl.values["r0t0"] = [("N2.far", F(1, 3))]
        assert wl.check(["r0t0"], random.Random(0)) == want
