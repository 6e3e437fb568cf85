import csv
import json
import math
import platform
import re
import statistics
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

import kakeyalab
from helpers import all_roots_1d, count_inversions
from kakeyalab import harness
from kakeyalab.cli import main as cli_main
from kakeyalab.errors import InfeasibleInstance, InvalidInput
from kakeyalab.fast1d import FastInstance, cs_bound
from kakeyalab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    _cell,
    _prune_cached,
    append_run_log,
    construct_kakeya,
    experiment_far_slab,
    experiment_moments,
    experiment_ratio,
    kakeya_tubes,
    pruned_instance,
    run_cell,
    spearman_rho,
    write_results_csv,
)
from kakeyalab.madic import cantor_tree
from kakeyalab.pruning import prune
from kakeyalab.sticky import sample_assignment
from kakeyalab.tubes import SlabWindow, pair_intersection_volume, union_volume


@pytest.fixture(scope="module")
def cfg():
    return ExperimentConfig(seeds=6, n_values=(2, 3), slices=4)


def test_construct_tube_family_properties(cfg):
    pruned = pruned_instance(cfg, 2)
    fast, codes = construct_kakeya(pruned, seed=5)
    assert codes.shape == (pruned.M ** pruned.J,)
    assert set(np.unique(codes)) <= set(range(2 ** pruned.N))
    assert np.array_equal(codes, FastInstance(pruned).assign(5))
    tubes = kakeya_tubes(pruned, codes)
    assert len(tubes) == pruned.M ** pruned.J
    assert all(t.slope in pruned.slopes for t in tubes)


def test_realizations_share_one_fast_instance(cfg):
    pruned = pruned_instance(cfg, 2)
    fast, codes = construct_kakeya(pruned, seed=5)
    other, _ = construct_kakeya(pruned, seed=6)
    assert other is fast
    assert np.array_equal(construct_kakeya(pruned, seed=5)[1], codes)
    assert construct_kakeya(pruned_instance(cfg, 3), seed=5)[0] is not fast


def test_realization_is_read_only(cfg):
    _, codes = construct_kakeya(pruned_instance(cfg, 2), seed=5)
    with pytest.raises(ValueError):
        codes[0] = 1


def test_fast_assign_matches_scalar_map(cfg):
    pruned = pruned_instance(cfg, 2)
    fast, codes = construct_kakeya(pruned, seed=77)
    sm = sample_assignment(pruned, 77)
    for i, t in enumerate(all_roots_1d(pruned)):
        assert sm.slope_code(t) == codes[i]


def test_cell_reproducibility(cfg):
    a = run_cell(cfg, 2, 0)
    b = run_cell(ExperimentConfig(seeds=6, n_values=(2, 3), slices=4), 2, 0)
    assert a.far == b.far and a.moment1 == b.moment1
    assert a.near_lb == b.near_lb and a.near_est == b.near_est


def test_far_and_moments_share_realizations(cfg):
    # both experiments consume identical per-(N, seed) tube sets
    far = experiment_far_slab(cfg)
    mom = experiment_moments(cfg)
    cell = run_cell(cfg, 2, 3)
    total = sum(run_cell(cfg, 2, t).far for t in range(cfg.seeds))
    assert float(total / cfg.seeds) == far["rows"][0]["mean_far"]
    fars = [float(run_cell(cfg, 2, t).far) for t in range(cfg.seeds)]
    assert far["rows"][0]["stderr_far"] == pytest.approx(
        statistics.stdev(fars) / math.sqrt(cfg.seeds))
    assert far["spearman_mean_far"] == spearman_rho(
        list(cfg.n_values), [r["mean_far"] for r in far["rows"]])
    m = [r for r in mom["rows"] if r["N"] == 2 and r["R"] == 1][0]
    total1 = sum(run_cell(cfg, 2, t).moment1[1] for t in range(cfg.seeds))
    assert float(total1 / cfg.seeds) == m["moment1"]


@pytest.mark.parametrize("window", [
    SlabWindow(F(1, 3), F(3)),        # [1/3, 1], a near slab
    SlabWindow(F(10), F(11, 10)),     # [10, 11], the far slab
    SlabWindow(F(90), F(2)),          # [90, 180], straddles 10 A0 = 100
])
def test_fast_slab_sums_match_scalar_tubes(window):
    pruned = pruned_instance(ExperimentConfig(), 2)
    fast, codes = construct_kakeya(pruned, seed=11)
    assert fast.K == 81
    family = kakeya_tubes(pruned, codes)
    pair = 2 * sum(pair_intersection_volume(a, b, window)
                   for i, a in enumerate(family) for b in family[i + 1:])
    est, cs = union_volume(family, window, slices=8)
    assert fast.pair_sum(codes, [window]) == (pair,)
    assert fast.union_quadrature(codes, window, 8) == est
    assert cs_bound(window, pair) == cs


def test_ratio_reports_cells_dropped_for_empty_far():
    # A0 = 0 clips every window to [0, 0]: every far slab is empty
    table = experiment_ratio(ExperimentConfig(seeds=3, n_values=(2,), slices=4, A0=0))
    assert table["rows"] == []
    assert table["per_n"][2]["dropped_far_zero"] == 3
    assert table["per_n"][2]["median_ratio_est"] is None
    assert table["per_n"][2]["median_ratio_lb"] is None


def test_ratio_takes_upper_median_of_kept_cells(monkeypatch):
    base = ExperimentConfig(seeds=6, n_values=(2,), slices=4)
    fars = [F(0), F(1, 2), F(0), F(1, 4), F(1, 8), F(1)]

    def cell(config, n, trial):
        return replace(run_cell(config, n, trial), far=fars[trial],
                       near_est=F(1), near_lb=F(1, 2))

    monkeypatch.setattr("kakeyalab.harness.run_cell", cell)
    per_n = experiment_ratio(base)["per_n"][2]
    assert per_n["dropped_far_zero"] == 2
    # ratios 1/far over the kept cells: 1, 2, 4, 8; the upper median is 4
    assert per_n["median_ratio_est"] == 4.0
    assert per_n["median_ratio_lb"] == 2.0


def test_cells_take_any_integer_r():
    # R <= 0 names the windows [1, M] and [M, M^2]: exact, no float power
    cfg = ExperimentConfig(seeds=1, n_values=(2,), slices=4, r_values=(0, -1))
    cell = run_cell(cfg, 2, 0)
    fast, codes = construct_kakeya(pruned_instance(cfg, 2), cell.seed)
    pairs = fast.pair_sum(codes, [(F(1), F(3)), (F(3), F(9))])
    assert cell.moment1 == dict(zip((0, -1), pairs))


def test_caches_key_on_the_fields_they_read():
    base = ExperimentConfig(seeds=3, n_values=(2,), slices=4)
    for other in (replace(base, seeds=5), replace(base, out_dir="elsewhere"),
                  replace(base, master_seed=7)):
        assert pruned_instance(other, 2) is pruned_instance(base, 2)
    for other in (replace(base, seeds=5), replace(base, out_dir="elsewhere")):
        assert run_cell(other, 2, 1) is run_cell(base, 2, 1)
    assert run_cell(replace(base, master_seed=7), 2, 1).seed != run_cell(base, 2, 1).seed


def test_moment_of_single_root_is_zero():
    # degenerate check: a one-tube family has an empty off-diagonal sum
    pruned = prune(cantor_tree(25), N=2, C0=1)
    fast = FastInstance(pruned)
    only = np.full_like(fast.assign(1), 0)
    # a family where every root has the same slope: no intersecting pairs
    assert fast.pair_sum(only, [(F(1, 3), F(1))]) == (0,)


def test_n1_far_volume_exact_two_case_average():
    # N=1: each root holds one of two slopes; with one enumerable bit per
    # root chain the seed average converges to the half/half mixture, and
    # a single-slope family has exactly K s (no overlaps among parallels)
    pruned = prune(cantor_tree(25), N=1, C0=1)
    fast = FastInstance(pruned)
    window = (F(10), F(11))
    vols = []
    for forced in (0, 1):
        codes = np.full(pruned.M ** pruned.J, forced, dtype=np.int64)
        vols.append(fast.union_quadrature(codes, window, 4))
        assert vols[-1] == pruned.M ** pruned.J * F(1, 4 * pruned.M ** pruned.J)
    expected = (vols[0] + vols[1]) / 2
    got = fast.union_quadrature(fast.assign(3), window, 4)
    # the mixed assignment can only lose volume to cross-slope overlaps
    assert got <= expected


def test_cs_bound_below_estimate_within_quadrature_tolerance(cfg):
    for n in cfg.n_values:
        for trial in range(cfg.seeds):
            cell = run_cell(cfg, n, trial)
            assert float(cell.near_lb) <= float(cell.near_est) * 1.10 + 1e-9


def test_n1_expectation_matches_warehouse_enumeration():
    # tiny N=1 instance: the exact expectation of the far-slab volume over
    # all 2^K warehouse realizations, against the Monte Carlo seed average
    pruned = prune(cantor_tree(25), N=1, C0=1)
    fast = FastInstance(pruned)
    K = pruned.M ** pruned.J
    assert K <= 16
    window = (F(10), F(11))
    total = F(0)
    for mask in range(2 ** K):
        codes = np.array([(mask >> i) & 1 for i in range(K)], dtype=np.int64)
        total += fast.union_quadrature(codes, window, 4)
    exact_mean = total / 2 ** K
    trials = 400
    mc = sum(fast.union_quadrature(fast.assign(s), window, 4)
             for s in range(trials)) / trials
    spread = float(max(abs(
        fast.union_quadrature(np.full(K, c, dtype=np.int64), window, 4)
        - exact_mean) for c in (0, 1)))
    sigma = spread / math.sqrt(trials)
    assert abs(float(mc - exact_mean)) <= max(4 * sigma, 1e-3)


def test_spearman_and_inversions():
    assert spearman_rho([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    assert spearman_rho([1, 2, 3, 4], [2, 2, 2, 2]) == pytest.approx(0.0)
    assert count_inversions([1, 2, 3]) == 0
    assert count_inversions([2, 1, 3]) == 1


def test_ratio_r_ranges(cfg):
    assert cfg.ratio_r_range(2) == [1]
    c = cfg.c_ratio()
    assert c == pytest.approx(1 / math.log(3))
    for n in (2, 3, 4, 5):
        lo, hi = c * math.log(n), 2 * c * math.log(n)
        rs = cfg.ratio_r_range(n)
        assert all(lo <= r <= hi for r in rs) or len(rs) == 1


@pytest.mark.parametrize("M, n, want", [
    (2, 8, [3, 4, 5, 6]),  # 2^6 = 8^2
    (4, 8, [2, 3]),        # 4^3 = 8^2
    (5, 125, [3, 4, 5, 6]),  # 5^3 = 125
    (6, 6, [1, 2]),        # 6^2 = 6^2
])
def test_ratio_r_range_keeps_exact_power_endpoints(M, n, want):
    # log_M n and 2 log_M n in floats land just inside or outside these R
    assert ExperimentConfig(M=M).ratio_r_range(n) == want


def test_run_log_and_csv(tmp_path, cfg):
    cfg2 = ExperimentConfig(seeds=2, n_values=(2,), slices=4,
                            out_dir=str(tmp_path))
    table = experiment_far_slab(cfg2)
    assert table["rows"][0]["stderr_far"] is not None
    single = ExperimentConfig(seeds=1, n_values=(2,), slices=4)
    assert experiment_far_slab(single)["rows"][0]["stderr_far"] is None
    rec = append_run_log(cfg2, "far_slab", table, elapsed_s=1.25)
    log = (tmp_path / "runlog.jsonl").read_text().strip().splitlines()
    assert len(log) == 1
    parsed = json.loads(log[0])
    assert parsed["elapsed_s"] == 1.25
    sha = parsed["git_sha"]
    assert sha is None or re.fullmatch("[0-9a-f]{40}", sha)
    assert parsed["config_hash"] == cfg2.config_hash()
    assert parsed["experiment"] == "far_slab" and parsed["timestamp"] == rec["timestamp"]
    assert parsed["payload"] == json.loads(json.dumps(table))
    # provenance: the full config, the versions and the cache counts
    assert ExperimentConfig.from_json(json.dumps(parsed["config"])) == cfg2
    assert parsed["versions"] == {"kakeyalab": kakeyalab.__version__,
                                  "python": platform.python_version(),
                                  "numpy": np.__version__}
    for name, cached in (("prune", _prune_cached), ("cell", _cell), ("far", harness._far)):
        info = cached.cache_info()
        assert parsed["caches"][name] == {"hits": info.hits, "misses": info.misses}
    assert parsed["caches"]["far"]["misses"] + parsed["caches"]["far"]["hits"] >= 2
    # and the wall seconds per stage of the far slabs and cells computed so far
    stages = parsed["stage_seconds"]
    assert set(stages) == {"assign", "far", "pair_sum", "near", "cs_bound"}
    assert all(v >= 0 for v in stages.values())
    # the cells of a config that no other test builds add to the totals
    fresh = replace(cfg2, master_seed=4242)
    experiment_moments(fresh)
    fresh_rec = append_run_log(fresh, "moments", {})
    after = fresh_rec["stage_seconds"]
    assert after["pair_sum"] > stages["pair_sum"]
    assert all(after[k] >= v for k, v in stages.items())
    # and the fast1d workspace, two int64 arrays of at least K entries once
    # this thread has computed a cell of K roots
    pruned = pruned_instance(fresh, 2)
    assert fresh_rec["workspace_bytes"] >= 16 * pruned.M ** pruned.J > 0
    csv_path = write_results_csv(cfg2, tmp_path / "results.csv")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(cfg2.n_values) * cfg2.seeds * len(cfg2.r_values)


def test_run_log_without_git_has_no_sha(tmp_path, monkeypatch):
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    monkeypatch.setattr("subprocess.run", no_git)
    cfg2 = ExperimentConfig(seeds=1, n_values=(2,), slices=4, out_dir=str(tmp_path))
    append_run_log(cfg2, "far_slab", {})
    parsed = json.loads((tmp_path / "runlog.jsonl").read_text())
    assert parsed["git_sha"] is None and parsed["elapsed_s"] is None


def test_cli_run_log_times_the_experiment(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seeds": 1, "n_values": [2], "slices": 4,
                                    "out_dir": str(tmp_path)}))
    assert cli_main(["far-slab", "--config", str(cfg_path)]) == 0
    parsed = json.loads((tmp_path / "runlog.jsonl").read_text())
    assert parsed["experiment"] == "far_slab" and parsed["elapsed_s"] > 0


def test_cli_moments_csv_holds_run_cell_values(tmp_path, capsys):
    # moments --csv writes one row per (N, R, seed) under CSV_COLUMNS, each
    # value the float of run_cell's exact one
    cfg_path, csv_path = tmp_path / "cfg.json", tmp_path / "cells.csv"
    cfg_path.write_text(json.dumps({"seeds": 2, "n_values": [2, 3], "r_values": [1, 2],
                                    "slices": 4, "out_dir": str(tmp_path)}))
    assert cli_main(["moments", "--config", str(cfg_path), "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    cfg = ExperimentConfig.from_json(cfg_path.read_text())
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    got = [[int(x) for x in row[:3]] + [float(x) for x in row[3:]] for row in rows[1:]]
    want = []
    for n in cfg.n_values:
        for trial in range(cfg.seeds):
            cell = run_cell(cfg, n, trial)
            for r in cfg.r_values:
                want.append([n, r, cell.seed, float(cell.near_est), float(cell.near_lb),
                             float(cell.far), float(cell.moment1[r]),
                             float(cell.moment1[r] ** 2)])
    assert len(want) == 8 and got == want


def test_far_only_requests_build_no_cells(monkeypatch):
    # a config whose cells no other test builds
    cfg = ExperimentConfig(seeds=3, n_values=(2, 3), slices=4, master_seed=90210)

    def no_pair_sums(*args, **kwargs):
        raise AssertionError("a far-only request computed a pair sum")

    cells = len(cfg.n_values) * cfg.seeds
    cell_misses, far_misses = _cell.cache_info().misses, harness._far.cache_info().misses
    with monkeypatch.context() as m:
        m.setattr(FastInstance, "pair_sum", no_pair_sums)
        table = experiment_far_slab(cfg)
    assert _cell.cache_info().misses == cell_misses
    assert harness._far.cache_info().misses == far_misses + cells
    # the cells then read those far slabs, and give the same rows
    for n, row in zip(cfg.n_values, table["rows"]):
        fars = [run_cell(cfg, n, trial).far for trial in range(cfg.seeds)]
        assert row["mean_far"] == float(sum(fars, F(0)) / cfg.seeds)
    assert _cell.cache_info().misses == cell_misses + cells
    assert harness._far.cache_info().misses == far_misses + cells


@pytest.mark.parametrize("far_first", [False, True])
def test_one_assignment_per_computed_cell(monkeypatch, far_first):
    # configs whose cells no other test builds: with a cold far cache, and
    # after a far-only table has filled it
    cfg = ExperimentConfig(seeds=3, n_values=(2, 3), slices=4, master_seed=31337 + far_first)
    cells = len(cfg.n_values) * cfg.seeds
    calls, assign = [], FastInstance.assign

    def counted(self, seed):
        calls.append(seed)
        return assign(self, seed)

    monkeypatch.setattr(FastInstance, "assign", counted)
    if far_first:
        experiment_far_slab(cfg)
        assert len(calls) == cells
        calls.clear()
    misses = _cell.cache_info().misses
    for n in cfg.n_values:
        for trial in range(cfg.seeds):
            run_cell(cfg, n, trial)
    assert _cell.cache_info().misses == misses + cells
    assert len(calls) == cells


def test_config_json_roundtrip(cfg):
    text = json.dumps(cfg.to_jsonable())
    back = ExperimentConfig.from_json(text)
    assert back == cfg


def test_cli_config_with_unknown_key_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeds": 2, "C1": 3, "colour": "red"}))
    assert cli_main(["volume", "--N", "2", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "C1" in err and "colour" in err
    # the dimension and the ratio constant are no longer settable
    path.write_text(json.dumps({"seeds": 2, "d": 1, "ratio_c": 0.5}))
    assert cli_main(["volume", "--N", "2", "--config", str(path)]) == 2
    assert "unknown config keys: d, ratio_c" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("[]", "config is not a JSON object"),
    ("5", "config is not a JSON object"),
    ("{bad", "config is not JSON"),
    (None, "No such file"),
])
def test_cli_unreadable_config_file_exit_code(text, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert cli_main(["far-slab", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid input: {path}: ") and message in err


@pytest.mark.parametrize("argv", [
    ["volume", "--N", "2", "--slices", "-1"],
    ["ratio", "--seeds", "2", "--n-values", "2", "--slices", "-1"],
    ["volume", "--N", "2", "--slices", "0"],
    ["far-slab", "--seeds", "0"],
    ["moments", "--seeds", "0"],
    # trials run 0..seeds-1: any other is a cell no experiment computes
    ["volume", "--N", "2", "--trial", "-1"],
    ["volume", "--N", "2", "--trial", "2", "--seeds", "2"],
    # every window would clip to the empty [0, 10 A0]
    ["volume", "--N", "2", "--A0", "-1"],
])
def test_cli_out_of_range_slices_or_seeds_exit_code(argv, capsys):
    assert cli_main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


def test_cli_malformed_value_list_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["far-slab", "--n-values", "2,x"])
    assert exc.value.code == 64
    assert "--n-values" in capsys.readouterr().err


@pytest.mark.parametrize("n_values", [[], 3])
def test_cli_config_with_malformed_n_values_exit_code(n_values, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeds": 1, "n_values": n_values, "out_dir": str(tmp_path)}))
    assert cli_main(["far-slab", "--config", str(path)]) == 2
    assert "n_values must be a non-empty tuple of integers" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    ({"seeds": "3"}, "seeds must be an integer"),
    ({"slices": 2.5, "seeds": 1, "n_values": [2]}, "slices must be an integer"),
])
def test_cli_config_with_mistyped_scalar_exit_code(cfg, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "out_dir": str(tmp_path)}))
    assert cli_main(["far-slab", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"seeds": True}, {"M": 3.0}, {"C0": "1"}, {"A0": None},
                                 {"master_seed": 1.5}, {"generator": 3},
                                 {"out_dir": None}])
def test_config_refuses_mistyped_scalars(bad):
    with pytest.raises(InvalidInput, match=f"{next(iter(bad))} must be"):
        ExperimentConfig(**bad)
    assert ExperimentConfig(A0=0).A0 == 0


def test_config_refuses_a_negative_a0():
    with pytest.raises(InvalidInput, match="A0 must be at least 0"):
        ExperimentConfig(A0=-1)


@pytest.mark.parametrize("bad", [{"n_values": (2, "3")}, {"n_values": [2, 3]},
                                 {"r_values": ()}, {"r_values": (1, True)}])
def test_config_refuses_malformed_value_lists(bad):
    with pytest.raises(InvalidInput, match="non-empty tuple of integers"):
        ExperimentConfig(**bad)


def test_cli_split_number(capsys):
    assert cli_main(["split-number", "--set", "cantor:L=6", "--base", "3"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_cli_prune_json(capsys):
    assert cli_main(["prune", "--set", "full:depth=25", "--base", "2",
                     "--N", "2", "--C0", "2"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["slopes"]) == 4


def test_cli_infeasible_exit_code(capsys):
    rc = cli_main(["prune", "--set", "cantor:depth=10", "--base", "3",
                   "--N", "3", "--C0", "2"])
    assert rc == 3


def test_cli_validation_exit_code(capsys):
    rc = cli_main(["split-number", "--set", "nosuchkind:x=1", "--base", "3"])
    assert rc == 2


@pytest.mark.parametrize("spec", [
    "cantor:L", "cantor:L=6,", "cantor:L=abc", "dyadic:m=-1", "cantor:depht=40",
])
def test_cli_malformed_minispec_exit_code(spec, capsys):
    assert cli_main(["split-number", "--set", spec, "--base", "3"]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_config_with_malformed_generator_is_refused():
    with pytest.raises(InvalidInput, match="unknown key"):
        pruned_instance(ExperimentConfig(generator="cantor:depht=25"), 2)


def test_minispec_height_is_honoured(capsys):
    """``J`` is the encoding height for the CLI and the harness alike: the
    points of dyadic:m=8 split 8 times at base 2, but only 5 times when
    encoded at height 5, too few for N = 1 and C0 = 1."""
    prune_args = ["prune", "--base", "2", "--N", "1", "--C0", "1", "--set"]
    assert cli_main(prune_args + ["dyadic:m=8"]) == 0
    assert cli_main(prune_args + ["dyadic:m=8,J=5"]) == 3
    assert "splitting number 5 " in capsys.readouterr().err
    with pytest.raises(InfeasibleInstance, match="splitting number 5 "):
        pruned_instance(ExperimentConfig(generator="dyadic:m=8,J=5", M=2), 1)


def test_cli_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli_main(["definitely-not-a-command"])
    assert exc.value.code == 64


def test_cli_verify_prob(capsys):
    rc = cli_main(["verify-prob", "--generator", "full:depth=12", "--M", "2",
                   "--C0", "1", "--N", "2"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["agreement"] == "all tuples agree"


def test_cli_volume_and_construct(capsys):
    rc = cli_main(["construct", "--N", "2", "--seed", "3"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["tube_count"] == 3 ** obj["J"]
    rc = cli_main(["volume", "--N", "2", "--trial", "0", "--seeds", "2"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["far"] > 0
