import json
import math
import statistics
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from helpers import all_roots_1d
from kakeyalab.cli import main as cli_main
from kakeyalab.errors import InvalidInput
from kakeyalab.fast1d import FastInstance, cs_bound
from kakeyalab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    append_run_log,
    construct_kakeya,
    count_inversions,
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
    fast2, codes2 = construct_kakeya(pruned, seed=5)
    assert np.array_equal(codes, codes2)
    tubes = kakeya_tubes(pruned, codes)
    assert len(tubes) == pruned.M ** pruned.J
    assert all(t.slope in pruned.slopes for t in tubes)


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
    assert fast.pair_sum(codes, window) == pair
    assert fast.union_quadrature(codes, window, 8) == est
    assert cs_bound(window, fast.pair_sum(codes, window)) == cs


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
    assert cell.moment1 == {0: fast.pair_sum(codes, (F(1), F(3))),
                            -1: fast.pair_sum(codes, (F(3), F(9)))}


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
    codes = fast.assign(1)
    lonely = np.full_like(codes, 0)
    lonely[1:] = 1  # two classes; make class 0 a single root
    only = np.full_like(codes, 0)
    # a family where every root has the same slope: no intersecting pairs
    assert fast.pair_sum(only, (F(1, 3), F(1))) == 0


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


def test_run_log_and_csv(tmp_path, cfg):
    cfg2 = ExperimentConfig(seeds=2, n_values=(2,), slices=4,
                            out_dir=str(tmp_path))
    table = experiment_far_slab(cfg2)
    assert table["rows"][0]["stderr_far"] is not None
    single = ExperimentConfig(seeds=1, n_values=(2,), slices=4)
    assert experiment_far_slab(single)["rows"][0]["stderr_far"] is None
    rec = append_run_log(cfg2, "far_slab", table)
    log = (tmp_path / "runlog.jsonl").read_text().strip().splitlines()
    assert len(log) == 1
    parsed = json.loads(log[0])
    assert parsed["config_hash"] == cfg2.config_hash()
    csv_path = write_results_csv(cfg2, tmp_path / "results.csv")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(cfg2.n_values) * cfg2.seeds * len(cfg2.r_values)


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


@pytest.mark.parametrize("argv", [
    ["volume", "--N", "2", "--slices", "-1"],
    ["ratio", "--seeds", "2", "--n-values", "2", "--slices", "-1"],
    ["volume", "--N", "2", "--slices", "0"],
    ["far-slab", "--seeds", "0"],
    ["moments", "--seeds", "0"],
])
def test_cli_out_of_range_slices_or_seeds_exit_code(argv, capsys):
    assert cli_main(argv) == 2
    assert "invalid input" in capsys.readouterr().err


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
