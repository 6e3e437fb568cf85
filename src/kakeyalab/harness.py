"""Experiment drivers: far-slab mean, moment sums, and the volume ratio.

Every experiment runs over a seeded family of realizations of one pruned
instance per N.  Every cache is a ``functools.lru_cache`` keyed on what it
reads: the instance on (generator, M, C0, N), its ``FastInstance`` on the
instance, a far slab on (instance, seed, A0, slices) and a cell on those
and its windows.  A far slab and a cell read the one realization
``construct_kakeya(instance, seed)``, which keeps the last assignment, so
a computed cell assigns once, the far-slab and moment experiments consume
identical tube sets and a far-slab table alone computes no pair sum.
Exact quantities are bit-reproducible from (config, seed) and the
quadrature estimates are deterministic given the slice count.  A far slab
or cell computed on a cache miss adds the wall time of each of its stages
to ``STAGE_SECONDS``, which every run-log record carries.

The near/far ratio follows the slab-decomposition route: the near volume
is accumulated over the x1 slabs [M^-R, M^-(R-1)] for integer R in
[c log N, 2c log N] (c = 1/ln M, so that the range contains an
integer at N = 2), each slab contributing a quadrature estimate and a
Cauchy-Schwarz lower bound (total tube volume squared over the pairwise
intersection sum).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from ._mix import trial_seed
from .errors import InvalidInput
from .fast1d import FastInstance, cs_bound, workspace_bytes
from .lacunarity import spec_tree
from .madic import point_address
from .pruning import PrunedSlopeTree, prune
from .tubes import DEFAULT_A0, make_tube


_SCALARS = {"int": (int, "an integer"), "str": (str, "a string")}


@dataclass(frozen=True)
class ExperimentConfig:
    generator: str = "cantor:depth=25"
    M: int = 3
    n_values: tuple = (2, 3, 4, 5)
    C0: int = 1
    A0: int = DEFAULT_A0
    r_values: tuple = (1, 2)
    seeds: int = 200
    master_seed: int = 2024
    slices: int = 8
    out_dir: str = "runs"

    def __post_init__(self):
        # each field by its annotation (a string, the annotations being
        # postponed), with exact types: a bool is not an int here
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple":
                if not (isinstance(value, tuple) and value
                        and all(type(v) is int for v in value)):
                    raise InvalidInput(f"{f.name} must be a non-empty tuple of integers")
            elif type(value) is not _SCALARS[f.type][0]:
                raise InvalidInput(f"{f.name} must be {_SCALARS[f.type][1]}")
        if self.seeds < 1:
            raise InvalidInput("need at least one seed")
        if self.A0 < 0:  # every tube would end before it starts, at 10 A0 < 0
            raise InvalidInput("A0 must be at least 0")

    def config_hash(self) -> str:
        payload = json.dumps(self.__dict__, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def c_ratio(self) -> float:
        return 1.0 / math.log(self.M)

    def ratio_r_range(self, n: int) -> list[int]:
        """The R in [log_M n, 2 log_M n], decided in integers as
        n <= M^R <= n^2 so that exact powers keep their endpoints; with
        none, the R nearest log_M n (at least 1)."""
        rs = [r for r in range(1, 64) if n <= self.M ** r <= n * n]
        return rs or [max(1, round(self.c_ratio() * math.log(n)))]

    def to_jsonable(self):
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"config is not JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise InvalidInput("config is not a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidInput(f"unknown config keys: {', '.join(unknown)}")
        for f in fields(cls):
            if f.type == "tuple" and isinstance(obj.get(f.name), list):
                obj[f.name] = tuple(obj[f.name])
        return cls(**obj)


# ---------------------------------------------------------------------------
# instance and realization caches
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _prune_cached(generator: str, M: int, C0: int, n: int) -> PrunedSlopeTree:
    return prune(spec_tree(generator, M), N=n, C0=C0)


def pruned_instance(config: ExperimentConfig, n: int) -> PrunedSlopeTree:
    """The pruned slope tree for N = n, built once per generator, M and
    C0; ``_prune_cached.cache_info()`` counts hits and misses."""
    return _prune_cached(config.generator, config.M, config.C0, n)


@lru_cache(maxsize=None)
def _fast_instance(pruned: PrunedSlopeTree) -> FastInstance:
    """The one FastInstance of a pruned instance; nothing mutates it, so
    every realization shares it."""
    return FastInstance(pruned)


@lru_cache(maxsize=1)
def construct_kakeya(pruned: PrunedSlopeTree, seed: int):
    """The realized tube family K_N(X): one tube per root cube, as
    (FastInstance, read-only slope-code array) for 1-d instances; tubes are
    materialized lazily through :func:`kakeya_tubes` since the family has
    M^(dJ) members.  The last realization is kept, so one cell's fields
    share one assignment, and every realization of an instance shares its
    one FastInstance."""
    fast = _fast_instance(pruned)
    codes = fast.assign(seed)
    codes.flags.writeable = False
    return fast, codes


def kakeya_tubes(pruned: PrunedSlopeTree, codes, A0: int = DEFAULT_A0):
    K = pruned.M ** pruned.J
    if K > 3 ** 9:
        raise InvalidInput(f"{K} tubes exceed the materialization cap")
    return [make_tube(pruned, point_address((Fraction(i, K),), pruned.M, pruned.J),
                      int(codes[i]), A0) for i in range(K)]


@dataclass
class CellMetrics:
    n: int
    seed: int
    far: Fraction
    moment1: dict
    near_est: Fraction
    near_lb: Fraction
    ratio_rs: tuple


def run_cell(config: ExperimentConfig, n: int, trial: int) -> CellMetrics:
    """All per-seed metrics for one (N, trial) cell.

    Cached on what the cell reads, so configs that differ only in
    ``seeds``, ``out_dir`` or ``n_values`` share their cells;
    ``_cell.cache_info()`` counts hits and misses.  A trial outside
    ``0 <= trial < config.seeds``, a cell no experiment computes, raises
    InvalidInput.
    """
    if not 0 <= trial < config.seeds:
        raise InvalidInput(f"trial {trial} is outside 0..{config.seeds - 1}")
    # not through pruned_instance: a cached cell calls no other function,
    # and perfbench's trace counts a cell with a child span as computed
    pruned = _prune_cached(config.generator, config.M, config.C0, n)
    return _cell(pruned, trial_seed(config.master_seed, "cell", n, trial), config.A0,
                 config.slices, config.r_values, tuple(config.ratio_r_range(n)))


# wall seconds per stage of the far slabs and cells computed in this
# process, written to every run-log record; a cached one adds nothing
STAGE_SECONDS = dict.fromkeys(("assign", "far", "pair_sum", "near", "cs_bound"), 0.0)


@contextmanager
def _stage(name: str):
    t0 = time.perf_counter()
    yield
    STAGE_SECONDS[name] += time.perf_counter() - t0


@lru_cache(maxsize=None)
def _far(pruned: PrunedSlopeTree, seed: int, A0: int, slices: int) -> Fraction:
    """The far-slab volume of one realization; a far-only request assigns
    alone and computes no pair sum or near quadrature."""
    with _stage("assign"):
        fast, codes = construct_kakeya(pruned, seed)
    with _stage("far"):
        return fast.union_quadrature(codes, (Fraction(A0), Fraction(A0 + 1)), slices, A0)


@lru_cache(maxsize=None)
def _cell(pruned: PrunedSlopeTree, seed: int, A0: int, slices: int,
          r_values: tuple, rs: tuple) -> CellMetrics:
    # the far slab first: if it is computed here, construct_kakeya then
    # returns the realization it read, so a cell assigns once either way
    far = _far(pruned, seed, A0, slices)
    with _stage("assign"):
        fast, codes = construct_kakeya(pruned, seed)
    M = pruned.M

    def near(r):
        return Fraction(M) ** -r, Fraction(M) ** (1 - r)

    # one pair-sum pass over every distinct window, each window end gathered
    # once: the moments and the CS bounds share its sums
    pair_rs = sorted(set(r_values) | set(rs))
    with _stage("pair_sum"):
        pairs = dict(zip(pair_rs, fast.pair_sum(codes, [near(r) for r in pair_rs], A0)))
    moment1 = {r: pairs[r] for r in r_values}
    with _stage("near"):
        near_est = sum((fast.union_quadrature(codes, near(r), slices, A0) for r in rs),
                       Fraction(0))
    with _stage("cs_bound"):
        near_lb = sum((cs_bound(near(r), pairs[r], A0) for r in rs), Fraction(0))

    return CellMetrics(n=pruned.N, seed=seed, far=far, moment1=moment1,
                       near_est=near_est, near_lb=near_lb, ratio_rs=rs)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation (average ranks for ties)."""

    def ranks(vs):
        # a tie fills the sorted places bisect_left .. bisect_right - 1
        s = sorted(vs)
        return [(bisect_left(s, v) + bisect_right(s, v) + 1) / 2 for v in vs]

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    dx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    dy = math.sqrt(sum((b - my) ** 2 for b in ry))
    if dx == 0 or dy == 0:
        return 0.0
    return num / (dx * dy)


def experiment_far_slab(config: ExperimentConfig):
    """Mean far-slab volume per N and its decay in N.

    Only the far slab of each cell is computed, or read from the cells
    already computed.  Each row carries the exact mean as a float, its standard error across
    seeds (``None`` below two seeds) and ``N * mean`` as a rate diagnostic.
    ``spearman_mean_far`` ranks N against the mean: the paper bounds
    E|far| by C/N, so 1/E|far| grows with N, but N * E|far| need not fall
    (it rises towards 4 under the survival bound 2/(1 + N/2)).
    """
    rows = []
    for n in config.n_values:
        pruned = pruned_instance(config, n)
        fars = [_far(pruned, trial_seed(config.master_seed, "cell", n, trial),
                     config.A0, config.slices) for trial in range(config.seeds)]
        mean = sum(fars, Fraction(0)) / config.seeds
        stderr = None
        if config.seeds >= 2:
            sd = statistics.stdev([float(f) for f in fars])
            stderr = sd / math.sqrt(config.seeds)
        rows.append({"N": n, "mean_far": float(mean), "stderr_far": stderr,
                     "n_times_mean": float(n * mean)})
    rho = spearman_rho(list(config.n_values), [r["mean_far"] for r in rows])
    return {"rows": rows, "spearman_mean_far": rho}


def experiment_moments(config: ExperimentConfig):
    """Empirical mean and mean square of the pairwise-intersection sums,
    with their ratios to N M^-2R and its square."""
    rows = []
    for n in config.n_values:
        acc1 = {r: Fraction(0) for r in config.r_values}
        acc2 = {r: Fraction(0) for r in config.r_values}
        for trial in range(config.seeds):
            cell = run_cell(config, n, trial)
            for r in config.r_values:
                acc1[r] += cell.moment1[r]
                acc2[r] += cell.moment1[r] ** 2
        for r in config.r_values:
            mean1 = acc1[r] / config.seeds
            mean2 = acc2[r] / config.seeds
            scale1 = Fraction(n, config.M ** (2 * r))
            rows.append({
                "N": n, "R": r,
                "moment1": float(mean1), "moment2": float(mean2),
                "ratio1": float(mean1 / scale1),
                "ratio2": float(mean2 / (scale1 * scale1)),
            })
    return {"rows": rows}


def experiment_ratio(config: ExperimentConfig):
    """Near/far volume ratios: quadrature and the lower-bound-only variant.

    A cell with ``far == 0`` has no ratio and is left out; ``per_n`` counts
    them in ``dropped_far_zero``.  The medians are upper medians, the
    element at index ``len // 2`` of the sorted ratios, and are ``None``
    when every cell of that N was left out.
    """
    rows = []
    per_n = {}
    for n in config.n_values:
        ratios_est, ratios_lb = [], []
        for trial in range(config.seeds):
            cell = run_cell(config, n, trial)
            if cell.far == 0:
                continue
            ratios_est.append(cell.near_est / cell.far)
            ratios_lb.append(cell.near_lb / cell.far)
            rows.append({"N": n, "seed": cell.seed,
                         "near_est": float(cell.near_est),
                         "near_lb": float(cell.near_lb),
                         "far": float(cell.far),
                         "ratio_lb": float(cell.near_lb / cell.far)})
        ratios_est.sort()
        ratios_lb.sort()
        med = len(ratios_lb) // 2
        per_n[n] = {
            "median_ratio_est": float(ratios_est[med]) if ratios_est else None,
            "median_ratio_lb": float(ratios_lb[med]) if ratios_lb else None,
            "dropped_far_zero": config.seeds - len(ratios_lb),
            "r_range": tuple(config.ratio_r_range(n)),
        }
    return {"rows": rows, "per_n": per_n, "c": config.c_ratio()}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    """The commit of the checkout this package runs from, or None when
    there is no checkout or git fails."""
    import subprocess  # only the run log needs it, and it is slow to import

    try:
        got = subprocess.run(["git", "-C", str(Path(__file__).parent), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if got.returncode != 0:
        return None
    return got.stdout.strip() or None


def _provenance(config: ExperimentConfig, elapsed_s: float | None) -> dict:
    """The full config, the versions and commit that computed the run, its
    wall time, the hits and misses of the instance, cell and far-slab
    caches and the wall seconds per cell stage so far in this process, and
    the bytes of the ``fast1d`` workspace that this thread holds."""

    def counts(cached):
        info = cached.cache_info()
        return {"hits": info.hits, "misses": info.misses}

    return {"config": config.to_jsonable(),
            "versions": {"kakeyalab": __version__,
                         "python": platform.python_version(),
                         "numpy": np.__version__},
            "git_sha": _git_sha(),
            "elapsed_s": elapsed_s,
            "caches": {"prune": counts(_prune_cached), "cell": counts(_cell),
                       "far": counts(_far)},
            "stage_seconds": dict(STAGE_SECONDS),
            "workspace_bytes": workspace_bytes()}


def append_run_log(config: ExperimentConfig, experiment: str, payload: dict,
                   elapsed_s: float | None = None):
    """Append one record to ``runlog.jsonl`` and return it as a dict;
    ``elapsed_s`` is the wall time of the experiment that produced
    ``payload``."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rec = {"config_hash": config.config_hash(), "experiment": experiment,
           "timestamp": time.time(), "payload": payload,
           **_provenance(config, elapsed_s)}
    with open(out / "runlog.jsonl", "a") as fh:
        fh.write(json.dumps(rec, default=str) + "\n")
    return rec


CSV_COLUMNS = ["N", "R", "seed", "near_est", "near_lb", "far", "moment1", "moment2"]


def write_results_csv(config: ExperimentConfig, path: str | Path):
    """One row per (N, R, seed) with the fixed column set."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        wr.writeheader()
        for n in config.n_values:
            for trial in range(config.seeds):
                cell = run_cell(config, n, trial)
                for r in config.r_values:
                    wr.writerow({
                        "N": n, "R": r, "seed": cell.seed,
                        "near_est": float(cell.near_est),
                        "near_lb": float(cell.near_lb),
                        "far": float(cell.far),
                        "moment1": float(cell.moment1[r]),
                        "moment2": float(cell.moment1[r] ** 2),
                    })
    return path
