"""Experiment drivers: far-slab mean, moment sums, and the volume ratio.

Every experiment runs over a seeded family of realizations of one pruned
instance per N.  A (config, N, seed) cell is computed once and cached, so
the far-slab and moment experiments consume identical tube sets; exact
quantities are bit-reproducible from (config, seed) and the quadrature
estimates are deterministic given the slice count.

The near/far ratio follows the slab-decomposition route: the near volume
is accumulated over the x1 slabs [M^-R, M^-(R-1)] for integer R in
[c log N, 2c log N] (c defaults to 1/ln M so that the range contains an
integer at N = 2), each slab contributing a quadrature estimate and a
Cauchy-Schwarz lower bound (total tube volume squared over the pairwise
intersection sum).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from ._mix import trial_seed
from .errors import InvalidInput
from .fast1d import FastInstance, cs_bound
from .lacunarity import GeneratorSpec, generate
from .madic import cantor_tree, encode_set, full_tree, point_address
from .pruning import PrunedSlopeTree, prune
from .tubes import DEFAULT_A0, make_tube


@dataclass(frozen=True)
class ExperimentConfig:
    generator: str = "cantor:depth=25"
    M: int = 3
    d: int = 1
    n_values: tuple = (2, 3, 4, 5)
    C0: int = 1
    A0: int = DEFAULT_A0
    r_values: tuple = (1, 2)
    seeds: int = 200
    master_seed: int = 2024
    slices: int = 8
    ratio_c: float | None = None  # default 1/ln M
    out_dir: str = "runs"

    def __post_init__(self):
        if self.seeds < 1:
            raise InvalidInput("need at least one seed")

    def config_hash(self) -> str:
        payload = json.dumps(self.__dict__, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def c_ratio(self) -> float:
        return self.ratio_c if self.ratio_c is not None else 1.0 / math.log(self.M)

    def ratio_r_range(self, n: int) -> list[int]:
        c = self.c_ratio()
        lo, hi = c * math.log(n), 2 * c * math.log(n)
        rs = [r for r in range(1, 64) if lo <= r <= hi]
        return rs or [max(1, round(lo))]

    def to_jsonable(self):
        return dict(self.__dict__)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidInput(f"unknown config keys: {', '.join(unknown)}")
        for key in ("n_values", "r_values"):
            if key in obj:
                obj[key] = tuple(obj[key])
        return cls(**obj)


# ---------------------------------------------------------------------------
# instance and realization caches
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _prune_cached(generator: str, M: int, d: int, C0: int, n: int) -> PrunedSlopeTree:
    spec = GeneratorSpec.parse(generator)
    depth = spec.integer("depth", None)  # only cantor and full read it
    if depth is not None:
        tree = (cantor_tree if spec.kind == "cantor" else full_tree)(depth, M=M, d=d)
    else:
        tree = encode_set(generate(spec), M, spec.integer("J", 12))
    return prune(tree, N=n, C0=C0)


def pruned_instance(config: ExperimentConfig, n: int) -> PrunedSlopeTree:
    """The pruned slope tree for N = n, built once per generator, M, d and
    C0; ``_prune_cached.cache_info()`` counts hits and misses."""
    return _prune_cached(config.generator, config.M, config.d, config.C0, n)


def construct_kakeya(pruned: PrunedSlopeTree, seed: int):
    """The realized tube family K_N(X): one tube per root cube.

    For 1-d instances this returns (FastInstance, slope-code array); tubes
    are materialized lazily through :func:`kakeya_tubes` since the family
    has M^(dJ) members.
    """
    fast = FastInstance(pruned)
    return fast, fast.assign(seed)


def kakeya_tubes(pruned: PrunedSlopeTree, codes, A0: int = DEFAULT_A0, cap: int = 3 ** 9):
    K = pruned.M ** pruned.J
    if K > cap:
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

    def moment_sq(self, r: int) -> Fraction:
        return self.moment1[r] ** 2


def run_cell(config: ExperimentConfig, n: int, trial: int) -> CellMetrics:
    """All per-seed metrics for one (N, trial) cell.

    Cached on what the cell reads, so configs that differ only in
    ``seeds``, ``out_dir`` or ``n_values`` share their cells;
    ``_cell.cache_info()`` counts hits and misses.
    """
    pruned = _prune_cached(config.generator, config.M, config.d, config.C0, n)
    seed = trial_seed(config.master_seed, "cell", n, trial)
    return _cell(pruned, seed, config.A0, config.slices, tuple(config.r_values),
                 tuple(config.ratio_r_range(n)))


@lru_cache(maxsize=None)
def _cell(pruned: PrunedSlopeTree, seed: int, A0: int, slices: int,
          r_values: tuple, rs: tuple) -> CellMetrics:
    fast = FastInstance(pruned)
    codes = fast.assign(seed)
    M = pruned.M

    def near(r):
        return Fraction(M) ** -r, Fraction(M) ** (1 - r)

    far = fast.union_quadrature(codes, (Fraction(A0), Fraction(A0 + 1)), slices, A0)
    # one pair sum per distinct window: the moments and the CS bounds share it
    pairs = {r: fast.pair_sum(codes, near(r), A0)
             for r in sorted(set(r_values) | set(rs))}
    moment1 = {r: pairs[r] for r in r_values}
    near_est = sum((fast.union_quadrature(codes, near(r), slices, A0) for r in rs),
                   Fraction(0))
    near_lb = sum((cs_bound(near(r), pairs[r], A0) for r in rs), Fraction(0))

    return CellMetrics(n=pruned.N, seed=seed, far=far, moment1=moment1,
                       near_est=near_est, near_lb=near_lb, ratio_rs=rs)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def spearman_rho(xs, ys) -> float:
    """Spearman rank correlation (average ranks for ties)."""

    def ranks(vs):
        order = sorted(range(len(vs)), key=lambda i: vs[i])
        rk = [0.0] * len(vs)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vs[order[j + 1]] == vs[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                rk[order[k]] = avg
            i = j + 1
        return rk

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

    Each row carries the exact mean as a float, its standard error across
    seeds (``None`` below two seeds) and ``N * mean`` as a rate diagnostic.
    ``spearman_mean_far`` ranks N against the mean: the paper bounds
    E|far| by C/N, so 1/E|far| grows with N, but N * E|far| need not fall
    (it rises towards 4 under the survival bound 2/(1 + N/2)).
    """
    rows = []
    for n in config.n_values:
        fars = [run_cell(config, n, trial).far for trial in range(config.seeds)]
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
                acc2[r] += cell.moment_sq(r)
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


def experiment_ratio(config: ExperimentConfig, seeds: int | None = None):
    """Near/far volume ratios: quadrature and the lower-bound-only variant.

    A cell with ``far == 0`` has no ratio and is left out; ``per_n`` counts
    them in ``dropped_far_zero``.  The medians are upper medians, the
    element at index ``len // 2`` of the sorted ratios, and are ``None``
    when every cell of that N was left out.
    """
    seeds = seeds if seeds is not None else config.seeds
    rows = []
    per_n = {}
    for n in config.n_values:
        ratios_est, ratios_lb = [], []
        for trial in range(seeds):
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
            "dropped_far_zero": seeds - len(ratios_lb),
            "r_range": tuple(config.ratio_r_range(n)),
        }
    return {"rows": rows, "per_n": per_n,
            "c": config.c_ratio()}


def count_inversions(seq) -> int:
    return sum(1 for a, b in zip(seq, seq[1:]) if b < a)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    config_hash: str
    experiment: str
    payload: dict
    timestamp: float = field(default_factory=time.time)

    def to_json(self) -> str:
        return json.dumps({
            "config_hash": self.config_hash,
            "experiment": self.experiment,
            "timestamp": self.timestamp,
            "payload": self.payload,
        }, default=str)


def append_run_log(config: ExperimentConfig, experiment: str, payload: dict):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rec = RunRecord(config.config_hash(), experiment, payload)
    with open(out / "runlog.jsonl", "a") as fh:
        fh.write(rec.to_json() + "\n")
    return rec


CSV_COLUMNS = ["N", "R", "seed", "near_est", "near_lb", "far",
               "moment1", "moment2"]


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
                        "moment2": float(cell.moment_sq(r)),
                    })
    return path
