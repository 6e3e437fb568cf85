"""Command-line laboratory entry points.

Subcommands operate on generator minispecs (``cantor:L=6``,
``dyadic:m=8``, ``cantor:depth=25`` for the lazy tree) or on a JSON
config for the experiment drivers.  Exit codes: 0 success, 2 validation
error, 3 infeasible instance, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import InfeasibleInstance, InvalidInput, SizeCapExceeded
from .harness import (
    ExperimentConfig,
    append_run_log,
    construct_kakeya,
    experiment_far_slab,
    experiment_moments,
    experiment_ratio,
    pruned_instance,
    run_cell,
    write_results_csv,
)
from .lacunarity import (
    GeneratorSpec,
    decompose_lacunary_order,
    decompose_split_one,
    generate,
    is_lacunary_sequence,
    verify_witness,
)
from .madic import (
    cantor_tree,
    encode_set,
    full_tree,
    points_to_json,
    splitting_number,
    splitting_number_1d_points,
)
from .pruning import prune

USAGE_ERROR = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def _tree_from_spec(text: str, base: int):
    spec = GeneratorSpec.parse(text)
    depth = spec.integer("depth", None)  # only cantor and full read it
    if depth is not None:
        return (cantor_tree if spec.kind == "cantor" else full_tree)(depth, M=base)
    if spec.kind == "cantor" and spec.get("L"):
        # ``cantor:L=k`` encodes the level-k endpoints as a point tree
        pts = generate(spec)
        return encode_set(pts, base, spec.integer("L", 3))
    pts = generate(spec)
    import math
    J = max(8, max(c.denominator for p in pts for c in p).bit_length()
            // max(1, int(math.log2(base))))
    return encode_set(pts, base, min(J, 40))


def cmd_encode(args) -> int:
    pts = generate(args.set)
    print(points_to_json(pts, args.base, len(pts[0]), args.height))
    return 0


def cmd_split_number(args) -> int:
    spec = GeneratorSpec.parse(args.set)
    if spec.integer("depth", None) is not None:
        tree = _tree_from_spec(args.set, args.base)
        print(splitting_number(tree))
        return 0
    pts = generate(spec)
    if len(pts[0]) == 1:
        print(splitting_number_1d_points([p[0] for p in pts], args.base))
    else:
        tree = _tree_from_spec(args.set, args.base)
        print(splitting_number(tree))
    return 0


def cmd_lacunarity(args) -> int:
    pts = [p[0] for p in generate(args.set)]
    if args.order_one:
        seqs = decompose_split_one(pts, args.base)
        ok = all(is_lacunary_sequence(s, a, Fraction(1, args.base))
                 for s, a in seqs)
        print(json.dumps({
            "sequences": len(seqs), "bound_6M": 6 * args.base,
            "all_verified": ok,
            "members": [[str(x) for x in s] for s, _ in seqs],
        }, indent=1))
        return 0 if ok else 3
    pieces, order = decompose_lacunary_order(pts, args.base)
    ok = all(verify_witness(list(sub), w) for sub, w in pieces)
    print(json.dumps({
        "order": order, "pieces": len(pieces), "all_verified": ok,
        "witnesses": [w.to_jsonable() for _, w in pieces],
    }, indent=1))
    return 0 if ok else 3


def cmd_prune(args) -> int:
    tree = _tree_from_spec(args.set, args.base)
    pruned = prune(tree, N=args.N, C0=args.C0)
    print(pruned.to_json())
    return 0


def cmd_construct(args) -> int:
    cfg = _config_from_args(args)
    pruned = pruned_instance(cfg, args.N)
    _, codes = construct_kakeya(pruned, args.seed)
    out = {
        "M": pruned.M, "J": pruned.J, "N": args.N, "seed": args.seed,
        "tube_count": int(pruned.M ** pruned.J),
        "slopes": [str(s[0]) for s in pruned.slopes],
    }
    if pruned.M ** pruned.J <= 3 ** 8 or args.full:
        out["assignment"] = [int(c) for c in codes]
    print(json.dumps(out))
    return 0


def cmd_volume(args) -> int:
    cfg = _config_from_args(args)
    cell = run_cell(cfg, args.N, args.trial)
    print(json.dumps({
        "N": args.N, "trial": args.trial, "seed": cell.seed,
        "far": float(cell.far), "near_est": float(cell.near_est),
        "near_lb": float(cell.near_lb),
    }))
    return 0


def cmd_moments(args) -> int:
    cfg = _config_from_args(args)
    table = experiment_moments(cfg)
    append_run_log(cfg, "moments", table)
    if args.csv:
        write_results_csv(cfg, args.csv)
    print(json.dumps(table, indent=1))
    return 0


def cmd_far(args) -> int:
    cfg = _config_from_args(args)
    table = experiment_far_slab(cfg)
    append_run_log(cfg, "far_slab", table)
    print(json.dumps(table, indent=1))
    return 0


def cmd_ratio(args) -> int:
    cfg = _config_from_args(args)
    table = experiment_ratio(cfg)
    append_run_log(cfg, "ratio", table)
    print(json.dumps(table, indent=1))
    return 0


def cmd_percolate(args) -> int:
    from .percolation import (survival_exact, survival_monte_carlo,
                              survival_upper_bound, total_resistance)
    tree = full_tree(args.N, M=2)
    q = survival_exact(tree)
    b1, b2 = survival_upper_bound(tree)
    f = survival_monte_carlo(tree, Fraction(1, 2), args.trials, args.seed)
    print(json.dumps({
        "tree": f"full binary height {args.N}",
        "resistance": str(total_resistance(tree)),
        "survival_exact": str(q), "bound_sharp": str(b1),
        "bound_merged": str(b2), "monte_carlo": f,
    }))
    return 0


def cmd_verify_prob(args) -> int:
    from itertools import combinations, product
    from .counting import all_root_cubes
    from .sticky import is_sticky_admissible, prob_closed_form, prob_exact

    cfg = _config_from_args(args)
    pruned = pruned_instance(cfg, args.N)
    roots = all_root_cubes(pruned)
    checked = agreed = 0
    for ta, tb in combinations(roots, 2):
        for ca, cb in product(range(2 ** pruned.N), repeat=2):
            prs = [(ta, ca), (tb, cb)]
            ok, _ = is_sticky_admissible(pruned, prs)
            if not ok:
                continue
            checked += 1
            agreed += prob_exact(pruned, prs) == prob_closed_form(pruned, prs)
    print(json.dumps({"N": args.N, "J": pruned.J, "pairs_checked": checked,
                      "agreement": "all tuples agree" if agreed == checked
                      else f"{checked - agreed} disagreements"}))
    return 0 if agreed == checked else 3


def _config_from_args(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return ExperimentConfig.from_json(fh.read())
    kw = {}
    for name in ("generator", "M", "C0", "A0", "seeds", "master_seed", "slices"):
        if getattr(args, name, None) is not None:
            kw[name] = getattr(args, name)
    if getattr(args, "n_values", None):
        kw["n_values"] = tuple(int(x) for x in args.n_values.split(","))
    if getattr(args, "r_values", None):
        kw["r_values"] = tuple(int(x) for x in args.r_values.split(","))
    return ExperimentConfig(**kw)


def _add_config_options(sp):
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--generator", default=None)
    sp.add_argument("--M", type=int, default=None)
    sp.add_argument("--C0", type=int, default=None)
    sp.add_argument("--A0", type=int, default=None)
    sp.add_argument("--seeds", type=int, default=None)
    sp.add_argument("--master-seed", dest="master_seed", type=int, default=None)
    sp.add_argument("--slices", type=int, default=None)
    sp.add_argument("--n-values", dest="n_values", default=None)
    sp.add_argument("--r-values", dest="r_values", default=None)


def build_parser() -> _Parser:
    ap = _Parser(prog="kakeyalab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("encode", help="emit a point-set JSON encoding")
    p.add_argument("--set", required=True)
    p.add_argument("--base", type=int, default=3)
    p.add_argument("--height", type=int, default=8)
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("split-number", help="splitting number of a set's tree")
    p.add_argument("--set", required=True)
    p.add_argument("--base", type=int, default=3)
    p.set_defaults(fn=cmd_split_number)

    p = sub.add_parser("lacunarity", help="decompose and verify lacunarity")
    p.add_argument("--set", required=True)
    p.add_argument("--base", type=int, default=2)
    p.add_argument("--order-one", action="store_true")
    p.set_defaults(fn=cmd_lacunarity)

    p = sub.add_parser("prune", help="emit a pruned slope tree as JSON")
    p.add_argument("--set", required=True)
    p.add_argument("--base", type=int, default=3)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--C0", type=int, default=2)
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("construct", help="realize a random tube family")
    _add_config_options(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("volume", help="per-seed volumes of one cell")
    _add_config_options(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(fn=cmd_volume)

    p = sub.add_parser("moments", help="moment experiment table")
    _add_config_options(p)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("far-slab", help="far-slab mean experiment")
    _add_config_options(p)
    p.set_defaults(fn=cmd_far)

    p = sub.add_parser("ratio", help="near/far volume ratio experiment")
    _add_config_options(p)
    p.set_defaults(fn=cmd_ratio)

    p = sub.add_parser("percolate", help="survival statistics on a binary tree")
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_percolate)

    p = sub.add_parser("verify-prob", help="closed form vs exact probability sweep")
    _add_config_options(p)
    p.add_argument("--N", type=int, default=2)
    p.set_defaults(fn=cmd_verify_prob)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInput, SizeCapExceeded) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except InfeasibleInstance as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
