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
import time
from dataclasses import fields
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
    _check_cap,
    decompose_lacunary_order,
    direction_evidence,
    generate,
    spec_tree,
    verify_witness,
)
from .madic import (
    full_tree,
    points_to_json,
    splitting_number,
    splitting_number_1d_points,
)
from .pruning import prune

USAGE_ERROR = 64
# the denominators a JSON output may print: str() refuses an int of more
# than 4,300 digits by default, and one of 14,000 bits has at most 4,215
_JSON_CAP_BITS = 14_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_ERROR)


def cmd_encode(args) -> int:
    if args.base < 2 or args.height < 0:
        raise InvalidInput("need --base >= 2 and --height >= 0")
    pts = generate(args.set)
    _check_cap((c for p in pts for c in p), _JSON_CAP_BITS)
    print(points_to_json(pts, args.base, len(pts[0]), args.height))
    return 0


def cmd_split_number(args) -> int:
    spec = GeneratorSpec.parse(args.set)
    if spec.integer("depth", None) is None:
        pts = generate(spec)
        if len(pts[0]) == 1:
            print(splitting_number_1d_points([p[0] for p in pts], args.base))
            return 0
    print(splitting_number(spec_tree(spec, args.base)))
    return 0


def cmd_lacunarity(args) -> int:
    """A 1-d set's verified lacunary witnesses.  A set in [0,1)^d with
    d >= 2 has no decomposition here: the command prints ``d``, the
    splitting number of its d-dimensional tree and, under ``projections``,
    those of its projections onto the axes and the diagonals keyed by
    direction as ``"1,-1"``, which are evidence only.  For
    ``carbery:lam=1/2,kmax=4,d=2`` at M = 2 the tree reads 2 and the
    projections 1, 1, 2 and 3."""
    spec = GeneratorSpec.parse(args.set)
    pts = generate(spec)
    # every rational written below has at most the bits of these points
    _check_cap((c for p in pts for c in p), _JSON_CAP_BITS)
    d = len(pts[0])
    if d > 1:
        evidence = direction_evidence(pts, args.base)
        print(json.dumps({
            "d": d,
            "splitting_number": splitting_number(spec_tree(spec, args.base)),
            "projections": {",".join(map(str, w)): n for w, n in evidence.items()},
        }, indent=1))
        return 0
    pieces, order = decompose_lacunary_order([p[0] for p in pts], args.base)
    ok = all(verify_witness(list(sub), w) for sub, w in pieces)
    print(json.dumps({
        "order": order, "pieces": len(pieces), "all_verified": ok,
        "witnesses": [w.to_jsonable() for _, w in pieces],
    }, indent=1))
    return 0 if ok else 3


def cmd_prune(args) -> int:
    pruned = prune(spec_tree(args.set, args.base), N=args.N, C0=args.C0)
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


# subcommand -> (run-log name, experiment, help)
EXPERIMENTS = {
    "moments": ("moments", experiment_moments, "moment experiment table"),
    "far-slab": ("far_slab", experiment_far_slab, "far-slab mean experiment"),
    "ratio": ("ratio", experiment_ratio, "near/far volume ratio experiment"),
}


def cmd_experiment(args) -> int:
    cfg = _config_from_args(args)
    name, experiment, _ = EXPERIMENTS[args.cmd]
    t0 = time.perf_counter()
    table = experiment(cfg)
    append_run_log(cfg, name, table, elapsed_s=time.perf_counter() - t0)
    if getattr(args, "csv", None):
        write_results_csv(cfg, args.csv)
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
        try:
            with open(args.config) as fh:
                return ExperimentConfig.from_json(fh.read())
        except (OSError, InvalidInput) as exc:
            raise InvalidInput(f"{args.config}: {exc}") from None
    return ExperimentConfig(**{f.name: getattr(args, f.name) for f in _config_fields()
                               if getattr(args, f.name) is not None})


def _int_list(text: str) -> tuple:
    """A comma-separated list of integers, such as ``2,3,4``."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def _config_fields():
    """The config fields with a command-line option: all but ``out_dir``."""
    return [f for f in fields(ExperimentConfig) if f.name != "out_dir"]


def _add_config_options(sp):
    sp.add_argument("--config", help="JSON config file")
    for f in _config_fields():
        sp.add_argument("--" + f.name.replace("_", "-"), dest=f.name, default=None,
                        type={"int": int, "tuple": _int_list, "str": None}[f.type])


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

    for cmd, (_, _, text) in EXPERIMENTS.items():
        p = sub.add_parser(cmd, help=text)
        _add_config_options(p)
        if cmd == "moments":
            p.add_argument("--csv", default=None)
        p.set_defaults(fn=cmd_experiment)

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
