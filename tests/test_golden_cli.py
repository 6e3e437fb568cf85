"""The README's CLI examples and one run of each other subcommand, pinned.

``tests/golden/cli.json`` holds, per command line, the JSON that command
prints on stdout.  The ``prune`` output pins the pruned slope tree (slopes,
splitting vertices, coding table, fundamental heights); the ``verify-prob``
output pins ``pairs_checked``, the number of sticky-admissible root-slope
pairs of its instance.  The ``lacunarity`` lines pin the verified
witnesses of two order-1 sets (the power sequence's three special lists
are its split-1 decomposition), an order-4 one with nested witnesses,
and the d = 2 tree's splitting number of Carbery's product set with its
projections; ``percolate`` pins the exact fair-bit
resistance, survival and bounds with a seeded Monte Carlo estimate;
``encode`` pins the Parcet-Rogers direction points, and ``split-number``
the d = 2 tree's splitting number of Carbery's product set.  Regenerate only when
a change is meant to alter the output:

    PYTHONPATH=src python tests/test_golden_cli.py

The config options of the six experiment-config commands are pinned too:
each option's strings, ``dest`` and ``type`` (by name).
"""

import argparse
import json
from pathlib import Path

from kakeyalab.cli import build_parser
from kakeyalab.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
COMMANDS = (
    "prune --set cantor:depth=40 --base 3 --N 3 --C0 2",
    "verify-prob --generator full:depth=12 --M 2 --C0 1 --N 2",
    "lacunarity --set power:lam=1/2,J=12 --base 2",
    "lacunarity --set cantor:L=4 --base 3",
    "lacunarity --set perturbed_geometric:jmax=4 --base 2",
    "lacunarity --set carbery:lam=1/2,kmax=4,d=2 --base 2",
    "percolate --N 3 --trials 2000",
    "encode --set parcet_rogers:lmax=5 --base 2 --height 6",
    "split-number --set carbery:lam=1/2,kmax=4,d=2 --base 2",
)


def test_cli_reproduces_golden_outputs(capsys):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(COMMANDS)
    for command, want in golden.items():
        assert cli_main(command.split()) == 0, command
        assert json.loads(capsys.readouterr().out) == want, command


CONFIG_COMMANDS = ("construct", "volume", "moments", "far-slab", "ratio", "verify-prob")
# (option strings, dest, name of the type) of every config option
CONFIG_OPTIONS = {
    (("--config",), "config", None),
    (("--generator",), "generator", None),
    (("--M",), "M", "int"),
    (("--C0",), "C0", "int"),
    (("--A0",), "A0", "int"),
    (("--seeds",), "seeds", "int"),
    (("--master-seed",), "master_seed", "int"),
    (("--slices",), "slices", "int"),
    (("--n-values",), "n_values", "_int_list"),
    (("--r-values",), "r_values", "_int_list"),
}


def test_config_options_are_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {dest for _, dest, _ in CONFIG_OPTIONS}
    for cmd in CONFIG_COMMANDS:
        got = {(tuple(a.option_strings), a.dest, getattr(a.type, "__name__", None))
               for a in sub.choices[cmd]._actions if a.dest in dests}
        assert got == CONFIG_OPTIONS, cmd
        args = sub.choices[cmd].parse_args(
            ["--n-values", "2,3", "--master-seed", "7"]
            + (["--N", "2"] if cmd in ("construct", "volume") else []))
        assert (args.n_values, args.master_seed, args.M) == ((2, 3), 7, None), cmd


if __name__ == "__main__":
    import contextlib
    import io

    table = {}
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli_main(command.split()) == 0, command
        table[command] = json.loads(out.getvalue())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
