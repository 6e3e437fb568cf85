"""One workload process: set up, run timed rounds, check the outputs.

``run.py`` starts this file once per measurement, so the program's
module-level caches always start empty.  It prints one JSON line with the
measurements and exits.  The set-up ends at ``ready_clock``, read from the
system-wide monotonic clock so that the parent can subtract the moment it
started this process; ``ready_factor`` rescales that set-up time to the
reference host speed (see ``hostspeed``), as ``run_rounds`` does for every
timed item.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
READY_SAMPLES = 8  # kernel samples right after the set-up


class NoProgram(Exception):
    pass


def load_program():
    """Import kakeyalab from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "kakeyalab"
    if not (pkg / "__init__.py").is_file():
        raise NoProgram(f"no kakeyalab sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import kakeyalab
    if Path(kakeyalab.__file__).resolve().parent != pkg.resolve():
        raise NoProgram(f"kakeyalab was imported from {kakeyalab.__file__}")


def rounds_for(seconds: float, wl) -> int:
    """Whole rounds in a run of ``seconds``: the same work on every commit."""
    return max(1, round(seconds / wl.ROUND_SECONDS))


def run_rounds(wl, rounds: int, host: HostSpeed):
    """``rounds`` whole rounds in a closed loop, each item timed.  Between
    items ``host`` samples the host speed; latencies and ``busy_s`` (the
    time of all items and round ends) are at the reference speed."""
    timed, done, failed, errors = [], [], [], []
    busy = []  # (start, seconds) of every item and round end
    t0 = time.perf_counter()
    for r in range(rounds):
        items, finish = wl.round(r)
        for key, fn in items:
            host.maybe_sample()
            start = time.perf_counter()
            try:
                fn()
            except Exception:
                busy.append((start, time.perf_counter() - start))
                failed.append(key)
                errors.append(traceback.format_exc())
                continue
            busy.append((start, time.perf_counter() - start))
            timed.append(busy[-1])
            done.append(key)
        if finish is not None:
            host.maybe_sample()
            start = time.perf_counter()
            try:
                finish()
            except Exception:
                errors.append(traceback.format_exc())
            busy.append((start, time.perf_counter() - start))
    wall = time.perf_counter() - t0
    host.sample(2)  # the last items get samples after them too
    return {"wall_s": wall, "rounds": rounds,
            "busy_s": sum(host.scale(s, d) for s, d in busy),
            "raw_busy_s": sum(d for _, d in busy),
            "latencies_ms": [host.scale(s, d) * 1e3 for s, d in timed],
            "raw_latencies_ms": [d * 1e3 for _, d in timed],
            "host_factor": host.factor(),
            "done": done, "failed": failed, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    try:
        load_program()
    except NoProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from layers import LayerTracer
        tracer = LayerTracer()
        tracer.install_all()
    wl = WORKLOADS[args.workload](args.seed)
    wl.setup()
    out = {"ready_clock": time.monotonic(), "numpy": numpy.__version__}
    host = HostSpeed()
    host.sample(READY_SAMPLES)
    out["ready_factor"] = host.factor()
    t_ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps(out))
        return 0

    res = run_rounds(wl, rounds_for(args.seconds, wl), host)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        from layers import metrics
        out["per_layer"] = metrics(tracer, t_ready, len(res["done"]))
        out["not_traced"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")

    rng = random.Random(f"{args.workload}:{args.seed}:check")
    try:
        check_failed = wl.check(list(res["done"]), rng)
    except Exception:  # a check that cannot run fails every item it covers
        traceback.print_exc()
        check_failed = list(res["done"])
    for err in res["errors"][:3]:
        print(err, file=sys.stderr)
    out.update({k: res[k] for k in ("wall_s", "rounds", "busy_s", "raw_busy_s",
                                    "latencies_ms", "raw_latencies_ms",
                                    "host_factor")})
    out["items"] = len(res["done"])
    out["attempted"] = len(res["done"]) + len(res["failed"])
    out["failed_keys"] = sorted(set(res["failed"]) | set(check_failed))
    out["errors"] = len(res["errors"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
