"""kakeyalab benchmark.

    python3 perfbench/run.py --workload cell_sweep --seed 0 --seconds 30 --trace 0

Runs one workload (or ``all`` three in turn) in fresh single-threaded
processes and prints every metric by name with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, measured with tracing off; ``--trace 1`` reports the
per-layer metrics of a traced process, with the tracing overhead measured
against an untraced process of the same seed.  Times are rescaled to a
reference host speed (``hostspeed.py``); the printed notes give the raw
figures.  Workloads, metrics and bounds are defined in BENCHMARK.json at
the root of the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from stats import median, tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# set-up processes per --trace 0 run, the timed one included; setup_s is
# their median.  Half start before the timed process and half after it, so
# the samples span the run and not one moment of the host's load.
SETUP_REPEATS = 9
BUDGET_S = 170      # one workload's run must end within 180 s


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def spawn(workload: str, seed: int, seconds: float, trace: int,
          deadline: float, setup_only: bool = False) -> dict:
    """Run one worker process to the end; adds ``setup_s`` (process start
    to the end of its set-up, at the reference host speed) and
    ``raw_setup_s`` to the worker's JSON line."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker ran past the time budget")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    res = json.loads(stdout.strip().splitlines()[-1])
    res["raw_setup_s"] = res["ready_clock"] - spawned
    res["setup_s"] = res["raw_setup_s"] * res["ready_factor"]
    return res


def end_to_end(runs: list[dict], main: dict) -> tuple[dict, dict]:
    """End-to-end metrics and the notes that go with them.  Times are at
    the reference host speed; the notes give the raw figures."""
    lat = main["latencies_ms"]
    tl = tail(lat)
    raw_tl = tail(main["raw_latencies_ms"])
    values = {
        "setup_s": median([r["setup_s"] for r in runs]),
        "items_per_s": main["items"] / main["busy_s"],
        "item_ms_p50": median(lat),
        "item_ms_tail": tl["value"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(runs)} fresh processes; raw "
                   f"{median([r['raw_setup_s'] for r in runs]):.4g}",
        "items_per_s": f"{main['items']} items in {main['rounds']} rounds; raw "
                       f"{main['items'] / main['raw_busy_s']:.4g}, "
                       f"{main['wall_s']:.1f} s wall",
        "item_ms_p50": f"n={len(lat)}; raw {median(main['raw_latencies_ms']):.4g}",
        "item_ms_tail": f"{tl['label']}, n={tl['n']}, {tl['beyond']} beyond; "
                        f"raw {raw_tl['value']:.4g}",
        "peak_rss_mb": f"workload process; host speed factor "
                       f"{main['host_factor']:.3f}",
    }
    return values, notes


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    if trace:
        plain = spawn(name, seed, seconds, 0, deadline)
        traced = spawn(name, seed, seconds, 1, deadline)
        rate = plain["items"] / plain["busy_s"]
        traced_rate = traced["items"] / traced["busy_s"]
        values = dict(traced["per_layer"])
        values["trace.overhead_frac"] = (rate - traced_rate) / rate
        notes = {"trace.overhead_frac":
                 f"untraced {rate:.4g} vs traced {traced_rate:.4g} items/s"}
        if traced["not_traced"]:
            notes["not traced"] = ", ".join(traced["not_traced"])
        workers = [plain, traced]
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    else:
        def setup_runs(k):
            return [spawn(name, seed, seconds, 0, deadline, setup_only=True)
                    for _ in range(k)]

        before = setup_runs(SETUP_REPEATS // 2)
        main = spawn(name, seed, seconds, 0, deadline)
        after = setup_runs(SETUP_REPEATS - 1 - len(before))
        values, notes = end_to_end(before + [main] + after, main)
        workers = [main]
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(len(w["failed_keys"]) for w in workers)
    return {
        "workload": name, "seed": seed, "trace": trace,
        "correct": failed == 0 and not any(w["errors"] for w in workers),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failed_keys": sorted({k for w in workers for k in w["failed_keys"]}),
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "notes": notes,
        "numpy": workers[0]["numpy"],
    }


def provenance(seed: int, numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kakeyalab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha, "src_sha256": src.hexdigest()[:16], "seed": seed}


def report(result: dict) -> None:
    print(f"{result['workload']}  seed={result['seed']}  trace={result['trace']}")
    for m, v in result["metrics"].items():
        note = result["notes"].get(m, "")
        print(f"  {m:40s} {v['value']:>14.6g} {v['unit']:<10s} {note}")
    print(f"  {'failed_frac':40s} {result['failed_frac']:>14.6g} {'ratio':<10s} "
          f"{result['failed']} of {result['attempted']} items")
    if "not traced" in result["notes"]:
        print(f"  not traced: {result['notes']['not traced']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kakeyalab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kakeyalab" / "__init__.py").is_file():
        print(f"perfbench: no kakeyalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(n, args.seed, args.seconds, args.trace,
                                time.monotonic() + BUDGET_S)
                   for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    prov = provenance(args.seed, results[0]["numpy"])
    OUT.mkdir(exist_ok=True)
    for res in results:
        report(res)
        res["provenance"] = prov
        path = OUT / f"result-{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1) + "\n")
    print("provenance " + json.dumps(prov))

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v
                   for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
