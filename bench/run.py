"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload pencil-corpus --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src``; there is nothing to
build.  Each run starts ``SETUPS`` fresh workload processes (``worker.py``):
all but the last only set up, the last also runs the closed loop of
requests.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  Inputs live in ``.bench_runs/`` and are removed at the end; the spans
of a traced run stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import speed  # noqa: E402

SETUPS = 5
WORKER_TIMEOUT_S = 150


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def spawn(args, root: str, folder: str, result: str, setup_only: bool, spans: str | None):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", root, "--folder", folder, "--result", result,
    ]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, env=env, cwd=root, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "penciljk", "cli.py")):
        return fail("run from the root of a penciljk checkout (src/penciljk not found)")
    runs = os.path.join(root, ".bench_runs")
    folder = os.path.join(runs, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(folder)
    spans = os.path.join(runs, f"spans-{args.workload}-seed{args.seed}.bin") if args.trace else None
    try:
        if args.workload == "lie-catalog":
            sys.path.insert(0, os.path.join(root, "src"))
            workloads.write_static(folder)
        setups = []
        for i in range(SETUPS):
            last = i == SETUPS - 1
            res = spawn(args, root, folder, os.path.join(folder, f"result{i}.json"),
                        not last, spans if last else None)
            if res["warmup_code"] not in (0, 3):
                return fail(f"warm-up request exited with {res['warmup_code']}")
            setups.append(res["setup_s"] * speed(res["setup_calibrations"]))
    except (OSError, ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(folder, ignore_errors=True)

    scale = speed(res["calibrations"])
    times = [t * scale for t in res["times"]]
    unknown = [f for f in res["failures"] if not f["known"]]
    for f in res["failures"]:
        sys.stderr.write(f"failed ({'known fault' if f['known'] else 'WRONG'}): "
                         f"{' '.join(f['argv'])}: {f['reason']}\n")
    rounds = ", ".join(f"{t * scale:.2f}" for t in res["round_seconds"])
    sys.stderr.write(f"{args.workload}: {len(times)} requests, speed factor {scale:.4f}, "
                     f"seconds per round {rounds}\n")
    for kind, (count, seconds) in sorted(res["kinds"].items()):
        sys.stderr.write(f"  {kind}: {count} requests, {seconds:.2f} s\n")
    if args.trace:
        metrics = res["per_layer"]
        for metric in metrics.values():
            if metric["unit"] == "s":
                metric["value"] *= scale
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_p95_s": {"value": statistics.quantiles(times, n=20)[18], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(times),
        "failed": len(res["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
