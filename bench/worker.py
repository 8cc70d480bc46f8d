"""One workload process: set up, then a closed loop of CLI requests.

Started by ``run.py``; not meant to be run by hand.  The process imports
the package from the checkout's ``src``, loads the workload's inputs and
sends one untimed warm-up request; that is its set-up, timed from the
moment ``run.py`` started it.  It then sends one request at a time through
``penciljk.cli.main(argv)``, timing each call alone, and checks each
report.  Inputs are written round by round between requests, so no two
requests of a run share an input (except the fixed e(2) request).  The
result goes to a JSON file named on the command line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time

import checks
import workloads

# traced runs cover a fixed set of requests, the first rounds of the seed, so
# that their counts repeat exactly from one run to the next
TRACE_ROUNDS = 2
# calibrations after set-up; one more precedes every timed request
SETUP_CALIBRATIONS = 10
# mean time of calibrate() on the reference machine (2 virtual cores,
# Python 3.11.7); times are reported in seconds of that machine
CALIBRATION_REF_S = 0.0025


def _import_package(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import penciljk
    import penciljk.cli

    where = os.path.realpath(penciljk.__file__)
    if not where.startswith(os.path.realpath(root) + os.sep):
        raise ImportError(f"penciljk was imported from {where}, outside the checkout")
    return penciljk.cli


class Workload:
    """The inputs of one workload: a warm-up request and numbered rounds."""

    def __init__(self, name: str, seed: int, folder: str):
        self.name = name
        self.seed = seed
        self.folder = folder
        self.tables = None
        self.closure = None
        if name == "lie-catalog":
            with open(os.path.join(folder, "tables.json"), encoding="utf-8") as fh:
                self.tables = json.load(fh)

    def warmup(self) -> dict:
        if self.name == "pencil-corpus":
            return workloads.pencil_warmup(self.folder)
        if self.name == "lie-catalog":
            return workloads.lie_warmup(self.folder, self.tables)
        return workloads.closure_warmup(self.folder)

    def round(self, rnd: int) -> list[dict]:
        if self.name == "pencil-corpus":
            return workloads.pencil_round(self.seed, rnd, self.folder)
        if self.name == "lie-catalog":
            return workloads.lie_round(self.seed, rnd, self.folder, self.tables)
        if self.closure is None:
            self.closure = workloads.ClosureSource(self.seed)
        return self.closure.round(rnd, self.folder)


def calibrate() -> float:
    """Seconds for a fixed fraction-free elimination (about 2.5 ms).

    The machine is shared, and its speed drifts by a third over minutes.
    Timing this kernel next to the requests lets ``run.py`` state every
    time in seconds of the reference machine.  The kernel is the package's
    hot loop in miniature: Bareiss elimination of a 24 x 24 integer matrix,
    whose entries grow to about 380 bits.  It is the benchmark's own code,
    so a change to the package cannot change it.
    """
    rng = random.Random("calibration")
    k = 24
    rows = [[rng.getrandbits(16) - (1 << 15) for _ in range(k)] for _ in range(k)]
    start = time.perf_counter()
    prev, r = 1, 0
    for c in range(k):
        pivot_row = next((i for i in range(r, k) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot, top = rows[r][c], rows[r]
        for i in range(r + 1, k):
            row = rows[i]
            head = row[c]
            for j in range(c + 1, k):
                row[j] = (row[j] * pivot - head * top[j]) // prev
            row[c] = 0
        prev = pivot
        r += 1
    return time.perf_counter() - start


def speed(calibrations: list[float]) -> float:
    """Factor taking this process's seconds to reference-machine seconds."""
    return CALIBRATION_REF_S / statistics.fmean(calibrations)


def send(main, argv: list[str]) -> tuple[int, str, float]:
    """One request: exit code, captured stdout and wall seconds of the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed request, not a failed run
            code = -1
            out.write(f"crash: {exc!r}")
        elapsed = time.perf_counter() - start
    # what this request left on the heap is not scanned by the collector
    # during later requests, as it would not be in a fresh CLI process
    gc.collect()
    gc.freeze()
    return code, out.getvalue(), elapsed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--folder", required=True)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    cli = _import_package(args.root)
    work = Workload(args.workload, args.seed, args.folder)
    warm = work.warmup()
    code, _, _ = send(cli.main, warm["argv"])
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    calibrations = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    result = {"setup_s": setup_s, "warmup_code": code, "setup_calibrations": list(calibrations)}
    if args.setup_only:
        return _write(args.result, result)

    tracer = None
    call = cli.main
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        call = tracer.wrap("cli", cli.main)

    times: list[float] = []
    failures: list[dict] = []
    kinds: dict[str, tuple[int, float]] = {}
    round_seconds: list[float] = []
    rounds = 0
    while (rounds < TRACE_ROUNDS) if tracer else (sum(times) * speed(calibrations) < args.seconds):
        for request in work.round(rounds):
            calibrations.append(calibrate())
            if tracer:
                tracer.request = len(times)
            code, stdout, elapsed = send(call, request["argv"])
            times.append(elapsed)
            count, seconds = kinds.get(request["kind"], (0, 0.0))
            kinds[request["kind"]] = (count + 1, seconds + elapsed)
            reason = checks.check(request["kind"], code, stdout, request["expect"])
            if reason is not None:
                failures.append({"argv": request["argv"], "reason": reason,
                                 "known": request.get("known_fault")})
        round_seconds.append(sum(times) - sum(round_seconds))
        rounds += 1
    result.update(
        times=times,
        calibrations=calibrations,
        round_seconds=round_seconds,
        kinds=kinds,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        result["per_layer"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
