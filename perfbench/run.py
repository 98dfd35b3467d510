"""qslkit benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.  The
measured work runs in a fresh worker process (worker.py).  Times are scaled
to a reference host speed (hostspeed.py).  With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics wall_s,
setup_s and peak_rss_mb; with --trace 1 it carries the per-layer metrics of
tracing.METRICS, and the line before it gives the tracing overhead.  Both also
report the rows attempted and failed and whether every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Set-up is timed in this many extra fresh processes besides the worker's own.
SETUP_RUNS = 4
# The whole run, workers included, must end within this many seconds.
DEADLINE_S = 170.0


def _child(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped at the deadline)."""
    return subprocess.run(
        args, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def _last_json(proc: subprocess.CompletedProcess, what: str) -> dict:
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{what} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qslkit" / "cli.py").is_file():
        print(f"error: no qslkit sources under {src}; run from a qslkit checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = {k: v for k, v in os.environ.items() if k != "QSLKIT_THREADS"}
    env["PYTHONPATH"] = str(src)
    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS):
                t0 = time.perf_counter()
                ready = _last_json(_child(base + ["--setup-only"], env, deadline), "set-up")
                setups.append(hostspeed.scaled(ready["ready"] - t0, ready["setup_ticks"]))
        t0 = time.perf_counter()
        work = _child(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
        )
        result = _last_json(work, "worker")
        setups.append(hostspeed.scaled(result["ready"] - t0, result["setup_ticks"]))

        problems = result["problems"]
        if args.workload == "surface":
            # Output must not depend on the thread fan-out.
            outs = []
            for threads in ("1", "2"):
                probe = _child(
                    [sys.executable, "-m", "qslkit.cli", *workloads.threads_probe(args.seed)],
                    dict(env, QSLKIT_THREADS=threads), deadline,
                )
                if probe.returncode != 0:
                    problems.append(f"threads probe exited with {probe.returncode}")
                outs.append(probe.stdout)
            if outs[0] != outs[1]:
                problems.append("scan output differs between QSLKIT_THREADS=1 and 2")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in problems + result["notes"]:
        print(f"check: {line}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed} lam {workloads.draw_lam(args.seed)!r}: "
        f"{result['rounds']} rounds of {[round(w, 3) for w in result['round_walls']]} s "
        f"at the reference host speed, untraced median {result['raw_wall_s']:.3f} s as "
        f"measured; {result['failed']}/{result['attempted']} rows failed"
    )
    if args.trace:
        overhead = result["traced_wall_s"] - result["wall_s"]
        print(
            f"trace overhead: {overhead:+.3f} s on wall_s "
            f"({overhead / result['wall_s']:+.1%}, untraced {result['wall_s']:.3f} s, "
            f"traced {result['traced_wall_s']:.3f} s); {result['spans']} spans in "
            f"{result['spans_file']}"
        )
        metrics = result["per_layer"]
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
