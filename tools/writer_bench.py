"""Time the CSV writer, csvbytes.RowWriter.rows, on the rows of the `series` workload.

    python3 tools/writer_bench.py [--pairs N] [CHECKOUT]
    python3 tools/writer_bench.py --against OTHER [--pairs N] [CHECKOUT]

The rows are those of the two seed-1 `decay-rate` requests of
perfbench/workloads.py (10^6 rows each: t, gamma_over_gamma0 and clipped), as
scan.sweep_decay_rate computes them.  Each run is a fresh child process with
CHECKOUT's src/ (default: this checkout) on its path.  It computes the
columns, untimed, and then formats them as `qslkit decay-rate` does, one
new RowWriter per request and chunks of cli._CHUNK_ROWS rows, three times;
it reports the fastest of the three in ms per 10^6 rows, and the SHA-256 of
the text.

Without --against, N runs of CHECKOUT are printed with their median.  With
--against OTHER, each of N pairs runs both checkouts, alternating which goes
first, and the medians and the number of pairs each side won are printed.
The exit code is 1 if any run's text differs from the first run's, else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1
REPEATS = 3

CHILD = """
import hashlib, json, sys, time
import numpy as np
sys.path.insert(0, sys.argv[1])
import workloads  # read only: the request parameters
from qslkit import cli, csvbytes, scan
from qslkit.model import ModelParams

requests = []
for r in workloads.requests("series", int(sys.argv[2])):
    if r.kind == "decay-rate":
        p = r.params
        s = scan.sweep_decay_rate(ModelParams(p["gamma0"], p["lam"], p["delta"]), p["t_max"],
                                  p["n_points"], clip=p["clip"])
        requests.append([np.asarray(s.times, dtype=float), np.asarray(s.values, dtype=float),
                         np.asarray(s.clipped, dtype=bool)])
kinds = ("float", "float", "bool")
rows = sum(len(cols[0]) for cols in requests)
best = float("inf")
for _ in range(int(sys.argv[3])):
    texts = []
    start = time.perf_counter()
    for cols in requests:
        writer = csvbytes.RowWriter()
        for i in range(0, len(cols[0]), cli._CHUNK_ROWS):
            texts.append(writer.rows([col[i:i + cli._CHUNK_ROWS] for col in cols], kinds))
    best = min(best, time.perf_counter() - start)
digest = hashlib.sha256("".join(texts).encode()).hexdigest()
print(json.dumps({"ms_per_mrow": best * 1e3 * 1e6 / rows, "sha256": digest}))
"""


def run_child(checkout: Path) -> dict:
    """One fresh process's fastest time and text digest."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(SEED), str(REPEATS)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    parser.add_argument("--against", type=Path, metavar="OTHER",
                        help="alternate runs of CHECKOUT with runs of OTHER")
    parser.add_argument("--pairs", type=int, default=10, metavar="N",
                        help="runs, or pairs of runs with --against (default 10)")
    opts = parser.parse_args(argv)
    sides = [opts.checkout.resolve()]
    if opts.against is not None:
        sides.append(opts.against.resolve())
    times = [[] for _ in sides]
    digests = set()
    for i in range(opts.pairs):
        order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
        result = {}
        for side in order:
            result[side] = run_child(sides[side])
            times[side].append(result[side]["ms_per_mrow"])
            digests.add(result[side]["sha256"])
        print(f"{i + 1:3d}  " + "  ".join(f"{sides[s].name}: {result[s]['ms_per_mrow']:8.1f} ms"
                                         for s in range(len(sides))), flush=True)
    for side, path in enumerate(sides):
        print(f"median {path}: {statistics.median(times[side]):.1f} ms per 10^6 rows")
    if len(sides) == 2:
        for side, (mine, theirs) in enumerate((times, times[::-1])):
            wins = sum(a < b for a, b in zip(mine, theirs))
            print(f"faster in {wins} of {opts.pairs} pairs: {sides[side]}")
    print("text identical" if len(digests) == 1 else "TEXT DIFFERS")
    return int(len(digests) != 1)


if __name__ == "__main__":
    sys.exit(main())
