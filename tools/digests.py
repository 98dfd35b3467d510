"""Print one line per CLI request: SHA-256 of its stdout and stderr, and its exit code.

    python3 tools/digests.py [CHECKOUT] > digests.txt
    python3 tools/digests.py --against OTHER [CHECKOUT]

The requests, always listed from this checkout and each once, in the order
first met, are every request of perfbench/workloads.py at seeds 1, 2, 3
and 7 (the detuned `trajectory` sweep, the same at every seed, once), the
`qslkit` examples of README.md, `decay-rate` at 20,000 and 30,000 points on
resonance and at delta 40 (there the 20,000-point request has 15,772 cosh/sinhc nodes and
4,228 split ones), `decay-rate` at 4,097, 16,383 and 16,384 points (chunk
boundaries: 16,384 points are four chunks of `quad._CHUNK_POINTS`), each at
the default `--t-max` (no split node) and at `--t-max 2` (both forms),
`oracle-check --step 5e-5` (20,001 nodes), every subcommand at its defaults
with `--format json`, requests that reach the CSV writer's rarer float
layouts or cross a JSON chunk (WRITER: `decay-rate --gamma0 500 --clip
1e-5`, where every row but t = 0 is clipped to +-1e-5 in exponent notation,
86 of them negative, `decay-rate --t-max 1e-300 --n-points 3`, whose times
have three-digit exponents, and `decay-rate --n-points 4097 --format json`),
requests whose windows hold 20,000 probes or more (BIG_WINDOWS: `ratio
--delta 10000`, `ratio --gamma0 1e6`, `scan --lambda 1000`, `boundary
--lambda 1500`, `sweep-tau --gamma0 1e6` and `compare-bounds --delta
10000`), requests whose quadrature fails (FAILURES: each integrating
subcommand at `--rel-tol 1e-300 --abs-tol 0`, `ratio` where only its trace
ratio fails (`--gamma0 1 --delta 200 --rel-tol 1e-14 --abs-tol 0`) and where
its comparator is not computed (`--tau 0.3`), `boundary` at `--rel-tol 1e-15`
and the default `scan` at `--rel-tol 1e-13`, where 34 of 630 cells fail after
some of their panels were accepted), windows at the edges of the doubles
(EDGES: `sweep-tau --tau-d 1e308` and `ratio --tau-d 1e-320`), an input
rejected with a named error (REJECTED: `sweep-tau --tau-max -1`), a
tolerance flag given to each subcommand that does not integrate (argparse
rejects it with exit 2), and a trace-distance window that starts after t = 0
and converges (STARTS: `ratio --gamma0 500 --delta 100 --tau 0.1`), and
cells where the exclusion bound's rounding allowances dominate (EXCLUSION:
a `scan` at gamma0 1e-12 to 1e-9, a `sweep-tau` and a `compare-bounds` within
1e-4 of critical coupling, and `ratio --gamma0 1e-14 --delta 3000`), and
cells where P - P_ref changes sign from rounding noise, so that the Bures
integral, which must split at Pdot's roots alone, would move if it split at
every kink (KINK_FACTORS: `ratio --gamma0 1e-14 --delta 200` and a
`compare-bounds` at gamma0 1e-10 to 1e-8 and delta 3000), and a sweep
across the birth of a flow-back interval as a close pair of Pdot's roots,
where the kink search certifies few signs near the pair (CERTIFIED: a
`compare-bounds` at gamma0 116.38 to 125 and delta 75), and requests that
show what the parser prints, which it builds only in part when argv names a
subcommand (PARSER: `--help`, `scan --help`, `sweep-tau --help`, `bogus`,
the bare command, `scan extra` and `decay-rate --n-gamma0 3`), with a
`sweep-tau` at delta -0.0, a model point of its own: 100 requests.  They run as
`python -m qslkit.cli` from CHECKOUT's
src/ (default: this checkout), so diffing the output of two checkouts shows
whether they print the same bytes on this host.  No golden file is kept:
numpy's SIMD paths, and so the last bits, differ between hosts.

With --against OTHER, every request runs in both checkouts, and only the
requests whose stdout digest, stderr digest or exit code differ are printed,
as two lines each: CHECKOUT's, then OTHER's.  The exit code is 1 if any
request differs, else 0.
"""
import argparse
import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (read only: the request lists)

SEEDS = (1, 2, 3, 7)
# Windows of 20,000 probes or more: probed in chunks of quad._CHUNK_POINTS nodes.
BIG_WINDOWS = (
    "ratio --delta 10000",
    "ratio --gamma0 1e6",
    "scan --lambda 1000 --n-gamma0 4 --n-delta 3",
    "boundary --lambda 1500 --n-gamma0 4 --n-delta 3",
    "sweep-tau --gamma0 1e6 --n-points 5",
    "compare-bounds --delta 10000 --n-points 5",
)
# Requests that reach failed panels, with and without accepted panels left of them.
FAILURES = (
    "ratio --rel-tol 1e-300 --abs-tol 0",
    "ratio --gamma0 1 --delta 200 --rel-tol 1e-14 --abs-tol 0",
    "ratio --tau 0.3 --rel-tol 1e-300 --abs-tol 0",
    "sweep-tau --rel-tol 1e-300 --abs-tol 0 --n-points 3",
    "scan --rel-tol 1e-300 --abs-tol 0 --n-gamma0 2 --n-delta 2",
    "compare-bounds --rel-tol 1e-300 --abs-tol 0 --n-points 2",
    "boundary --rel-tol 1e-15 --abs-tol 0 --n-gamma0 6 --n-delta 3",
    "scan --rel-tol 1e-13 --abs-tol 0",
)
# Rarer float layouts of the CSV writer, and two JSON chunks.
WRITER = (
    "decay-rate --gamma0 500 --clip 1e-5",
    "decay-rate --t-max 1e-300 --n-points 3",
    "decay-rate --n-points 4097 --format json",
)
# Windows whose ends lie near the largest and smallest doubles.
EDGES = (
    "sweep-tau --tau-d 1e308 --n-points 3",
    "ratio --tau-d 1e-320",
)
# Inputs rejected with a named error.
REJECTED = ("sweep-tau --tau-max -1 --n-points 3",)
# Trace-distance windows at a nonzero start whose quadrature converges.
STARTS = ("ratio --gamma0 500 --delta 100 --tau 0.1",)
# Cells where the rounding allowances of model.amplitude_bounds dominate its slopes: tiny
# coupling, where the slow mode's rate is below the allowance, and near-critical coupling,
# where a± grow as 1/d.
EXCLUSION = (
    "scan --gamma0-min 1e-12 --gamma0-max 1e-9 --n-gamma0 3 --n-delta 3",
    "sweep-tau --gamma0 25.000000001 --n-points 5",
    "compare-bounds --gamma0-min 24.999 --gamma0-max 25.001 --n-points 5",
    "ratio --gamma0 1e-14 --delta 3000",
)
# Cells where P - P_ref has noise roots on a window from 0: the Bures integral, whose
# integrand has Pdot's kinks alone, moves if it splits at the roots of both factors.
KINK_FACTORS = (
    "ratio --gamma0 1e-14 --delta 200",
    "compare-bounds --gamma0-min 1e-10 --gamma0-max 1e-8 --delta 3000 --n-points 3",
)

# A flow-back interval is born as a double root of Pdot near gamma0 116.384 at delta 75: each
# cell past it holds a close pair of roots, near which few signs are certified.
CERTIFIED = ("compare-bounds --gamma0-min 116.38 --gamma0-max 125 --delta 75 --n-points 21",)

# The parser builds the arguments of the subcommand argv names alone: help texts, usage errors
# and a request naming no subcommand must print what the parser with every subcommand's
# arguments prints; delta -0.0 is a model point of its own, whose complex root has the sign
# opposite to delta 0.0's.
PARSER = ("--help", "scan --help", "sweep-tau --help", "bogus", "", "scan extra",
          "decay-rate --n-gamma0 3", "sweep-tau --delta -0.0 --n-points 5")


def requests():
    """Every request once, in the order first met."""
    return [list(argv) for argv in dict.fromkeys(map(tuple, _all_requests()))]


def _all_requests():
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            yield from (list(r.argv) for r in workloads.requests(workload, seed))
    for line in re.findall(r"^qslkit (.+)$", (ROOT / "README.md").read_text(), re.M):
        argv = shlex.split(line)
        # To stdout, where it is digested, instead of to a file.
        for i, arg in enumerate(argv[:-1]):
            if arg in ("-o", "--output"):
                argv[i + 1] = "-"
        yield argv
    for n in ("20000", "30000"):
        for delta in ("0", "40"):
            yield ["decay-rate", "--n-points", n, "--delta", delta]
    for n in ("4097", "16383", "16384"):
        yield ["decay-rate", "--n-points", n]
        yield ["decay-rate", "--n-points", n, "--t-max", "2"]
    yield ["oracle-check", "--step", "5e-5"]
    for command in ("ratio", "scan", "boundary", "sweep-tau", "decay-rate", "compare-bounds",
                    "oracle-check"):
        yield [command, "--format", "json"]
    yield from (argv.split() for argv in WRITER + BIG_WINDOWS + FAILURES + EDGES + REJECTED)
    yield ["decay-rate", "--rel-tol", "1e-3"]
    yield ["oracle-check", "--abs-tol", "0"]
    yield from (argv.split() for argv in STARTS + EXCLUSION + KINK_FACTORS + CERTIFIED + PARSER)


def digest(checkout: Path, args: list) -> str:
    """The line of one request run from checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-m", "qslkit.cli", *args], cwd=checkout, env=env,
                          capture_output=True)
    out, err = (hashlib.sha256(b).hexdigest() for b in (proc.stdout, proc.stderr))
    return f"{out} {err} {proc.returncode} {shlex.join(args)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    parser.add_argument("--against", type=Path, metavar="OTHER",
                        help="print only the requests whose lines differ in OTHER")
    opts = parser.parse_args(argv)
    checkout = opts.checkout.resolve()
    differ = False
    for args in requests():
        line = digest(checkout, args)
        if opts.against is None:
            print(line, flush=True)
            continue
        other = digest(opts.against.resolve(), args)
        if other != line:
            differ = True
            print(line, other, sep="\n", flush=True)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
