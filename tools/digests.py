"""Print one line per CLI request: SHA-256 of its stdout and stderr, and its exit code.

    python3 tools/digests.py [CHECKOUT] > digests.txt
    python3 tools/digests.py --against OTHER [CHECKOUT]

The requests, always listed from this checkout, are every request of
perfbench/workloads.py at seeds 1, 2, 3 and 7, the `qslkit` examples of
README.md, `decay-rate` at 20,000 and 30,000 points on resonance and at
delta 40 (there the 20,000-point call has 15,772 cosh/sinhc nodes, fewer than
`model.REUSE_POINTS`), `decay-rate` at 4,097, 16,383 and 16,384 points (on
both sides of `quad._CHUNK_POINTS` and of `model.REUSE_POINTS`), each at the
default `--t-max` (no split node) and at `--t-max 2` (both forms),
`oracle-check --step 5e-5` (20,001 nodes), every subcommand at its defaults
with `--format json`, requests whose windows hold 20,000 probes or more
(BIG_WINDOWS: `ratio --delta 10000`, `ratio --gamma0 1e6`, `scan --lambda
1000`, `boundary --lambda 1500`, `sweep-tau --gamma0 1e6` and `compare-bounds
--delta 10000`), requests whose quadrature fails (FAILURES: each integrating
subcommand at `--rel-tol 1e-300 --abs-tol 0`, `ratio` where only its trace
ratio fails (`--gamma0 1 --delta 200 --rel-tol 1e-14 --abs-tol 0`) and where
its comparator is not computed (`--tau 0.3`), `boundary` at `--rel-tol 1e-15`
and the default `scan` at `--rel-tol 1e-13`, where 34 of 630 cells fail after
some of their panels were accepted), windows at the edges of the doubles
(EDGES: `sweep-tau --tau-d 1e308` and `ratio --tau-d 1e-320`), and a
tolerance flag given to each subcommand that does not integrate (argparse
rejects it with exit 2).  They run as `python -m qslkit.cli` from CHECKOUT's
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
# Windows whose ends lie near the largest and smallest doubles.
EDGES = (
    "sweep-tau --tau-d 1e308 --n-points 3",
    "ratio --tau-d 1e-320",
)


def requests():
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
    yield from (argv.split() for argv in BIG_WINDOWS + FAILURES + EDGES)
    yield ["decay-rate", "--rel-tol", "1e-3"]
    yield ["oracle-check", "--abs-tol", "0"]


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
