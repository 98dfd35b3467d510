"""Print one line per CLI request: SHA-256 of its stdout and stderr, and its exit code.

    python3 tools/digests.py [CHECKOUT] > digests.txt

The requests, always listed from this checkout, are every request of
perfbench/workloads.py at seeds 1, 2, 3 and 7, the `qslkit` examples of
README.md, `decay-rate` at 20,000 and 30,000 points on resonance and at
delta 40 (there the 20,000-point call has 15,772 cosh/sinhc nodes, fewer than
`model.REUSE_POINTS`), every subcommand at its defaults with `--format json`,
requests whose windows hold 20,000 probes or more (BIG_WINDOWS: `ratio
--delta 10000`, `ratio --gamma0 1e6`, `scan --lambda 1000`, `boundary --lambda
1500`, `sweep-tau --gamma0 1e6` and `compare-bounds --delta 10000`), and a
tolerance flag given to each subcommand that does not integrate (argparse
rejects it with exit 2).  They run as `python -m qslkit.cli` from CHECKOUT's
src/ (default: this checkout), so diffing the output of two checkouts shows
whether they print the same bytes on this host.  No golden file is kept:
numpy's SIMD paths, and so the last bits, differ between hosts.
"""

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
    for command in ("ratio", "scan", "boundary", "sweep-tau", "decay-rate", "compare-bounds",
                    "oracle-check"):
        yield [command, "--format", "json"]
    yield from (argv.split() for argv in BIG_WINDOWS)
    yield ["decay-rate", "--rel-tol", "1e-3"]
    yield ["oracle-check", "--abs-tol", "0"]


def main(argv=None) -> int:
    checkout = Path((argv or sys.argv[1:] or [ROOT])[0]).resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for args in requests():
        proc = subprocess.run([sys.executable, "-m", "qslkit.cli", *args], cwd=checkout,
                              env=env, capture_output=True)
        out, err = (hashlib.sha256(b).hexdigest() for b in (proc.stdout, proc.stderr))
        print(out, err, proc.returncode, shlex.join(args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
