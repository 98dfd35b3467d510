"""One benchmark process: set-up, timed rounds of CLI requests, checks, one result line.

Started by run.py in a fresh interpreter with PYTHONPATH at the checkout's
src/ and QSLKIT_THREADS unset.  A single client sends one request at a time
through qslkit.cli.run with stdout captured (a closed loop).  Rounds repeat
the workload's whole batch while another round is expected to fit in
--seconds of request time, and at least twice, so that repeated requests can
be compared byte for byte; wall_s is the median round.
The first round's outputs are checked against the reference; every later
round must reproduce them exactly.

Times are reported scaled to a reference host speed (hostspeed.py): a timer
samples the speed of the shared machine throughout, from just after numpy is
imported to the last round.

With --trace 1 rounds alternate untraced and traced, two of each at least,
and the difference of their median wall times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 4


def run_round(cli, requests, tracer, first_request: int, sampler):
    """Send every request once.

    Returns the round's wall time without the sampler's own time, the same
    at the reference host speed, and the exit code and output of each request.
    """
    walls, ticks, codes, texts = [], [], [], []
    for k, req in enumerate(requests):
        buf = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                mark = sampler.totals()
                t0 = time.perf_counter()
                code = cli.run(list(req.argv))
                t1 = time.perf_counter()
            else:
                tracer.request = first_request + k
                mark = sampler.totals()
                t0 = time.perf_counter()
                span = tracer.open(0)
                code = cli.run(list(req.argv))
                tracer.close(span)
                t1 = time.perf_counter()
        ticks.append(hostspeed.between(mark, sampler.totals()))
        text = buf.getvalue()
        del buf
        if tracer is not None:
            tracer.n[0][span] = len(text.encode())
        walls.append(t1 - t0)
        codes.append(code)
        texts.append(text)
    ticks = hostspeed.merge(ticks)
    raw = hostspeed.unsampled(sum(walls), ticks)
    return raw, hostspeed.scaled(sum(walls), ticks), codes, texts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        return _run(args, sampler)
    finally:
        sampler.stop()


def _run(args, sampler) -> int:
    # Set-up: the program import and input generation, as every CLI call pays.
    from qslkit import cli

    import workloads

    requests = workloads.requests(args.workload, args.seed)
    ready = time.perf_counter()
    setup_ticks = sampler.totals()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_ticks": setup_ticks}))
        return 0

    from checks import Checker

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    round_walls, traced_rounds, problems, notes = [], [], [], []
    traced_walls, untraced_walls, raw_walls = [], [], []
    digests = None
    attempted = failed = 0
    rss_mb = None
    measured = 0.0
    n_rounds = 0
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    while n_rounds < min_rounds or measured * (n_rounds + 1) / n_rounds <= args.seconds:
        traced = tracer is not None and n_rounds % 2 == 1
        first = n_rounds * len(requests)
        with tracing.traced(tracer) if traced else contextlib.nullcontext():
            raw, wall, codes, texts = run_round(
                cli, requests, tracer if traced else None, first, sampler
            )
        if traced:
            traced_rounds.append(list(range(first, first + len(requests))))
        else:
            raw_walls.append(raw)
        round_walls.append(wall)
        (traced_walls if traced else untraced_walls).append(wall)
        measured += raw
        n_rounds += 1
        for req, code in zip(requests, codes):
            if code != 0:
                problems.append(f"{req.kind} exited with {code}")
        if rss_mb is None:
            # Peak memory of the requests alone, before digests or checks allocate.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        round_digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
        if digests is None:
            digests = round_digests
            checker = Checker(args.seed)
            for req, text in zip(requests, texts):
                outcome = checker.check(req, text)
                attempted += outcome.attempted
                failed += len(outcome.failed)
                problems += outcome.problems
                notes += [f"{req.kind}: {n}" for n in outcome.notes]
        elif round_digests != digests:
            changed = [r.kind for r, a, b in zip(requests, digests, round_digests) if a != b]
            problems.append(f"round {n_rounds} output differs from round 1 for {changed}")
        del texts

    result = {
        "ready": ready,
        "setup_ticks": setup_ticks,
        "rounds": n_rounds,
        "round_walls": round_walls,
        "wall_s": statistics.median(untraced_walls),
        "raw_wall_s": statistics.median(raw_walls),
        "rss_mb": rss_mb,
        # Every round gives identical bytes, so each repeats the first round's rows.
        "attempted": attempted * n_rounds,
        "failed": failed * n_rounds,
        "problems": problems,
        "notes": notes,
    }
    if tracer is not None:
        spans = tracer.arrays()
        metrics, unsteady = tracing.layer_metrics(spans, traced_rounds)
        if unsteady:
            problems.append(f"per-layer counts differ between traced rounds: {unsteady}")
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.npz"
        tracer.save(path)
        result["traced_wall_s"] = statistics.median(traced_walls)
        result["spans"] = int(spans["start"].size)
        result["spans_file"] = str(path.relative_to(OUT_DIR.parent.parent))
        result["per_layer"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
