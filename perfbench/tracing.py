"""Spans around the public functions of each qslkit module, and the per-layer metrics.

Each function is wrapped under every module name its callers look it up by
(`bounds` imports `amplitude_series`, `scan` imports `qsl_ratio`, `cli`
imports both bound functions), so a call is seen whichever way it is made.
Spans are kept in memory as compact arrays: name, start, end, parent span and
request id, plus up to three counts.  Self time is a span's time minus the time
of the wrapped calls directly inside it.
"""

from __future__ import annotations

import importlib
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Wrapped functions: span name -> (home module, attribute, count kind).
WRAPPED = {
    "model.amplitude_series": ("model", "amplitude_series", "points"),
    "model.decay_rate": ("model", "decay_rate", None),
    "model.oracle_amplitude": ("model", "oracle_amplitude", "steps"),
    "quad.find_sign_changes": ("quad", "find_sign_changes", "evals"),
    "quad.integrate": ("quad", "integrate", "evals"),
    "bounds.qsl_ratio": ("bounds", "qsl_ratio", None),
    "bounds.qsl_ratio_evolved": ("bounds", "qsl_ratio_evolved", None),
    "bounds.bures_comparator": ("bounds", "bures_comparator", None),
    "scan.grid_scan": ("scan", "grid_scan", None),
    "scan.transition_boundary": ("scan", "transition_boundary", None),
    "scan.sweep_tau": ("scan", "sweep_tau", None),
    "scan.sweep_decay_rate": ("scan", "sweep_decay_rate", None),
}
# The client's own span around each request.
CLI_RUN = "cli.run"
NAMES = (CLI_RUN,) + tuple(WRAPPED)
MODULES = ("model", "quad", "bounds", "scan", "cli")

# Per-layer metrics in report order: name -> unit.  Counts repeat exactly.
METRICS = {
    "model.amplitude_series.calls": "count",
    "model.amplitude_series.points": "count",
    "model.amplitude_series.s": "s",
    "model.amplitude_series.us_per_call": "us",
    "model.amplitude_series.ns_per_point": "ns",
    "model.decay_rate.s": "s",
    "model.oracle_amplitude.s": "s",
    "model.oracle_amplitude.steps": "count",
    "quad.find_sign_changes.calls": "count",
    "quad.find_sign_changes.evals": "count",
    "quad.find_sign_changes.eval_points": "count",
    "quad.find_sign_changes.roots": "count",
    "quad.find_sign_changes.s": "s",
    "quad.find_sign_changes.us_per_root": "us",
    "quad.integrate.calls": "count",
    "quad.integrate.integrand_calls": "count",
    "quad.integrate.integrand_points": "count",
    "quad.integrate.s": "s",
    "quad.integrate.self_s": "s",
    "bounds.qsl_ratio.calls": "count",
    "bounds.qsl_ratio.s": "s",
    "bounds.qsl_ratio.self_s": "s",
    "bounds.qsl_ratio.ms_p50": "ms",
    "bounds.qsl_ratio.ms_p90": "ms",
    "bounds.bures_comparator.calls": "count",
    "bounds.bures_comparator.s": "s",
    "bounds.qsl_ratio_evolved.calls": "count",
    "bounds.qsl_ratio_evolved.s": "s",
    "bounds.qsl_ratio_evolved.self_s": "s",
    "bounds.qsl_ratio_evolved.ms_p50": "ms",
    "bounds.qsl_ratio_evolved.ms_p90": "ms",
    "scan.grid_scan.s": "s",
    "scan.grid_scan.self_s": "s",
    "scan.transition_boundary.s": "s",
    "scan.transition_boundary.ratio_calls": "count",
    "scan.sweep_tau.self_s": "s",
    "scan.sweep_decay_rate.self_s": "s",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "count",
}


class Tracer:
    """In-memory span store; `request` tags the spans of the request in flight."""

    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.req = array("q")
        self.n = [array("q"), array("q"), array("q")]
        self.request = -1
        self._stack = []

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.req.append(self.request)
        for col in self.n:
            col.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def arrays(self) -> dict:
        out = {
            "name": np.frombuffer(self.name, dtype=np.uint8),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "request": np.frombuffer(self.req, dtype=np.int64),
        }
        for k, col in enumerate(self.n):
            out[f"n{k + 1}"] = np.frombuffer(col, dtype=np.int64)
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())


def _wrapper(tracer: Tracer, name_id: int, fn, kind):
    if kind == "evals":
        # Count the calls and points of the function passed in as f.
        def wrapped(f, *args, **kwargs):
            idx = tracer.open(name_id)
            calls, points = tracer.n[0], tracer.n[1]

            def counted(x):
                calls[idx] += 1
                points[idx] += np.size(x)
                return f(x)

            try:
                result = fn(counted, *args, **kwargs)
            finally:
                tracer.close(idx)
            if isinstance(result, list):
                tracer.n[2][idx] = len(result)
            return result

        return wrapped

    def wrapped(*args, **kwargs):
        idx = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if kind == "points":
            tracer.n[0][idx] = np.size(args[1])
        elif kind == "steps":
            tracer.n[0][idx] = len(result[0]) - 1
        return result

    return wrapped


@contextmanager
def traced(tracer: Tracer):
    """Wrap every function in WRAPPED under each module name it is bound to."""
    modules = {m: importlib.import_module(f"qslkit.{m}") for m in MODULES}
    undo = []
    try:
        for name, (home, attr, kind) in WRAPPED.items():
            original = getattr(modules[home], attr)
            wrapper = _wrapper(tracer, NAMES.index(name), original, kind)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        yield
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


def _round_metrics(spans: dict, mask: np.ndarray) -> dict:
    name = spans["name"][mask]
    dur = (spans["end"] - spans["start"])[mask]
    n1, n2, n3 = spans["n1"][mask], spans["n2"][mask], spans["n3"][mask]
    # Direct-child time per span, over the whole store (indices are global).
    all_dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(
        spans["parent"][has_parent], weights=all_dur[has_parent], minlength=all_dur.size
    )
    self_time = dur - child[mask]
    parent_name = np.where(
        has_parent, spans["name"][np.maximum(spans["parent"], 0)], 255
    )[mask]

    def sel(n):
        return name == NAMES.index(n)

    def total(n, values=dur):
        return float(values[sel(n)].sum())

    def count(n):
        return int(sel(n).sum())

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    def pct(n, q):
        d = dur[sel(n)]
        return float(np.percentile(d, q)) * 1e3 if d.size else 0.0

    amp = "model.amplitude_series"
    fsc = "quad.find_sign_changes"
    integ = "quad.integrate"
    m = {
        f"{amp}.calls": count(amp),
        f"{amp}.points": int(n1[sel(amp)].sum()),
        f"{amp}.s": total(amp),
        "model.decay_rate.s": total("model.decay_rate"),
        "model.oracle_amplitude.s": total("model.oracle_amplitude"),
        "model.oracle_amplitude.steps": int(n1[sel("model.oracle_amplitude")].sum()),
        f"{fsc}.calls": count(fsc),
        f"{fsc}.evals": int(n1[sel(fsc)].sum()),
        f"{fsc}.eval_points": int(n2[sel(fsc)].sum()),
        f"{fsc}.roots": int(n3[sel(fsc)].sum()),
        f"{fsc}.s": total(fsc),
        f"{integ}.calls": count(integ),
        f"{integ}.integrand_calls": int(n1[sel(integ)].sum()),
        f"{integ}.integrand_points": int(n2[sel(integ)].sum()),
        f"{integ}.s": total(integ),
        f"{integ}.self_s": total(integ, self_time),
        "scan.grid_scan.s": total("scan.grid_scan"),
        "scan.grid_scan.self_s": total("scan.grid_scan", self_time),
        "scan.transition_boundary.s": total("scan.transition_boundary"),
        "scan.transition_boundary.ratio_calls": int(
            np.sum(sel("bounds.qsl_ratio") & (parent_name == NAMES.index("scan.transition_boundary")))
        ),
        "scan.sweep_tau.self_s": total("scan.sweep_tau", self_time),
        "scan.sweep_decay_rate.self_s": total("scan.sweep_decay_rate", self_time),
        "cli.run.s": total(CLI_RUN),
        "cli.self_s": total(CLI_RUN, self_time),
        "cli.bytes_out": int(n1[sel(CLI_RUN)].sum()),
    }
    m[f"{amp}.us_per_call"] = per(m[f"{amp}.s"], m[f"{amp}.calls"], 1e6)
    m[f"{amp}.ns_per_point"] = per(m[f"{amp}.s"], m[f"{amp}.points"], 1e9)
    m[f"{fsc}.us_per_root"] = per(m[f"{fsc}.s"], m[f"{fsc}.roots"], 1e6)
    for b in ("bounds.qsl_ratio", "bounds.qsl_ratio_evolved", "bounds.bures_comparator"):
        m[f"{b}.calls"] = count(b)
        m[f"{b}.s"] = total(b)
    for b in ("bounds.qsl_ratio", "bounds.qsl_ratio_evolved"):
        m[f"{b}.self_s"] = total(b, self_time)
        m[f"{b}.ms_p50"] = pct(b, 50)
        m[f"{b}.ms_p90"] = pct(b, 90)
    return m


def layer_metrics(spans: dict, rounds: list[list[int]]) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced rounds: counts from one round, times as medians.

    Returns the metrics and the names of counts that differed between rounds.
    """
    per_round = [_round_metrics(spans, np.isin(spans["request"], ids)) for ids in rounds]
    out, unsteady = {}, []
    for key, unit in METRICS.items():
        values = [m[key] for m in per_round]
        if unit == "count":
            if len(set(values)) > 1:
                unsteady.append(key)
            value = values[0]
        else:
            value = statistics.median(values)
        out[key] = {"value": value, "unit": unit}
    return out, unsteady
