"""Adaptive 1-D quadrature with breakpoint support, plus sign-change location.

One engine serves many windows (one cell's interval [a, b] each).  The
integrand and the factors are called as f(rows, t): nodes t of shape (m, n),
row j in window rows[j], in chunks of at most _CHUNK_POINTS nodes.  Factors
may stack k rows to (k, m, n).  Roots are found by probing every window on
its own grid, then bisecting every bracket of all windows together, and are
returned as arrays (window, value, factor bits) sorted by window, then value;
the panels take the (window, value) of the roots their integrand kinks at.
Probing is coarse-then-fine: every 8th probe first, then the others only
where a bound on the factors' slopes cannot exclude a root (everywhere,
without a bound), with the same roots to the last bit.  Each coarse interval
left open is one row, its 7 fine probes between its coarse ends, and
brackets are read along the rows.
Panels are Gauss-Legendre 15 vs 7, bisected round by round over all windows;
each window gets the value, error and QuadratureError of a depth-first,
left-first bisection of that window alone.  QuadratureSpec holds only the
tolerances and the depth limit.  integrate and find_sign_changes are the
one-window cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
# Each panel's GL15 and GL7 nodes are evaluated in one call.
_NODES = np.concatenate((_NODES_HI, _NODES_LO))

# Most nodes per call of an integrand or factor, for every call the engine
# makes (probes, bisection midpoints and panels) and per closed-form call of
# model.amplitude_series.  A node's bits do not depend on the chunking, so it
# bounds memory only: 4,096 keeps the temporaries of one call near 1 MB.
_CHUNK_POINTS = 4096
# Probes per coarse interval when a window is probed coarse-then-fine.
_STRIDE = 8
# Panels per window evaluated per round.  Without a cap, a window whose panels
# never converge would double its pending panels on every level.
_PANELS_PER_ROUND = 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and depth limit of the adaptive quadrature."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_depth: int = 40

    def __post_init__(self):
        # Written so that NaN fails them.
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")
        if not self.abs_tol >= 0.0:
            raise ValueError("abs_tol must be nonnegative")


class QuadratureError(RuntimeError):
    """Adaptive refinement hit max_depth; carries the partial result."""

    def __init__(self, message: str, value: float, err_estimate: float):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate

    def __reduce__(self):  # pickle calls __init__ with all three arguments
        return type(self), (*self.args, self.value, self.err_estimate)


def _blocks(sizes: np.ndarray, limit: int | None = None):
    """[i, j) ranges of consecutive groups of sizes nodes: at most limit, or one group.

    limit defaults to _CHUNK_POINTS.
    """
    limit = limit or _CHUNK_POINTS
    ends = np.cumsum(sizes)
    i = 0
    while i < ends.size:
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - sizes[i] + limit, side="right")))
        yield i, j
        i = j


def evaluate(f, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """f(rows, t) over the nodes t (m, n) of cells rows (m,), stacked to (k, m, n).

    Each call covers whole rows: at most _CHUNK_POINTS nodes, or one row.  With
    no rows, f is called once on them and its empty values are returned.
    """
    m, n = t.shape
    if not m:
        empty = np.asarray(f(rows, t))
        return empty.reshape(empty.shape[0] if empty.ndim == 3 else 1, 0, n)
    out = [np.reshape(f(rows[i:j], t[i:j]), (-1, j - i, n)) for i, j in _blocks(np.full(m, n))]
    return out[0] if len(out) == 1 else np.concatenate(out, axis=1)


def _one_window(f):
    """A cells-and-nodes callable for the one-window forms: f on the flattened nodes."""
    return lambda rows, t: f(t.ravel())


def integrate_many(f, a, b, bp_win, bp, spec: QuadratureSpec) -> list:
    """Adaptive integrals of f over the windows [a[i], b[i]], pre-split at their breakpoints.

    Breakpoint j lies in window bp_win[j] at bp[j], sorted by window and
    then value, as find_sign_changes_many returns its roots; those outside
    their window's interior are ignored.  Each round evaluates the leftmost
    _PANELS_PER_ROUND pending panels of every window.  A panel is accepted
    when its error fits its share of max(rel_tol * |rough value|, abs_tol),
    else bisected or, deeper than max_depth or with a lower end that is not
    finite, failed.  Every finished panel goes into one record; each window
    sums its values and errors from left to right up to its leftmost failed
    panel.  Returns per window (value, err_estimate), or the QuadratureError
    of that failed panel, carrying the sums including its own estimate.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    bp_win, bp = np.asarray(bp_win, dtype=int), np.asarray(bp, dtype=float)
    if np.any(b < a):
        raise ValueError("integrate requires a <= b")
    # Windows with b != a (NaN ends included) get panels; the others are empty.
    live = np.flatnonzero(b != a)
    results: list = [(0.0, 0.0)] * a.size
    inner = (a[bp_win] < bp) & (bp < b[bp_win])
    # A stable sort by window puts each window's edges in order: a, its breakpoints, b.
    edge_win = np.concatenate((live, bp_win[inner], live))
    edge_t = np.concatenate((a[live], bp[inner], b[live]))
    order = np.argsort(edge_win, kind="stable")
    edge_win, edge_t = edge_win[order], edge_t[order]
    pairs = edge_win[:-1] == edge_win[1:]
    win, lo, hi = edge_win[:-1][pairs], edge_t[:-1][pairs], edge_t[1:][pairs]
    depth = np.zeros(win.size, dtype=int)
    width = b - a
    tol = np.zeros(a.size)
    fail_lo = np.full(a.size, np.inf)
    # (window, lo, hi, depth, value, err, failed) of finished panels, one tuple per round.
    done = []
    first = True
    while win.size:
        # Pending panels are kept sorted by (window, lo); take each window's leftmost ones.
        # The first round evaluates every initial panel, for the tolerances.
        rank = np.arange(win.size) - np.searchsorted(win, win)
        now = rank < (win.size if first else _PANELS_PER_ROUND)
        later = ~now
        w, pl, ph, pd = win[now], lo[now], hi[now], depth[now]
        value, err = _panels(f, w, pl, ph)
        if first:  # reduce(add) sums left to right; sum() is compensated from Python 3.12
            for i, vals in _by_window(w, np.abs(value)):
                tol[i] = max(spec.rel_tol * reduce(add, vals.tolist(), 0.0), spec.abs_tol)
            first = False
        with np.errstate(over="ignore"):
            share = tol[w] * (ph - pl) / width[w]
        # Where tol * (ph - pl) overflows, the panel's fraction of the width is taken first.
        over = np.isinf(share)
        share[over] = tol[w[over]] * ((ph[over] - pl[over]) / width[w[over]])
        ok = (err <= share) | (err <= spec.abs_tol)
        # A panel whose lower end is not finite never converges: it fails at once.
        split = ~ok & (pd < spec.max_depth) & np.isfinite(pl)
        end, failed = ~split, ~ok & ~split
        done.append((w[end], pl[end], ph[end], pd[end], value[end], err[end], failed[end]))
        np.minimum.at(fail_lo, w[failed], pl[failed])
        mid = 0.5 * pl[split] + 0.5 * ph[split]
        win = np.concatenate((win[later], w[split], w[split]))
        lo = np.concatenate((lo[later], pl[split], mid))
        hi = np.concatenate((hi[later], mid, ph[split]))
        depth = np.concatenate((depth[later], pd[split] + 1, pd[split] + 1))
        # Nothing right of a window's leftmost failure can change its outcome.
        keep = lo < fail_lo[win]
        order = np.lexsort((lo[keep], win[keep]))
        win, lo, hi, depth = (x[keep][order] for x in (win, lo, hi, depth))
    if done:
        w, pl, ph, pd, value, err, failed = (np.concatenate(x) for x in zip(*done))
        # Each window's panels from left to right, as positions in the record.
        order = np.lexsort((pl, w))
        for i, idx in _by_window(w[order], order):
            if fail_lo[i] != np.inf:  # a failed window: up to its leftmost failed panel
                idx = idx[:np.argmax(failed[idx]) + 1]
            total, err_total = (reduce(add, x[idx].tolist(), 0.0) for x in (value, err))
            j = idx[-1]
            results[i] = QuadratureError(
                f"quadrature did not converge on [{float(pl[j])}, {float(ph[j])}] "
                f"after depth {int(pd[j])}", value=total, err_estimate=err_total,
            ) if failed[j] else (total, err_total)
    return results


def _by_window(w: np.ndarray, x: np.ndarray):
    """(window, entries of x) for each run of equal windows in the sorted array w."""
    starts = np.flatnonzero(np.diff(w, prepend=-1))
    for s, e in zip(starts, np.append(starts[1:], w.size)):
        yield int(w[s]), x[s:e]


def _panels(f, w: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """GL15 values and |GL15 - GL7| error estimates of the panels [lo, hi] of windows w."""
    mid = 0.5 * lo + 0.5 * hi
    half = 0.5 * (hi - lo)
    sums = np.empty((2, w.size))
    n_hi = _NODES_HI.size
    for i, j in _blocks(np.full(w.size, _NODES.size)):
        nodes = mid[i:j, None] + half[i:j, None] * _NODES
        vals = np.asarray(np.reshape(f(w[i:j], nodes), nodes.shape), dtype=float)
        # vecdot (numpy 2.0 or later, hence the numpy>=2.0 requirement) takes
        # one dot per row, each summed as np.dot sums it; a matrix product or
        # einsum sums in another order.
        sums[0, i:j] = np.vecdot(vals[:, :n_hi], _WEIGHTS_HI)
        sums[1, i:j] = np.vecdot(vals[:, n_hi:], _WEIGHTS_LO)
    value, rough = half * sums
    return value, np.abs(value - rough)


def integrate(
    f, a: float, b: float, spec: QuadratureSpec | None = None, breakpoints=()
) -> tuple[float, float]:
    """Adaptive integral of f over [a, b]; returns (value, err_estimate).

    The one-window case of integrate_many, for f of 1-d nodes: the interval is
    pre-split at the strictly increasing breakpoints inside it.  Raises
    QuadratureError (carrying the partial value) if any panel chain exceeds
    spec.max_depth.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if np.any(bp[1:] <= bp[:-1]):
        raise ValueError("breakpoints must be strictly increasing")
    (result,) = integrate_many(_one_window(f), [a], [b], np.zeros(bp.size, dtype=int), bp,
                               spec or QuadratureSpec())
    if isinstance(result, QuadratureError):
        raise result
    return result


def find_sign_changes_many(f, a, b, n_probe, bound=None) -> tuple[np.ndarray, ...]:
    """Roots in (a[i], b[i]) of the factors of every window i, as arrays (window, root, bits).

    The arrays are sorted by window and then root.  Bit k of a root's bits
    is set if factor k changes sign, or is exactly zero, there; equal roots
    of several factors are one root with all their bits.  Window i is probed
    on n_probe[i] + 1 uniform points, and every bracketed sign change is
    bisected to a width of 1e-12 * (b[i] - a[i]), or until no double lies
    between its ends.  Brackets are decided by signs, not by products, which
    underflow.  Exact-zero probes count as roots; a factor zero on every
    probe of a window has none there.  Roots closer together than the probe
    spacing can be missed; callers should size n_probe from the expected
    oscillation period.

    Every window is probed coarse-then-fine: first on every _STRIDE-th probe
    and its last one, then on the other probes only inside the coarse
    intervals [t0, t1] that bound cannot exclude; bound=None excludes none.
    bound(rows, t0, t1) gives per factor and interval a threshold; an
    interval is excluded when every factor's |f(t0)| + |f(t1)| exceeds it,
    which must certify that the factor has one sign, and no zero, on every
    probe of [t0, t1].  Each open interval is one row: its _STRIDE - 1 fine
    probes between its two coarse probes, and the rows' fine probes are one
    (rows, _STRIDE - 1) array of times for evaluate.  A node's value depends
    neither on its call nor on its layout, so the brackets, and every root,
    are bit for bit those of the full grid.  Windows are probed in blocks of
    about 4 * _CHUNK_POINTS probes of their full grids: a block holds only
    its coarse probes and its open rows, so blocks this large cost little
    memory and halve the calls of blocks half the size.
    """
    if any(n < 2 for n in n_probe):
        raise ValueError("n_probe must be at least 2")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    windows = np.flatnonzero(b > a)
    sizes = np.asarray(n_probe)[windows] + 1
    # A block evaluates its coarse probes, then its rows' fine probes, in calls
    # of at most _CHUNK_POINTS nodes.  On the trajectory benchmark, blocks of 4
    # chunks peaked at the RSS of blocks of 2 (37.8 MB), 8 chunks 1.2 MB higher
    # and 16 chunks 3.5 MB; the default scan makes 46 probe calls at 4 chunks
    # against 94 at 2.
    found = [_probe_block(f, bound, a, b, windows[i:j], sizes[i:j])
             for i, j in _blocks(sizes, 4 * _CHUNK_POINTS)]
    if not found:
        return np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=int)
    lo, hi, flo, fac, w, zero_t, zero_w, zero_fac = (np.concatenate(x) for x in zip(*found))
    target = 1e-12 * (b - a)[w]
    live = np.flatnonzero(hi - lo > target)
    while live.size:
        mid = 0.5 * lo[live] + 0.5 * hi[live]
        # Where doubles are spaced wider than the target, a bracket ends when
        # no double lies between its ends: bisecting it would change nothing.
        inner = (lo[live] < mid) & (mid < hi[live])
        fmid = np.asarray(evaluate(f, w[live], mid[:, None]), dtype=float)
        fmid = fmid[fac[live], np.arange(live.size), 0]
        # fmid == 0 closes the bracket on mid; otherwise keep the sign change.
        left = np.sign(flo[live]) * np.sign(fmid) < 0.0
        hi[live] = np.where(left | (fmid == 0.0), mid, hi[live])
        lo[live] = np.where(left, lo[live], mid)
        flo[live] = np.where(left, flo[live], fmid)
        live = live[inner & (hi[live] - lo[live] > target[live])]
    roots = np.concatenate((zero_t, 0.5 * lo + 0.5 * hi))
    root_win = np.concatenate((zero_w, w))
    bits = np.left_shift(1, np.concatenate((zero_fac, fac)))
    order = np.lexsort((roots, root_win))
    roots, root_win, bits = roots[order], root_win[order], bits[order]
    first = np.ones(roots.size, dtype=bool)
    first[1:] = (roots[1:] != roots[:-1]) | (root_win[1:] != root_win[:-1])
    inside = first & (a[root_win] < roots) & (roots < b[root_win])
    # Equal roots are one root, with the bits of every factor they belong to.
    bits = np.bitwise_or.reduceat(bits, np.flatnonzero(first))[inside[first]]
    return root_win[inside], roots[inside], bits


def _probe_block(f, bound, a, b, windows, sizes):
    """The brackets (lo, hi, flo, factor, window) and zero probes (t, window, factor) of windows.

    Window windows[k] has sizes[k] probes; see find_sign_changes_many.  The
    coarse probes, every _STRIDE-th and each window's last, are all evaluated.
    Each coarse interval that bound cannot exclude is one row: its two coarse
    probes around its _STRIDE - 1 fine probes, where a window's shorter last
    interval repeats its right end.  The rows' fine probes are evaluated as
    one (rows, _STRIDE - 1) array, and brackets join neighbours along a row.
    """
    n = sizes - 1

    def times(k, i):
        """Element i of np.linspace(a, b, n + 1) of window windows[k], bit for bit."""
        lo, hi, m = a[windows[k]], b[windows[k]], n[k]
        step = (hi - lo) / m
        t = i * step + lo
        if not step.all():
            t = np.where(step != 0.0, t, (i / m) * (hi - lo) + lo)
        return np.where(i == m, hi, t)

    n_coarse = (sizes + _STRIDE - 2) // _STRIDE + 1
    c_k = np.repeat(np.arange(windows.size), n_coarse)
    c_i = np.minimum(_STRIDE * _ramp(n_coarse), n[c_k])
    c_t, c_win = times(c_k, c_i), windows[c_k]
    c_vals = evaluate(f, c_win, c_t[:, None])[:, :, 0]
    # Coarse interval q runs from coarse probe q to q + 1 of one window.
    q = np.flatnonzero(c_k[:-1] == c_k[1:])
    if bound is not None:
        mag = np.abs(c_vals)
        excluded = np.all(mag[:, q] + mag[:, q + 1] > bound(c_win[q], c_t[q], c_t[q + 1]), axis=0)
        q = q[~excluded]
    # Row r holds probes i[r] of window c_k[q[r]]; inner marks its fine probes.
    i = np.minimum(c_i[q, None] + np.arange(_STRIDE + 1), c_i[q + 1, None])
    grid, w = times(c_k[q, None], i), c_win[q]
    inner = i[:, 1:-1] < i[:, -1:]
    right = c_vals[:, q + 1, None]
    fine = np.repeat(right, _STRIDE - 1, axis=2)
    # Repeats of the right end take its coarse value; a row one probe wide has no fine probe.
    wide = inner[:, 0]
    if wide.any():
        fine[:, wide] = np.where(inner[wide], evaluate(f, w[wide], grid[wide, 1:-1]),
                                 right[:, wide])
    vals = np.concatenate((c_vals[:, q, None], fine, right), axis=2)
    # A factor that is zero on every probe of its window has no kinks there.
    nonzero = np.logical_or.reduceat(c_vals != 0.0, np.cumsum(n_coarse) - n_coarse, axis=1)
    np.logical_or.at(nonzero, (slice(None), c_k[q]), np.any(vals != 0.0, axis=2))
    sign = np.sign(vals)
    fac, r, j = np.nonzero(sign[:, :, :-1] * sign[:, :, 1:] < 0.0)
    # Exact-zero probes, coarse and fine, of the factors that are not zero everywhere.
    c_fac, zero_c = np.nonzero(c_vals == 0.0)
    r_fac, zero_r, zero_j = np.nonzero((vals[:, :, 1:-1] == 0.0) & inner)
    z_fac = np.concatenate((c_fac, r_fac))
    keep = nonzero[z_fac, np.concatenate((c_k[zero_c], c_k[q[zero_r]]))]
    return (grid[r, j], grid[r, j + 1], vals[fac, r, j], fac, w[r],
            np.concatenate((c_t[zero_c], grid[zero_r, zero_j + 1]))[keep],
            np.concatenate((c_win[zero_c], w[zero_r]))[keep], z_fac[keep])


def _ramp(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[k] - 1 for each k in turn."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def find_sign_changes(f, a: float, b: float, n_probe: int = 64) -> list[float]:
    """Sorted roots in (a, b) of one or more factors, by uniform probing plus bisection.

    The one-window case of find_sign_changes_many: f returns one row of
    values, or a stacked (k, n) array of k factors, for a 1-d array of n
    times.
    """
    return find_sign_changes_many(_one_window(f), [a], [b], [n_probe])[1].tolist()


def probe_count_for_period(im_root: float, a: float, b: float) -> int | float:
    """Probe count giving 64 samples per oscillation of the model family.

    The model oscillates with angular frequency |Im d|, i.e. period
    2*pi/|Im d|; weak-coupling (non-oscillatory) windows fall back to the
    base count.  A count that overflows a double is returned as inf.
    """
    periods = abs(im_root) * (b - a) / (2.0 * math.pi)
    n = 64 * periods
    return max(64, math.ceil(n)) if n < math.inf else n
