"""Adaptive 1-D quadrature with breakpoint support, plus sign-change location.

One engine serves many windows (one cell's interval [a, b] each).  The
integrand and the factors are called as f(rows, t): nodes t of shape (m, n),
row j in window rows[j], in chunks of at most _CHUNK_POINTS nodes.  Factors
may stack k rows to (k, m, n).  Roots are found by probing every window on
its own grid, then bisecting every bracket of all windows together, and are
returned as arrays (window, value, factor bits) sorted by window, then value;
the panels take the (window, value) of the roots their integrand kinks at.
Probing is coarse-then-fine, every 8th probe first; probes and midpoints
are evaluated only where bounds on the factors' curvature and rounding
cannot certify their signs, with the roots of the full grid to the last bit.
Each coarse interval left open is one row, its 7 fine probes between its
coarse ends, and brackets are read along the rows.
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
# Certificates inflate their bounds by this relative margin, which covers the rounding of
# the bounds and of the sums compared against them, and floor them above the subnormals.
_MARGIN, _FLOOR = 2.0**-20, 1e-290
# A block's rows with fewer fine probes, or a bisection round with fewer brackets, are all
# evaluated: the fixed cost of certifying, tens of numpy calls, would outweigh its saving.
_CERTIFY_MIN = 256
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

    Windows are probed coarse-then-fine, every _STRIDE-th probe and the last
    first, and only points whose signs no certificate proves are evaluated.
    bound(rows, t0, t1) gives per factor and coarse interval [t0[i], t1[i]]
    of cell rows[i] bounds (2, factors, len(rows)): M on |f''| and E on
    |f~ - f|, f~ being f as computed; bound=None proves nothing.  With fa, fb
    the values of f~ at xa < xb in one coarse interval and L the chord
    through them, f(x) lies within M (x - xa)(xb - x) / 2 of the chord
    through f(xa) and f(xb), that chord within E of L's exact value, and
    f~(x) within E of f(x); so, with rho bounding L's rounding (_chord_signs),

        |f~(x) - L(x)| <= M (x - xa)(xb - x) / 2 + 2 E + rho,

    and where |L(x)| exceeds that, f~(x) is not zero and has L's sign.  An
    interval where every factor's fa and fb share a sign and exceed
    M h^2 / 8 + 2 E, h its width, holds no zero or sign change (_cleared:
    the exact chord lies between fa and fb).  Each other is one row of
    _STRIDE - 1 fine probes, which the chord through its coarse values
    certifies where it can.  Each bracket keeps evaluated points around it
    as anchors; bisection evaluates the midpoints whose signs their chord
    cannot certify, each becoming an anchor.  Blocks and rounds with fewer
    than _CERTIFY_MIN points to save evaluate all, as bisection does once a
    round certifies under an eighth of its midpoints.  Only signs are read,
    and a node's value depends neither on its call nor on its layout, so
    every bracket, bisection step and root is that of the full grid.  Blocks
    span about 4 * _CHUNK_POINTS full-grid probes but hold only coarse probes
    and open rows: little memory, and half the calls of blocks half the size.
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
    state, w, fac, zero_t, zero_w, zero_fac = (np.concatenate(x, axis=-1) for x in zip(*found))
    del found  # the blocks' arrays, now concatenated
    lo, hi = _bisect(f, state, w, fac, 1e-12 * (b - a)[w])
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


def _cleared(t0, t1, fa, fb, curv, err):
    """Per factor and interval [t0, t1], whether f~ keeps the sign of fa and fb, with no zero:
    both exceed M h^2 / 8 + 2 E, or lie below its negative (see find_sign_changes_many)."""
    with np.errstate(over="ignore", invalid="ignore"):
        h2 = (0.125 + 0.125 * _MARGIN) * (t1 - t0) ** 2
        gap = curv * h2 + ((2.0 + 2.0 * _MARGIN) * err + _FLOOR)
        return (np.minimum(fa, fb) > gap) | (np.maximum(fa, fb) < -gap)


def _chord_signs(xa, fa, xb, fb, curv, err, x):
    """Per x in [xa, xb], the sign the chord certificate proves for the computed factor, or 0.

    L = fa + (fb - fa) ((x - xa) / (xb - xa)) takes six roundings: within 7 u (|fa| + |fb|)
    of the exact chord (u = 2^-53), so rho = 2^-49 (|fa| + |fb|).  _MARGIN covers the few
    roundings of the right side and _FLOOR subnormals; inf or NaN bounds prove nothing.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d = x - xa
        chord = fa + (fb - fa) * (d / (xb - xa))
        rhs = ((0.5 + 0.5 * _MARGIN) * curv) * (d * (xb - x)) + (
            (2.0 * err + 2.0**-49 * (np.abs(fa) + np.abs(fb))) * (1.0 + _MARGIN) + _FLOOR)
        return np.where(np.abs(chord) > rhs, np.sign(chord), 0.0)


def _bisect(f, s, w, fac, target):
    """The final (lo, hi) of each bracket, bisected to a width of target or to adjacent doubles.

    s holds per bracket lo, hi, the sign at lo, anchors xa, fa, xb, fb and bounds M and E
    (_probe_block); it is updated in place, and compacted as brackets end.
    """
    lo, hi = s[0].copy(), s[1].copy()
    live = np.flatnonzero(hi - lo > target)
    if live.size < lo.size:
        s, w, fac, target = s[:, live], w[live], fac[live], target[live]
    certify = True
    while live.size:
        mid = 0.5 * s[0] + 0.5 * s[1]
        # Where doubles are spaced wider than the target, a bracket ends when
        # no double lies between its ends: bisecting it would change nothing.
        inner = (s[0] < mid) & (mid < s[1])
        certify = certify and live.size >= _CERTIFY_MIN
        if not certify:  # nor does any later round: the anchors are left as they are
            sign = np.sign(evaluate(f, w, mid[:, None])[fac, np.arange(live.size), 0])
        else:
            sign = _chord_signs(*s[3:], mid)
            todo = np.flatnonzero(sign == 0.0)
            # Brackets narrow into the zones that E leaves uncertain: once a round certifies
            # fewer than an eighth of its midpoints, the later ones are all evaluated.
            certify = 8 * todo.size < 7 * live.size
            if todo.size:
                fmid = evaluate(f, w[todo], mid[todo, None])[fac[todo], np.arange(todo.size), 0]
                sign[todo] = np.sign(fmid)
                # Each evaluated midpoint is the anchor on its side: xb, fb or xa, fa.
                side = np.where(s[2, todo] * sign[todo] < 0.0, 5, 3)
                s[side, todo], s[side + 1, todo] = mid[todo], fmid
        # sign == 0 closes the bracket on mid; otherwise keep the sign change.
        left = s[2] * sign < 0.0
        s[1] = np.where(left | (sign == 0.0), mid, s[1])
        s[0] = np.where(left, s[0], mid)
        s[2] = np.where(left, s[2], sign)
        keep = inner & (s[1] - s[0] > target)
        if not keep.all():
            lo[live[~keep]], hi[live[~keep]] = s[0, ~keep], s[1, ~keep]
            live, s, w, fac, target = live[keep], s[:, keep], w[keep], fac[keep], target[keep]
    return lo, hi


def _probe_block(f, bound, a, b, windows, sizes):
    """The brackets (state, window, factor) and zero probes (t, window, factor) of windows.

    Window windows[k] has sizes[k] probes; see find_sign_changes_many.  Each coarse
    interval that _cleared does not clear is one row, its coarse probes around its fine
    ones (a window's shorter last one repeats its right end).  The uncertified fine probes
    are evaluated as one (probes, 1) array, or all as one (rows, _STRIDE - 1) array.  A
    bracket's anchors are its ends where evaluated, else its row's coarse ends.
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
    fa, fb = c_vals[:, q], c_vals[:, q + 1]
    curv, err = (np.full((2, *fa.shape), np.inf) if bound is None
                 else bound(c_win[q], c_t[q], c_t[q + 1]))
    open_q = ~_cleared(c_t[q], c_t[q + 1], fa, fb, curv, err).all(axis=0)
    q, fa, fb, curv, err = q[open_q], *(x[:, open_q, None] for x in (fa, fb, curv, err))
    # Row r holds probes i[r] of window c_k[q[r]]; inner marks its fine probes.
    i = np.minimum(c_i[q, None] + np.arange(_STRIDE + 1), c_i[q + 1, None])
    grid, w = times(c_k[q, None], i), c_win[q]
    inner = i[:, 1:-1] < i[:, -1:]
    # Repeats of the right end take its coarse value; a row one probe wide has no fine probe.
    evaluated = np.ones(grid.shape, dtype=bool)
    if bound is None or inner.size < _CERTIFY_MIN:
        fine = np.repeat(fb, _STRIDE - 1, axis=2)
        wide = inner[:, 0]
        if wide.any():
            fine[:, wide] = np.where(inner[wide], evaluate(f, w[wide], grid[wide, 1:-1]),
                                     fb[:, wide])
    else:
        # Certified signs stand for the values of fine probes; the others are evaluated.
        fine = np.where(inner, _chord_signs(grid[:, :1], fa, grid[:, -1:], fb, curv, err,
                                            grid[:, 1:-1]), fb)
        evaluated[:, 1:-1] = ~inner | np.any(fine == 0.0, axis=0)
        r_e, j_e = np.nonzero(inner & evaluated[:, 1:-1])
        if r_e.size:
            fine[:, r_e, j_e] = evaluate(f, w[r_e], grid[r_e, j_e + 1, None])[:, :, 0]
    vals = np.concatenate((fa, fine, fb), axis=2)
    # A factor that is zero on every probe of its window has no kinks there.
    nonzero = np.logical_or.reduceat(c_vals != 0.0, np.cumsum(n_coarse) - n_coarse, axis=1)
    np.logical_or.at(nonzero, (slice(None), c_k[q]), np.any(vals != 0.0, axis=2))
    sign = np.sign(vals)
    fac, r, j = np.nonzero(sign[:, :, :-1] * sign[:, :, 1:] < 0.0)
    # A bracket's anchors are its ends where they were evaluated, else its row's coarse ends.
    xa = np.where(evaluated[r, j], j, 0)
    xb = np.where(evaluated[r, j + 1], j + 1, _STRIDE)
    state = np.stack((grid[r, j], grid[r, j + 1], sign[fac, r, j], grid[r, xa], vals[fac, r, xa],
                      grid[r, xb], vals[fac, r, xb], curv[fac, r, 0], err[fac, r, 0]))
    # Exact-zero probes, coarse and fine, of the factors that are not zero everywhere.
    c_fac, zero_c = np.nonzero(c_vals == 0.0)
    r_fac, zero_r, zero_j = np.nonzero((vals[:, :, 1:-1] == 0.0) & inner)
    z_fac = np.concatenate((c_fac, r_fac))
    keep = nonzero[z_fac, np.concatenate((c_k[zero_c], c_k[q[zero_r]]))]
    return (state, w[r], fac,
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
