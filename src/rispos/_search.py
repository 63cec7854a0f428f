"""Shared 1-D maximization: grid scan, zoom levels, parabolic step.

All refinement searches in the pipeline (the AOD refinement's cyclic
passes, SAGE's coordinate cycles) use the same scheme so their ascent
guarantees are uniform: the incumbent point is always a candidate and is
only abandoned for a strictly better one. A NaN objective value scores
as -inf, so it never wins. Every stage hands its candidates to the
objective as one batch: the grid (with the incumbent), then each zoom
level, then the single parabolic step. The coarse delay step calls no
search: its Newton steps use closed-form derivatives
(``coarse_est.estimate_toa``).
"""

from __future__ import annotations

import numpy as np

# interior candidates per zoom level; a level shrinks the bracket to at
# most 2 / (_ZOOM_POINTS + 1) of its width. The level cap bounds a search
# at ten batches: grid, levels, parabolic step.
_ZOOM_POINTS = 20
_MAX_ZOOM_LEVELS = 8
_ZOOM_STEPS = np.arange(1.0, _ZOOM_POINTS + 1)


def _scores(vals) -> np.ndarray:
    """Objective values as floats, NaN read as -inf."""
    vals = np.asarray(vals, dtype=float)
    return np.where(np.isnan(vals), -np.inf, vals)


def maximize_1d(f_batch, lo: float, hi: float, n_grid: int = 41,
                tol: float = 1e-4, incumbent: float | None = None):
    """Maximize a smooth scalar function over [lo, hi].

    Parameters
    ----------
    f_batch : callable
        Maps an ndarray of candidates to an ndarray of objective values.
    lo, hi : float
        Search bracket.
    n_grid : int
        Uniform scan resolution before the zoom levels. Every bracket of
        the pipeline spans at most about 1.3 main lobes, which the default
        41 points resolve; at the default ``tol`` three zoom levels and the
        parabolic step then refine the grid's best cell, at most five
        batches per search.
    tol : float
        Zoom bracket width, relative to the search width, at which the zoom
        stops. The default 1e-4 takes 3 levels at 41 grid points and 2 at
        201. Deeper levels buy nothing: on a smooth peak the parabolic step
        through the last level's best triple lands about 1e-10 of the width
        from the maximum, far inside that last bracket. After k levels the
        bracket is at most (2 / (n_grid - 1)) (2 / 21)^k of the width, so
        ``_MAX_ZOOM_LEVELS`` binds only for tol below about 7e-11 at 201
        grid points and 3e-10 at 41.
    incumbent : float, optional
        A point guaranteed to be among the candidates; the result never
        has a smaller objective than the incumbent.

    Returns
    -------
    (x_best, f_best)
    """
    if hi < lo:
        lo, hi = hi, lo
    width = hi - lo
    if width <= 0.0:
        x = lo if incumbent is None else incumbent
        return x, float(f_batch(np.array([x]))[0])

    grid = np.linspace(lo, hi, n_grid)
    xs = grid if incumbent is None else np.append(grid, float(incumbent))
    vals = _scores(f_batch(xs))
    top = int(np.argmax(vals))
    x_best, f_best = float(xs[top]), float(vals[top])

    # zoom into the grid cells on either side of the best grid point; each
    # level samples the bracket uniformly and keeps the cells around its best
    px, pv = grid, vals[:n_grid]
    j = int(pv.argmax())
    for _ in range(_MAX_ZOOM_LEVELS):
        ia, ib = max(j - 1, 0), min(j + 1, px.size - 1)
        xa, xb = px[ia], px[ib]
        if xb - xa <= tol * width:
            break
        # the interior of linspace(xa, xb, _ZOOM_POINTS + 2), bit for bit
        inner = _ZOOM_STEPS * ((xb - xa) / (_ZOOM_POINTS + 1)) + xa
        level_x = np.empty(_ZOOM_POINTS + 2)
        level_v = np.empty(_ZOOM_POINTS + 2)
        level_x[0], level_x[1:-1], level_x[-1] = xa, inner, xb
        level_v[0], level_v[1:-1], level_v[-1] = (pv[ia], _scores(f_batch(inner)),
                                                  pv[ib])
        px, pv = level_x, level_v
        j = int(pv.argmax())
        if pv[j] > f_best:
            x_best, f_best = float(px[j]), float(pv[j])

    # one parabolic interpolation step through the best local triple
    if 0 < j < px.size - 1:
        (x1, x2, x3), (v1, v2, v3) = px[j - 1:j + 2], pv[j - 1:j + 2]
        denom = (x2 - x1) * (v2 - v3) - (x2 - x3) * (v2 - v1)
        if abs(denom) > 0.0:
            xv = x2 - 0.5 * ((x2 - x1) ** 2 * (v2 - v3)
                             - (x2 - x3) ** 2 * (v2 - v1)) / denom
            if lo <= xv <= hi and np.isfinite(xv):
                fv = float(_scores(f_batch(np.array([xv])))[0])
                if fv > f_best:
                    x_best, f_best = float(xv), fv

    if incumbent is not None and vals[-1] >= f_best:
        return float(incumbent), float(vals[-1])
    return x_best, f_best
