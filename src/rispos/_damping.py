"""One damped Newton ascent for every iterative fit in the pipeline.

The AOD likelihood refinement (``coarse_est.refine_aod_mle``), SAGE
(``sage.run_sage``) and the pose fit (``positioning.refine_position_lm``)
each maximize their objective with ``ascend``. A fit supplies its local
model at a point, a positive definite curvature A, the gradient g and the
columns of its step space, and its own test of a candidate; the loop owns
the rest:

- the step: x solves (A + lambda diag|A|) x = g through a Cholesky
  factor, both reduced to the step space first;
- Marquardt's schedule (SIAM J. Appl. Math. 1963): the undamped step
  comes first, a rejected candidate raises lambda to max(1e-3,
  10 lambda), an accepted one cuts it to 0.1 lambda, and a fit whose
  lambda passes 1e12 has stalled. A fit whose every candidate is
  accepted takes the plain Newton, Fisher-scoring or Gauss-Newton steps;
- one stop rule, the Newton decrement g^T A^-1 g (Boyd and
  Vandenberghe, Convex Optimization, 2004, sec. 9.5.1), twice the gain
  the undamped step predicts: a fit has converged when it is below
  1e-6 nats. It then takes one last candidate at the current lambda,
  the undamped step unless candidates were rejected just before, and
  keeps it where its test accepts it: the step gains under 5e-7 nats
  but may still move the point by a thousandth of a standard
  deviation, an error that one Newton step squares;
- the cap of 100 accepted steps.

The loop runs a stack of K fits of one kind in lockstep, as a sweep's
batch holds them; a lone fit is a stack of one. Each row keeps its own
damping, step count and last-step flag, and a row that converges,
stalls or reaches the cap leaves the active set. Each pass asks for the
model only at the rows whose point moved, tests one candidate of every
active row, and so ends every row where its lone fit ends: the stacked
Cholesky factors and solves make one LAPACK call per matrix, as on one.
Rows whose step space is reduced by a basis, and the rows of a stacked
factor that raises, are solved one at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import RisposError

MAX_STEPS = 100               # accepted steps before a fit gives up
DECREMENT_TOL = 1e-6          # nats; a smaller undamped decrement ends a fit
DAMPING = 1e-3                # first damping after an undamped rejection
DAMPING_UP = 10.0             # factor after a rejected candidate
DAMPING_DOWN = 0.1            # factor after an accepted candidate
DAMPING_LIMIT = 1e12          # a fit stalls once the damping passes this


def _solve(a: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray | None:
    """The x of (A + lam diag|A|) x = g, or None where that matrix is not
    positive definite."""
    if lam:
        a = a + lam * np.diag(np.abs(np.diag(a)))
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(chol.T, np.linalg.solve(chol, g))


def _damped(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """A + lam diag|A| of each row of the stacks a (k, n, n), lam (k,), in
    ``_solve``'s operation order."""
    idx = np.arange(a.shape[-1])
    diag = np.zeros_like(a)
    diag[:, idx, idx] = np.abs(a[:, idx, idx])
    return a + lam[:, None, None] * diag


def _solve_stack(a: np.ndarray, g: np.ndarray):
    """``_solve`` of each row of the stacks a (k, n, n), g (k, n), the
    damping already added: the steps (k, n) and whether each exists."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:          # find the rows that fail
        steps = [_solve(a_k, g_k, 0.0) for a_k, g_k in zip(a, g)]
        ok = np.array([x is not None for x in steps])
        out = np.zeros(g.shape)
        if ok.any():
            out[ok] = np.stack([x for x in steps if x is not None])
        return out, ok
    return (np.linalg.solve(chol.swapaxes(1, 2),
                            np.linalg.solve(chol, g[..., None]))[..., 0],
            np.ones(len(g), bool))


def ascend(state, model, evaluate, nats: float = 1.0):
    """Damped Newton ascent of a stack of fits from ``state``; see the
    module docstring.

    ``state`` holds the fits' points, a tuple of arrays whose leading axis
    is the row. ``model(state, rows)`` gives (A, g, bases) at the points
    of the rows ``rows``, an index array: the curvatures (k, n, n), the
    gradients (k, n), and for each row the columns spanning its step
    space or None for the whole space (``bases`` may be None when no row
    has one). ``evaluate(state, rows, steps)`` tests a candidate step
    (k, n) of each row and gives whether the fit accepts it, writing each
    accepted candidate's point into its row of ``state``. ``nats`` is one
    unit of the objective in nats. Returns (state, accepted steps (K,),
    converged (K,)): a row has converged when its undamped decrement
    g^T x, in nats, fell below ``DECREMENT_TOL``, its point then being the
    one the last candidate reaches, or the one before where ``evaluate``
    rejects it; a row that stalls or takes ``MAX_STEPS`` steps keeps its
    last accepted point unconverged.
    """
    n_rows = len(state[0])
    steps = np.zeros(n_rows, int)
    converged = np.zeros(n_rows, bool)
    lam = np.zeros(n_rows)
    active = fresh = np.arange(n_rows)     # fresh: the rows whose point moved
    last, has_step, in_basis = (np.zeros(n_rows, bool) for _ in range(3))
    curv = grad = undamped = None
    reduced = {}                  # row with a basis -> (A, g, basis, x)
    while active.size:
        if fresh.size:
            a, g, bases = model(state, fresh)
            if curv is None:
                curv, grad = np.zeros((n_rows,) + a.shape[1:]), \
                    np.zeros((n_rows, g.shape[1]))
                undamped = np.zeros_like(grad)
            curv[fresh], grad[fresh] = a, g
            in_basis[fresh] = False
            for i, basis in enumerate(bases or ()):
                if basis is not None:          # a boundary row, on its own
                    k = fresh[i]
                    a_k, g_k = basis.T @ a[i] @ basis, basis.T @ g[i]
                    x_k = _solve(a_k, g_k, 0.0)
                    reduced[k] = (a_k, g_k, basis, x_k)
                    in_basis[k], has_step[k] = True, x_k is not None
                    last[k] = (has_step[k]
                               and nats * (g_k @ x_k) < DECREMENT_TOL)
        # one stacked solve for the undamped steps at the moved points
        # and the damped steps of the rows held back
        lam_a = lam[active]
        new = fresh[~in_basis[fresh]]
        held = active[(lam_a > 0.0) & ~in_basis[active]]
        if new.size or held.size:
            rows = np.concatenate([new, held])
            mats = curv[rows]
            if held.size:
                mats[new.size:] = _damped(mats[new.size:], lam[held])
            x, ok = _solve_stack(mats, grad[rows])
            undamped[new], has_step[new] = x[:new.size], ok[:new.size]
            # each row's g^T x, the dot product a lone g @ x makes
            last[new] = ok[:new.size] & (nats * (
                grad[new][:, None, :] @ x[:new.size, :, None])[:, 0, 0]
                < DECREMENT_TOL)
        # each active row's candidate at its own damping
        step, ok_step = undamped[active], has_step[active]
        if held.size:
            at = np.searchsorted(active, held)
            step[at], ok_step[at] = x[new.size:], ok[new.size:]
        if reduced:
            for i in np.flatnonzero(in_basis[active]):
                a_k, g_k, basis, x_k = reduced[active[i]]
                if lam_a[i] > 0.0:
                    x_k = _solve(a_k, g_k, lam_a[i])
                ok_step[i] = x_k is not None
                if ok_step[i]:
                    step[i] = basis @ x_k
        accepted = np.zeros(active.size, bool)
        if ok_step.any():
            accepted[ok_step] = evaluate(state, active[ok_step],
                                         step[ok_step])
        ends = last[active]
        steps[active] += accepted
        converged[active[ends]] = True
        moved = accepted & ~ends
        back = ~(accepted | ends)
        lam_a = np.where(moved, DAMPING_DOWN * lam_a, lam_a)
        lam_a[back] = np.maximum(DAMPING, DAMPING_UP * lam_a[back])
        lam[active] = lam_a
        done = ends | (moved & (steps[active] == MAX_STEPS)) | \
            (back & (lam_a > DAMPING_LIMIT))
        fresh, active = active[moved & ~done], active[~done]
    return state, steps, converged


def fit_rows(fit, n_rows: int):
    """``fit(rows)`` on all ``n_rows`` rows of a stack, as an index array,
    giving a list of per-row outputs; where that raises a ``RisposError``
    or ``LinAlgError``, ``fit`` on each row alone, so each row keeps the
    output or the error of its lone fit. Returns the outputs, None for a
    row that raised, and per row its error or None. A kept error drops
    its traceback, whose frames would keep the stack's arrays alive."""
    try:
        return fit(np.arange(n_rows)), [None] * n_rows
    except (RisposError, np.linalg.LinAlgError):
        pass
    outs, errors = [None] * n_rows, [None] * n_rows
    for k in range(n_rows):
        try:
            (outs[k],) = fit(np.array([k]))
        except (RisposError, np.linalg.LinAlgError) as exc:
            errors[k] = exc.with_traceback(None)
    return outs, errors
