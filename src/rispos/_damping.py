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
"""

from __future__ import annotations

import numpy as np

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


def ascend(state, model, evaluate, nats: float = 1.0):
    """Damped Newton ascent from ``state``; see the module docstring.

    ``model(state)`` gives (A, g, basis): the curvature and gradient of
    the objective at ``state`` and the columns spanning its step space, or
    None for the whole space. ``evaluate(state, step)`` gives the state a
    step reaches, or None when the fit rejects the candidate. ``nats`` is
    one unit of the objective in nats. Returns (state, accepted steps,
    converged): converged when the undamped decrement g^T x, in nats, fell
    below ``DECREMENT_TOL``, the state then being the one the last
    candidate reaches, or the one before where ``evaluate`` rejects it; a
    fit that stalls or takes ``MAX_STEPS`` steps returns its last accepted
    state unconverged.
    """
    lam = 0.0
    for steps in range(MAX_STEPS):
        a, g, basis = model(state)
        if basis is not None:
            a, g = basis.T @ a @ basis, basis.T @ g
        undamped = _solve(a, g, 0.0)
        last = undamped is not None and nats * (g @ undamped) < DECREMENT_TOL
        while True:
            step = undamped if lam == 0.0 else _solve(a, g, lam)
            new = None if step is None else evaluate(
                state, step if basis is None else basis @ step)
            if new is not None or last:
                break
            lam = max(DAMPING, DAMPING_UP * lam)
            if lam > DAMPING_LIMIT:
                return state, steps, False
        if last:
            return (state, steps, True) if new is None else \
                (new, steps + 1, True)
        state, lam = new, DAMPING_DOWN * lam
    return state, MAX_STEPS, False
