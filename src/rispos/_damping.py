"""Marquardt damping shared by every iterative fit in the pipeline.

The pose fit (``positioning.refine_position_lm``) and the two likelihood
ascents (``sage.run_sage``, ``coarse_est.refine_aod_mle``) take steps
from one damping schedule (Marquardt, SIAM J. Appl. Math. 1963): a
rejected candidate raises the damping tenfold, an accepted one cuts it
tenfold, and a fit whose damping passes 1e12 has stalled. The ascents
start undamped, so a run whose every step is accepted takes the plain
Newton or Fisher-scoring steps.
"""

from __future__ import annotations

import numpy as np

DAMPING = 1e-3                # first damping after an undamped rejection
DAMPING_UP = 10.0             # factor after a rejected candidate
DAMPING_DOWN = 0.1            # factor after an accepted candidate
DAMPING_LIMIT = 1e12          # a fit stalls once the damping passes this


def damped_step(undamped, solve, evaluate, lam: float):
    """The first accepted candidate from the current point of an ascent.

    ``undamped`` is the step at damping 0, or None when the undamped
    system has no solution; ``solve(lam)`` gives the step at damping
    lam > 0 or raises ``LinAlgError``; ``evaluate(step)`` gives the
    candidate's outcome, or None when it is rejected. Candidates start at
    damping ``lam``; after a rejection it becomes max(``DAMPING``,
    ``DAMPING_UP`` lam). Returns (outcome, damping for the next step),
    ``DAMPING_DOWN`` times the accepted one, or (None, lam) once lam
    passes ``DAMPING_LIMIT``.
    """
    while lam <= DAMPING_LIMIT:
        if lam == 0.0:
            step = undamped
        else:
            try:
                step = solve(lam)
            except np.linalg.LinAlgError:
                step = None
        out = None if step is None else evaluate(step)
        if out is not None:
            return out, DAMPING_DOWN * lam
        lam = max(DAMPING, DAMPING_UP * lam)
    return None, lam
