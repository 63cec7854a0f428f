"""Joint refinement of all channel parameters by damped Fisher scoring.

SAGE (Fessler and Hero, IEEE TSP 1994) refines the coarse estimate by a
monotone ascent of the likelihood. Here every step moves all paths'
parameters at once, and a step is kept only where the global
log-likelihood does not fall, so the ascent stays monotone. The
likelihood of a parameter vector is 2 Re<mu, pa> - N_B ||mu||^2
(``field_log_likelihood``), with pa the observation's beamformed record
a_B^H y (T, N) and mu the noiseless field of the forward model
``channel.derivative_factors``; it equals ||y||^2 - ||y - a_B (x) mu||^2
exactly. Nothing else of the received tensor enters SAGE.

A step is Fisher scoring (Kay, Estimation Theory, 1993, sec. 7.7) in the
coordinates a ``ChannelParams`` holds: the delay, the gain, the
departure sine u = sin theta_t, the elevation cosine c = cos phi_in and
the azimuth product s = sin psi_in sin phi_in. The score is
(2/sigma^2) Re diag(A^H E conj(B)) with E = pa - N_B mu, the FIM J is
(2 N_B/sigma^2) Re{(A^H A) o (B^H B)}, and all three come from one pass
of ``channel.derivative_factors``, which returns A, B and the field mu.
A point costs that one pass: its mu gives the point's likelihood and,
once the point is kept, its A and B give the next step.

The loop is ``_damping.ascend`` with the curvature J and the gradient g
the score, both in nats: the undamped step first, so a run whose every
step is accepted is plain Fisher scoring, then Marquardt's damping. A
candidate is projected onto the physical set: each u outside [-1, 1]
is clipped to it and each (c, s) outside the disk c^2 + s^2 <= 1 is
scaled radially onto it. A coordinate on that boundary whose score
points out of the set leaves the step space, a projected Newton step
(Bertsekas, SIAM J. Control Optim. 1982): a sine at +-1 loses its
direction, and a (c, s) on the rim loses its radial direction but keeps
the tangential one. At half-wavelength MS spacing, d_ms = lambda/2, the
sines have no boundary: u and u +- 2 give one steering vector, so a u
outside [-1, 1] is folded into [-1, 1) (u <- mod(u + 1, 2) - 1) and a
sine near end-fire can cross from -1 to +1. The pole c = +-1 needs no
care of its own: it is a regular point of the rim.

SAGE has converged when the undamped step's decrement g^T J^-1 g, which
is step^T J step, is below 1e-6 nats. It then takes that last step and
returns the point it reaches and J there (``SageInfo.fim``, which equals
``bounds.fim_channel`` at the estimate).
A run that stalls or takes 100 steps returns its last point unconverged.
Every function takes the ``channel.Observation`` and the
``channel.Setup``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from . import channel as ch
from ._damping import ascend
from .channel import Observation, Setup
from .params import ChannelParams

_RIM_TOL = 1e-12              # c^2 + s^2 >= 1 - this puts (c, s) on the rim


@dataclass
class SageInfo:
    """Convergence diagnostics of one SAGE run.

    ``loglik_history`` holds the start and each accepted step, and never
    falls; ``scoring_steps`` counts the accepted steps. ``fim`` is the
    channel FIM at the returned estimate when SAGE converged, else None.
    """

    loglik_history: list = field(default_factory=list)
    converged: bool = False
    scoring_steps: int = 0
    fim: np.ndarray | None = None


def field_log_likelihood(mu: np.ndarray, obs: Observation,
                         setup: Setup) -> float:
    """2 Re<mu, pa> - N_B ||mu||^2 of the noiseless field mu (T, N)."""
    return float(2.0 * np.vdot(obs.pa, mu).real
                 - setup.geom.n_bs * np.vdot(mu, mu).real)


def _boundary_rows(vec: np.ndarray, score: np.ndarray, wraps: bool):
    """The boundary directions along which the score leaves the physical
    set, of stacks of parameter vectors and scores (k, 6(Q+1)): per path
    (k, Q+1), whether its sine sits at +-1 with the score pointing out
    (never where the sines wrap), and whether its (c, s) sits on the rim
    with the score pointing out."""
    p, g = vec.reshape(len(vec), -1, 6), score.reshape(len(vec), -1, 6)
    u, c, s = p[..., 3], p[..., 4], p[..., 5]
    sine = (not wraps) & (np.abs(u) >= 1.0) & (u * g[..., 3] > 0.0)
    rim = ((c * c + s * s >= 1.0 - _RIM_TOL)
           & (c * g[..., 4] + s * g[..., 5] > 0.0))
    return sine, rim


def _step_basis(vec: np.ndarray, sine: np.ndarray, rim: np.ndarray):
    """Columns spanning the step space at the parameter vector ``vec``
    (6(Q+1),) with the boundary masks ``sine`` and ``rim`` (Q+1,) of
    ``_boundary_rows``: the identity, less each flagged sine's column
    and, for each flagged (c, s), less its radial direction, keeping
    only its unit tangent (-s, c) / |(c, s)|."""
    basis = np.eye(vec.size)
    for k in (6 * np.flatnonzero(rim)).tolist():
        c, s = vec[k + 4], vec[k + 5]
        r = np.hypot(c, s)
        basis[k + 4:k + 6, k + 4] = -s / r, c / r
    return np.delete(basis, np.concatenate([6 * np.flatnonzero(sine) + 3,
                                            6 * np.flatnonzero(rim) + 5]),
                     axis=1)


def _projected(vec: np.ndarray, wraps: bool) -> ChannelParams:
    """The parameters of ``vec`` (6(Q+1),), or of each row of a stack
    (k, 6(Q+1)), with each (c, s) outside the disk scaled radially onto
    its rim and each u outside [-1, 1] clipped to it or, where the sines
    wrap, folded into [-1, 1) (u <- mod(u + 1, 2) - 1), a sine of the
    same steering vector."""
    params = ChannelParams.from_vector(vec)
    r2 = params.c ** 2 + params.s ** 2
    out = np.abs(params.u) > 1.0
    if np.any(out) or np.any(r2 > 1.0):
        params.u = (np.where(out, np.mod(params.u + 1.0, 2.0) - 1.0,
                             params.u) if wraps
                    else np.clip(params.u, -1.0, 1.0))
        r = np.sqrt(np.maximum(r2, 1.0))
        params.c, params.s = params.c / r, params.s / r
    return params


def run_sage(obs: Observation, setup: Setup, init: ChannelParams):
    """Refine all channel parameters from the coarse initialization by
    damped Fisher scoring; see the module docstring.

    A stack of K observations, with their setup stacked or shared and
    parameters stacked (K, Q+1), runs the K ascents in lockstep, each
    ending where it ends alone. Returns the stacked parameters and a list
    of K ``SageInfo``.
    """
    n_bs = setup.geom.n_bs
    score_scale = 2.0 / setup.cfg.noise_power
    # at half-wavelength spacing u and u +- 2 give one MS steering vector
    wraps = setup.geom.d_ms / setup.geom.wavelength == 0.5

    def likelihoods(mu, rows):
        return np.array([field_log_likelihood(m, obs.row(k), setup)
                         for k, m in zip(rows, mu)])

    def model(state, rows):
        """The FIMs, the scores and the step spaces at the rows' points."""
        vec, _, a, b, mu = (x[rows] for x in state)
        a_h = a.conj().swapaxes(1, 2)
        score = score_scale * np.real(np.sum(
            (a_h @ (obs.pa[rows] - n_bs * mu)) * b.conj().swapaxes(1, 2),
            axis=2))
        fim = bnd.fim_from_gram(bnd.gram_from_factors(a, b), setup)
        sine, rim = _boundary_rows(vec, score, wraps)
        edge = (sine | rim).any(axis=1)
        bases = None
        if edge.any():
            bases = [_step_basis(v, i, r) if e else None
                     for v, i, r, e in zip(vec, sine, rim, edge)]
        return fim, score, bases

    def evaluate(state, rows, steps):
        """Keep each projected candidate whose likelihood does not fall
        and is not NaN, with its factors."""
        cand = _projected(state[0][rows] + steps, wraps)
        a, b, mu = ch.derivative_factors(cand, setup.take(rows))
        lamb = likelihoods(mu, rows)
        keep = lamb >= state[1][rows]
        kept = rows[keep]
        for x, new in zip(state, (cand.to_vector(), lamb, a, b, mu)):
            x[kept] = new[keep]
        for k, value in zip(kept, lamb[keep].tolist()):
            infos[k].loglik_history.append(value)
        return keep

    a, b, mu = ch.derivative_factors(init, setup)
    lamb = likelihoods(mu, np.arange(len(mu)))
    infos = [SageInfo(loglik_history=[value]) for value in lamb.tolist()]
    (vec, _, a, b, _), steps, converged = ascend(
        (init.to_vector(), lamb, a, b, mu), model, evaluate)
    fims = bnd.fim_from_gram(bnd.gram_from_factors(a, b), setup)
    for k, info in enumerate(infos):
        info.scoring_steps, info.converged = int(steps[k]), bool(converged[k])
        if info.converged:
            info.fim = fims[k]
    return ChannelParams.from_vector(vec), infos
