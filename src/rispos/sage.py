"""Joint refinement of all channel parameters by coordinate-wise SAGE.

Each path's hidden per-path signal (its complete data) is the
observation minus the other paths' share of the field at their freshest
estimates. Beamformed onto a_B it is the observation's record a_B^H y
minus |a_B|^2 = N_B times the other paths' ``channel.model_field``, a
(T, N) record pa; nothing else of the received tensor enters SAGE.
Path q's own field is the outer product of its ``channel.path_factors``:
the RIS slot factors sigma_t = g_t^T a_R(c, s)
(``channel.ris_slot_factors``), the pilot projections p_t = a_M(u)^H x_t
(``channel.pilot_projection``) and the subcarrier ramp of its delay
(``channel.subcarrier_ramp``). With the gain eliminated, the per-path
likelihood is F = |num|^2 / den, with (``path_terms``)

    num = sum_t conj(sigma_t p_t) (pa conj(ramp))_t,
    den = N_B N sum_t |sigma_t p_t|^2,

and the closed-form gain is num / den.

A path update searches the coordinates a ``ChannelParams`` holds, the
arrays' own spatial frequencies: the delay tau, the departure sine
u = sin theta_t, the elevation cosine c = cos phi_in and the azimuth
product s = sin psi_in sin phi_in. Each coordinate enters one factor, so
a 1-D search rebuilds that factor for its candidates and reuses the
other two: ``subcarrier_ramp`` for tau, ``pilot_projection`` for u,
``ris_slot_factors`` for c and for s. The update writes its result back
as it is.

Brackets span +-``_ANGLE_CELLS`` coarse grid cells around the incumbent
and are clipped to the physical set c^2 + s^2 <= 1: |c| <= sqrt(1 - s^2)
in the elevation search, |s| <= sqrt(1 - c^2) in the azimuth search.
The pole c = +-1 is a regular point of that disk, which a search can
leave along c.

SAGE is one loop. Each iteration first takes at most ``_SCORING_STEPS``
joint Fisher-scoring steps (Kay, Estimation Theory, 1993, sec. 7.7) from
the current point. The score is (2/sigma^2) Re diag(A^H E conj(B)) with
E = pa - N_B mu, the FIM (2 N_B/sigma^2) Re{(A^H A) o (B^H B)}, all
from one pass of ``bounds.derivative_factors``, which returns A, B and
the field mu. A step is halved until the global log-likelihood does not
fall and the point stays in |u| <= 1, c^2 + s^2 <= 1. Each scoring
point costs that one pass: its mu gives the point's likelihood and,
once the point is kept, its A and B give the next step. Scoring has
converged when step^T J step < 1e-6; SAGE returns that point and J
(``SageInfo.fim``, which equals ``bounds.fim_channel`` at the
estimate). Otherwise its point is dropped
and one full-search coordinate cycle, a generalized EM step (Fessler and
Hero, IEEE TSP 1994), runs from the current point before scoring is
tried again: cycles alone can stop on the 1e-8 likelihood rule short of
the ML point.

``path_objective`` and ``path_fit`` turn ``path_terms``' (num, den) into
F and the gain; they are the only scoring path of a coordinate cycle.
The global log-likelihood 2 Re<mu, pa> - N_B ||mu||^2, mu the
``channel.model_field``, is the convergence monitor. Every function
takes the ``channel.Observation`` and the per-power ``channel.Setup``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from ._search import maximize_1d
from .channel import (Observation, Setup, model_field, path_factors,
                      pilot_projection, ris_slot_factors, subcarrier_ramp)
from .errors import ZeroDenominator
from .params import ChannelParams

_EPS_LOGLIK_REL = 1e-8        # relative log-likelihood change that stops SAGE
_ANGLE_CELLS = 2              # coarse grid cells on either side of an angle
_SCORING_STEPS = 5            # Fisher-scoring steps per attempt
_SCORING_TOL = 1e-6           # step^T J step that ends scoring
_SCORING_HALVINGS = 30        # step halvings before scoring gives up


@dataclass
class SageInfo:
    """Convergence diagnostics of one SAGE run.

    ``loglik_history`` holds the start, each coordinate cycle and each
    kept scoring step. ``n_cycles`` counts the coordinate cycles, 0 when
    scoring converged at once; ``scoring_steps`` the accepted scoring
    steps of all attempts, kept or not. ``fim`` is the channel FIM at
    the returned estimate when scoring converged, else None.
    """

    loglik_history: list = field(default_factory=list)
    n_cycles: int = 0
    converged: bool = False
    monotone_ok: bool = True
    scoring_steps: int = 0
    fim: np.ndarray | None = None


def path_terms(pa: np.ndarray, setup: Setup, sigma: np.ndarray,
               proj: np.ndarray, ramp: np.ndarray):
    """(num, den) of the per-path likelihood on the complete data pa
    (T, N), each (n,), at the factor columns sigma and proj, (T, n) or
    (T, 1), and ramp, (N, n) or (N, 1), broadcast over n candidates."""
    v = sigma * proj
    num = np.sum(v.conj() * (pa @ ramp.conj()), axis=0)
    den = (setup.geom.n_bs * setup.cfg.n_subcarriers
           * np.sum(np.abs(v) ** 2, axis=0))
    return num, den


def path_objective(num, den) -> np.ndarray:
    """F of each candidate; one with a vanishing denominator scores 0."""
    return np.abs(num) ** 2 / np.where(den > 0.0, den, np.inf)


def path_fit(num, den) -> tuple[float, complex]:
    """F and the closed-form gain of one candidate."""
    if not den > 0.0:
        raise ZeroDenominator("single-path objective denominator vanished")
    return float(abs(num) ** 2 / den), complex(num / den)


def global_log_likelihood(params: ChannelParams, obs: Observation,
                          setup: Setup) -> float:
    """Constant-free log-likelihood of the full parameter vector:
    2 Re<mu, pa> - N_B ||mu||^2 with mu = ``model_field``, which equals
    ||y||^2 - ||y - a_B (x) mu||^2 exactly.
    """
    return field_log_likelihood(model_field(params, setup), obs, setup)


def field_log_likelihood(mu: np.ndarray, obs: Observation,
                         setup: Setup) -> float:
    """2 Re<mu, pa> - N_B ||mu||^2 of the noiseless field mu (T, N)."""
    return float(2.0 * np.vdot(obs.pa, mu).real
                 - setup.geom.n_bs * np.vdot(mu, mu).real)


def coordinate_update_cycle(obs: Observation, setup: Setup,
                            params: ChannelParams, q: int) -> dict:
    """Update path q in place: tau, u, c, s, then the gain.

    Each 1-D step maximizes the concentrated likelihood over a local
    bracket with the incumbent always a candidate, so F never decreases.
    Returns the objective trace of the steps.
    """
    geom, cfg = setup.geom, setup.cfg
    others = params.copy()
    others.gains[q] = 0.0
    pa = obs.pa - geom.n_bs * model_field(others, setup)
    sigma, proj, ramp = (f[:, q:q + 1] for f in path_factors(params, setup))

    def search(factors, x0, half, lim=np.inf):
        """Search one coordinate; ``factors`` maps its candidates to the
        (sigma, proj, ramp) columns."""
        return maximize_1d(
            lambda xs: path_objective(*path_terms(pa, setup, *factors(xs))),
            max(-lim, x0 - half), min(lim, x0 + half), incumbent=x0)

    def fit(*factors):
        """F and the gain at one (sigma, proj, ramp) column each."""
        return path_fit(*(x[0] for x in path_terms(pa, setup, *factors)))

    tau, u, c, s = (float(x[q]) for x in (params.tau, params.u, params.c,
                                           params.s))
    trace = {"start": fit(sigma, proj, ramp)[0]}

    # delay: half a DFT bin on either side
    tau, trace["tau"] = search(
        lambda taus: (sigma, proj, subcarrier_ramp(taus, cfg.bandwidth,
                                                   cfg.n_subcarriers)),
        tau, 1.0 / (2.0 * cfg.bandwidth))
    ramp = subcarrier_ramp(np.array([tau]), cfg.bandwidth, cfg.n_subcarriers)

    # departure sine: +-_ANGLE_CELLS coarse cells
    u, trace["u"] = search(
        lambda us: (sigma, pilot_projection(geom, setup.pilots, us), ramp),
        u, _ANGLE_CELLS * (2.0 / cfg.g_ms), 1.0)
    proj = pilot_projection(geom, setup.pilots, np.array([u]))

    # elevation cosine at the fixed azimuth product: |c| <= sqrt(1 - s^2)
    c, trace["c"] = search(
        lambda cs: (ris_slot_factors(setup, cs, np.array([s])), proj, ramp),
        c, _ANGLE_CELLS * (2.0 / cfg.g_ris_el),
        np.sqrt(max(1.0 - s * s, 0.0)))

    # azimuth product at the fixed elevation cosine: |s| <= sqrt(1 - c^2)
    s, trace["s"] = search(
        lambda ss: (ris_slot_factors(setup, np.array([c]), ss), proj, ramp),
        s, _ANGLE_CELLS * (2.0 / cfg.g_ris_az),
        np.sqrt(max(1.0 - c * c, 0.0)))
    sigma = ris_slot_factors(setup, np.array([c]), np.array([s]))

    params.tau[q], params.u[q], params.c[q], params.s[q] = tau, u, c, s
    params.gains[q] = fit(sigma, proj, ramp)[1]
    return trace


def fisher_scoring(obs: Observation, setup: Setup, params: ChannelParams,
                   lamb: float):
    """At most ``_SCORING_STEPS`` Fisher-scoring steps from ``params``,
    whose global log-likelihood is ``lamb``.

    Returns (params, fim, log-likelihoods of the accepted steps). ``fim``
    is the FIM at the returned point when step^T J step fell below
    ``_SCORING_TOL`` there, and None when scoring did not converge: the
    step budget ran out, no halving of a step kept the likelihood and
    the physical set, or the FIM could not be solved.
    """
    n_bs = setup.geom.n_bs
    score_scale = 2.0 / setup.cfg.noise_power
    history = []
    a, b, mu = bnd.derivative_factors(params, setup)
    for n_steps in range(_SCORING_STEPS + 1):
        fim = bnd.fim_from_factors(a, b, setup)
        resid = obs.pa - n_bs * mu
        score = score_scale * np.real(
            np.sum((a.conj().T @ resid) * b.conj().T, axis=1))
        d = np.sqrt(np.diag(fim))
        if not np.all(d > 0.0):
            break
        try:
            step = np.linalg.solve(fim / np.outer(d, d), score / d) / d
        except np.linalg.LinAlgError:
            break
        if step @ fim @ step < _SCORING_TOL:
            return params, fim, history
        if n_steps == _SCORING_STEPS:
            break
        x = params.to_vector()
        for _ in range(_SCORING_HALVINGS):
            cand = ChannelParams.from_vector(x + step)
            if (np.all(np.abs(cand.u) <= 1.0)
                    and np.all(cand.c ** 2 + cand.s ** 2 <= 1.0)):
                # one factor pass serves the likelihood test and, when the
                # candidate is kept, the next step's score and FIM
                factors = bnd.derivative_factors(cand, setup)
                new_lamb = field_log_likelihood(factors[2], obs, setup)
                if new_lamb >= lamb:
                    break
            step = 0.5 * step
        else:
            break
        params, lamb, (a, b, mu) = cand, new_lamb, factors
        history.append(lamb)
    return params, None, history


def run_sage(obs: Observation, setup: Setup, init: ChannelParams,
             max_cycles: int = 50) -> tuple[ChannelParams, SageInfo]:
    """Refine all channel parameters from the coarse initialization.

    Each iteration tries Fisher scoring (``fisher_scoring``) from the
    current point and returns its point when it converges. Otherwise one
    coordinate cycle visits every path, and the run stops on the
    elementwise parameter change or the global log-likelihood change.
    Hitting the cycle limit leaves ``converged`` False but still returns
    the current estimate.
    """
    params = init.copy()
    # elementwise stopping thresholds, 1e-6 in each natural unit: 1/B for
    # delays, the initial per-path magnitude for gains, the unit of u, c, s
    eps = np.tile([1e-6 / setup.cfg.bandwidth, 0.0, 0.0, 1e-6, 1e-6, 1e-6],
                  init.n_paths)
    for q, gain in enumerate(init.gains):
        eps[6 * q + 1:6 * q + 3] = 1e-6 * max(abs(gain), 1e-30)

    info = SageInfo()
    lamb = global_log_likelihood(params, obs, setup)
    info.loglik_history.append(lamb)
    for cycle in range(max_cycles):
        scored, fim, history = fisher_scoring(obs, setup, params, lamb)
        info.scoring_steps += len(history)
        if fim is not None:
            info.loglik_history.extend(history)
            info.converged, info.fim = True, fim
            return scored, info
        prev_vec = params.to_vector()
        for q in range(params.n_paths):
            coordinate_update_cycle(obs, setup, params, q)
        info.n_cycles = cycle + 1
        new_lamb = global_log_likelihood(params, obs, setup)
        info.loglik_history.append(new_lamb)
        if new_lamb < lamb - _EPS_LOGLIK_REL * abs(lamb):
            info.monotone_ok = False
        delta_vec = np.abs(params.to_vector() - prev_vec)
        if np.all(delta_vec <= eps) or \
                abs(new_lamb - lamb) <= _EPS_LOGLIK_REL * abs(lamb):
            info.converged = True
            break
        lamb = new_lamb
    return params, info
