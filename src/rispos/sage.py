"""Joint refinement of all channel parameters by coordinate-wise SAGE.

Each path's hidden per-path signal (its complete data) is the
observation minus the other paths' share of ``channel.model_field`` at
their freshest estimates. Beamformed onto a_B it is the observation's
record a_B^H y minus (a_B^H a_B) times the other paths' field, a (T, N)
record pa; nothing else of the received tensor enters SAGE. De-rotated
by the path's delay it gives r_t; the path's model slot factor is
v_t = sigma_t p_t, with sigma_t = g_t^T a_R and p_t = a_M^H x_t. With the
gain eliminated, the per-path likelihood is

    F = |num|^2 / den,  num = sum_t r_t conj(v_t),
                        den = N_B N sum_t |v_t|^2,

and the closed-form gain is num / den.

A path update searches the coordinates a ``ChannelParams`` holds, the
arrays' own spatial frequencies: the delay tau, the departure sine
u = sin theta_t, the elevation cosine c = cos phi_in and the azimuth
product s = sin psi_in sin phi_in. a_M depends on u alone, and a_R is
a_el(c) (x) a_az(s) (``channel.ris_factors``), so each coordinate enters
one factor, and the update writes its result back as it is.

Each 1-D search first contracts the factors it holds fixed into small
per-search statistics, so a candidate costs only its own steering
vector:

- delay: k = pa^T conj(v), an (N,) vector; num = ramp(-tau)^T k and den
  does not change over the search;
- departure sine: w = conj(X) (r . conj(sigma)) over the pilots X;
  num = a_M(u)^T w and den = N_B N |sigma|^T |X^T conj(a_M(u))|^2;
- elevation and azimuth: per phase block b, k_b = sum_{t in b} r_t
  conj(p_t) and d_b = sum_{t in b} |p_t|^2; num = k^T conj(sigma_b) and
  den = N_B N d^T |sigma_b|^2, one sigma_b per block instead of one per
  slot. The block phases (B, N_el, N_az) are contracted once with the
  fixed factor, a_az(s) for the elevation search and a_el(c) for the
  azimuth search, so a candidate costs one 10-element ULA vector and a
  (B x 10) product.

Brackets span +-``_ANGLE_CELLS`` coarse grid cells around the incumbent
and are clipped to the physical set c^2 + s^2 <= 1: |c| <= sqrt(1 - s^2)
in the elevation search, |s| <= sqrt(1 - c^2) in the azimuth search.
The pole c = +-1 is a regular point of that disk, which a search can
leave along c.

The first cycle runs every search in full. Later cycles start within a
small fraction of a cell of each maximum and take ``maximize_1d``'s
local path: SAGE is a generalized EM, so an M-step need only not lower
its objective, which the incumbent rule guarantees.

``path_objective`` and ``path_fit`` turn any of these (num, den) pairs
into F and the gain; they are the only scoring path of a coordinate
cycle. The global log-likelihood over all slots and subcarriers is the
convergence monitor. Every function takes the ``channel.Observation``
and the per-power ``channel.Setup``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._search import maximize_1d
from .channel import (Observation, Setup, model_field, ms_sine_steering,
                      path_factors, ris_factors, subcarrier_ramp)
from .coarse_est import _N_GRID
from .errors import ZeroDenominator
from .params import ChannelParams

UPDATE_ORDER = ("tau", "u", "c", "s", "delta")
_EPS_LOGLIK_REL = 1e-8        # relative log-likelihood change that stops SAGE
_ANGLE_CELLS = 2              # coarse grid cells on either side of an angle


@dataclass
class SageInfo:
    """Convergence diagnostics of one SAGE run."""

    loglik_history: list = field(default_factory=list)
    n_cycles: int = 0
    converged: bool = False
    monotone_ok: bool = True


class SageProblem:
    """Observation context shared by all SAGE updates.

    Holds the beamformed observation a_B^H y (T, N) and the slot
    structure the per-search statistics contract over. Each ``*_terms``
    method forms one search's statistics once and returns a function
    from candidate coordinates, scalar or (n,), to the matching
    (num, den).
    """

    def __init__(self, obs: Observation, setup: Setup):
        self.setup = setup
        geom, sched = setup.geom, setup.sched
        self.pa0 = obs.pa                                # (T, N)
        self._ab_sq = float(np.real(np.vdot(setup.a_b, setup.a_b)))
        self.slot_block = sched.slot_block               # (T,)
        # (blocks, T) indicator: row b sums the slots of phase block b
        self._block_sum = (sched.slot_block
                           == np.arange(sched.n_blocks)[:, None]).astype(float)
        self._den_scale = geom.n_bs * setup.cfg.n_subcarriers
        # block phases as (B, N_el, N_az) and (B, N_az, N_el)
        self._phases = sched.block_phases.reshape(-1, geom.n_ris_el,
                                                  geom.n_ris_az)
        self._phases_t = self._phases.transpose(0, 2, 1)

    def complete_data(self, params: ChannelParams, q: int) -> np.ndarray:
        """Beamformed per-path signal (T, N): observation minus the other paths."""
        others = params.copy()
        others.gains[q] = 0.0
        return self.pa0 - self._ab_sq * model_field(others, self.setup)

    def derotated(self, pa: np.ndarray, tau: float) -> np.ndarray:
        """r_t = sum_n pa[t, n] conj(ramp_n(tau)) for a (T, N) record pa."""
        cfg = self.setup.cfg
        return pa @ subcarrier_ramp(-tau, cfg.bandwidth, cfg.n_subcarriers)

    def block_sigma(self, c: float, s: float) -> np.ndarray:
        """sigma_b = block_phases[b] @ a_R per phase block, (B,), at the
        elevation cosine c and azimuth product s."""
        a_el, a_az = ris_factors(self.setup, c, s)
        return (self._phases @ a_az) @ a_el

    def slot_proj(self, u: float) -> np.ndarray:
        """p_t = a_M^H x_t per slot, (T,), at the departure sine u."""
        return self.setup.pilots.T @ ms_sine_steering(self.setup.geom, u).conj()

    def delay_terms(self, pa: np.ndarray, v: np.ndarray):
        """Delay search at slot factors v (T,): num = ramp(-tau)^T pa^T conj(v)."""
        cfg = self.setup.cfg
        k = pa.T @ v.conj()                              # (N,)
        den = self._den_scale * float(np.vdot(v, v).real)

        def terms(tau):
            ramp = subcarrier_ramp(np.negative(tau), cfg.bandwidth,
                                   cfg.n_subcarriers)
            return ramp.T @ k, den
        return terms

    def departure_terms(self, r: np.ndarray, sigma: np.ndarray):
        """Departure-sine search at de-rotated r (T,) and RIS factors sigma (T,)."""
        geom, pilots = self.setup.geom, self.setup.pilots
        w = pilots.conj() @ (r * sigma.conj())           # (N_m,)
        sigma_sq = self._den_scale * np.abs(sigma) ** 2

        def terms(u):
            a_m = ms_sine_steering(geom, u)
            return a_m.T @ w, sigma_sq @ np.abs(pilots.T @ a_m.conj()) ** 2
        return terms

    def _ris_terms(self, r: np.ndarray, p: np.ndarray, folded: np.ndarray,
                   steer):
        """RIS search at de-rotated r (T,) and projections p (T,): the
        block phases with the fixed factor folded in, (B, n_steer), times
        ``steer`` of each candidate."""
        k = self._block_sum @ (r * p.conj())
        d = self._den_scale * (self._block_sum @ np.abs(p) ** 2)

        def terms(x):
            sigma_b = folded @ steer(x)
            return k @ sigma_b.conj(), d @ np.abs(sigma_b) ** 2
        return terms

    def elevation_terms(self, r: np.ndarray, p: np.ndarray, s: float):
        """Elevation-cosine search at a fixed azimuth product s."""
        setup = self.setup
        folded = self._phases @ ris_factors(setup, None, s)[1]
        return self._ris_terms(r, p, folded,
                               lambda c: ris_factors(setup, c, None)[0])

    def azimuth_terms(self, r: np.ndarray, p: np.ndarray, c: float):
        """Azimuth-product search at a fixed elevation cosine c."""
        setup = self.setup
        folded = self._phases_t @ ris_factors(setup, c, None)[0]
        return self._ris_terms(r, p, folded,
                               lambda s: ris_factors(setup, None, s)[1])


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
    """Constant-free log-likelihood of the full parameter vector.

    Two terms: twice the real part of the per-path data correlation and
    the BS-gain-weighted cross-path Gram correction. Equals
    sum_n ||Y[n]||_F^2 - sum_n ||Y[n] - model||_F^2 exactly.
    """
    sigma, proj, ramp = path_factors(params, setup)
    w_mat = sigma * proj                                          # (T, Q+1)
    k_mat = obs.pa.conj() @ ramp                                  # (T, Q+1)
    term1 = 2.0 * np.real(np.sum(params.gains * np.sum(w_mat * k_mat, axis=0)))
    rho = ramp.conj().T @ ramp                                    # (Q+1, Q+1)
    gram = w_mat.conj().T @ w_mat
    term2 = setup.geom.n_bs * np.real(
        params.gains.conj() @ ((rho * gram) @ params.gains))
    return float(term1 - term2)


def coordinate_update_cycle(prob: SageProblem, params: ChannelParams,
                            q: int, local: bool = False) -> dict:
    """Update path q in place: tau, u, c, s, then the gain.

    Each 1-D step maximizes the concentrated likelihood over a local
    bracket with the incumbent always a candidate, so F never decreases.
    ``local`` starts each search with ``maximize_1d``'s local path.
    Returns the objective trace of the steps.
    """
    cfg = prob.setup.cfg
    pa = prob.complete_data(params, q)

    def search(terms, x0, half, lim=np.inf):
        return maximize_1d(lambda xs: path_objective(*terms(xs)),
                           max(-lim, x0 - half), min(lim, x0 + half),
                           n_grid=_N_GRID, incumbent=x0, local=local)

    tau, u, c, s = (float(x[q]) for x in (params.tau, params.u, params.c,
                                           params.s))
    sigma = prob.block_sigma(c, s)[prob.slot_block]
    delay = prob.delay_terms(pa, sigma * prob.slot_proj(u))
    trace = {"start": path_fit(*delay(tau))[0]}

    # delay: half a DFT bin on either side
    tau, trace["tau"] = search(delay, tau, 1.0 / (2.0 * cfg.bandwidth))
    r = prob.derotated(pa, tau)

    # departure sine: +-_ANGLE_CELLS coarse cells
    u, trace["u"] = search(prob.departure_terms(r, sigma), u,
                                 _ANGLE_CELLS * (2.0 / cfg.g_ms), 1.0)
    p = prob.slot_proj(u)

    # elevation cosine at the fixed azimuth product: |c| <= sqrt(1 - s^2)
    c, trace["c"] = search(prob.elevation_terms(r, p, s), c,
                                _ANGLE_CELLS * (2.0 / cfg.g_ris_el),
                                np.sqrt(max(1.0 - s * s, 0.0)))

    # azimuth product at the fixed elevation cosine: |s| <= sqrt(1 - c^2)
    azimuth = prob.azimuth_terms(r, p, c)
    s, trace["s"] = search(azimuth, s, _ANGLE_CELLS * (2.0 / cfg.g_ris_az),
                           np.sqrt(max(1.0 - c * c, 0.0)))

    params.tau[q], params.u[q], params.c[q], params.s[q] = tau, u, c, s
    params.gains[q] = path_fit(*azimuth(s))[1]
    return trace


def run_sage(obs: Observation, setup: Setup, init: ChannelParams,
             max_cycles: int = 50) -> tuple[ChannelParams, SageInfo]:
    """Refine all channel parameters from the coarse initialization.

    Paths are visited cyclically; termination is checked after each full
    cycle on the elementwise parameter change and on the global
    log-likelihood change. Hitting the cycle limit leaves ``converged``
    False but still returns the current estimate.
    """
    params = init.copy()
    prob = SageProblem(obs, setup)
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
        prev_vec = params.to_vector()
        for q in range(params.n_paths):
            coordinate_update_cycle(prob, params, q, local=cycle > 0)
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
