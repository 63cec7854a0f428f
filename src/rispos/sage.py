"""Joint refinement of all channel parameters by coordinate-wise SAGE.

Each path's hidden per-path signal (its complete data) is the
observation minus the other paths' share of ``channel.model_field`` at
their freshest estimates. Beamformed onto a_B it is a_B^H y minus
(a_B^H a_B) times the other paths' field, a (T, N) record pa. De-rotated
by the path's delay it gives r_t; the path's model slot factor is
u_t = sigma_t p_t, with sigma_t = g_t^T a_R and p_t = a_M^H x_t. With the
gain eliminated, the per-path likelihood is

    F = |num|^2 / den,  num = sum_t r_t conj(u_t),
                        den = N_B N sum_t |u_t|^2,

and the closed-form gain is num / den. Each 1-D search first contracts
the factors it holds fixed into small per-search statistics, so a
candidate costs only its own steering vector:

- delay: c = pa^T conj(u), an (N,) vector; num = ramp(-tau)^T c and den
  does not change over the search;
- departure angle: w = conj(X) (r . conj(sigma)) over the pilots X;
  num = a_M^T w and den = N_B N |sigma|^T |X^T conj(a_M)|^2;
- elevation and azimuth: per phase block b, c_b = sum_{t in b} r_t
  conj(p_t) and d_b = sum_{t in b} |p_t|^2; num = c^T conj(sigma_b) and
  den = N_B N d^T |sigma_b|^2 with sigma_b = block_phases @ a_R, one row
  per block instead of one per slot. a_R is the elevation factor (x) the
  azimuth factor, so the azimuth search folds the fixed elevation factor
  into the block phases once.

``path_objective`` and ``path_fit`` turn any of these (num, den) pairs
into F and the gain; they are the only scoring path of a coordinate
cycle. The global log-likelihood over all slots and subcarriers is the
convergence monitor. Every function takes the received tensor y
(N_b, T, N) and the per-power ``channel.Setup``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._search import maximize_1d
from .channel import (Setup, beamform, model_field, ms_steering,
                      path_factors, pilot_projection, ris_slot_scalars,
                      subcarrier_ramp)
from .errors import ZeroDenominator
from .geometry import ris_delta_freqs, steer_ula
from .params import ChannelParams

UPDATE_ORDER = ("tau", "theta_t", "phi_in", "psi_in", "delta")
_EPS_LOGLIK_REL = 1e-8        # relative log-likelihood change that stops SAGE
_ANGLE_CELLS = 2              # coarse grid cells on either side of an angle
# grid points of each coordinate search: a bracket spans at most about 1.3
# main lobes; at the default ``tol`` three zoom levels and the parabolic
# step refine the grid's best cell, at most five batches per search
_N_GRID = 41


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
    from candidate values, scalar or (n,), to the matching (num, den).
    """

    def __init__(self, y: np.ndarray, setup: Setup):
        self.setup = setup
        self.pa0 = beamform(setup.a_b, y)                # (T, N)
        self._ab_sq = float(np.real(np.vdot(setup.a_b, setup.a_b)))
        sched = setup.sched
        self.slot_block = sched.slot_block               # (T,)
        # (blocks, T) indicator: row b sums the slots of phase block b
        self._block_sum = (sched.slot_block
                           == np.arange(sched.n_blocks)[:, None]).astype(float)
        self._den_scale = setup.geom.n_bs * setup.cfg.n_subcarriers

    def complete_data(self, params: ChannelParams, q: int) -> np.ndarray:
        """Beamformed per-path signal (T, N): observation minus the other paths."""
        others = params.copy()
        others.gains[q] = 0.0
        return self.pa0 - self._ab_sq * model_field(others, self.setup)

    def derotated(self, pa: np.ndarray, tau: float) -> np.ndarray:
        """r_t = sum_n pa[t, n] conj(ramp_n(tau)) for a (T, N) record pa."""
        cfg = self.setup.cfg
        return pa @ subcarrier_ramp(-tau, cfg.bandwidth, cfg.n_subcarriers)

    def block_sigma(self, phi_in, psi_in) -> np.ndarray:
        """sigma_b = block_phases[b] @ a_R(dw) per phase block; (B,) or (B, n)."""
        _, phi_out0, psi_out0 = self.setup.known_angles
        return ris_slot_scalars(self.setup.geom, self.setup.sched.block_phases,
                                phi_in, psi_in, phi_out0, psi_out0)

    def slot_proj(self, theta_t) -> np.ndarray:
        """p_t = a_M(theta)^H x_t per slot; (T,) or (T, n)."""
        return pilot_projection(self.setup.geom, self.setup.pilots, theta_t)

    def delay_terms(self, pa: np.ndarray, u: np.ndarray):
        """Delay search at slot factors u (T,): num = ramp(-tau)^T pa^T conj(u)."""
        cfg = self.setup.cfg
        c = pa.T @ u.conj()                              # (N,)
        den = self._den_scale * float(np.vdot(u, u).real)

        def terms(tau):
            ramp = subcarrier_ramp(np.negative(tau), cfg.bandwidth,
                                   cfg.n_subcarriers)
            return ramp.T @ c, den
        return terms

    def departure_terms(self, r: np.ndarray, sigma: np.ndarray):
        """Departure-angle search at de-rotated r (T,) and RIS factors sigma (T,)."""
        geom, pilots = self.setup.geom, self.setup.pilots
        w = pilots.conj() @ (r * sigma.conj())           # (N_m,)
        sigma_sq = self._den_scale * np.abs(sigma) ** 2

        def terms(theta_t):
            a_m = ms_steering(geom, theta_t)
            return a_m.T @ w, sigma_sq @ np.abs(pilots.T @ a_m.conj()) ** 2
        return terms

    def _block_stats(self, r: np.ndarray, p: np.ndarray):
        """c_b = sum_{t in b} r_t conj(p_t) and N_B N sum_{t in b} |p_t|^2."""
        return (self._block_sum @ (r * p.conj()),
                self._den_scale * (self._block_sum @ np.abs(p) ** 2))

    def elevation_terms(self, r: np.ndarray, p: np.ndarray, psi_in: float):
        """Elevation search at de-rotated r (T,), projections p (T,) and a
        fixed azimuth."""
        c, d = self._block_stats(r, p)

        def terms(phi_in):
            sigma_b = self.block_sigma(phi_in,
                                       np.full(np.shape(phi_in), psi_in))
            return c @ sigma_b.conj(), d @ np.abs(sigma_b) ** 2
        return terms

    def azimuth_terms(self, r: np.ndarray, p: np.ndarray, phi_in: float):
        """Azimuth search at de-rotated r (T,), projections p (T,) and a
        fixed elevation.

        a_R is the elevation factor (x) the azimuth factor, and the
        elevation factor is fixed here, so it folds into the block phases
        once: a candidate costs one azimuth steering vector.
        """
        geom = self.setup.geom
        _, phi_out0, psi_out0 = self.setup.known_angles
        c, d = self._block_stats(r, p)
        # the elevation frequency does not depend on the azimuth angle
        _, dw_el = ris_delta_freqs(geom, phi_in, 0.0, phi_out0, psi_out0)
        phases = self.setup.sched.block_phases.reshape(
            -1, geom.n_ris_el, geom.n_ris_az)
        phases_az = np.einsum("bea,e->ba", phases,
                              steer_ula(dw_el, geom.n_ris_el))

        def terms(psi_in):
            dw_az, _ = ris_delta_freqs(geom, phi_in, psi_in, phi_out0,
                                       psi_out0)
            sigma_b = phases_az @ steer_ula(dw_az, geom.n_ris_az)
            return c @ sigma_b.conj(), d @ np.abs(sigma_b) ** 2
        return terms


def path_objective(num, den) -> np.ndarray:
    """F of each candidate; one with a vanishing denominator scores 0."""
    return np.abs(num) ** 2 / np.where(den > 0.0, den, np.inf)


def path_fit(num, den) -> tuple[float, complex]:
    """F and the closed-form gain of one candidate."""
    if not den > 0.0:
        raise ZeroDenominator("single-path objective denominator vanished")
    return float(abs(num) ** 2 / den), complex(num / den)


def global_log_likelihood(params: ChannelParams, y: np.ndarray,
                          setup: Setup) -> float:
    """Constant-free log-likelihood of the full parameter vector.

    Two terms: twice the real part of the per-path data correlation and
    the BS-gain-weighted cross-path Gram correction. Equals
    sum_n ||Y[n]||_F^2 - sum_n ||Y[n] - model||_F^2 exactly.
    """
    sigma, proj, ramp = path_factors(params, setup)
    w_mat = sigma * proj                                          # (T, Q+1)
    pa0 = beamform(setup.a_b, y)                                  # (T, N)
    k_mat = pa0.conj() @ ramp                                     # (T, Q+1)
    term1 = 2.0 * np.real(np.sum(params.gains * np.sum(w_mat * k_mat, axis=0)))
    rho = ramp.conj().T @ ramp                                    # (Q+1, Q+1)
    gram = w_mat.conj().T @ w_mat
    term2 = setup.geom.n_bs * np.real(
        params.gains.conj() @ ((rho * gram) @ params.gains))
    return float(term1 - term2)


def coordinate_update_cycle(prob: SageProblem, params: ChannelParams,
                            q: int) -> dict:
    """Update path q in place: tau, theta_t, phi_in, psi_in, then the gain.

    Each 1-D step maximizes the concentrated likelihood over a local
    bracket with the incumbent always a candidate, so F never decreases.
    Returns the objective trace of the steps.
    """
    cfg = prob.setup.cfg
    pa = prob.complete_data(params, q)

    def search(terms, x0, half, lim=np.inf):
        return maximize_1d(lambda xs: path_objective(*terms(xs)),
                           max(-lim, x0 - half), min(lim, x0 + half),
                           n_grid=_N_GRID, incumbent=x0)

    tau = float(params.tau[q])
    theta = float(params.theta_t[q])
    phi = float(params.phi_in[q])
    psi = float(params.psi_in[q])
    sigma = prob.block_sigma(phi, psi)[prob.slot_block]
    delay = prob.delay_terms(pa, sigma * prob.slot_proj(theta))
    trace = {"start": path_fit(*delay(tau))[0]}

    # delay: half a DFT bin on either side
    tau, trace["tau"] = search(delay, tau, 1.0 / (2.0 * cfg.bandwidth))
    r = prob.derotated(pa, tau)

    # departure angle: +-_ANGLE_CELLS coarse cells in sin space
    departure = prob.departure_terms(r, sigma)
    u_best, trace["theta_t"] = search(
        lambda us: departure(np.arcsin(np.clip(us, -1.0, 1.0))),
        np.sin(theta), _ANGLE_CELLS * (2.0 / cfg.g_ms), 1.0)
    theta = float(np.arcsin(np.clip(u_best, -1.0, 1.0)))
    p = prob.slot_proj(theta)

    # elevation arrival angle: +-_ANGLE_CELLS cells in cos space
    elevation = prob.elevation_terms(r, p, psi)
    c_best, trace["phi_in"] = search(
        lambda cs: elevation(np.arccos(np.clip(cs, -1.0, 1.0))),
        np.cos(phi), _ANGLE_CELLS * (2.0 / cfg.g_ris_el), 1.0)
    phi = float(np.arccos(np.clip(c_best, -1.0, 1.0)))

    # azimuth arrival angle: +-_ANGLE_CELLS cells in the sin-product space
    sin_phi = max(np.sin(phi), 1e-12)

    def psi_of(s):
        return np.pi - np.arcsin(np.clip(np.asarray(s) / sin_phi, -1.0, 1.0))

    azimuth = prob.azimuth_terms(r, p, phi)
    s_best, trace["psi_in"] = search(
        lambda ss: azimuth(psi_of(ss)),
        np.sin(psi) * sin_phi, _ANGLE_CELLS * (2.0 / cfg.g_ris_az), sin_phi)
    psi = float(psi_of(s_best))

    gain = path_fit(*azimuth(psi))[1]

    params.tau[q] = tau
    params.theta_t[q] = theta
    params.phi_in[q] = phi
    params.psi_in[q] = psi
    params.gains[q] = gain
    return trace


def run_sage(y: np.ndarray, setup: Setup, init: ChannelParams,
             max_cycles: int = 50) -> tuple[ChannelParams, SageInfo]:
    """Refine all channel parameters from the coarse initialization.

    Paths are visited cyclically; termination is checked after each full
    cycle on the elementwise parameter change and on the global
    log-likelihood change. Hitting the cycle limit leaves ``converged``
    False but still returns the current estimate.
    """
    params = init.copy()
    prob = SageProblem(y, setup)
    # elementwise stopping thresholds, 1e-6 in each natural unit: 1/B for
    # delays, the initial per-path magnitude for gains, radians for angles
    eps = np.tile([1e-6 / setup.cfg.bandwidth, 0.0, 0.0, 1e-6, 1e-6, 1e-6],
                  init.n_paths)
    for q, gain in enumerate(init.gains):
        eps[6 * q + 1:6 * q + 3] = 1e-6 * max(abs(gain), 1e-30)

    info = SageInfo()
    lamb = global_log_likelihood(params, y, setup)
    info.loglik_history.append(lamb)
    for cycle in range(max_cycles):
        prev_vec = params.to_vector()
        for q in range(params.n_paths):
            coordinate_update_cycle(prob, params, q)
        info.n_cycles = cycle + 1
        new_lamb = global_log_likelihood(params, y, setup)
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
