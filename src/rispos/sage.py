"""Joint refinement of all channel parameters by coordinate-wise SAGE.

Each path's hidden per-path signal is reconstructed by subtracting the
other paths at their freshest estimates; the path's delay and three
angles are then updated by 1-D likelihood searches and its gain by a
closed form. The global log-likelihood over all slots and subcarriers
is the convergence monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._search import maximize_1d
from .channel import (PhaseSchedule, SystemConfig, bs_steering, ms_steering,
                      ris_diff_steering, subcarrier_ramp)
from .errors import ZeroDenominator
from .geometry import ScenarioGeometry
from .params import ChannelParams

UPDATE_ORDER = ("tau", "theta_t", "phi_in", "psi_in", "delta")


@dataclass
class SageOptions:
    """Search brackets, stopping thresholds, and cycle limit."""

    eps_params: np.ndarray | None = None   # elementwise |change| thresholds
    eps_loglik_rel: float = 1e-8           # relative log-likelihood change
    max_cycles: int = 50
    n_grid: int = 201
    search_tol: float = 1e-7
    angle_cells: int = 2                   # coarse grid cells per angle bracket


@dataclass
class SageInfo:
    """Convergence diagnostics of one SAGE run."""

    loglik_history: list = field(default_factory=list)
    n_cycles: int = 0
    converged: bool = False
    non_convergence: bool = False
    monotone_ok: bool = True
    update_order: tuple = UPDATE_ORDER


class SageProblem:
    """Precomputed observation context shared by all SAGE updates."""

    def __init__(self, rx, pilots: np.ndarray, schedule: PhaseSchedule,
                 geom: ScenarioGeometry, cfg: SystemConfig,
                 known_angles: tuple[float, float, float]):
        self.y = rx.y                                  # (N_b, T, N)
        self.pilots = pilots
        self.geom = geom
        self.cfg = cfg
        self.theta_r0, self.phi_out0, self.psi_out0 = known_angles
        self.a_b = bs_steering(geom, self.theta_r0)
        self.slot_phases = schedule.slot_phases        # (T, N_r)
        self.n_sub = cfg.n_subcarriers
        self.n_slots = cfg.t_total
        # pilot projection onto a candidate MS steering vector: x_t^H a_M
        self._pilots_h = pilots.conj().T               # (T, N_m)

    # elementary factors -------------------------------------------------

    def ms_proj(self, theta_t) -> np.ndarray:
        """x_t^H a_M(theta); (T,) for scalar theta, (T, n) for arrays."""
        return self._pilots_h @ ms_steering(self.geom, theta_t)

    def ris_slot_scalars(self, phi_in, psi_in) -> np.ndarray:
        """g_t^T a_R(dw); (T,) for scalars, (T, n) for candidate arrays."""
        a_r = ris_diff_steering(self.geom, phi_in, psi_in,
                                self.phi_out0, self.psi_out0)
        return self.slot_phases @ a_r

    def path_field(self, params: ChannelParams, q: int) -> np.ndarray:
        """Noiseless (T, N) scalar field of one path (BS factor excluded)."""
        sigma = self.ris_slot_scalars(params.phi_in[q], params.psi_in[q])
        proj = self.ms_proj(params.theta_t[q]).conj()  # a_M^H x_t
        ramp = subcarrier_ramp(params.tau[q], self.cfg.bandwidth, self.n_sub)
        return params.gains[q] * np.outer(sigma * proj, ramp)

    def model_tensor(self, params: ChannelParams,
                     skip: int | None = None) -> np.ndarray:
        """Noiseless received tensor of all paths except ``skip``."""
        total = np.zeros((self.n_slots, self.n_sub), dtype=complex)
        for q in range(params.n_paths):
            if q == skip:
                continue
            total += self.path_field(params, q)
        return self.a_b[:, None, None] * total[None, :, :]

    def complete_data(self, params: ChannelParams, q: int) -> np.ndarray:
        """Estimated per-path signal: observation minus the other paths."""
        return self.y - self.model_tensor(params, skip=q)

    def beamformed(self, y_q: np.ndarray) -> np.ndarray:
        """a_B^H applied to a per-path tensor; (T, N)."""
        return (self.a_b.conj() @ y_q.reshape(self.a_b.size, -1)).reshape(
            y_q.shape[1:])

    # concentrated single-path objective ---------------------------------

    def _numerator(self, pa: np.ndarray, tau: float, proj: np.ndarray,
                   sigma: np.ndarray) -> complex:
        w = subcarrier_ramp(tau, self.cfg.bandwidth, self.n_sub).conj()
        r_t = pa @ w
        return complex(np.sum(r_t * sigma.conj() * proj))

    def _denominator(self, proj: np.ndarray, sigma: np.ndarray) -> float:
        val = self.geom.n_bs * self.n_sub * float(
            np.sum(np.abs(sigma) ** 2 * np.abs(proj) ** 2))
        if not val > 0.0:
            raise ZeroDenominator("single-path objective denominator vanished")
        return val

    def objective(self, pa: np.ndarray, tau: float, theta_t: float,
                  phi_in: float, psi_in: float) -> float:
        """Concentrated likelihood F of one path given its beamformed data."""
        proj = self.ms_proj(theta_t)
        sigma = self.ris_slot_scalars(phi_in, psi_in)
        num = self._numerator(pa, tau, proj, sigma)
        return abs(num) ** 2 / self._denominator(proj, sigma)

    def gain(self, pa: np.ndarray, tau: float, theta_t: float,
             phi_in: float, psi_in: float) -> complex:
        """Closed-form gain at the given delay and angles."""
        proj = self.ms_proj(theta_t)
        sigma = self.ris_slot_scalars(phi_in, psi_in)
        num = self._numerator(pa, tau, proj, sigma)
        return num / self._denominator(proj, sigma)

    # vectorized coordinate sweeps ---------------------------------------

    def _sweep_tau(self, pa, taus, proj, sigma):
        k = np.arange(self.n_sub)
        w = np.exp(2j * np.pi * np.multiply.outer(taus, k)
                   * self.cfg.bandwidth / self.n_sub)      # (nc, N)
        r = w @ pa.T                                       # (nc, T)
        num = r @ (sigma.conj() * proj)
        return np.abs(num) ** 2 / self._denominator(proj, sigma)

    def _sweep_theta(self, pa, thetas, tau, sigma):
        proj_c = self.ms_proj(np.asarray(thetas))          # (T, nc)
        w = subcarrier_ramp(tau, self.cfg.bandwidth, self.n_sub).conj()
        r_t = pa @ w                                       # (T,)
        num = (r_t * sigma.conj()) @ proj_c                # (nc,)
        den = self.geom.n_bs * self.n_sub * (
            np.abs(sigma[:, None]) ** 2 * np.abs(proj_c) ** 2).sum(axis=0)
        den = np.where(den > 0.0, den, np.inf)
        return np.abs(num) ** 2 / den

    def _sweep_ris(self, pa, phis, psis, tau, proj):
        sigma_c = self.ris_slot_scalars(np.asarray(phis), np.asarray(psis))
        w = subcarrier_ramp(tau, self.cfg.bandwidth, self.n_sub).conj()
        r_t = pa @ w
        num = (r_t * proj) @ sigma_c.conj()
        den = self.geom.n_bs * self.n_sub * (
            np.abs(proj[:, None]) ** 2 * np.abs(sigma_c) ** 2).sum(axis=0)
        den = np.where(den > 0.0, den, np.inf)
        return np.abs(num) ** 2 / den


def global_log_likelihood(params: ChannelParams, rx, pilots: np.ndarray,
                          schedule: PhaseSchedule, geom: ScenarioGeometry,
                          cfg: SystemConfig) -> float:
    """Constant-free log-likelihood of the full parameter vector.

    Two terms: twice the real part of the per-path data correlation and
    the BS-gain-weighted cross-path Gram correction. Equals
    sum_n ||Y[n]||_F^2 - sum_n ||Y[n] - model||_F^2 exactly.
    """
    prob = SageProblem(rx, pilots, schedule, geom, cfg,
                       (params.theta_r0, params.phi_out0, params.psi_out0))
    sigma = prob.ris_slot_scalars(params.phi_in, params.psi_in)   # (T, Q+1)
    pm = prob.ms_proj(params.theta_t)                             # (T, Q+1)
    ramp = subcarrier_ramp(params.tau, cfg.bandwidth, cfg.n_subcarriers)
    w_mat = sigma * pm.conj()                                     # (T, Q+1)
    pa0 = prob.beamformed(rx.y)                                   # (T, N)
    k_mat = pa0.conj() @ ramp                                     # (T, Q+1)
    term1 = 2.0 * np.real(np.sum(params.gains * np.sum(w_mat * k_mat, axis=0)))
    rho = ramp.conj().T @ ramp                                    # (Q+1, Q+1)
    gram = w_mat.conj().T @ w_mat
    term2 = geom.n_bs * np.real(
        params.gains.conj() @ ((rho * gram) @ params.gains))
    return float(term1 - term2)


def reconstruct_complete_data(rx, params: ChannelParams, q: int,
                              pilots: np.ndarray, schedule: PhaseSchedule,
                              geom: ScenarioGeometry,
                              cfg: SystemConfig) -> np.ndarray:
    """Per-path hidden signal estimate (N_b, T, N) for path ``q``."""
    prob = SageProblem(rx, pilots, schedule, geom, cfg,
                       (params.theta_r0, params.phi_out0, params.psi_out0))
    return prob.complete_data(params, q)


def gain_closed_form(y_q: np.ndarray, tau: float, theta_t: float,
                     phi_in: float, psi_in: float, rx, pilots, schedule,
                     geom, cfg, known_angles) -> complex:
    """Closed-form ML gain of one path from its complete-data tensor."""
    prob = SageProblem(rx, pilots, schedule, geom, cfg, known_angles)
    return prob.gain(prob.beamformed(y_q), tau, theta_t, phi_in, psi_in)


def single_path_objective(y_q: np.ndarray, tau: float, theta_t: float,
                          phi_in: float, psi_in: float, rx, pilots, schedule,
                          geom, cfg, known_angles) -> float:
    """Concentrated per-path likelihood F (gain eliminated)."""
    prob = SageProblem(rx, pilots, schedule, geom, cfg, known_angles)
    return prob.objective(prob.beamformed(y_q), tau, theta_t, phi_in, psi_in)


def coordinate_update_cycle(prob: SageProblem, params: ChannelParams, q: int,
                            opts: SageOptions) -> dict:
    """Update path q in place: tau, theta_t, phi_in, psi_in, then the gain.

    Each 1-D step maximizes the concentrated likelihood over a local
    bracket with the incumbent always a candidate, so F never decreases.
    Returns the objective trace of the steps.
    """
    cfg = prob.cfg
    y_q = prob.complete_data(params, q)
    pa = prob.beamformed(y_q)

    tau = float(params.tau[q])
    theta = float(params.theta_t[q])
    phi = float(params.phi_in[q])
    psi = float(params.psi_in[q])
    trace = {"start": prob.objective(pa, tau, theta, phi, psi)}

    # delay: half a DFT bin on either side
    half = 1.0 / (2.0 * cfg.bandwidth)
    sigma = prob.ris_slot_scalars(phi, psi)
    proj = prob.ms_proj(theta)
    tau, f_tau = maximize_1d(
        lambda ts: prob._sweep_tau(pa, ts, proj, sigma),
        tau - half, tau + half, opts.n_grid, opts.search_tol, incumbent=tau)
    trace["tau"] = f_tau

    # departure angle: +-angle_cells coarse cells in sin space
    cell = 2.0 / cfg.g_ms
    u0 = np.sin(theta)
    lo, hi = max(-1.0, u0 - opts.angle_cells * cell), min(1.0, u0 + opts.angle_cells * cell)
    u_best, f_theta = maximize_1d(
        lambda us: prob._sweep_theta(pa, np.arcsin(np.clip(us, -1, 1)),
                                     tau, sigma),
        lo, hi, opts.n_grid, opts.search_tol, incumbent=u0)
    theta = float(np.arcsin(np.clip(u_best, -1.0, 1.0)))
    trace["theta_t"] = f_theta
    proj = prob.ms_proj(theta)

    # elevation arrival angle: +-angle_cells cells in cos space
    cell_e = 2.0 / cfg.g_ris_el
    c0 = np.cos(phi)
    lo, hi = max(-1.0, c0 - opts.angle_cells * cell_e), min(1.0, c0 + opts.angle_cells * cell_e)
    c_best, f_phi = maximize_1d(
        lambda cs: prob._sweep_ris(pa, np.arccos(np.clip(cs, -1, 1)),
                                   np.full(np.size(cs), psi), tau, proj),
        lo, hi, opts.n_grid, opts.search_tol, incumbent=c0)
    phi = float(np.arccos(np.clip(c_best, -1.0, 1.0)))
    trace["phi_in"] = f_phi

    # azimuth arrival angle: +-angle_cells cells in the sin-product space
    cell_a = 2.0 / cfg.g_ris_az
    sin_phi = max(np.sin(phi), 1e-12)
    s0 = np.sin(psi) * sin_phi
    lo, hi = s0 - opts.angle_cells * cell_a, s0 + opts.angle_cells * cell_a
    lo, hi = max(-sin_phi, lo), min(sin_phi, hi)

    def psi_of(s):
        return np.pi - np.arcsin(np.clip(np.asarray(s) / sin_phi, -1.0, 1.0))

    s_best, f_psi = maximize_1d(
        lambda ss: prob._sweep_ris(pa, np.full(np.size(ss), phi),
                                   psi_of(ss), tau, proj),
        lo, hi, opts.n_grid, opts.search_tol, incumbent=s0)
    psi = float(psi_of(s_best))
    trace["psi_in"] = f_psi

    gain = prob.gain(pa, tau, theta, phi, psi)

    params.tau[q] = tau
    params.theta_t[q] = theta
    params.phi_in[q] = phi
    params.psi_in[q] = psi
    params.gains[q] = gain
    return trace


def default_eps_params(init: ChannelParams, cfg: SystemConfig) -> np.ndarray:
    """Per-parameter stopping thresholds: 1e-6 in each natural unit.

    Delays are measured in units of 1/B, angles in radians, and gains
    relative to the initial per-path magnitude.
    """
    eps = np.empty(6 * init.n_paths)
    for q in range(init.n_paths):
        scale_gain = max(abs(init.gains[q]), 1e-30)
        eps[6 * q:6 * q + 6] = [1e-6 / cfg.bandwidth, 1e-6 * scale_gain,
                                1e-6 * scale_gain, 1e-6, 1e-6, 1e-6]
    return eps


def run_sage(rx, pilots: np.ndarray, schedule: PhaseSchedule,
             geom: ScenarioGeometry, cfg: SystemConfig,
             init: ChannelParams,
             opts: SageOptions | None = None) -> tuple[ChannelParams, SageInfo]:
    """Refine all channel parameters from the coarse initialization.

    Paths are visited cyclically; termination is checked after each full
    cycle on the elementwise parameter change and on the global
    log-likelihood change. Hitting the cycle limit sets the
    non-convergence flag but still returns the current estimate.
    """
    opts = opts or SageOptions()
    params = init.copy()
    known = (params.theta_r0, params.phi_out0, params.psi_out0)
    prob = SageProblem(rx, pilots, schedule, geom, cfg, known)
    eps = (opts.eps_params if opts.eps_params is not None
           else default_eps_params(init, cfg))

    info = SageInfo()
    lamb = global_log_likelihood(params, rx, pilots, schedule, geom, cfg)
    info.loglik_history.append(lamb)
    for cycle in range(opts.max_cycles):
        prev_vec = params.to_vector()
        for q in range(params.n_paths):
            coordinate_update_cycle(prob, params, q, opts)
        info.n_cycles = cycle + 1
        new_lamb = global_log_likelihood(params, rx, pilots, schedule, geom, cfg)
        info.loglik_history.append(new_lamb)
        if new_lamb < lamb - opts.eps_loglik_rel * abs(lamb):
            info.monotone_ok = False
        delta_vec = np.abs(params.to_vector() - prev_vec)
        if np.all(delta_vec <= eps) or \
                abs(new_lamb - lamb) <= opts.eps_loglik_rel * abs(lamb):
            info.converged = True
            lamb = new_lamb
            break
        lamb = new_lamb
    if not info.converged:
        info.non_convergence = True
    return params, info
