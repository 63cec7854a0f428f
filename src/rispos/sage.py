"""Joint refinement of all channel parameters by coordinate-wise SAGE.

Each path's hidden per-path signal (its complete data) is the
observation minus the other paths' share of ``channel.model_field`` at
their freshest estimates. Beamformed onto a_B and de-rotated by the
path's delay it gives r_t; the path's model slot factor is
u_t = sigma_t p_t. With the gain eliminated, the per-path likelihood is

    F = |sum_t r_t conj(u_t)|^2 / (N_B N sum_t |u_t|^2)

and the closed-form gain is numerator / denominator.
``SageProblem.path_terms`` is the one implementation of that numerator
and denominator: the delay update evaluates it on a batch of r, the
three angle updates on batches of u. The global log-likelihood over all
slots and subcarriers is the convergence monitor. Every function takes
the received tensor y (N_b, T, N) and the per-power ``channel.Setup``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._search import maximize_1d
from .channel import (Setup, beamform, model_field, path_factors,
                      pilot_projection, ris_slot_scalars, subcarrier_ramp)
from .errors import ZeroDenominator
from .params import ChannelParams

UPDATE_ORDER = ("tau", "theta_t", "phi_in", "psi_in", "delta")
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

    Slot-indexed arrays put the slot axis last: (T,) for one candidate,
    (n, T) for a batch of n.
    """

    def __init__(self, y: np.ndarray, setup: Setup):
        self.y = y                                     # (N_b, T, N)
        self.setup = setup
        self.a_b = setup.a_b
        self.slot_phases = setup.sched.slot_phases     # (T, N_r)
        self._den_scale = setup.geom.n_bs * setup.cfg.n_subcarriers

    def complete_data(self, params: ChannelParams, q: int) -> np.ndarray:
        """Estimated per-path signal: observation minus the other paths."""
        others = params.copy()
        others.gains[q] = 0.0
        field = model_field(others, self.setup)
        return self.y - self.a_b[:, None, None] * field[None, :, :]

    def derotated(self, pa: np.ndarray, tau) -> np.ndarray:
        """r_t = sum_n pa[t, n] conj(ramp_n(tau)) for beamformed data pa (T, N)."""
        ramp = subcarrier_ramp(np.negative(tau), self.setup.cfg.bandwidth,
                               self.setup.cfg.n_subcarriers)
        return ramp.T @ pa.T

    def slot_sigma(self, phi_in, psi_in) -> np.ndarray:
        """sigma_t = g_t^T a_R(dw) at the given arrival angles."""
        _, phi_out0, psi_out0 = self.setup.known_angles
        return ris_slot_scalars(self.setup.geom, self.slot_phases, phi_in,
                                psi_in, phi_out0, psi_out0).T

    def slot_proj(self, theta_t) -> np.ndarray:
        """p_t = a_M(theta)^H x_t at the given departure angle."""
        return pilot_projection(self.setup.geom, self.setup.pilots, theta_t).T

    def path_terms(self, r: np.ndarray, u: np.ndarray):
        """Numerator sum_t r_t conj(u_t) and denominator N_B N sum_t |u_t|^2.

        ``r`` and ``u`` broadcast against each other over their leading
        axes, so one call scores a whole candidate batch.
        """
        num = np.einsum("...t,...t->...", r, u.conj())
        den = self._den_scale * np.einsum("...t,...t->...", u, u.conj()).real
        return num, den

    def objective(self, r: np.ndarray, u: np.ndarray) -> np.ndarray:
        """F of each candidate; one with a vanishing denominator scores 0."""
        num, den = self.path_terms(r, u)
        return np.abs(num) ** 2 / np.where(den > 0.0, den, np.inf)

    def fit(self, r: np.ndarray, u: np.ndarray) -> tuple[float, complex]:
        """F and the closed-form gain of one candidate."""
        num, den = self.path_terms(r, u)
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
    pa = beamform(prob.a_b, prob.complete_data(params, q))

    def search(f, x0, half, lim=np.inf):
        return maximize_1d(f, max(-lim, x0 - half), min(lim, x0 + half),
                           incumbent=x0)

    tau = float(params.tau[q])
    theta = float(params.theta_t[q])
    phi = float(params.phi_in[q])
    psi = float(params.psi_in[q])
    sigma, proj = prob.slot_sigma(phi, psi), prob.slot_proj(theta)
    trace = {"start": prob.fit(prob.derotated(pa, tau), sigma * proj)[0]}

    # delay: half a DFT bin on either side
    tau, trace["tau"] = search(
        lambda ts: prob.objective(prob.derotated(pa, ts), sigma * proj),
        tau, 1.0 / (2.0 * cfg.bandwidth))
    r = prob.derotated(pa, tau)

    # departure angle: +-_ANGLE_CELLS coarse cells in sin space
    u_best, trace["theta_t"] = search(
        lambda us: prob.objective(
            r, sigma * prob.slot_proj(np.arcsin(np.clip(us, -1, 1)))),
        np.sin(theta), _ANGLE_CELLS * (2.0 / cfg.g_ms), 1.0)
    theta = float(np.arcsin(np.clip(u_best, -1.0, 1.0)))
    proj = prob.slot_proj(theta)

    # elevation arrival angle: +-_ANGLE_CELLS cells in cos space
    c_best, trace["phi_in"] = search(
        lambda cs: prob.objective(
            r, prob.slot_sigma(np.arccos(np.clip(cs, -1, 1)),
                               np.full(np.size(cs), psi)) * proj),
        np.cos(phi), _ANGLE_CELLS * (2.0 / cfg.g_ris_el), 1.0)
    phi = float(np.arccos(np.clip(c_best, -1.0, 1.0)))

    # azimuth arrival angle: +-_ANGLE_CELLS cells in the sin-product space
    sin_phi = max(np.sin(phi), 1e-12)

    def psi_of(s):
        return np.pi - np.arcsin(np.clip(np.asarray(s) / sin_phi, -1.0, 1.0))

    s_best, trace["psi_in"] = search(
        lambda ss: prob.objective(
            r, prob.slot_sigma(np.full(np.size(ss), phi), psi_of(ss)) * proj),
        np.sin(psi) * sin_phi, _ANGLE_CELLS * (2.0 / cfg.g_ris_az), sin_phi)
    psi = float(psi_of(s_best))

    gain = prob.fit(r, prob.slot_sigma(phi, psi) * proj)[1]

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
