"""Fisher information, parameter-transformation Jacobian, and error bounds.

The channel FIM uses the closed-form derivatives of the noiseless field
``channel.model_field`` with respect to each per-path parameter, built
from the same per-path factors (``channel.path_factors``); the
position-domain FIM follows by congruence with the geometric Jacobian.
Known RIS-BS leg angles are constants, not information-bearing rows;
they come from ``setup.known_angles``. The channel FIM takes the
parameters and the per-power ``channel.Setup`` (pilots, schedule,
geometry, the RIS-BS leg and the noise power of its system).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Setup, ms_steering, path_factors, ris_diff_steering
from .errors import DegenerateGeometry
from .geometry import SPEED_OF_LIGHT
from .params import ChannelParams, PositionParams

_COND_LIMIT = 1e12


def model_field_derivs(params: ChannelParams, setup: Setup) -> np.ndarray:
    """Analytic derivatives of ``channel.model_field``, shape (6(Q+1), T, N).

    Parameter order per path: [tau, delta_re, delta_im, theta_t, phi_in,
    psi_in]. Each derivative keeps the path's product form: a slot factor
    times a subcarrier factor. Elevation/azimuth derivatives act on the
    RIS steering vector through diagonal index weightings; the
    departure-angle derivative weights the MS array index ramp.
    """
    geom, cfg, phases = setup.geom, setup.cfg, setup.sched.slot_phases
    lam = geom.wavelength
    gains, theta, phi, psi = (params.gains, params.theta_t, params.phi_in,
                              params.psi_in)
    sigma, proj, ramp = path_factors(params, setup)
    a_m = ms_steering(geom, theta)
    a_r = ris_diff_steering(geom, phi, psi, *setup.known_angles[1:])
    k_el = np.repeat(np.arange(geom.n_ris_el), geom.n_ris_az)[:, None]
    k_az = np.tile(np.arange(geom.n_ris_az), geom.n_ris_el)[:, None]
    n_sub = np.arange(cfg.n_subcarriers)[:, None]

    # d(a_M^H x)/d(theta) via the index ramp; d(sigma)/d(phi), d(sigma)/d(psi)
    dproj = 2j * np.pi * geom.d_ms / lam * np.cos(theta) * (
        setup.pilots.T @ (np.arange(geom.n_ms)[:, None] * a_m.conj()))
    d_phi = 2j * np.pi * (geom.d_ris_el / lam * np.sin(phi) * k_el
                          - geom.d_ris_az / lam * np.sin(psi) * np.cos(phi)
                          * k_az)
    d_psi = -2j * np.pi * geom.d_ris_az / lam * np.cos(psi) * np.sin(phi) * k_az
    u = sigma * proj
    slots = np.stack([
        -2j * np.pi * cfg.bandwidth / cfg.n_subcarriers * gains * u,
        u, 1j * u, gains * sigma * dproj,
        gains * (phases @ (d_phi * a_r)) * proj,
        gains * (phases @ (d_psi * a_r)) * proj])                  # (6, T, Q+1)
    subs = np.stack([n_sub * ramp] + [ramp] * 5)                   # (6, N, Q+1)
    out = (np.moveaxis(slots, 2, 0)[:, :, :, None]
           * np.moveaxis(subs, 2, 0)[:, :, None, :])               # (Q+1, 6, T, N)
    return out.reshape(-1, cfg.t_total, cfg.n_subcarriers)


def fim_channel(params: ChannelParams, setup: Setup) -> np.ndarray:
    """FIM of the channel parameters, shape (6(Q+1), 6(Q+1)).

    Entry (u, v) is (2/sigma^2) sum_n Re{d_u mu[n]^H d_v mu[n]}, sigma^2
    the per-subcarrier noise power; the shared BS steering factor
    contributes the antenna count.
    """
    derivs = model_field_derivs(params, setup)
    # Re{a^H b} is the dot product of the interleaved real views: one GEMM
    flat = derivs.reshape(derivs.shape[0], -1).view(float)
    return 2.0 * setup.geom.n_bs / setup.cfg.noise_power * (flat @ flat.T)


def _unit_diff(a: np.ndarray, b: np.ndarray, what: str):
    diff = a - b
    dist = float(np.linalg.norm(diff))
    if dist <= 0.0:
        raise DegenerateGeometry(f"zero distance: {what}")
    return diff, dist


def _dtheta_dpoint(target: np.ndarray, ms: np.ndarray, alpha: float):
    """Gradients of the departure angle w.r.t. the far point and the MS."""
    a = np.array([np.cos(alpha), -np.sin(alpha), 0.0])
    u, h = _unit_diff(target, ms, "AOD leg")
    g = float(a @ u)
    root = h * h - g * g
    if root <= 0.0:
        raise DegenerateGeometry("departure angle at +-pi/2")
    root = np.sqrt(root)
    d_target = (a * h * h - g * u) / (h * h * root)
    d_ms = -d_target
    a_dot = np.array([-np.sin(alpha), -np.cos(alpha), 0.0])
    d_alpha = float(a_dot @ u) / root
    return d_target, d_ms, d_alpha


def _dphi_dpoint(ris: np.ndarray, point: np.ndarray):
    """Gradient of the elevation arrival angle w.r.t. the source point."""
    u, h = _unit_diff(ris, point, "elevation leg")
    w = u[2]
    root = h * h - w * w
    if root <= 0.0:
        raise DegenerateGeometry("elevation angle gradient undefined")
    root = np.sqrt(root)
    return np.array([-u[0] * w, -u[1] * w, h * h - w * w]) / (h * h * root)


def _dpsi_dpoint(ris: np.ndarray, point: np.ndarray):
    """Gradient of the azimuth arrival angle w.r.t. the source point."""
    u = np.asarray(ris, float) - np.asarray(point, float)
    rho2 = u[0] ** 2 + u[1] ** 2
    ax = abs(u[0])
    if rho2 <= 0.0 or ax <= 0.0:
        raise DegenerateGeometry("azimuth angle gradient undefined")
    return np.array([-u[0] * u[1], u[0] ** 2, 0.0]) / (rho2 * ax)


def transformation_matrix(pos: PositionParams, ris: np.ndarray,
                          bs: np.ndarray) -> np.ndarray:
    """Jacobian d(eta)^T/d(eta~), shape (5Q+6, 6(Q+1)).

    Rows follow the position-parameter vector (gains, MS position,
    rotation, scatterers); columns follow the channel-parameter vector.
    """
    ris = np.asarray(ris, float)
    q_n = pos.n_scatterers
    n_paths = q_n + 1
    rows = 5 * q_n + 6
    cols = 6 * n_paths
    t_mat = np.zeros((rows, cols))
    m_off = 2 * n_paths           # row offset of the MS coordinates
    a_off = m_off + 3             # row of alpha

    c = SPEED_OF_LIGHT
    for q in range(n_paths):
        col = 6 * q
        # gain identity blocks
        t_mat[2 * q, col + 1] = 1.0
        t_mat[2 * q + 1, col + 2] = 1.0

        # path 0 departs toward the RIS and arrives from the MS; path q > 0
        # does both through scatterer q, whose coordinate rows start at s0
        target = ris if q == 0 else pos.scatterers[q - 1]
        source = pos.ms if q == 0 else target
        s0 = m_off if q == 0 else a_off + 1 + 3 * (q - 1)
        u_ms, h_ms = _unit_diff(pos.ms, target,
                                "MS-RIS" if q == 0 else "MS-scatterer")
        t_mat[m_off:m_off + 3, col + 0] = u_ms / (c * h_ms)
        d_t, d_m, d_a = _dtheta_dpoint(target, pos.ms, pos.alpha)
        t_mat[m_off:m_off + 3, col + 3] = d_m
        t_mat[a_off, col + 3] = d_a
        if q > 0:
            u_sr, h_sr = _unit_diff(target, ris, "scatterer-RIS")
            t_mat[s0:s0 + 3, col + 0] = u_sr / (c * h_sr) - u_ms / (c * h_ms)
            t_mat[s0:s0 + 3, col + 3] = d_t
        t_mat[s0:s0 + 3, col + 4] = _dphi_dpoint(ris, source)
        t_mat[s0:s0 + 3, col + 5] = _dpsi_dpoint(ris, source)
    return t_mat


@dataclass
class BoundReport:
    """Per-parameter CRLBs plus position/orientation error bounds."""

    crlb_channel: np.ndarray       # (6(Q+1),) variances in natural units
    peb: float                     # meters
    oeb: float                     # radians
    singular: bool


def _inv_psd(mat: np.ndarray) -> tuple[np.ndarray, bool]:
    """Eigendecomposition-based inverse and a singularity flag.

    The matrix mixes parameters of wildly different units (seconds,
    radians, raw gains), so it is diagonally preconditioned to a
    correlation-like form first; the condition number and pseudo-inverse
    cutoff apply to that scaled matrix.
    """
    sym = 0.5 * (mat + mat.T)
    d = np.sqrt(np.maximum(np.diag(sym), np.finfo(float).tiny))
    scaled = sym / np.outer(d, d)
    vals, vecs = np.linalg.eigh(scaled)
    top = float(np.max(np.abs(vals)))
    if top <= 0.0:
        return np.full_like(sym, np.inf), True
    cond = top / max(float(np.min(np.abs(vals))), np.finfo(float).tiny)
    floor = top / _COND_LIMIT
    inv_vals = np.where(np.abs(vals) > floor, 1.0 / vals, 0.0)
    inv_scaled = (vecs * inv_vals) @ vecs.T
    return inv_scaled / np.outer(d, d), cond > _COND_LIMIT


def position_bounds(j_eta: np.ndarray, t_mat: np.ndarray) -> BoundReport:
    """CRLBs of the channel parameters and PEB/OEB of the position ones."""
    inv_eta, sing_eta = _inv_psd(j_eta)
    n_paths = j_eta.shape[0] // 6
    j_pos = t_mat @ j_eta @ t_mat.T
    inv_pos, sing_pos = _inv_psd(j_pos)
    m_off = 2 * n_paths
    peb = float(np.sqrt(np.trace(inv_pos[m_off:m_off + 3, m_off:m_off + 3])))
    oeb = float(np.sqrt(inv_pos[m_off + 3, m_off + 3]))
    return BoundReport(
        crlb_channel=np.diag(inv_eta).copy(), peb=peb, oeb=oeb,
        singular=bool(sing_eta or sing_pos))
