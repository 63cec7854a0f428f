"""Fisher information, parameter-transformation Jacobian, and error bounds.

Both work in the coordinates a ``ChannelParams`` holds: delay, gain,
the departure sine u and the RIS arrival's c and s. The channel FIM
uses the closed-form derivatives of the noiseless field
``channel.model_field``, built from the same per-path factors
(``channel.path_factors``): a spatial frequency enters one steering
vector linearly, so its derivative weights that vector by its plain
index ramp. The position-domain FIM follows by congruence with the
geometric Jacobian, whose direction columns all come from the gradient
(I - w w^T) / |w| of a unit vector. The known RIS-BS leg is a constant,
not an information-bearing row; it comes from ``setup.leg``. PEB and
OEB do not depend on how the channel vector is parameterized; angle-unit
channel CRLBs are formed at the report edge (``harness``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Setup, ms_sine_steering, path_factors, ris_factors
from .geometry import SPEED_OF_LIGHT, kron_columns, ms_axis, unit_vector
from .params import ChannelParams, PositionParams

_COND_LIMIT = 1e12


def derivative_factors(params: ChannelParams, setup: Setup):
    """Slot and subcarrier factors of the derivatives of
    ``channel.model_field``: A (T, 6(Q+1)) and B (N, 6(Q+1)), derivative
    k the (T, N) outer product of A[:, k] and B[:, k].

    Parameter order per path: [tau, delta_re, delta_im, u, c, s]. Each
    derivative keeps the path's product form. The u, c and s derivatives
    weight the MS steering vector and the RIS response by the MS, RIS
    elevation and RIS azimuth index ramps.
    """
    geom, cfg, phases = setup.geom, setup.cfg, setup.sched.slot_phases
    lam = geom.wavelength
    gains = params.gains
    sigma, proj, ramp = path_factors(params, setup)
    a_m = ms_sine_steering(geom, params.u)
    a_r = kron_columns(*ris_factors(setup, params.c, params.s))
    k_el = np.repeat(np.arange(geom.n_ris_el), geom.n_ris_az)[:, None]
    k_az = np.tile(np.arange(geom.n_ris_az), geom.n_ris_el)[:, None]
    n_sub = np.arange(cfg.n_subcarriers)[:, None]

    dproj = 2j * np.pi * geom.d_ms / lam * (
        setup.pilots.T @ (np.arange(geom.n_ms)[:, None] * a_m.conj()))
    d_c = -2j * np.pi * geom.d_ris_el / lam * (phases @ (k_el * a_r))
    d_s = -2j * np.pi * geom.d_ris_az / lam * (phases @ (k_az * a_r))
    u = sigma * proj
    slots = np.stack([
        -2j * np.pi * cfg.bandwidth / cfg.n_subcarriers * gains * u,
        u, 1j * u, gains * sigma * dproj, gains * d_c * proj,
        gains * d_s * proj])                                       # (6, T, Q+1)
    subs = np.stack([n_sub * ramp] + [ramp] * 5)                   # (6, N, Q+1)
    return (slots.transpose(1, 2, 0).reshape(cfg.t_total, -1),
            subs.transpose(1, 2, 0).reshape(cfg.n_subcarriers, -1))


def fim_channel(params: ChannelParams, setup: Setup) -> np.ndarray:
    """FIM of the channel parameters, shape (6(Q+1), 6(Q+1)).

    Entry (u, v) is (2/sigma^2) sum_n Re{d_u mu[n]^H d_v mu[n]}, sigma^2
    the per-subcarrier noise power; the shared BS steering factor
    contributes the antenna count. With each derivative the outer product
    of its factors, the sum is Re{(A^H A) o (B^H B)}, o entrywise.
    """
    a, b = derivative_factors(params, setup)
    return (2.0 * setup.geom.n_bs / setup.cfg.noise_power
            * np.real((a.conj().T @ a) * (b.conj().T @ b)))


def _unit_grad(a: np.ndarray, b: np.ndarray, what: str):
    """w = (a - b) / |a - b| and dw/da = (I - w w^T) / |a - b| (symmetric;
    dw/db = -dw/da)."""
    w, dist = unit_vector(a, b, what)
    return w, (np.eye(3) - np.outer(w, w)) / dist


def transformation_matrix(pos: PositionParams, ris: np.ndarray,
                          bs: np.ndarray) -> np.ndarray:
    """Jacobian d(eta)^T/d(eta~), shape (5Q+6, 6(Q+1)).

    Rows follow the position-parameter vector (gains, MS position,
    rotation, scatterers); columns follow the channel-parameter vector.
    A delay leg |a - b| has gradient w, u = a . w_dep has gradient
    (I - w w^T) a / |w|, and c and s are the z and y rows of the
    arrival's (I - w w^T) / |w|.
    """
    ris = np.asarray(ris, float)
    q_n = pos.n_scatterers
    n_paths = q_n + 1
    t_mat = np.zeros((5 * q_n + 6, 6 * n_paths))
    m_off = 2 * n_paths           # row offset of the MS coordinates
    a_off = m_off + 3             # row of alpha
    axis = ms_axis(pos.alpha)
    axis_dot = np.array([-np.sin(pos.alpha), -np.cos(pos.alpha), 0.0])

    c = SPEED_OF_LIGHT
    for q in range(n_paths):
        col = 6 * q
        # gain identity blocks
        t_mat[2 * q, col + 1] = 1.0
        t_mat[2 * q + 1, col + 2] = 1.0

        # path 0 departs toward the RIS and arrives from the MS; path q > 0
        # does both through scatterer q, whose coordinate rows start at s0
        hop = ris if q == 0 else pos.scatterers[q - 1]
        s0 = m_off if q == 0 else a_off + 1 + 3 * (q - 1)
        w_dep, g_dep = _unit_grad(hop, pos.ms,
                                  "MS-RIS" if q == 0 else "MS-scatterer")
        w_arr, g_arr = _unit_grad(ris, pos.ms if q == 0 else hop,
                                  "MS-RIS" if q == 0 else "scatterer-RIS")
        du = g_dep @ axis             # d u / d hop
        t_mat[m_off:m_off + 3, col + 0] = -w_dep / c
        t_mat[m_off:m_off + 3, col + 3] = -du
        t_mat[a_off, col + 3] = axis_dot @ w_dep
        if q > 0:
            t_mat[s0:s0 + 3, col + 0] = (w_dep - w_arr) / c
            t_mat[s0:s0 + 3, col + 3] = du
        t_mat[s0:s0 + 3, col + 4] = -g_arr[2]
        t_mat[s0:s0 + 3, col + 5] = -g_arr[1]
    return t_mat


@dataclass
class BoundReport:
    """Channel-parameter covariance bound plus position/orientation bounds."""

    cov_channel: np.ndarray        # (6(Q+1), 6(Q+1)) inverse channel FIM
    peb: float                     # meters
    oeb: float                     # radians
    singular: bool


def _inv_psd(mat: np.ndarray) -> tuple[np.ndarray, bool]:
    """Eigendecomposition-based inverse and a singularity flag.

    The matrix mixes parameters of wildly different units (seconds,
    sines, raw gains), so it is diagonally preconditioned to a
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
    """Inverse FIM of the channel parameters and PEB/OEB of the position ones."""
    inv_eta, sing_eta = _inv_psd(j_eta)
    n_paths = j_eta.shape[0] // 6
    j_pos = t_mat @ j_eta @ t_mat.T
    inv_pos, sing_pos = _inv_psd(j_pos)
    m_off = 2 * n_paths
    peb = float(np.sqrt(np.trace(inv_pos[m_off:m_off + 3, m_off:m_off + 3])))
    oeb = float(np.sqrt(inv_pos[m_off + 3, m_off + 3]))
    return BoundReport(
        cov_channel=inv_eta, peb=peb, oeb=oeb,
        singular=bool(sing_eta or sing_pos))
