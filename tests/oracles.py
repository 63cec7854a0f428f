"""Test oracles: the long-way channel builders, the per-call SAGE
wrappers, the inverse index and angle maps and the vector-to-params
map. The package keeps only the fast forms; these reference
implementations check them. The channel builders take the known RIS-BS
leg from the geometry, as ``channel.Setup`` does."""

import numpy as np

from rispos import channel as ch
from rispos import geometry as gm
from rispos import sage as sg
from rispos.errors import DimensionMismatch
from rispos.geometry import ScenarioGeometry
from rispos.params import ChannelParams


def build_channel(cfg: ch.SystemConfig, geom: ScenarioGeometry,
                  params: ChannelParams, g_t: np.ndarray, n: int) -> np.ndarray:
    """Channel matrix H_t[n] (N_b x N_m) for one slot's phase vector.

    Uses the scalar-reflection form: each path contributes
    delta_q * ramp_q[n] * (g_t^T a_R(dw_q)) * a_B a_M(theta_q)^H.
    """
    theta_r0, phi_out0, psi_out0 = gm.ris_bs_angles(geom.ris, geom.bs)
    g_t = np.asarray(g_t)
    if g_t.shape != (geom.n_ris,):
        raise DimensionMismatch("phase vector length must equal N_r")
    if not (1 <= n <= cfg.n_subcarriers):
        raise DimensionMismatch("subcarrier index out of range")
    a_b = ch.bs_steering(geom, theta_r0)
    a_m = ch.ms_steering(geom, params.theta_t)          # (N_m, Q+1)
    a_r = ch.ris_diff_steering(geom, params.phi_in, params.psi_in,
                               phi_out0, psi_out0)      # (N_r, Q+1)
    ramp = ch.subcarrier_ramp(params.tau, cfg.bandwidth,
                              cfg.n_subcarriers)[n - 1]  # (Q+1,)
    scal = params.gains * ramp * (g_t @ a_r)
    return np.outer(a_b, (a_m.conj() * scal).sum(axis=1))


def build_channel_cascade(cfg: ch.SystemConfig, geom: ScenarioGeometry,
                          params: ChannelParams, g_t: np.ndarray,
                          n: int) -> np.ndarray:
    """H_t[n] built the long way: H_RB[n] diag(g_t) H_MR[n].

    The composite gain/delay are split with a unit-gain RIS-BS leg of
    delay ||r-b||/c; only the combined values affect the product.
    """
    g_t = np.asarray(g_t)
    if g_t.shape != (geom.n_ris,):
        raise DimensionMismatch("phase vector length must equal N_r")
    lam = geom.wavelength
    theta_r0, phi_out0, psi_out0 = gm.ris_bs_angles(geom.ris, geom.bs)
    tau_rb = np.linalg.norm(geom.ris - geom.bs) / gm.SPEED_OF_LIGHT
    a_b = ch.bs_steering(geom, theta_r0)
    w_out_az = geom.d_ris_az / lam * np.sin(psi_out0) * np.sin(phi_out0)
    w_out_el = geom.d_ris_el / lam * np.cos(phi_out0)
    a_r_out = gm.steer_upa(w_out_az, w_out_el, geom.n_ris_az, geom.n_ris_el)
    ramp_rb = np.exp(-2j * np.pi * tau_rb * (n - 1) * cfg.bandwidth
                     / cfg.n_subcarriers)
    h_rb = ramp_rb * np.outer(a_b, a_r_out.conj())

    h_mr = np.zeros((geom.n_ris, geom.n_ms), dtype=complex)
    for q in range(params.n_paths):
        w_in_az = geom.d_ris_az / lam * np.sin(params.psi_in[q]) * np.sin(params.phi_in[q])
        w_in_el = geom.d_ris_el / lam * np.cos(params.phi_in[q])
        a_r_in = gm.steer_upa(w_in_az, w_in_el, geom.n_ris_az, geom.n_ris_el)
        a_m = ch.ms_steering(geom, params.theta_t[q])
        ramp_mr = np.exp(-2j * np.pi * (params.tau[q] - tau_rb) * (n - 1)
                         * cfg.bandwidth / cfg.n_subcarriers)
        h_mr += params.gains[q] * ramp_mr * np.outer(a_r_in, a_m.conj())
    return h_rb @ np.diag(g_t) @ h_mr


def reconstruct_complete_data(y: np.ndarray, params: ChannelParams, q: int,
                              setup: ch.Setup) -> np.ndarray:
    """Per-path hidden signal estimate (N_b, T, N) for path ``q``."""
    return sg.SageProblem(y, setup).complete_data(params, q)


def _single_path_fit(y_q, tau, theta_t, phi_in, psi_in, setup):
    prob = sg.SageProblem(y_q, setup)
    r = prob.derotated(ch.beamform(prob.a_b, y_q), tau)
    return prob.fit(r, prob.slot_sigma(phi_in, psi_in) * prob.slot_proj(theta_t))


def gain_closed_form(y_q: np.ndarray, tau: float, theta_t: float,
                     phi_in: float, psi_in: float, setup: ch.Setup) -> complex:
    """Closed-form ML gain of one path from its complete-data tensor."""
    return _single_path_fit(y_q, tau, theta_t, phi_in, psi_in, setup)[1]


def single_path_objective(y_q: np.ndarray, tau: float, theta_t: float,
                          phi_in: float, psi_in: float,
                          setup: ch.Setup) -> float:
    """Concentrated per-path likelihood F (gain eliminated)."""
    return _single_path_fit(y_q, tau, theta_t, phi_in, psi_in, setup)[0]


def ris_index_join(k_el: int, k_az: int, g_az: int) -> int:
    """(elevation, azimuth) indices -> 1-based Kronecker column index;
    the inverse of ``channel.ris_index_split``."""
    return (k_el - 1) * g_az + k_az


def angle_from_spatial_freq(u: float, spacing: float, wavelength: float) -> float:
    """Inverse of ``geometry.aod_spatial_freq``."""
    return gm.clamped_arcsin(u * wavelength / spacing)


def channel_params_from_vector(vec: np.ndarray) -> ChannelParams:
    """Inverse of ``ChannelParams.to_vector``: the length-6(Q+1) vector."""
    vec = np.asarray(vec, dtype=float)
    if vec.size % 6 != 0:
        raise ValueError("channel parameter vector length must be a multiple of 6")
    cols = vec.reshape(-1, 6)
    return ChannelParams(
        tau=cols[:, 0].copy(),
        gains=cols[:, 1] + 1j * cols[:, 2],
        theta_t=cols[:, 3].copy(),
        phi_in=cols[:, 4].copy(),
        psi_in=cols[:, 5].copy(),
    )
