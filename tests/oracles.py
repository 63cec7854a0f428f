"""Test oracles: the long-way channel builders, the out-of-place noisy
synthesis, the full-tensor SAGE path objective, the full-stack
concentrated AOD objective, the correlation-tensor DCS-SOMP, the inverse
index and angle maps, the vector-to-params map and the exhaustive path
association. The package keeps only the fast forms; these reference
implementations check them.
The channel builders take the known RIS-BS leg from the geometry, as
``channel.Setup`` does."""

import itertools

import numpy as np

from rispos import channel as ch
from rispos import geometry as gm
from rispos import coarse_est as ce
from rispos.errors import (DimensionMismatch, SingularConcentration,
                           SparsityInfeasible, ZeroDenominator)
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


def synthesize_rx_sum(setup: ch.Setup, params: ChannelParams,
                      noise_seed=0) -> np.ndarray:
    """The received tensor as the out-of-place sum a_B (x) field +
    sqrt(sigma^2 / 2) (z_re + 1j z_im), the two halves drawn one after
    the other."""
    y = setup.a_b[:, None, None] * ch.model_field(params, setup)[None, :, :]
    rng = np.random.default_rng(noise_seed)
    scale = np.sqrt(setup.cfg.noise_power / 2.0)
    return y + scale * (rng.standard_normal(y.shape)
                        + 1j * rng.standard_normal(y.shape))


def reconstruct_complete_data(y: np.ndarray, params: ChannelParams, q: int,
                              setup: ch.Setup) -> np.ndarray:
    """Per-path hidden signal estimate (N_b, T, N) for path ``q``: the
    observation minus a_B (x) the other paths' field."""
    others = params.copy()
    others.gains[q] = 0.0
    return y - setup.a_b[:, None, None] * ch.model_field(others, setup)[None]


def path_terms(y_q: np.ndarray, tau: float, theta_t: float, phi_in: float,
               psi_in: float, setup: ch.Setup) -> tuple[complex, float]:
    """Numerator sum_t r_t conj(u_t) and denominator N_B N sum_t |u_t|^2 of
    the per-path likelihood, built over all T slots from the full tensor."""
    cfg, geom = setup.cfg, setup.geom
    pa = ch.beamform(setup.a_b, y_q)                       # (T, N)
    r = ch.subcarrier_ramp(-tau, cfg.bandwidth, cfg.n_subcarriers) @ pa.T
    u = (ch.ris_slot_scalars(geom, setup.sched.slot_phases, phi_in, psi_in,
                             *setup.known_angles[1:])
         * ch.pilot_projection(geom, setup.pilots, theta_t))
    num = np.sum(r * u.conj())
    den = geom.n_bs * cfg.n_subcarriers * np.sum(np.abs(u) ** 2)
    return num, den


def _single_path_fit(y_q, tau, theta_t, phi_in, psi_in, setup):
    num, den = path_terms(y_q, tau, theta_t, phi_in, psi_in, setup)
    if not den > 0.0:
        raise ZeroDenominator("single-path objective denominator vanished")
    return float(abs(num) ** 2 / den), complex(num / den)


def gain_closed_form(y_q: np.ndarray, tau: float, theta_t: float,
                     phi_in: float, psi_in: float, setup: ch.Setup) -> complex:
    """Closed-form ML gain of one path from its complete-data tensor."""
    return _single_path_fit(y_q, tau, theta_t, phi_in, psi_in, setup)[1]


def single_path_objective(y_q: np.ndarray, tau: float, theta_t: float,
                          phi_in: float, psi_in: float,
                          setup: ch.Setup) -> float:
    """Concentrated per-path likelihood F (gain eliminated)."""
    return _single_path_fit(y_q, tau, theta_t, phi_in, psi_in, setup)[0]


def concentrated_aod_objective(theta_vec: np.ndarray, s_mat: np.ndarray,
                               c_mat: np.ndarray, geom: ScenarioGeometry):
    """Concentrated AOD log-likelihood tr(G^-1 A^H S A), G = A^H C A, from
    the full triple products. A (Q+1,) vector gives a scalar; an (n, Q+1)
    stack of candidate vectors gives (n,) from one batched solve."""
    theta = np.asarray(theta_vec, dtype=float)
    a = np.moveaxis(ch.ms_steering(geom, np.atleast_2d(theta)), 0, 1)
    a_h = a.conj().transpose(0, 2, 1)                    # (n, Q+1, N_m)
    gram = a_h @ c_mat @ a
    if not np.all(np.isfinite(gram)):
        raise SingularConcentration("departure angles collide")
    eig = np.linalg.eigvalsh(gram)
    if not np.all(eig[:, 0] > eig[:, -1] / ce._COND_LIMIT):
        raise SingularConcentration("departure angles collide")
    vals = np.real(np.trace(np.linalg.solve(gram, a_h @ s_mat @ a),
                            axis1=1, axis2=2))
    return vals if theta.ndim == 2 else float(vals[0])


def dcs_somp_tensor(measurements: np.ndarray, dictionary: np.ndarray,
                    sparsity: int) -> ce.SompResult:
    """DCS-SOMP from the (N, G, L) correlation tensor Theta^H r[n]: column
    g scores sum_{n,l} |theta_g^H r_{n,l}|^2 / ||theta_g||^2, and the
    correlations are updated by subtracting the projection of Theta^H Y
    rather than recomputed from the residual."""
    y = np.asarray(measurements, dtype=complex)
    if y.ndim == 2:
        y = y[:, :, None]
    n_meas = y.shape[1]
    theta = np.asarray(dictionary, dtype=complex)
    if theta.shape[0] != n_meas or not 1 <= sparsity <= n_meas:
        raise SparsityInfeasible("infeasible sparsity or dictionary rows")

    support: list[int] = []
    norms = [float(np.linalg.norm(y))]
    coeffs = None
    col_power = np.maximum(np.sum(np.abs(theta) ** 2, axis=0), 1e-300)
    theta_h = theta.conj().T
    proj_y = theta_h @ y                                 # (N, G, L)
    psi = proj_y.copy()                                  # Theta^H resid
    for _ in range(sparsity):
        power = np.square(psi.view(float), out=psi.view(float))
        corr = np.sum(power, axis=(0, 2)) / col_power
        corr[support] = -np.inf
        support.append(int(np.argmax(corr)))
        sel = theta[:, support]
        gram = sel.conj().T @ sel
        coeffs = ce._solve_gram(gram, proj_y[:, support, :])
        norms.append(float(np.linalg.norm(y - sel @ coeffs)))
        np.matmul(theta_h @ sel, coeffs, out=psi)
        np.subtract(proj_y, psi, out=psi)
    return ce.SompResult(support=support, coeffs=coeffs,
                         residual_norms=np.asarray(norms))


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


def min_association_cost(theta_est: np.ndarray, theta_true: np.ndarray) -> float:
    """Least total |sin AOD| distance over every pairing of estimated with
    true paths, by exhaustive search over the permutations."""
    s_est, s_true = np.sin(theta_est), np.sin(theta_true)
    return min(float(np.sum(np.abs(s_est[list(perm)] - s_true)))
               for perm in itertools.permutations(range(s_true.size)))
