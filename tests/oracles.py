"""Test oracles: the node angles and the angle-domain channel model, the
long-way channel builders, the received tensor and its two statistics,
the out-of-place noisy synthesis, the full-tensor SAGE path objective,
the full-stack concentrated AOD objective, the correlation-tensor
DCS-SOMP, the UPA steering vector, the vector-to-params map, the field
derivatives as a tensor, the angle-domain Fisher information and
Jacobian, and the exhaustive path association. The package keeps only
the fast forms, in the arrays' spatial frequencies (u, c, s), and never
forms the (N_b, T, N) received tensor; these reference implementations,
most of them in angles, check them.
The channel builders take the known RIS-BS leg from the geometry, as
``channel.Setup`` does."""

import itertools
from dataclasses import dataclass

import numpy as np

from rispos import bounds as bnd
from rispos import channel as ch
from rispos import geometry as gm
from rispos import harness as hn
from rispos import coarse_est as ce
from rispos.errors import (DegenerateGeometry, DimensionMismatch,
                           SingularConcentration, SparsityInfeasible,
                           ZeroDenominator)
from rispos.geometry import SPEED_OF_LIGHT, ScenarioGeometry
from rispos.params import ChannelParams, PositionParams

# Tolerance for inverse-trig arguments that drift past +-1 in floating point.
TRIG_CLAMP_TOL = 1e-9


def clamped_arcsin(x: float, tol: float = TRIG_CLAMP_TOL) -> float:
    """arcsin with a small out-of-domain guard: arguments within ``tol``
    of [-1, 1] are clamped, anything further out raises."""
    if abs(x) > 1.0 + tol:
        raise DegenerateGeometry(f"arcsin argument {x} outside [-1, 1]")
    return float(np.arcsin(np.clip(x, -1.0, 1.0)))


def clamped_arccos(x: float, tol: float = TRIG_CLAMP_TOL) -> float:
    """arccos with the same guard as :func:`clamped_arcsin`."""
    if abs(x) > 1.0 + tol:
        raise DegenerateGeometry(f"arccos argument {x} outside [-1, 1]")
    return float(np.arccos(np.clip(x, -1.0, 1.0)))


def _checked_norm(v: np.ndarray, what: str) -> float:
    n = float(np.linalg.norm(v))
    if n <= 0.0:
        raise DegenerateGeometry(f"zero distance: {what}")
    return n


def ris_bs_angles(ris, bs) -> tuple[float, float, float]:
    """(theta_r0, phi_out0, psi_out0) of the fixed RIS-BS leg."""
    diff = np.asarray(bs, float) - np.asarray(ris, float)
    dist = _checked_norm(diff, "RIS-BS")
    rho = float(np.hypot(diff[0], diff[1]))
    if rho <= 0.0:
        raise DegenerateGeometry("BS directly above RIS: azimuth undefined")
    return (clamped_arcsin(diff[0] / dist), clamped_arccos(diff[2] / dist),
            clamped_arcsin(diff[1] / rho))


def _incoming_angles(dep_target, ris_source, ris, alpha, ms):
    """(theta_t, phi_in, psi_in) of one MS-(scatterer-)RIS leg pair: the
    departure at the MS toward ``dep_target``, the arrival at the RIS from
    ``ris_source``."""
    dep = np.asarray(dep_target, float) - np.asarray(ms, float)
    a = np.array([np.cos(alpha), -np.sin(alpha), 0.0])
    theta_t = clamped_arcsin(float(a @ dep) / _checked_norm(dep, "MS leg"))
    arr = np.asarray(ris, float) - np.asarray(ris_source, float)
    arr_dist = _checked_norm(arr, "RIS leg")
    rho = float(np.hypot(arr[0], arr[1]))
    if rho <= 0.0:
        raise DegenerateGeometry("source directly below RIS: azimuth undefined")
    return (theta_t, clamped_arccos(arr[2] / arr_dist),
            np.pi - clamped_arcsin(arr[1] / rho))


def angles_from_geometry(geom: ScenarioGeometry) -> tuple[np.ndarray, ...]:
    """(theta_t, phi_in, psi_in), each of shape (Q+1,); q = 0 is the VLoS path."""
    paths = [_incoming_angles(geom.ris, geom.ms, geom.ris, geom.alpha, geom.ms)]
    for s in geom.scatterers:
        paths.append(_incoming_angles(s, s, geom.ris, geom.alpha, geom.ms))
    return tuple(np.array(a) for a in zip(*paths))


def toas_from_geometry(geom: ScenarioGeometry) -> np.ndarray:
    """Times of arrival tau_q (seconds), q = 0..Q, leg by leg."""
    d_rb = _checked_norm(geom.ris - geom.bs, "RIS-BS")
    taus = [(d_rb + _checked_norm(geom.ms - geom.ris, "MS-RIS")) / SPEED_OF_LIGHT]
    for s in geom.scatterers:
        taus.append((d_rb + _checked_norm(s - geom.ris, "scatterer-RIS")
                     + _checked_norm(geom.ms - s, "MS-scatterer"))
                    / SPEED_OF_LIGHT)
    return np.asarray(taus)


@dataclass
class AngleParams:
    """The channel vector in angles: [tau, delta_re, delta_im, theta_t,
    phi_in, psi_in] per path."""

    tau: np.ndarray
    gains: np.ndarray
    theta_t: np.ndarray
    phi_in: np.ndarray
    psi_in: np.ndarray

    def __post_init__(self):
        for name in ("tau", "theta_t", "phi_in", "psi_in"):
            setattr(self, name, np.atleast_1d(np.asarray(getattr(self, name),
                                                         dtype=float)))
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))

    @property
    def n_paths(self) -> int:
        return self.tau.size

    def to_vector(self) -> np.ndarray:
        return np.column_stack([self.tau, self.gains.real, self.gains.imag,
                                self.theta_t, self.phi_in,
                                self.psi_in]).ravel()


def to_angles(params: ChannelParams) -> AngleParams:
    """theta_t = arcsin u, phi_in = arccos c, psi_in = pi - arcsin(s /
    sin phi_in), the azimuth branch of the far side of the RIS."""
    phi = np.arccos(params.c)
    return AngleParams(params.tau.copy(), params.gains.copy(),
                       np.arcsin(params.u), phi,
                       np.pi - np.arcsin(np.clip(params.s / np.sin(phi),
                                                 -1.0, 1.0)))


def from_angles(tau, gains, theta_t, phi_in, psi_in) -> ChannelParams:
    """ChannelParams at u = sin theta_t, c = cos phi_in and
    s = sin psi_in sin phi_in."""
    phi_in = np.asarray(phi_in, dtype=float)
    return ChannelParams(tau, gains, np.sin(theta_t), np.cos(phi_in),
                         np.sin(psi_in) * np.sin(phi_in))


def ms_steering(geom: ScenarioGeometry, theta_t) -> np.ndarray:
    """MS steering vectors at departure angles; (N_m,) or (N_m, n)."""
    return gm.steer_ula(geom.d_ms / geom.wavelength * np.sin(theta_t),
                        geom.n_ms)


def steer_upa(u_az: float | np.ndarray, u_el: float | np.ndarray,
              n_a: int, n_e: int) -> np.ndarray:
    """UPA steering vector: elevation factor Kronecker azimuth factor.

    Supports broadcast arrays of candidate frequencies, returning shape
    ``(n_a*n_e, n_cand)``.
    """
    return gm.kron_columns(gm.steer_ula(u_el, n_e), gm.steer_ula(u_az, n_a))


def ris_diff_steering(geom: ScenarioGeometry, phi_in, psi_in) -> np.ndarray:
    """a_R(in) Hadamard a_R(out)^*, the RIS response at the differential
    frequencies of the arrival angles and the geometry's RIS-BS leg."""
    _, phi_out0, psi_out0 = ris_bs_angles(geom.ris, geom.bs)
    lam = geom.wavelength
    dw_az = geom.d_ris_az / lam * (np.sin(psi_in) * np.sin(phi_in)
                                   - np.sin(psi_out0) * np.sin(phi_out0))
    dw_el = geom.d_ris_el / lam * (np.cos(phi_in) - np.cos(phi_out0))
    return steer_upa(dw_az, dw_el, geom.n_ris_az, geom.n_ris_el)


def bs_steering(geom: ScenarioGeometry) -> np.ndarray:
    """a_B at the RIS-BS leg's arrival angle."""
    theta_r0 = ris_bs_angles(geom.ris, geom.bs)[0]
    return gm.steer_ula(geom.d_bs / geom.wavelength * np.sin(theta_r0),
                        geom.n_bs)


def build_channel(cfg: ch.SystemConfig, geom: ScenarioGeometry,
                  params: ChannelParams, g_t: np.ndarray, n: int) -> np.ndarray:
    """Channel matrix H_t[n] (N_b x N_m) for one slot's phase vector.

    Uses the scalar-reflection form: each path contributes
    delta_q * ramp_q[n] * (g_t^T a_R(dw_q)) * a_B a_M(theta_q)^H.
    """
    g_t = np.asarray(g_t)
    if g_t.shape != (geom.n_ris,):
        raise DimensionMismatch("phase vector length must equal N_r")
    if not (1 <= n <= cfg.n_subcarriers):
        raise DimensionMismatch("subcarrier index out of range")
    ang = to_angles(params)
    a_b = bs_steering(geom)
    a_m = ms_steering(geom, ang.theta_t)                # (N_m, Q+1)
    a_r = ris_diff_steering(geom, ang.phi_in, ang.psi_in)  # (N_r, Q+1)
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
    _, phi_out0, psi_out0 = ris_bs_angles(geom.ris, geom.bs)
    tau_rb = np.linalg.norm(geom.ris - geom.bs) / gm.SPEED_OF_LIGHT
    a_b = bs_steering(geom)
    params = to_angles(params)
    w_out_az = geom.d_ris_az / lam * np.sin(psi_out0) * np.sin(phi_out0)
    w_out_el = geom.d_ris_el / lam * np.cos(phi_out0)
    a_r_out = steer_upa(w_out_az, w_out_el, geom.n_ris_az, geom.n_ris_el)
    ramp_rb = np.exp(-2j * np.pi * tau_rb * (n - 1) * cfg.bandwidth
                     / cfg.n_subcarriers)
    h_rb = ramp_rb * np.outer(a_b, a_r_out.conj())

    h_mr = np.zeros((geom.n_ris, geom.n_ms), dtype=complex)
    for q in range(params.n_paths):
        w_in_az = geom.d_ris_az / lam * np.sin(params.psi_in[q]) * np.sin(params.phi_in[q])
        w_in_el = geom.d_ris_el / lam * np.cos(params.phi_in[q])
        a_r_in = steer_upa(w_in_az, w_in_el, geom.n_ris_az, geom.n_ris_el)
        a_m = ms_steering(geom, params.theta_t[q])
        ramp_mr = np.exp(-2j * np.pi * (params.tau[q] - tau_rb) * (n - 1)
                         * cfg.bandwidth / cfg.n_subcarriers)
        h_mr += params.gains[q] * ramp_mr * np.outer(a_r_in, a_m.conj())
    return h_rb @ np.diag(g_t) @ h_mr


def beamform(a_b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a_B^H applied along the antenna axis of y (N_b, ...); shape y.shape[1:]."""
    return (a_b.conj() @ y.reshape(a_b.size, -1)).reshape(y.shape[1:])


def synthesize_tensor(setup: ch.Setup, params: ChannelParams,
                      noise_seed: int | np.random.Generator | None = 0,
                      noiseless: bool = False) -> np.ndarray:
    """Simulate the received uplink pilot tensor y = a_B (x) field + z,
    shape (N_b, T, N).

    Noise entries are CN(0, sigma^2) with the per-subcarrier noise power
    of the setup's system; passing the same seed reproduces the tensor
    exactly. One draw holds the real halves, then the imaginary ones; it
    is scaled in place and added into y's parts, with no complex
    temporaries.
    """
    y = setup.a_b[:, None, None] * ch.model_field(params, setup)[None, :, :]
    if not noiseless:
        rng = np.random.default_rng(noise_seed)
        noise = rng.standard_normal((2,) + y.shape)
        noise *= np.sqrt(setup.cfg.noise_power / 2.0)
        y.real += noise[0]
        y.imag += noise[1]
    return y


def observe(y: np.ndarray, setup: ch.Setup) -> ch.Observation:
    """The two statistics of a received tensor y (N_b, T, N): the
    beamformed record a_B^H y and the first-T1-slot covariance
    sum_{b, n} conj(y[b, t, n]) y[b, t', n]."""
    y1 = y[:, :setup.cfg.t1, :]
    return ch.Observation(beamform(setup.a_b, y),
                          np.einsum("btn,bsn->ts", y1.conj(), y1))


def synthesize_via_tensor(setup: ch.Setup, params: ChannelParams,
                          noise_seed=0, noiseless: bool = False):
    """``channel.synthesize_rx`` by way of the received tensor: the
    observation of ``synthesize_tensor``'s draw."""
    return observe(synthesize_tensor(setup, params, noise_seed, noiseless),
                   setup)


def trial_tensor(exp, setup: ch.Setup, power_idx: int, trial_idx: int):
    """The true parameters and the received tensor of one sweep trial,
    drawn from the seeds ``harness.run_trial`` uses."""
    gain_seed, noise_seed = np.random.SeedSequence(
        (exp.master_seed, hn._TAG_TRIAL, power_idx, trial_idx)).spawn(2)
    true = gm.true_channel_params(setup.geom, ch.draw_gains(
        setup.cfg, setup.geom, np.random.default_rng(gain_seed)))
    return true, synthesize_tensor(setup, true,
                                   np.random.default_rng(noise_seed),
                                   exp.noiseless)


def model_field_derivs(params: ChannelParams, setup: ch.Setup) -> np.ndarray:
    """Derivatives of ``channel.model_field``, (6(Q+1), T, N): the outer
    products of the slot and subcarrier factors of
    ``bounds.derivative_factors``."""
    a, b = bnd.derivative_factors(params, setup)
    return a.T[:, :, None] * b.T[:, None, :]


def fim_channel_tensor(params: ChannelParams, setup: ch.Setup) -> np.ndarray:
    """Channel FIM (2 N_b / sigma^2) Re{d_u^H d_v} from the derivative
    tensor."""
    derivs = model_field_derivs(params, setup)
    flat = derivs.reshape(derivs.shape[0], -1)
    return (2.0 * setup.geom.n_bs / setup.cfg.noise_power
            * np.real(flat.conj() @ flat.T))


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
    the per-path likelihood at the path's angles, built over all T slots
    from the full tensor."""
    cfg, geom = setup.cfg, setup.geom
    pa = beamform(bs_steering(geom), y_q)                  # (T, N)
    r = ch.subcarrier_ramp(-tau, cfg.bandwidth, cfg.n_subcarriers) @ pa.T
    u = ((setup.sched.slot_phases @ ris_diff_steering(geom, phi_in, psi_in))
         * (setup.pilots.T @ ms_steering(geom, theta_t).conj()))
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
    a = np.moveaxis(ms_steering(geom, np.atleast_2d(theta)), 0, 1)
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


def channel_params_from_vector(vec: np.ndarray) -> ChannelParams:
    """Inverse of ``ChannelParams.to_vector``: the length-6(Q+1) vector."""
    vec = np.asarray(vec, dtype=float)
    if vec.size % 6 != 0:
        raise ValueError("channel parameter vector length must be a multiple of 6")
    cols = vec.reshape(-1, 6)
    return ChannelParams(
        tau=cols[:, 0].copy(),
        gains=cols[:, 1] + 1j * cols[:, 2],
        u=cols[:, 3].copy(),
        c=cols[:, 4].copy(),
        s=cols[:, 5].copy(),
    )


def min_association_cost(theta_est: np.ndarray, theta_true: np.ndarray) -> float:
    """Least total |sin AOD| distance over every pairing of estimated with
    true paths, by exhaustive search over the permutations."""
    s_est, s_true = np.sin(theta_est), np.sin(theta_true)
    return min(float(np.sum(np.abs(s_est[list(perm)] - s_true)))
               for perm in itertools.permutations(range(s_true.size)))


def model_field_derivs_angles(params: AngleParams,
                              setup: ch.Setup) -> np.ndarray:
    """Derivatives of the noiseless field in angles, (6(Q+1), T, N), order
    [tau, delta_re, delta_im, theta_t, phi_in, psi_in] per path, by the
    chain rule through the angles' sines and cosines."""
    geom, cfg, phases = setup.geom, setup.cfg, setup.sched.slot_phases
    lam = geom.wavelength
    gains, theta, phi, psi = (params.gains, params.theta_t, params.phi_in,
                              params.psi_in)
    a_m = ms_steering(geom, theta)
    a_r = ris_diff_steering(geom, phi, psi)
    sigma = phases @ a_r
    proj = setup.pilots.T @ a_m.conj()
    ramp = ch.subcarrier_ramp(params.tau, cfg.bandwidth, cfg.n_subcarriers)
    k_el = np.repeat(np.arange(geom.n_ris_el), geom.n_ris_az)[:, None]
    k_az = np.tile(np.arange(geom.n_ris_az), geom.n_ris_el)[:, None]
    n_sub = np.arange(cfg.n_subcarriers)[:, None]
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
        gains * (phases @ (d_psi * a_r)) * proj])
    subs = np.stack([n_sub * ramp] + [ramp] * 5)
    out = (np.moveaxis(slots, 2, 0)[:, :, :, None]
           * np.moveaxis(subs, 2, 0)[:, :, None, :])
    return out.reshape(-1, cfg.t_total, cfg.n_subcarriers)


def _unit_diff(a, b, what):
    diff = a - b
    dist = float(np.linalg.norm(diff))
    if dist <= 0.0:
        raise DegenerateGeometry(f"zero distance: {what}")
    return diff, dist


def _dtheta_dpoint(target, ms, alpha):
    """Gradients of the departure angle w.r.t. the far point, the MS and
    the rotation."""
    a = np.array([np.cos(alpha), -np.sin(alpha), 0.0])
    u, h = _unit_diff(target, ms, "AOD leg")
    g = float(a @ u)
    root = np.sqrt(h * h - g * g)
    d_target = (a * h * h - g * u) / (h * h * root)
    a_dot = np.array([-np.sin(alpha), -np.cos(alpha), 0.0])
    return d_target, -d_target, float(a_dot @ u) / root


def _dphi_dpoint(ris, point):
    """Gradient of the elevation arrival angle w.r.t. the source point."""
    u, h = _unit_diff(ris, point, "elevation leg")
    w = u[2]
    root = np.sqrt(h * h - w * w)
    return np.array([-u[0] * w, -u[1] * w, h * h - w * w]) / (h * h * root)


def _dpsi_dpoint(ris, point):
    """Gradient of the azimuth arrival angle w.r.t. the source point."""
    u = np.asarray(ris, float) - np.asarray(point, float)
    rho2 = u[0] ** 2 + u[1] ** 2
    return np.array([-u[0] * u[1], u[0] ** 2, 0.0]) / (rho2 * abs(u[0]))


def transformation_matrix_angles(pos: PositionParams, ris, bs) -> np.ndarray:
    """Jacobian d(angle-domain eta)^T / d(eta~), (5Q+6, 6(Q+1)), from the
    angle gradients leg by leg."""
    ris = np.asarray(ris, float)
    n_paths = pos.n_scatterers + 1
    t_mat = np.zeros((5 * pos.n_scatterers + 6, 6 * n_paths))
    m_off = 2 * n_paths
    a_off = m_off + 3
    c = SPEED_OF_LIGHT
    for q in range(n_paths):
        col = 6 * q
        t_mat[2 * q, col + 1] = 1.0
        t_mat[2 * q + 1, col + 2] = 1.0
        target = ris if q == 0 else pos.scatterers[q - 1]
        source = pos.ms if q == 0 else target
        s0 = m_off if q == 0 else a_off + 1 + 3 * (q - 1)
        u_ms, h_ms = _unit_diff(pos.ms, target, "MS leg")
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


def angle_bounds(geom: ScenarioGeometry, gains: np.ndarray,
                 setup: ch.Setup) -> bnd.BoundReport:
    """CRLBs, PEB and OEB from the Fisher information of the angle-domain
    channel vector at the true pose, mapped by the angle Jacobian."""
    ang = AngleParams(toas_from_geometry(geom), gains,
                      *angles_from_geometry(geom))
    derivs = model_field_derivs_angles(ang, setup)
    flat = derivs.reshape(derivs.shape[0], -1)
    j_eta = (2.0 * geom.n_bs / setup.cfg.noise_power
             * np.real(flat.conj() @ flat.T))
    pos = PositionParams(gains=gains, ms=geom.ms, alpha=geom.alpha,
                         scatterers=geom.scatterers)
    return bnd.position_bounds(
        j_eta, transformation_matrix_angles(pos, geom.ris, geom.bs))
