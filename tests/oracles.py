"""Test oracles: the node angles and the angle-domain channel model, the
long-way channel builders, the noiseless field built the long way
(``model_field`` from the per-path factors ``path_factors`` and
``ris_slot_factors``), the per-slot RIS phases, the received tensor
and its two statistics, the out-of-place noisy synthesis, the
observation drawn with a fresh lower-triangle index, the 1-D
grid-and-zoom search ``maximize_1d``, the global log-likelihood from
``model_field``, the full-tensor SAGE path objective and its
factor-column form, the full-stack concentrated AOD objective and the
AOD refinement by cyclic passes on it, DCS-SOMP on a record (its
covariance form and the correlation-tensor form), the RIS arrival step
one phase block and one path at a time, the delay step one path at a
time by a half-bin ``maximize_1d`` search, the UPA steering vector, the
vector-to-params map, the field derivatives as a tensor, the
angle-domain Fisher information and Jacobian, the exhaustive path
association, SAGE by full-search coordinate cycles alone, and the FIM
derivative factors with the RIS phases contracted per slot, and the
damped Newton loop of one fit at a time; and one row of a stacked
setup as a lone setup (``row_setup``). The package keeps
only the fast forms, in the arrays' spatial frequencies (u, c, s), and
never forms the (N_b, T, N) received tensor; these reference
implementations, most of them in angles, check them.
The channel builders take the known RIS-BS leg from the geometry, as
``channel.Setup`` does."""

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from rispos import _damping as dm
from rispos import bounds as bnd
from rispos import channel as ch
from rispos import geometry as gm
from rispos import harness as hn
from rispos import coarse_est as ce
from rispos import sage as sg
from rispos.channel import SystemConfig, subcarrier_ramp
from rispos.errors import (DegenerateGeometry, DimensionMismatch,
                           OutOfRange, RankDeficient, RisposError,
                           SingularConcentration, SparsityInfeasible)
from rispos.geometry import SPEED_OF_LIGHT, ScenarioGeometry
from rispos.params import ChannelParams, PositionParams


class ZeroDenominator(RisposError):
    """Closed-form gain denominator is not strictly positive."""


# The 1-D search of the full-search oracles: a grid scan, zoom levels and
# one parabolic step. The incumbent point is always a candidate and is
# only abandoned for a strictly better one; a NaN objective value scores
# as -inf, so it never wins. Every stage hands its candidates to the
# objective as one batch: the grid (with the incumbent), then each zoom
# level, then the single parabolic step. A zoom level has ZOOM_POINTS
# interior candidates and shrinks the bracket to at most
# 2 / (ZOOM_POINTS + 1) of its width; the level cap bounds a search at
# ten batches: grid, levels, parabolic step.
ZOOM_POINTS = 20
MAX_ZOOM_LEVELS = 8
ZOOM_STEPS = np.arange(1.0, ZOOM_POINTS + 1)


def _scores(vals) -> np.ndarray:
    """Objective values as floats, NaN read as -inf."""
    vals = np.asarray(vals, dtype=float)
    return np.where(np.isnan(vals), -np.inf, vals)


def maximize_1d(f_batch, lo: float, hi: float, n_grid: int = 41,
                tol: float = 1e-4, incumbent: float | None = None):
    """Maximize a smooth scalar function over [lo, hi].

    Parameters
    ----------
    f_batch : callable
        Maps an ndarray of candidates to an ndarray of objective values.
    lo, hi : float
        Search bracket.
    n_grid : int
        Uniform scan resolution before the zoom levels. Every bracket of
        the oracles spans at most about 1.3 main lobes, which the default
        41 points resolve; at the default ``tol`` three zoom levels and the
        parabolic step then refine the grid's best cell, at most five
        batches per search.
    tol : float
        Zoom bracket width, relative to the search width, at which the zoom
        stops. The default 1e-4 takes 3 levels at 41 grid points and 2 at
        201. Deeper levels buy nothing: on a smooth peak the parabolic step
        through the last level's best triple lands about 1e-10 of the width
        from the maximum, far inside that last bracket. After k levels the
        bracket is at most (2 / (n_grid - 1)) (2 / 21)^k of the width, so
        ``MAX_ZOOM_LEVELS`` binds only for tol below about 7e-11 at 201
        grid points and 3e-10 at 41.
    incumbent : float, optional
        A point guaranteed to be among the candidates; the result never
        has a smaller objective than the incumbent.

    Returns
    -------
    (x_best, f_best)
    """
    if hi < lo:
        lo, hi = hi, lo
    width = hi - lo
    if width <= 0.0:
        x = lo if incumbent is None else incumbent
        return x, float(f_batch(np.array([x]))[0])

    grid = np.linspace(lo, hi, n_grid)
    xs = grid if incumbent is None else np.append(grid, float(incumbent))
    vals = _scores(f_batch(xs))
    top = int(np.argmax(vals))
    x_best, f_best = float(xs[top]), float(vals[top])

    # zoom into the grid cells on either side of the best grid point; each
    # level samples the bracket uniformly and keeps the cells around its best
    px, pv = grid, vals[:n_grid]
    j = int(pv.argmax())
    for _ in range(MAX_ZOOM_LEVELS):
        ia, ib = max(j - 1, 0), min(j + 1, px.size - 1)
        xa, xb = px[ia], px[ib]
        if xb - xa <= tol * width:
            break
        # the interior of linspace(xa, xb, ZOOM_POINTS + 2), bit for bit
        inner = ZOOM_STEPS * ((xb - xa) / (ZOOM_POINTS + 1)) + xa
        level_x = np.empty(ZOOM_POINTS + 2)
        level_v = np.empty(ZOOM_POINTS + 2)
        level_x[0], level_x[1:-1], level_x[-1] = xa, inner, xb
        level_v[0], level_v[1:-1], level_v[-1] = (pv[ia], _scores(f_batch(inner)),
                                                  pv[ib])
        px, pv = level_x, level_v
        j = int(pv.argmax())
        if pv[j] > f_best:
            x_best, f_best = float(px[j]), float(pv[j])

    # one parabolic interpolation step through the best local triple
    if 0 < j < px.size - 1:
        (x1, x2, x3), (v1, v2, v3) = px[j - 1:j + 2], pv[j - 1:j + 2]
        denom = (x2 - x1) * (v2 - v3) - (x2 - x3) * (v2 - v1)
        if abs(denom) > 0.0:
            xv = x2 - 0.5 * ((x2 - x1) ** 2 * (v2 - v3)
                             - (x2 - x3) ** 2 * (v2 - v1)) / denom
            if lo <= xv <= hi and np.isfinite(xv):
                fv = float(_scores(f_batch(np.array([xv])))[0])
                if fv > f_best:
                    x_best, f_best = float(xv), fv

    if incumbent is not None and vals[-1] >= f_best:
        return float(incumbent), float(vals[-1])
    return x_best, f_best


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


def ris_slot_factors(setup: ch.Setup, c, s) -> np.ndarray:
    """sigma_t = g_t^T a_R(c, s) per slot, (T, n), at (n,) arrays c and s,
    either of which may hold one value shared by all n."""
    return ch.slot_factors(setup,
                           gm.kron_columns(*ch.ris_factors(setup, c, s)))


def path_factors(params: ChannelParams, setup: ch.Setup):
    """Per-path factors of the field: sigma (T, Q+1), p (T, Q+1), ramp (N, Q+1).

    Path q contributes delta_q * sigma_t p_t * ramp[n] to slot t and
    subcarrier n of the field: sigma_t = g_t^T a_R(c, s)
    (``ris_slot_factors``), p_t = a_M(u)^H x_t (``pilot_projection``).
    """
    cfg = setup.cfg
    sigma = ris_slot_factors(setup, params.c, params.s)
    proj = ch.pilot_projection(setup.geom, setup.pilots, params.u)
    ramp = subcarrier_ramp(params.tau, cfg.bandwidth, cfg.n_subcarriers)
    return sigma, proj, ramp


def model_field(params: ChannelParams, setup: ch.Setup) -> np.ndarray:
    """Noiseless per-slot/per-subcarrier scalar field (T, N) of all paths,
    the long way round ``channel.derivative_factors``' mu.

    The noiseless received tensor is a_B (x) this field: every path
    arrives at the BS along the known RIS-BS direction, so the field and
    all its parameter derivatives share that rank-1 structure, and
    |a_B|^2 = N_b is all the estimators need of a_B. Parameters whose
    gains are a stack (K, Q+1) give the K fields (K, T, N) of those
    gains, one product per field; a stacked setup gives field k at the
    pilots of its row k.
    """
    sigma, proj, ramp = path_factors(params, setup)
    return (sigma * proj * params.gains[..., None, :]) @ ramp.T


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
    y = bs_steering(setup.geom)[:, None, None] * model_field(params, setup)[None, :, :]
    if not noiseless:
        rng = np.random.default_rng(noise_seed)
        noise = rng.standard_normal((2,) + y.shape)
        noise *= np.sqrt(setup.cfg.noise_power / 2.0)
        y.real += noise[0]
        y.imag += noise[1]
    return y


def row_setup(setup: ch.Setup, k: int) -> ch.Setup:
    """Row k of a stacked setup, such as row k of ``harness.sweep_setup``,
    as a lone setup: each field of its ``POWER_FIELDS`` is row k's, the
    pilots (N_m, T) that every record shares, and every other array is
    the stacked setup's own; a lone setup is its own row."""
    if setup.pilots.ndim == 2:
        return setup
    lone = copy.copy(setup)
    for name in setup.POWER_FIELDS:
        setattr(lone, name, getattr(setup, name)[k])
    return lone


def observe(y: np.ndarray, setup: ch.Setup) -> ch.Observation:
    """The two statistics of a received tensor y (N_b, T, N), as a stack
    of one: the beamformed record a_B^H y and the first-T1-slot
    covariance sum_{b, n} conj(y[b, t, n]) y[b, t', n]."""
    y1 = y[:, :setup.cfg.t1, :]
    return ch.Observation(beamform(bs_steering(setup.geom), y)[None],
                          np.einsum("btn,bsn->ts", y1.conj(), y1)[None])


def synthesize_via_tensor(setup: ch.Setup, params: ChannelParams,
                          noise_seed=None, noiseless: bool = False):
    """``channel.synthesize_rx`` by way of the received tensor: for a
    stack of gains the stack of the observations of ``synthesize_tensor``'s
    draws of its rows, each from its own seed on its own row's setup
    (``row_setup``)."""
    rows = [observe(synthesize_tensor(
        row_setup(setup, k),
        ChannelParams(params.tau, gains, params.u, params.c, params.s),
        seed, noiseless), row_setup(setup, k))
        for k, (gains, seed) in enumerate(zip(params.gains, noise_seed))]
    return ch.Observation(np.concatenate([r.pa for r in rows]),
                          np.concatenate([r.cov1 for r in rows]))


def synthesize_rx_draws(setup: ch.Setup, params: ChannelParams,
                        noise_seed) -> ch.Observation:
    """``channel.synthesize_rx``'s noisy observation for N_b - 1 >= T1 / N,
    drawn in its documented order: z_par, the Bartlett gammas, then the
    normals below the diagonal, placed by a fresh ``np.tril_indices``."""
    cfg, t1 = setup.cfg, setup.cfg.t1
    norm_b = np.sqrt(setup.geom.n_bs)
    rng = np.random.default_rng(noise_seed)
    ypar = norm_b * model_field(params, setup)
    noise = rng.standard_normal((2,) + ypar.shape)
    ypar += np.sqrt(cfg.noise_power / 2.0) * (noise[0] + 1j * noise[1])
    m = (setup.geom.n_bs - 1) * cfg.n_subcarriers
    low = np.diag(np.sqrt(rng.standard_gamma(m - np.arange(t1)))) + 0j
    low[np.tril_indices(t1, -1)] = rng.standard_normal(
        (t1 * (t1 - 1) // 2, 2)).view(complex)[:, 0] * np.sqrt(0.5)
    y1 = ypar[:t1]
    return ch.Observation(norm_b * ypar, y1.conj() @ y1.T
                          + cfg.noise_power * (low.conj() @ low.T))


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
    """Derivatives of ``model_field``, (6(Q+1), T, N): the outer
    products of the slot and subcarrier factors of
    ``channel.derivative_factors``."""
    a, b, _ = ch.derivative_factors(params, setup)
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
    y = bs_steering(setup.geom)[:, None, None] * model_field(params, setup)[None, :, :]
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
    return y - bs_steering(setup.geom)[:, None, None] * model_field(others, setup)[None]


def path_terms(y_q: np.ndarray, tau: float, theta_t: float, phi_in: float,
               psi_in: float, setup: ch.Setup) -> tuple[complex, float]:
    """Numerator sum_t r_t conj(u_t) and denominator N_B N sum_t |u_t|^2 of
    the per-path likelihood at the path's angles, built over all T slots
    from the full tensor."""
    cfg, geom = setup.cfg, setup.geom
    pa = beamform(bs_steering(geom), y_q)                  # (T, N)
    r = ch.subcarrier_ramp(-tau, cfg.bandwidth, cfg.n_subcarriers) @ pa.T
    u = ((slot_phases(setup.sched) @ ris_diff_steering(geom, phi_in, psi_in))
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


def refine_aod_cyclic(obs: ch.Observation, setup: ch.Setup,
                      u_init: np.ndarray,
                      max_passes: int = 100) -> np.ndarray:
    """``coarse_est.refine_aod_mle`` as cyclic 1-D maximization, the
    alternating projection of Ziskind and Wax: full-search passes, each
    sine over one coarse grid cell around its current value with that
    value as incumbent, on ``concentrated_aod_objective``, until a pass
    moves no sine."""
    geom, t1 = setup.geom, setup.cfg.t1
    x1 = setup.pilots[:, :t1]
    c_mat = x1 @ x1.conj().T
    b_mat = x1 @ obs.pa[:t1].conj()
    s_mat = b_mat @ b_mat.conj().T / geom.n_bs
    sines = np.array(u_init, dtype=float)
    cell = 2.0 / setup.cfg.g_ms

    def column(q):
        def f_batch(u_q):
            stack = np.repeat(sines[None, :], u_q.size, axis=0)
            stack[:, q] = u_q
            return concentrated_aod_objective(np.arcsin(stack), s_mat, c_mat,
                                              geom)
        return f_batch

    for _ in range(max_passes):
        prev = sines.copy()
        for q in range(sines.size):
            u0 = float(sines[q])
            sines[q], _ = maximize_1d(column(q), max(-1.0, u0 - cell),
                                      min(1.0, u0 + cell), incumbent=u0)
        if np.array_equal(sines, prev):
            return sines
    raise AssertionError(f"no fixed point in {max_passes} passes")


def _check_gram(gram: np.ndarray, what: str) -> None:
    """``RankDeficient(what)`` unless every Gram of ``gram`` passes the
    package's condition check."""
    if not np.all(ce._well_conditioned(gram)):
        raise RankDeficient(what)


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    _check_gram(gram, "selected dictionary columns are linearly dependent")
    return np.linalg.solve(gram, rhs)


@dataclass
class SompFit:
    """DCS-SOMP's support, its per-subcarrier projection coefficients
    (N, K, L) and the residual norms, initial first."""

    support: list
    coeffs: np.ndarray
    residual_norms: np.ndarray


def dcs_somp_tensor(measurements: np.ndarray, dictionary: np.ndarray,
                    sparsity: int) -> SompFit:
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
        coeffs = _solve_gram(gram, proj_y[:, support, :])
        norms.append(float(np.linalg.norm(y - sel @ coeffs)))
        np.matmul(theta_h @ sel, coeffs, out=psi)
        np.subtract(proj_y, psi, out=psi)
    return SompFit(support=support, coeffs=coeffs,
                   residual_norms=np.asarray(norms))


def dcs_somp(measurements: np.ndarray, dictionary: np.ndarray,
             sparsity: int) -> SompFit:
    """Simultaneous OMP with one support shared across subcarriers.

    That is plain SOMP on the flattened (M, N L) record Y, its picks made
    by ``pick_columns`` from C = Y Y^H; the coefficients and residual
    norms are then computed from Y itself, so both are exact.

    Parameters
    ----------
    measurements : (N, M, L) complex
        Per-subcarrier measurement matrices sharing a row-sparse model.
    dictionary : (M, G) complex
    sparsity : int
        Number of columns to select (one per propagation path).
    """
    y = np.asarray(measurements, dtype=complex)
    if y.ndim == 2:
        y = y[:, :, None]
    n_sub, n_meas, n_col = y.shape
    theta = np.asarray(dictionary, dtype=complex)
    y_flat = y.transpose(1, 0, 2).reshape(n_meas, n_sub * n_col)
    (support,) = ce.pick_columns((y_flat @ y_flat.conj().T)[None], theta,
                                 sparsity).support
    resid = y_flat
    norms = [np.sqrt(np.vdot(resid, resid).real)]
    for k in range(1, sparsity + 1):
        sel = theta[:, support[:k]]
        coef = _solve_gram(sel.conj().T @ sel, sel.conj().T @ y_flat)
        resid = y_flat - sel @ coef
        norms.append(np.sqrt(np.vdot(resid, resid).real))
    return SompFit(
        support=support,
        coeffs=coef.reshape(-1, n_sub, n_col).transpose(1, 0, 2),
        residual_norms=np.asarray(norms))


def _right_inverse(mat: np.ndarray) -> np.ndarray:
    gram = mat @ mat.conj().T
    _check_gram(gram, "block mixing matrix has no right inverse")
    return mat.conj().T @ np.linalg.inv(gram)


def ris_aoa_loop(obs: ch.Observation, setup: ch.Setup, u_hat: np.ndarray,
                 somp=dcs_somp) -> ce.AoaEstimate:
    """``coarse_est.estimate_ris_aoa`` on a stack of one record, one block
    and one path at a time: each phase block de-mixed with the right
    inverse of its pilot projection, then one 1-sparse ``somp`` call per
    path over block_phases @ A_R. Raises the record's error."""
    geom, cfg, schedule = setup.geom, setup.cfg, setup.sched
    (u_hat,) = u_hat
    n_paths = u_hat.size
    (ycheck,) = obs.pa / geom.n_bs                                  # (T, N)
    proj = ch.pilot_projection(geom, setup.pilots, u_hat).T         # (Q+1, T)

    blocks = []
    for i in range(schedule.n_blocks):
        slots = block_slots(schedule, i)
        if slots.size < n_paths:
            raise RankDeficient("phase block shorter than the path count")
        b_i = proj[:, slots]                            # (Q+1, V_i)
        pinv = _right_inverse(b_i)                      # (V_i, Q+1)
        blocks.append(ycheck[slots, :].T @ pinv)        # (N, Q+1)
    stacked = np.stack(blocks, axis=1)                  # (N, blocks, Q+1)

    ris_dict = setup.ris_dict
    dict_eff = schedule.block_phases @ ris_dict.matrix  # (blocks, G_r)

    support = np.empty(n_paths, dtype=int)
    delta_tilde = np.empty((n_paths, cfg.n_subcarriers), dtype=complex)
    for q in range(n_paths):
        res = somp(stacked[:, :, q][:, :, None], dict_eff, 1)
        support[q] = res.support[0]
        delta_tilde[q] = res.coeffs[:, 0, 0]
    k_el, k_az = divmod(support, cfg.g_ris_az)
    c = ris_dict.elevation.grid[k_el]
    s_grid = ris_dict.azimuth.grid[k_az]
    rim = np.sqrt(1.0 - c * c)
    s = np.clip(s_grid, -rim, rim)
    return ce.AoaEstimate(c=c[None], s=s[None], delta_tilde=delta_tilde[None],
                          clamped=(s != s_grid)[None], errors=[None])


def estimate_toa(delta_tilde_q: np.ndarray, cfg: SystemConfig):
    """Delay and gain of one path from its hybrid per-subcarrier gains d.

    The delay maximizes |ramp(-tau)^T d|, ramp = ``channel.subcarrier_ramp``,
    the statistic SAGE's delay search scores: first over the DFT bins
    tau = m / B, then over half a bin on either side of the best bin. The
    gain is the least-squares fit ramp(tau)^H d / N on the same ramp.

    Returns (tau_hat, delta_hat, peak_bin, delta_tau): the 1-based bin
    and delta_tau = m / B - tau_hat.
    """
    d = np.asarray(delta_tilde_q, dtype=complex)
    n, bw = d.size, cfg.bandwidth

    def peak_mag(taus) -> np.ndarray:
        return np.abs(d @ subcarrier_ramp(np.negative(taus), bw, n))

    m0 = int(np.argmax(peak_mag(np.arange(n) / bw)))      # 0-based peak bin
    tau_bin, half = m0 / bw, 1.0 / (2.0 * bw)
    tau_hat, _ = maximize_1d(peak_mag, tau_bin - half, tau_bin + half,
                             incumbent=tau_bin)
    upsilon = tau_hat * bw / n
    if not 0.0 < upsilon < 1.0:
        raise OutOfRange(f"normalized delay {upsilon} outside (0, 1)")
    delta_hat = (subcarrier_ramp(tau_hat, bw, n).conj() @ d) / n
    return float(tau_hat), complex(delta_hat), m0 + 1, float(tau_bin - tau_hat)


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
    geom, cfg, phases = setup.geom, setup.cfg, slot_phases(setup.sched)
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
    t_mat = transformation_matrix_angles(pos, geom.ris, geom.bs)
    return bnd.position_bounds(j_eta[None], t_mat).row(0)


def global_log_likelihood(params: ChannelParams, obs: ch.Observation,
                          setup: ch.Setup) -> float:
    """2 Re<mu, pa> - N_B ||mu||^2 with mu = ``model_field``,
    which equals ||y||^2 - ||y - a_B (x) mu||^2 exactly."""
    return sg.field_log_likelihood(model_field(params, setup), obs, setup)


def factor_terms(pa: np.ndarray, setup: ch.Setup, sigma: np.ndarray,
                 proj: np.ndarray, ramp: np.ndarray):
    """(num, den) of the per-path likelihood F = |num|^2 / den on the
    complete data pa (T, N), each (n,), at the factor columns sigma and
    proj, (T, n) or (T, 1), and ramp, (N, n) or (N, 1), broadcast over n
    candidates: num = sum_t conj(sigma_t p_t) (pa conj(ramp))_t and
    den = N_B N sum_t |sigma_t p_t|^2."""
    v = sigma * proj
    num = np.sum(v.conj() * (pa @ ramp.conj()), axis=0)
    den = (setup.geom.n_bs * setup.cfg.n_subcarriers
           * np.sum(np.abs(v) ** 2, axis=0))
    return num, den


def factor_objective(num, den) -> np.ndarray:
    """F of each candidate; one with a vanishing denominator scores 0."""
    return np.abs(num) ** 2 / np.where(den > 0.0, den, np.inf)


def factor_fit(num, den) -> tuple[float, complex]:
    """F and the closed-form gain num / den of one candidate."""
    if not den > 0.0:
        raise ZeroDenominator("single-path objective denominator vanished")
    return float(abs(num) ** 2 / den), complex(num / den)


ANGLE_CELLS = 2               # coarse grid cells on either side of an angle
EPS_LOGLIK_REL = 1e-8         # relative likelihood change that ends cycles


def coordinate_update_cycle(obs: ch.Observation, setup: ch.Setup,
                            params: ChannelParams, q: int) -> dict:
    """One SAGE coordinate cycle of path q, in place: tau, u, c, s, then
    the gain (Fessler and Hero's generalized EM step).

    Path q's complete data is pa minus N_B times the other paths' field.
    Each coordinate enters one of the path's ``path_factors``, so
    a ``maximize_1d`` search rebuilds that factor for its candidates and
    reuses the other two; its bracket spans half a DFT bin for the delay
    and ``ANGLE_CELLS`` coarse grid cells for u, c and s, clipped to
    |u| <= 1 and to the disk c^2 + s^2 <= 1. The incumbent is always a
    candidate, so F never decreases. Returns the objective trace.
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
            lambda xs: factor_objective(*factor_terms(pa, setup,
                                                      *factors(xs))),
            max(-lim, x0 - half), min(lim, x0 + half), incumbent=x0)

    def fit(*factors):
        """F and the gain at one (sigma, proj, ramp) column each."""
        return factor_fit(*(x[0] for x in factor_terms(pa, setup, *factors)))

    tau, u, c, s = (float(x[q]) for x in (params.tau, params.u, params.c,
                                           params.s))
    trace = {"start": fit(sigma, proj, ramp)[0]}
    tau, trace["tau"] = search(
        lambda taus: (sigma, proj, ch.subcarrier_ramp(taus, cfg.bandwidth,
                                                      cfg.n_subcarriers)),
        tau, 1.0 / (2.0 * cfg.bandwidth))
    ramp = ch.subcarrier_ramp(np.array([tau]), cfg.bandwidth,
                              cfg.n_subcarriers)
    u, trace["u"] = search(
        lambda us: (sigma, ch.pilot_projection(geom, setup.pilots, us), ramp),
        u, ANGLE_CELLS * (2.0 / cfg.g_ms), 1.0)
    proj = ch.pilot_projection(geom, setup.pilots, np.array([u]))
    c, trace["c"] = search(
        lambda cs: (ris_slot_factors(setup, cs, np.array([s])), proj,
                    ramp),
        c, ANGLE_CELLS * (2.0 / cfg.g_ris_el), np.sqrt(max(1.0 - s * s, 0.0)))
    s, trace["s"] = search(
        lambda ss: (ris_slot_factors(setup, np.array([c]), ss), proj,
                    ramp),
        s, ANGLE_CELLS * (2.0 / cfg.g_ris_az), np.sqrt(max(1.0 - c * c, 0.0)))
    sigma = ris_slot_factors(setup, np.array([c]), np.array([s]))
    params.tau[q], params.u[q], params.c[q], params.s[q] = tau, u, c, s
    params.gains[q] = fit(sigma, proj, ramp)[1]
    return trace


def sage_cycles(obs: ch.Observation, setup: ch.Setup, init: ChannelParams,
                max_cycles: int = 50) -> ChannelParams:
    """SAGE by full-search coordinate cycles alone: every path's
    ``coordinate_update_cycle`` per cycle, until no parameter moves by
    1e-6 of its natural unit (1/B for delays, the initial gain magnitude
    for gains, 1 for u, c and s) or the global log-likelihood changes by
    less than ``EPS_LOGLIK_REL`` relative."""
    params = init.copy()
    eps = np.tile([1e-6 / setup.cfg.bandwidth, 0.0, 0.0, 1e-6, 1e-6, 1e-6],
                  init.n_paths)
    for q, gain in enumerate(init.gains):
        eps[6 * q + 1:6 * q + 3] = 1e-6 * max(abs(gain), 1e-30)
    lamb = global_log_likelihood(params, obs, setup)
    for _ in range(max_cycles):
        prev_vec = params.to_vector()
        for q in range(params.n_paths):
            coordinate_update_cycle(obs, setup, params, q)
        new_lamb = global_log_likelihood(params, obs, setup)
        if np.all(np.abs(params.to_vector() - prev_vec) <= eps) or \
                abs(new_lamb - lamb) <= EPS_LOGLIK_REL * abs(lamb):
            break
        lamb = new_lamb
    return params


def slot_phases(sched: ch.PhaseSchedule) -> np.ndarray:
    """Per-slot RIS phase vectors, shape (T, N_r)."""
    return sched.block_phases[sched.slot_block]


def block_slots(sched: ch.PhaseSchedule, i: int) -> np.ndarray:
    """The slots of phase block i."""
    return np.flatnonzero(sched.slot_block == i)


def derivative_factors_slots(params: ChannelParams, setup: ch.Setup):
    """``channel.derivative_factors`` without the field, its RIS
    derivatives contracted with every slot's phases: A (T, 6(Q+1)) and
    B (N, 6(Q+1))."""
    geom, cfg, phases = setup.geom, setup.cfg, slot_phases(setup.sched)
    lam = geom.wavelength
    gains = params.gains
    sigma, proj, ramp = path_factors(params, setup)
    a_m = ch.ms_sine_steering(geom, params.u)
    a_r = gm.kron_columns(*ch.ris_factors(setup, params.c, params.s))
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


def lone_ascend(state, model, evaluate, nats: float = 1.0):
    """``_damping.ascend`` on one fit: ``model(state)`` gives (A, g, basis)
    at a point, ``evaluate(state, step)`` the state a step reaches or
    None. Returns (state, accepted steps, converged)."""
    lam = 0.0
    for steps in range(dm.MAX_STEPS):
        a, g, basis = model(state)
        if basis is not None:
            a, g = basis.T @ a @ basis, basis.T @ g
        undamped = dm._solve(a, g, 0.0)
        last = (undamped is not None
                and nats * (g @ undamped) < dm.DECREMENT_TOL)
        while True:
            step = undamped if lam == 0.0 else dm._solve(a, g, lam)
            new = None if step is None else evaluate(
                state, step if basis is None else basis @ step)
            if new is not None or last:
                break
            lam = max(dm.DAMPING, dm.DAMPING_UP * lam)
            if lam > dm.DAMPING_LIMIT:
                return state, steps, False
        if last:
            return (state, steps, True) if new is None else \
                (new, steps + 1, True)
        state, lam = new, dm.DAMPING_DOWN * lam
    return state, dm.MAX_STEPS, False
