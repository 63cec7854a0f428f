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

from .channel import (Setup, ms_sine_steering, ris_factors, slot_factors,
                      subcarrier_ramp)
from .geometry import (SPEED_OF_LIGHT, dot_rows, kron_columns, ms_axis,
                       unit_vector)
from .params import ChannelParams, PositionParams

_COND_LIMIT = 1e12


def derivative_factors(params: ChannelParams, setup: Setup):
    """Slot and subcarrier factors of the derivatives of
    ``channel.model_field``: A (T, 6(Q+1)) and B (N, 6(Q+1)), derivative
    k the (T, N) outer product of A[:, k] and B[:, k]; and the field mu
    (T, N) itself, so one pass over the factors gives all three.

    The per-path factors are ``channel.path_factors``' own expressions
    on steering vectors built once: sigma from ``channel.slot_factors``
    of a_R, p = X^T conj(a_M) as ``channel.pilot_projection`` forms it,
    and mu = (sigma p delta) @ ramp^T as ``model_field`` does.

    Parameter order per path: [tau, delta_re, delta_im, u, c, s]. Each
    derivative keeps the path's product form. The u, c and s derivatives
    weight the MS steering vector and the RIS response by the MS, RIS
    elevation and RIS azimuth index ramps.

    Parameters stacked (K, Q+1), or a stacked setup (``Setup.stack``),
    give the K passes (K, T, 6(Q+1)), (K, N, 6(Q+1)) and (K, T, N), each
    product on its own row's operands, as on one; B and mu keep no row
    axis where neither has one.
    """
    geom, cfg = setup.geom, setup.cfg
    lam = geom.wavelength
    gains = params.gains[..., None, :]
    n_paths = params.tau.shape[-1]
    a_m = np.moveaxis(ms_sine_steering(geom, params.u).conj(), 0, -2)
    a_r = np.moveaxis(kron_columns(*ris_factors(setup, params.c, params.s)),
                      0, -2)
    ramp = np.moveaxis(subcarrier_ramp(params.tau, cfg.bandwidth,
                                       cfg.n_subcarriers), 0, -2)
    k_r = np.arange(geom.n_ris)[:, None]
    pilots_t = np.swapaxes(setup.pilots, -1, -2)
    # the matrices of each product stacked along a new axis, so that each
    # makes the gemm call of its own: a product's columns keep their bits
    # only among products of as many columns
    sigma, d_c, d_s = slot_factors(setup, np.stack([
        a_r, k_r // geom.n_ris_az * a_r, k_r % geom.n_ris_az * a_r]))
    prods = pilots_t[..., None, :, :] @ np.stack(
        [a_m, np.arange(geom.n_ms)[:, None] * a_m], axis=-3)
    proj = prods[..., 0, :, :]
    dproj = 2j * np.pi * geom.d_ms / lam * prods[..., 1, :, :]
    d_c = -2j * np.pi * geom.d_ris_el / lam * d_c
    d_s = -2j * np.pi * geom.d_ris_az / lam * d_s
    u = sigma * proj
    slots = np.empty(u.shape + (6,), complex)
    slots[..., 0] = -2j * np.pi * cfg.bandwidth / cfg.n_subcarriers * gains * u
    slots[..., 1] = u
    slots[..., 2] = 1j * u
    slots[..., 3] = gains * sigma * dproj
    slots[..., 4] = gains * d_c * proj
    slots[..., 5] = gains * d_s * proj
    subs = np.empty(ramp.shape + (6,), complex)
    subs[..., 0] = np.arange(cfg.n_subcarriers)[:, None] * ramp
    subs[..., 1:] = ramp[..., None]
    return (slots.reshape(u.shape[:-1] + (6 * n_paths,)),
            subs.reshape(ramp.shape[:-1] + (6 * n_paths,)),
            (u * gains) @ np.swapaxes(ramp, -1, -2))


def fim_channel(params: ChannelParams, setup: Setup) -> np.ndarray:
    """FIM of the channel parameters, shape (6(Q+1), 6(Q+1)).

    Entry (u, v) is (2/sigma^2) sum_n Re{d_u mu[n]^H d_v mu[n]}, sigma^2
    the per-subcarrier noise power; the shared BS steering factor
    contributes the antenna count. With each derivative the outer product
    of its factors, the sum is Re{(A^H A) o (B^H B)}, o entrywise.
    """
    a, b, _ = derivative_factors(params, setup)
    return fim_from_factors(a, b, setup)


def fim_from_factors(a: np.ndarray, b: np.ndarray, setup: Setup) -> np.ndarray:
    """The channel FIM from the ``derivative_factors`` A and B: what
    ``fim_channel`` and the Fisher-scoring steps of ``sage.run_sage``
    compute."""
    return fim_from_gram(gram_from_factors(a, b), setup)


def gram_from_factors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The complex Gram (A^H A) o (B^H B) of the derivative factors, or of
    stacks of them."""
    return ((a.conj().swapaxes(-1, -2) @ a)
            * (b.conj().swapaxes(-1, -2) @ b))


def fim_from_gram(gram: np.ndarray, setup: Setup) -> np.ndarray:
    """(2 N_B / sigma^2) Re{gram}: the one formula of the channel FIM, from
    the complex Gram of the derivative factors."""
    return 2.0 * setup.geom.n_bs / setup.cfg.noise_power * np.real(gram)


def fim_at_gains(gram0: np.ndarray, gains: np.ndarray,
                 setup: Setup) -> np.ndarray:
    """The channel FIM at parameters whose Gram at unit gains is ``gram0``,
    with the path gains ``gains`` swapped in; a stack of gains (K, Q+1)
    gives the stack of FIMs (K, 6(Q+1), 6(Q+1)).

    A gain only scales its own columns of A (Kay, Fundamentals of
    Statistical Signal Processing: Estimation Theory, 1993, sec. 3.9):
    with w = [g, 1, 1, g, g, g] per path, A = A0 diag(w), B does not
    change, and the Gram is (conj(w) w^T) o gram0.
    """
    w = np.ones(gains.shape + (6,), dtype=complex)
    w[..., [0, 3, 4, 5]] = gains[..., None]
    w = w.reshape(gains.shape[:-1] + (-1,))
    return fim_from_gram(w.conj()[..., :, None] * w[..., None, :] * gram0,
                         setup)


def _unit_grad(a: np.ndarray, b: np.ndarray, what: str):
    """w = (a - b) / |a - b| and dw/da = (I - w w^T) / |a - b| (symmetric;
    dw/db = -dw/da); of each row for points stacked (K, 3)."""
    w, dist = unit_vector(a, b, what)
    return w, ((np.eye(3) - w[..., :, None] * w[..., None, :])
               / dist[..., None, None])


def transformation_matrix(pos: PositionParams, ris: np.ndarray,
                          bs: np.ndarray) -> np.ndarray:
    """Jacobian d(eta)^T/d(eta~), shape (5Q+6, 6(Q+1)); (K, 5Q+6, 6(Q+1))
    for the stacked parameters of K poses.

    Rows follow the position-parameter vector (gains, MS position,
    rotation, scatterers); columns follow the channel-parameter vector.
    A delay leg |a - b| has gradient w, u = a . w_dep has gradient
    (I - w w^T) a / |w|, and c and s are the z and y rows of the
    arrival's (I - w w^T) / |w|.
    """
    ris = np.asarray(ris, float)
    q_n = pos.n_scatterers
    n_paths = q_n + 1
    t_mat = np.zeros(np.shape(pos.alpha) + (5 * q_n + 6, 6 * n_paths))
    m_off = 2 * n_paths           # row offset of the MS coordinates
    a_off = m_off + 3             # row of alpha
    axis = ms_axis(pos.alpha)
    axis_dot = np.stack([-np.sin(pos.alpha), -np.cos(pos.alpha),
                         np.zeros_like(pos.alpha)], axis=-1)

    c = SPEED_OF_LIGHT
    for q in range(n_paths):
        col = 6 * q
        # gain identity blocks
        t_mat[..., 2 * q, col + 1] = 1.0
        t_mat[..., 2 * q + 1, col + 2] = 1.0

        # path 0 departs toward the RIS and arrives from the MS; path q > 0
        # does both through scatterer q, whose coordinate rows start at s0
        hop = ris if q == 0 else pos.scatterers[..., q - 1, :]
        s0 = m_off if q == 0 else a_off + 1 + 3 * (q - 1)
        w_dep, g_dep = _unit_grad(hop, pos.ms,
                                  "MS-RIS" if q == 0 else "MS-scatterer")
        w_arr, g_arr = _unit_grad(ris, pos.ms if q == 0 else hop,
                                  "MS-RIS" if q == 0 else "scatterer-RIS")
        du = (g_dep @ axis[..., None])[..., 0]      # d u / d hop
        t_mat[..., m_off:m_off + 3, col + 0] = -w_dep / c
        t_mat[..., m_off:m_off + 3, col + 3] = -du
        t_mat[..., a_off, col + 3] = dot_rows(axis_dot, w_dep)
        if q > 0:
            t_mat[..., s0:s0 + 3, col + 0] = (w_dep - w_arr) / c
            t_mat[..., s0:s0 + 3, col + 3] = du
        t_mat[..., s0:s0 + 3, col + 4] = -g_arr[..., 2, :]
        t_mat[..., s0:s0 + 3, col + 5] = -g_arr[..., 1, :]
    return t_mat


@dataclass
class BoundReport:
    """Channel-parameter covariance bound plus position/orientation bounds;
    of a stack of FIMs, each field stacked along a leading axis."""

    cov_channel: np.ndarray        # (6(Q+1), 6(Q+1)) inverse channel FIM
    peb: float                     # meters
    oeb: float                     # radians
    singular: bool

    def row(self, k: int) -> "BoundReport":
        """The report of FIM ``k`` of a stacked report."""
        return BoundReport(self.cov_channel[k], float(self.peb[k]),
                           float(self.oeb[k]), bool(self.singular[k]))


def _inv_psd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition-based inverses of a stack of matrices (K, n, n)
    and their singularity flags (K,).

    The matrix mixes parameters of wildly different units (seconds,
    sines, raw gains), so it is diagonally preconditioned to a
    correlation-like form first; the condition number and pseudo-inverse
    cutoff apply to that scaled matrix. A matrix with no nonzero
    eigenvalue has an all-infinite inverse. The stacked ``eigh`` and
    products make the same LAPACK and BLAS calls per matrix as on one.
    """
    sym = 0.5 * (mat + mat.swapaxes(1, 2))
    d = np.sqrt(np.maximum(np.diagonal(sym, axis1=1, axis2=2),
                           np.finfo(float).tiny))
    scale = d[:, :, None] * d[:, None, :]
    vals, vecs = np.linalg.eigh(sym / scale)
    size = np.abs(vals)
    top = size.max(axis=1)
    cond = top / np.maximum(size.min(axis=1), np.finfo(float).tiny)
    inv_vals = np.divide(1.0, vals, out=np.zeros_like(vals),
                         where=size > top[:, None] / _COND_LIMIT)
    inv = (vecs * inv_vals[:, None, :]) @ vecs.swapaxes(1, 2) / scale
    zero = top <= 0.0
    if zero.any():
        inv[zero] = np.inf
    return inv, zero | (cond > _COND_LIMIT)


def position_bounds(j_eta: np.ndarray, t_mat: np.ndarray) -> BoundReport:
    """Inverse FIMs of the channel parameters and PEB/OEB of the position
    ones, of a stack of FIMs (K, 6(Q+1), 6(Q+1)): a stacked report."""
    inv_eta, sing_eta = _inv_psd(j_eta)
    inv_pos, sing_pos = _inv_psd(t_mat @ j_eta @ t_mat.T)
    m_off = 2 * (j_eta.shape[-1] // 6)
    return BoundReport(
        cov_channel=inv_eta,
        peb=np.sqrt(np.trace(inv_pos[:, m_off:m_off + 3, m_off:m_off + 3],
                             axis1=1, axis2=2)),
        oeb=np.sqrt(inv_pos[:, m_off + 3, m_off + 3]),
        singular=sing_eta | sing_pos)
