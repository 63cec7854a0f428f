"""Stage-one channel-parameter estimation.

Three sub-steps run on the block-structured pilot record: joint-sparse
recovery of the departure angles, likelihood refinement of those angles,
per-path sparse recovery of the RIS arrival angles, and DFT-plus-rotation
delay/gain estimation. Each stage takes the received tensor y
(N_b, T, N) and the per-power ``channel.Setup``: the pilots, schedule,
dictionaries, known RIS-BS angles, a_B and path count come from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from ._search import maximize_1d
from .channel import (Setup, SystemConfig, beamform, ms_steering,
                      pilot_projection, ris_index_split)
from .errors import (OutOfRange, RankDeficient, SingularConcentration,
                     SparsityInfeasible)
from .geometry import ScenarioGeometry, clamped_arcsin
from .params import ChannelParams

_COND_LIMIT = 1e12
_AOD_MAX_PASSES = 5           # cyclic passes of the AOD refinement


@dataclass
class SompResult:
    """Support, per-subcarrier projection coefficients, residual norms."""

    support: list[int]            # 0-based dictionary column indices
    coeffs: np.ndarray            # (N, K, L)
    residual_norms: np.ndarray    # (K+1,) Frobenius norms, initial first


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > _COND_LIMIT:
        raise RankDeficient("selected dictionary columns are linearly dependent")
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(str(exc)) from exc


def dcs_somp(measurements: np.ndarray, dictionary: np.ndarray,
             sparsity: int) -> SompResult:
    """Simultaneous OMP with one support shared across subcarriers.

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
    n_sub, n_meas, _ = y.shape
    theta = np.asarray(dictionary, dtype=complex)
    if theta.shape[0] != n_meas:
        raise SparsityInfeasible("dictionary rows must match measurement rows")
    if not 1 <= sparsity <= n_meas:
        raise SparsityInfeasible(
            f"sparsity {sparsity} infeasible with {n_meas} measurement rows")

    support: list[int] = []
    norms = [float(np.linalg.norm(y))]
    coeffs = None
    col_power = np.maximum(np.sum(np.abs(theta) ** 2, axis=0), 1e-300)
    theta_h = theta.conj().T
    proj_y = theta_h @ y                                 # (N, G, L)
    psi = proj_y.copy()                                  # Theta^H resid
    for _ in range(sparsity):
        # summed cross-subcarrier correlation, normalized per column so
        # unequal column norms (random phase profiles) cannot bias the pick;
        # psi is squared in place (real and imaginary parts), as it is
        # overwritten below
        power = np.square(psi.view(float), out=psi.view(float))
        corr = np.sum(power, axis=(0, 2)) / col_power
        corr[support] = -np.inf          # residual is orthogonal to these
        support.append(int(np.argmax(corr)))
        sel = theta[:, support]
        gram = sel.conj().T @ sel
        coeffs = _solve_gram(gram, proj_y[:, support, :])
        norms.append(float(np.linalg.norm(y - sel @ coeffs)))
        np.matmul(theta_h @ sel, coeffs, out=psi)
        np.subtract(proj_y, psi, out=psi)
    return SompResult(support=support, coeffs=coeffs,
                      residual_norms=np.asarray(norms))


def estimate_aod_coarse(y: np.ndarray, setup: Setup):
    """Grid AOD estimates from the first T1 slots via DCS-SOMP.

    Returns (theta_hat, somp_result); theta_hat[i] = arcsin of the grid
    value of the i-th selected column.
    """
    t1 = setup.cfg.t1
    a_m_dict = setup.a_m_dict
    y1h = y[:, :t1, :].conj().transpose(2, 1, 0)      # (N, T1, N_b)
    theta_m = setup.pilots[:, :t1].conj().T @ a_m_dict.matrix
    res = dcs_somp(y1h, theta_m, setup.n_paths)
    theta_hat = np.array([clamped_arcsin(a_m_dict.grid[k]) for k in res.support])
    return theta_hat, res


def _concentrated_aod_objective(theta_vec: np.ndarray, s_mat: np.ndarray,
                                c_mat: np.ndarray, geom: ScenarioGeometry):
    """Concentrated log-likelihood of the AOD vector (constant dropped).

    ``s_mat`` is sum_n B^H[n] E B[n] and ``c_mat`` the pilot Gram X1 X1^H.
    With D = A G^-1 A^H and G = A^H C A, 2 tr(DS) - tr(S D C D^H) equals
    tr(G^-1 A^H S A). A (Q+1,) vector gives a scalar; an (n, Q+1) stack of
    candidate vectors gives (n,) from one batched solve.
    """
    theta = np.asarray(theta_vec, dtype=float)
    a = np.moveaxis(ms_steering(geom, np.atleast_2d(theta)), 0, 1)
    a_h = a.conj().transpose(0, 2, 1)                    # (n, Q+1, N_m)
    gram = a_h @ c_mat @ a
    if not np.all(np.isfinite(gram)):
        raise SingularConcentration("departure angles collide")
    eig = np.linalg.eigvalsh(gram)
    if not np.all(eig[:, 0] > eig[:, -1] / _COND_LIMIT):
        raise SingularConcentration("departure angles collide")
    vals = np.real(np.trace(np.linalg.solve(gram, a_h @ s_mat @ a),
                            axis1=1, axis2=2))
    return vals if theta.ndim == 2 else float(vals[0])


def refine_aod_mle(y: np.ndarray, setup: Setup, theta_init: np.ndarray):
    """Cyclic 1-D refinement of the AODs over the first T1 slots.

    Each coordinate is searched in sin-space over one coarse grid cell
    around its current value; the concentrated objective never decreases.
    Returns the refined AOD vector.
    """
    geom, cfg = setup.geom, setup.cfg
    t1 = cfg.t1
    x1 = setup.pilots[:, :t1]
    c_mat = x1 @ x1.conj().T
    b_mat = x1 @ beamform(setup.a_b, y[:, :t1]).conj()  # column n: B[n]^H a_B
    s_mat = b_mat @ b_mat.conj().T / geom.n_bs

    theta = np.asarray(theta_init, dtype=float).copy()
    cell = 2.0 / cfg.g_ms

    def objective(th_vec):
        return _concentrated_aod_objective(th_vec, s_mat, c_mat, geom)

    for _ in range(_AOD_MAX_PASSES):
        moved = 0.0
        for q in range(theta.size):
            u0 = float(np.sin(theta[q]))
            lo = max(-1.0, u0 - cell)
            hi = min(1.0, u0 + cell)

            def f_batch(us, q=q):
                trial = np.repeat(theta[None, :], us.size, axis=0)
                trial[:, q] = np.arcsin(np.clip(us, -1.0, 1.0))
                return objective(trial)

            u_best, _ = maximize_1d(f_batch, lo, hi, incumbent=u0)
            new = float(np.arcsin(np.clip(u_best, -1.0, 1.0)))
            moved = max(moved, abs(np.sin(new) - u0))
            theta[q] = new
        if moved < 1e-9:
            break
    return theta


@dataclass
class AoaEstimate:
    """Per-path RIS arrival-angle recovery output."""

    phi_in: np.ndarray          # (Q+1,)
    psi_in: np.ndarray          # (Q+1,)
    cos_diff: np.ndarray        # grid value cos(phi_in) - cos(phi_out0)
    sinsin_diff: np.ndarray     # grid value of the azimuth product difference
    delta_tilde: np.ndarray     # (Q+1, N) per-subcarrier hybrid gains
    flags: list = field(default_factory=list)


def _right_inverse(mat: np.ndarray) -> np.ndarray:
    gram = mat @ mat.conj().T
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > _COND_LIMIT:
        raise RankDeficient("block mixing matrix has no right inverse")
    return mat.conj().T @ np.linalg.inv(gram)


def estimate_ris_aoa(y: np.ndarray, setup: Setup,
                     theta_hat: np.ndarray) -> AoaEstimate:
    """Recover per-path RIS arrival angles and hybrid gains.

    Beamforms onto the known BS steering vector, de-mixes each phase
    block with the right inverse of its pilot projection, then solves a
    1-sparse recovery per path over the phase-profile dictionary.
    """
    geom, cfg, schedule = setup.geom, setup.cfg, setup.sched
    _, phi_out0, psi_out0 = setup.known_angles
    n_paths = theta_hat.size
    ycheck = beamform(setup.a_b, y) / geom.n_bs                     # (T, N)
    proj = pilot_projection(geom, setup.pilots,
                            np.atleast_1d(theta_hat)).T             # (Q+1, T)

    blocks = []
    for i in range(schedule.n_blocks):
        slots = schedule.block_slots(i)
        if slots.size < n_paths:
            raise RankDeficient("phase block shorter than the path count")
        b_i = proj[:, slots]                            # (Q+1, V_i)
        pinv = _right_inverse(b_i)                      # (V_i, Q+1)
        blocks.append(ycheck[slots, :].T @ pinv)        # (N, Q+1)
    stacked = np.stack(blocks, axis=1)                  # (N, blocks, Q+1)

    ris_dict = setup.ris_dict
    dict_eff = schedule.block_phases @ ris_dict.matrix  # (blocks, G_r)
    sin_out = np.sin(psi_out0) * np.sin(phi_out0)
    cos_out = np.cos(phi_out0)

    phi = np.empty(n_paths)
    psi = np.empty(n_paths)
    cos_diff = np.empty(n_paths)
    sinsin_diff = np.empty(n_paths)
    delta_tilde = np.empty((n_paths, cfg.n_subcarriers), dtype=complex)
    flags = []
    for q in range(n_paths):
        res = dcs_somp(stacked[:, :, q][:, :, None], dict_eff, 1)
        k = res.support[0] + 1                          # 1-based
        k_el, k_az = ris_index_split(k, cfg.g_ris_az)
        cos_diff[q] = ris_dict.elevation.grid[k_el - 1]
        sinsin_diff[q] = ris_dict.azimuth.grid[k_az - 1]
        delta_tilde[q] = res.coeffs[:, 0, 0]

        path_flags = []
        cos_phi = cos_out + cos_diff[q]
        if abs(cos_phi) > 1.0:
            path_flags.append("cos_clamped")
            cos_phi = float(np.clip(cos_phi, -1.0, 1.0))
        phi[q] = np.arccos(cos_phi)
        sin_phi = np.sin(phi[q])
        if sin_phi < 1e-12:
            path_flags.append("horizon_elevation")
            sin_phi = 1e-12
        sin_psi = (sin_out + sinsin_diff[q]) / sin_phi
        if abs(sin_psi) > 1.0:
            path_flags.append("sin_clamped")
            sin_psi = float(np.clip(sin_psi, -1.0, 1.0))
        base = np.arcsin(sin_psi)
        candidates = [np.pi - base, 2.0 * np.pi + base]
        in_range = [c for c in candidates
                    if np.pi / 2 - 1e-12 <= c <= 3 * np.pi / 2 + 1e-12]
        if not in_range:
            path_flags.append("branch_ambiguous")
            in_range = [np.pi - base]
        psi[q] = in_range[0]
        flags.append(path_flags)
    return AoaEstimate(phi_in=phi, psi_in=psi, cos_diff=cos_diff,
                       sinsin_diff=sinsin_diff,
                       delta_tilde=delta_tilde, flags=flags)


def estimate_toa(delta_tilde_q: np.ndarray, cfg: SystemConfig):
    """Delay and gain of one path from its hybrid per-subcarrier gains.

    DFT peak for the coarse bin, then a rotation search over half a bin
    on either side; the gain follows by least squares on the de-rotated
    phase ramp.

    Returns (tau_hat, delta_hat, peak_bin, delta_tau).
    """
    d = np.asarray(delta_tilde_q, dtype=complex)
    n = d.size
    bw = cfg.bandwidth
    z = np.fft.ifft(d) * np.sqrt(n)
    m0 = int(np.argmax(np.abs(z)))          # 0-based peak bin

    k = np.arange(n)
    base = d * np.exp(2j * np.pi * k * m0 / n)

    def peak_mag(dtaus: np.ndarray) -> np.ndarray:
        rot = np.exp(-2j * np.pi * np.multiply.outer(dtaus, k) * bw / n)
        return np.abs(rot @ base) / np.sqrt(n)

    half = 1.0 / (2.0 * bw)
    dtau, _ = maximize_1d(peak_mag, -half, half, incumbent=0.0)
    tau_hat = m0 / bw - dtau
    upsilon = tau_hat * bw / n
    if not 0.0 < upsilon < 1.0:
        raise OutOfRange(f"normalized delay {upsilon} outside (0, 1)")
    ramp = np.exp(-2j * np.pi * k * upsilon)
    delta_hat = (ramp.conj() @ d) / n
    return float(tau_hat), complex(delta_hat), m0 + 1, float(dtau)


@dataclass
class CoarseEstimate:
    """Full coarse-stage output in canonical path order (VLoS first)."""

    params: ChannelParams
    flags: dict


def associate_paths(theta_est: np.ndarray, theta_true: np.ndarray) -> np.ndarray:
    """Match estimated to true paths by minimal total |sin AOD| distance.

    The estimator's path order is arbitrary; all error scoring uses this
    assignment. Returns ``perm`` such that estimate ``perm[i]`` scores
    against true path ``i``.
    """
    cost = np.abs(np.subtract.outer(np.sin(theta_true), np.sin(theta_est)))
    _, perm = linear_sum_assignment(cost)
    return perm


def _canonical_order(psi: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, bool]:
    """VLoS-class path (azimuth in [pi, 3pi/2]) first, then by delay."""
    is_vlos = (psi >= np.pi) & (psi <= 1.5 * np.pi)
    ambiguous = int(np.sum(is_vlos)) != 1
    order = sorted(range(psi.size), key=lambda q: (not is_vlos[q], tau[q]))
    return np.asarray(order), ambiguous


def run_coarse(y: np.ndarray, setup: Setup,
               refine_aod: bool = True) -> CoarseEstimate:
    """Run the three coarse sub-steps and order paths canonically."""
    theta_hat, _ = estimate_aod_coarse(y, setup)
    if refine_aod:
        theta_hat = refine_aod_mle(y, setup, theta_hat)
    aoa = estimate_ris_aoa(y, setup, theta_hat)
    tau = np.empty(setup.n_paths)
    gains = np.empty(setup.n_paths, dtype=complex)
    for q in range(setup.n_paths):
        tau[q], gains[q], _, _ = estimate_toa(aoa.delta_tilde[q], setup.cfg)

    order, ambiguous = _canonical_order(aoa.psi_in, tau)
    flags = {"class_ambiguous": ambiguous,
             "aoa_flags": [aoa.flags[q] for q in order]}
    params = ChannelParams(tau[order], gains[order], theta_hat[order],
                           aoa.phi_in[order], aoa.psi_in[order])
    return CoarseEstimate(params=params, flags=flags)
