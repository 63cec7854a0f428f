"""Stage-one channel-parameter estimation.

Four sub-steps run on the block-structured pilot record: joint-sparse
recovery of the departure sines u = sin theta_t, likelihood refinement
of those sines, per-path sparse recovery of the RIS arrival's c and s,
and DFT-plus-rotation delay/gain estimation. Both recoveries are
DCS-SOMP, every pick made by ``pick_columns`` from an M x M covariance
C: the departure step passes the observation's cov1, ``dcs_somp`` forms
C from its record. The dictionaries are grids of these absolute
coordinates, so an estimate is read straight off its grid and no stage
converts to angles. Paths leave in delay order: the VLoS path, the
shortest, comes first. Each stage takes the ``channel.Observation``
and the per-power ``channel.Setup``: the pilots, schedule,
dictionaries, known RIS-BS leg, a_B and path count come from there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._search import maximize_1d
from .channel import (Observation, Setup, SystemConfig, ms_sine_steering,
                      pilot_projection)
from .errors import (OutOfRange, RankDeficient, SingularConcentration,
                     SparsityInfeasible)
from .geometry import ScenarioGeometry
from .params import ChannelParams

_COND_LIMIT = 1e12
_AOD_MAX_PASSES = 5           # cyclic passes of the AOD refinement
# grid points of each coordinate search: a bracket spans at most about 1.3
# main lobes; at the default ``tol`` three zoom levels and the parabolic
# step refine the grid's best cell, at most five batches per search
_N_GRID = 41


@dataclass
class SompResult:
    """Support, per-subcarrier projection coefficients, residual norms."""

    support: list[int]            # 0-based dictionary column indices
    coeffs: np.ndarray | None     # (N, K, L); None from a covariance alone
    residual_norms: np.ndarray    # (K+1,) Frobenius norms, initial first


def _check_gram(gram: np.ndarray, what: str) -> None:
    """``RankDeficient`` unless the Hermitian Gram's condition is <= 1e12."""
    if np.all(np.isfinite(gram)):
        eig = np.linalg.eigvalsh(gram)
        if eig[0] > 0.0 and eig[-1] <= _COND_LIMIT * eig[0]:
            return
    raise RankDeficient(what)


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    _check_gram(gram, "selected dictionary columns are linearly dependent")
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(str(exc)) from exc


def pick_columns(cov: np.ndarray, dictionary: np.ndarray,
                 sparsity: int) -> SompResult:
    """DCS-SOMP's greedy picks from the covariance C = Y Y^H (M, M) of a
    record Y: after picks S the residual (I - P_S) Y has covariance
    R = (I - P_S) C (I - P_S), and the next pick maximizes
    Re(theta_g^H R theta_g) / ||theta_g||^2. Returns the support and the
    residual norms sqrt(tr R), initial first, without coefficients.
    """
    theta = np.asarray(dictionary, dtype=complex)
    n_meas = theta.shape[0]
    if cov.shape != (n_meas, n_meas) or not 1 <= sparsity <= n_meas:
        raise SparsityInfeasible(f"sparsity {sparsity} with a {cov.shape} "
                                 f"covariance and {n_meas} dictionary rows")
    # unequal column norms (random phase profiles) must not bias the pick
    col_power = np.maximum(np.sum(np.abs(theta) ** 2, axis=0), 1e-300)
    support: list[int] = []
    resid = cov
    norms = [np.sqrt(max(np.trace(cov).real, 0.0))]
    for _ in range(sparsity):
        corr = np.einsum("mg,mg->g", theta.conj(), resid @ theta).real / col_power
        corr[support] = -np.inf          # residual is orthogonal to these
        support.append(int(np.argmax(corr)))
        sel = theta[:, support]
        comp = np.eye(n_meas) - sel @ _solve_gram(sel.conj().T @ sel,
                                                  sel.conj().T)
        resid = comp @ cov @ comp
        norms.append(np.sqrt(max(np.trace(resid).real, 0.0)))
    return SompResult(support, None, np.asarray(norms))


def dcs_somp(measurements: np.ndarray, dictionary: np.ndarray,
             sparsity: int) -> SompResult:
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
    support = pick_columns(y_flat @ y_flat.conj().T, theta, sparsity).support
    resid = y_flat
    norms = [np.sqrt(np.vdot(resid, resid).real)]
    for k in range(1, sparsity + 1):
        sel = theta[:, support[:k]]
        coef = _solve_gram(sel.conj().T @ sel, sel.conj().T @ y_flat)
        resid = y_flat - sel @ coef
        norms.append(np.sqrt(np.vdot(resid, resid).real))
    return SompResult(support=support,
                      coeffs=coef.reshape(-1, n_sub, n_col).transpose(1, 0, 2),
                      residual_norms=np.asarray(norms))


def estimate_aod_coarse(obs: Observation, setup: Setup):
    """Grid departure sines from the first T1 slots: DCS-SOMP's picks from
    the observation's ``cov1`` over the projected dictionary X1^H A_M.

    Returns (u_hat, picks); u_hat[i] is the grid value of the i-th
    selected column, ``picks`` the support and residual norms.
    """
    theta_m = setup.pilots[:, :setup.cfg.t1].conj().T @ setup.a_m_dict.matrix
    res = pick_columns(obs.cov1, theta_m, setup.n_paths)
    return setup.a_m_dict.grid[res.support], res


def _aod_column_objective(sines: np.ndarray, q: int, s_mat: np.ndarray,
                          c_mat: np.ndarray, geom: ScenarioGeometry):
    """Concentrated AOD log-likelihood as a function of AOD q alone.

    ``sines`` holds the departure sines sin(theta_t) of all paths,
    ``s_mat`` is sum_n B^H[n] E B[n] and ``c_mat`` the pilot Gram X1 X1^H.
    With D = A G^-1 A^H and G = A^H C A, 2 tr(DS) - tr(S D C D^H) equals
    tr(G^-1 A^H S A) (constant dropped). With the candidate column a last,
    G = [[G0, b], [b^H, d]] and A^H S A = [[H0, h], [h^H, e]], G0 and H0
    formed once; by the Schur complement s = d - Re(b^H w), w = G0^-1 b,
    the trace is tr(G0^-1 H0) + (w^H H0 w - 2 Re(w^H h) + e) / s. Returns
    a map from (n,) candidate sines to (n,) values; it raises
    ``SingularConcentration`` when G0 is ill-conditioned or a candidate
    has a non-finite s or s <= max(lambda_max(G0), d) / 1e12.
    """
    fixed = ms_sine_steering(geom, np.delete(sines, q))  # (N_m, Q)
    c_fix, s_fix = c_mat @ fixed, s_mat @ fixed
    g0, h0 = fixed.conj().T @ c_fix, fixed.conj().T @ s_fix
    eig = np.linalg.eigvalsh(g0)         # empty for Q = 0, NaN if not finite
    top = eig[-1] if eig.size else 0.0
    if eig.size and not eig[0] > top / _COND_LIMIT:
        raise SingularConcentration("departure angles collide")
    base = np.trace(np.linalg.solve(g0, h0)).real

    def objective(u_q: np.ndarray) -> np.ndarray:
        a = ms_sine_steering(geom, u_q)                  # (N_m, n)
        b, h = c_fix.conj().T @ a, s_fix.conj().T @ a    # (Q, n)
        d = np.einsum("mn,mn->n", a.conj(), c_mat @ a).real
        w = np.linalg.solve(g0, b)
        schur = d - np.einsum("qn,qn->n", b.conj(), w).real
        if not np.all(np.isfinite(schur) & (
                schur > np.maximum(top, d) / _COND_LIMIT)):
            raise SingularConcentration("departure angles collide")
        num = (np.einsum("qn,qn->n", w.conj(), h0 @ w - 2.0 * h).real
               + np.einsum("mn,mn->n", a.conj(), s_mat @ a).real)
        return base + num / schur
    return objective


def refine_aod_mle(obs: Observation, setup: Setup, u_init: np.ndarray):
    """Cyclic 1-D refinement of the departure sines over the first T1 slots.

    Each sine is searched over one coarse grid cell around its current
    value; the concentrated objective never decreases. Passes after the
    first start each search with the local path. Returns the refined
    sines.
    """
    geom, cfg = setup.geom, setup.cfg
    t1 = cfg.t1
    x1 = setup.pilots[:, :t1]
    c_mat = x1 @ x1.conj().T
    b_mat = x1 @ obs.pa[:t1].conj()                     # column n: B[n]^H a_B
    s_mat = b_mat @ b_mat.conj().T / geom.n_bs

    sines = np.array(u_init, dtype=float)
    cell = 2.0 / cfg.g_ms

    for n_pass in range(_AOD_MAX_PASSES):
        moved = 0.0
        for q in range(sines.size):
            u0 = float(sines[q])
            column = _aod_column_objective(sines, q, s_mat, c_mat, geom)
            u_best, _ = maximize_1d(column, max(-1.0, u0 - cell),
                                    min(1.0, u0 + cell), n_grid=_N_GRID,
                                    incumbent=u0, local=n_pass > 0)
            moved = max(moved, abs(u_best - u0))
            sines[q] = u_best
        if moved < 1e-9:
            break
    return sines


@dataclass
class AoaEstimate:
    """Per-path RIS arrival recovery output."""

    c: np.ndarray               # (Q+1,) elevation cosines
    s: np.ndarray               # (Q+1,) azimuth products
    delta_tilde: np.ndarray     # (Q+1, N) per-subcarrier hybrid gains
    clamped: np.ndarray         # (Q+1,) grid point projected onto the disk


def _right_inverse(mat: np.ndarray) -> np.ndarray:
    gram = mat @ mat.conj().T
    _check_gram(gram, "block mixing matrix has no right inverse")
    return mat.conj().T @ np.linalg.inv(gram)


def estimate_ris_aoa(obs: Observation, setup: Setup,
                     u_hat: np.ndarray) -> AoaEstimate:
    """Recover per-path RIS arrival coordinates (c, s) and hybrid gains.

    Scales the beamformed record pa by 1/N_B, de-mixes each phase
    block with the right inverse of its pilot projection, then solves a
    1-sparse recovery per path over the phase-profile dictionary. The
    grids hold c and s in [-1, 1), so the picked point needs only its s
    projected onto the disk, |s| <= sqrt(1 - c^2); ``clamped`` marks a
    path whose s moved.
    """
    geom, cfg, schedule = setup.geom, setup.cfg, setup.sched
    n_paths = u_hat.size
    ycheck = obs.pa / geom.n_bs                                     # (T, N)
    proj = pilot_projection(geom, setup.pilots,
                            np.atleast_1d(u_hat)).T                 # (Q+1, T)

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

    support = np.empty(n_paths, dtype=int)
    delta_tilde = np.empty((n_paths, cfg.n_subcarriers), dtype=complex)
    for q in range(n_paths):
        res = dcs_somp(stacked[:, :, q][:, :, None], dict_eff, 1)
        support[q] = res.support[0]
        delta_tilde[q] = res.coeffs[:, 0, 0]
    k_el, k_az = divmod(support, cfg.g_ris_az)
    c = ris_dict.elevation.grid[k_el]
    s_grid = ris_dict.azimuth.grid[k_az]
    rim = np.sqrt(1.0 - c * c)
    s = np.clip(s_grid, -rim, rim)
    return AoaEstimate(c=c, s=s, delta_tilde=delta_tilde,
                       clamped=s != s_grid)


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
    """Full coarse-stage output in delay order (the VLoS path first)."""

    params: ChannelParams
    flags: dict


def run_coarse(obs: Observation, setup: Setup,
               refine_aod: bool = True) -> CoarseEstimate:
    """Run the four coarse sub-steps and order the paths by delay."""
    u_hat, _ = estimate_aod_coarse(obs, setup)
    if refine_aod:
        u_hat = refine_aod_mle(obs, setup, u_hat)
    aoa = estimate_ris_aoa(obs, setup, u_hat)
    tau = np.empty(setup.n_paths)
    gains = np.empty(setup.n_paths, dtype=complex)
    for q in range(setup.n_paths):
        tau[q], gains[q], _, _ = estimate_toa(aoa.delta_tilde[q], setup.cfg)

    order = np.argsort(tau, kind="stable")
    params = ChannelParams(tau[order], gains[order], u_hat[order],
                           aoa.c[order], aoa.s[order])
    return CoarseEstimate(params=params,
                          flags={"aoa_clamped": aoa.clamped[order].tolist()})
