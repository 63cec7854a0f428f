"""Stage-one channel-parameter estimation.

Four sub-steps run on the block-structured pilot record: joint-sparse
recovery of the departure sines u = sin theta_t, likelihood refinement
of those sines (damped joint Newton steps), per-path sparse recovery of
the RIS arrival's c and s, and delay/gain estimation on
``channel.subcarrier_ramp`` for all paths at once: the DFT bin, then
Newton steps on closed-form derivatives within half a bin of it, with
no search. The departure recovery is DCS-SOMP, its picks made by
``pick_columns`` from the observation's T1 x T1 covariance cov1. The
arrival recovery de-mixes all phase blocks with one batched solve and
makes every path's 1-sparse pick from one product with the block-level
RIS dictionary. The products that depend on the setup alone (the
projected AOD dictionary, the block indicator, the block-level RIS
dictionary, the delay step's ramps) are built once per power by
``channel.Setup``. The dictionaries are grids of these absolute
coordinates, so an estimate is read straight off its grid and no stage
converts to angles. Paths leave in delay order: the VLoS path, the
shortest, comes first. Each stage takes the ``channel.Observation``
and the per-power ``channel.Setup``: the pilots, schedule,
dictionaries, known RIS-BS leg and path count come from there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._damping import ascend
from .channel import (Observation, Setup, ms_sine_steering, pilot_projection,
                      subcarrier_ramp)
from .errors import (OutOfRange, RankDeficient, SingularConcentration,
                     SparsityInfeasible)
from .geometry import ScenarioGeometry
from .params import ChannelParams

_COND_LIMIT = 1e12
# AOD refinement: difference spacing, and the share of the objective a
# step may lose
_AOD_NEWTON_H = 1e-5
_AOD_NEWTON_FLAT = 1e-12
# delay step: Newton steps from the best grid point, and the share of f
# a step may lose to rounding and still be taken
_TOA_NEWTON_STEPS = 4
_TOA_FLAT = 1e-12


@dataclass
class SompResult:
    """Support and residual norms of DCS-SOMP's picks."""

    support: list[int]            # 0-based dictionary column indices
    residual_norms: np.ndarray    # (K+1,) Frobenius norms, initial first


def _check_gram(gram: np.ndarray, what: str) -> None:
    """``RankDeficient`` unless each Hermitian Gram, (K, K) or a stack
    (..., K, K), has a condition number <= 1e12."""
    if np.all(np.isfinite(gram)):
        eig = np.linalg.eigvalsh(gram)
        low, high = eig[..., 0], eig[..., -1]
        if np.all((low > 0.0) & (high <= _COND_LIMIT * low)):
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
    residual norms sqrt(tr R), initial first.
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
    return SompResult(support, np.asarray(norms))


def estimate_aod_coarse(obs: Observation, setup: Setup):
    """Grid departure sines from the first T1 slots: DCS-SOMP's picks from
    the observation's ``cov1`` over the projected dictionary X1^H A_M.

    Returns (u_hat, picks); u_hat[i] is the grid value of the i-th
    selected column, ``picks`` the support and residual norms.
    """
    res = pick_columns(obs.cov1, setup.aod_proj, setup.n_paths)
    return setup.a_m_dict.grid[res.support], res


def _aod_objective(s_mat: np.ndarray, c_mat: np.ndarray,
                   geom: ScenarioGeometry):
    """Concentrated AOD log-likelihood over stacks of departure sines.

    ``s_mat`` is sum_n B^H[n] E B[n] and ``c_mat`` the pilot Gram X1 X1^H.
    With D = A G^-1 A^H and G = A^H C A, 2 tr(DS) - tr(S D C D^H) equals
    tr(G^-1 A^H S A) (constant dropped). Returns a map from an (n, P)
    stack of sine vectors to the (n,) values, from one batched solve; it
    raises ``SingularConcentration`` when any G is not finite or has a
    condition number above 1e12.
    """
    def objective(stack: np.ndarray) -> np.ndarray:
        a = np.moveaxis(ms_sine_steering(geom, stack), 0, 1)    # (n, N_m, P)
        a_h = a.conj().transpose(0, 2, 1)
        gram = a_h @ (c_mat @ a)
        if np.all(np.isfinite(gram)):
            eig = np.linalg.eigvalsh(gram)
            if np.all(eig[:, 0] > eig[:, -1] / _COND_LIMIT):
                return np.trace(np.linalg.solve(gram, a_h @ (s_mat @ a)),
                                axis1=1, axis2=2).real
        raise SingularConcentration("departure angles collide")
    return objective


def refine_aod_mle(obs: Observation, setup: Setup, u_init: np.ndarray):
    """ML refinement of the departure sines over the first T1 slots.

    Damped Newton steps on all sines jointly (``_damping.ascend``)
    maximize the concentrated objective F of ``_aod_objective``. Each
    point scores one batch of 1 + 2P + 2P(P-1) stacks, the point, the
    points +-h e_i and the corners (+-h e_i, +-h e_j) of each pair i < j,
    whose central differences give the gradient g and Hessian H at the
    point; its row 0 is the point's F. The model is A = -H and g in the
    units of F, which are sigma^2 times nats, so the refinement takes one
    last step and ends once the undamped step's decrement g^T x / sigma^2
    is below 1e-6 nats. A
    candidate is clipped to [-1, 1]; it is kept when its F falls by no
    more than 1e-12 relative, and rejected when its stencil raises
    ``SingularConcentration``. A sine at +-1 whose gradient points out of
    [-1, 1] leaves the step space. Returns (sines, steps), steps counting
    the accepted steps.
    """
    geom, cfg = setup.geom, setup.cfg
    t1 = cfg.t1
    x1 = setup.pilots[:, :t1]
    c_mat = x1 @ x1.conj().T
    b_mat = x1 @ obs.pa[:t1].conj()                     # column n: B[n]^H a_B
    s_mat = b_mat @ b_mat.conj().T / geom.n_bs
    objective = _aod_objective(s_mat, c_mat, geom)

    x = np.array(u_init, dtype=float)
    p = x.size
    eye = np.eye(p)
    pairs = np.triu_indices(p, 1)
    corners = [a * eye[i] + b * eye[j] for i, j in zip(*pairs)
               for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    h = _AOD_NEWTON_H
    stencil = h * np.vstack([np.zeros(p), eye, -eye, *corners])

    def model(state):
        """-H, g and the free sines' columns from the stencil values."""
        x, f = state
        f_plus, f_minus = f[1:p + 1], f[p + 1:2 * p + 1]
        grad = (f_plus - f_minus) / (2.0 * h)
        hess = np.diag((f_plus - 2.0 * f[0] + f_minus) / h ** 2)
        hess[pairs] = hess[pairs[::-1]] = (
            f[2 * p + 1:].reshape(-1, 4) @ [1.0, -1.0, -1.0, 1.0]
            / (4.0 * h ** 2))
        free = ~((np.abs(x) >= 1.0) & (x * grad > 0.0))
        return -hess, grad, None if free.all() else eye[:, free]

    def evaluate(state, step):
        """The clipped candidate and its stencil values, or None when its
        F falls or its stencil collides."""
        x, f = state
        cand = np.clip(x + step, -1.0, 1.0)
        try:
            f_new = objective(cand + stencil)
        except SingularConcentration:
            return None
        floor = f[0] - _AOD_NEWTON_FLAT * abs(f[0])
        return (cand, f_new) if f_new[0] >= floor else None

    (x, _), steps, _ = ascend((x, objective(x + stencil)), model, evaluate,
                              nats=1.0 / cfg.noise_power)
    return x, steps


@dataclass
class AoaEstimate:
    """Per-path RIS arrival recovery output."""

    c: np.ndarray               # (Q+1,) elevation cosines
    s: np.ndarray               # (Q+1,) azimuth products
    delta_tilde: np.ndarray     # (Q+1, N) per-subcarrier hybrid gains
    clamped: np.ndarray         # (Q+1,) grid point projected onto the disk


def estimate_ris_aoa(obs: Observation, setup: Setup,
                     u_hat: np.ndarray) -> AoaEstimate:
    """Recover per-path RIS arrival coordinates (c, s) and hybrid gains.

    Scales the beamformed record pa by 1/N_B and de-mixes every phase
    block at once: with p_t the slots' pilot projections (Q+1,), block b
    has the Gram G_b = sum_{t in b} conj(p_t) p_t^T and the right-hand
    side sum_{t in b} conj(p_t) pa_t^T, and one batched solve gives the
    per-block path signals S (blocks, Q+1, N). Each path then makes a
    1-sparse pick over the block-level dictionary D = ``setup.ris_eff``:
    from Z = D^H S, path q takes the column g maximizing
    ||Z[g, q]||^2 / ||d_g||^2, and its hybrid gain is Z[g, q] / ||d_g||^2.
    The grids hold c and s in [-1, 1), so the picked point needs only its
    s projected onto the disk, |s| <= sqrt(1 - c^2); ``clamped`` marks a
    path whose s moved.
    """
    geom, cfg = setup.geom, setup.cfg
    block_sum = setup.block_sum                                 # (B, T)
    n_blocks, n_slots = block_sum.shape
    proj = pilot_projection(geom, setup.pilots,
                            np.atleast_1d(u_hat))               # (T, Q+1)
    n_paths = proj.shape[1]
    if np.any(block_sum.sum(axis=1) < n_paths):
        raise RankDeficient("phase block shorter than the path count")
    ycheck = obs.pa / geom.n_bs                                 # (T, N)

    outer = proj.conj()[:, :, None] * proj[:, None, :]          # (T, Q+1, Q+1)
    gram = (block_sum @ outer.reshape(n_slots, -1)).reshape(
        n_blocks, n_paths, n_paths)
    _check_gram(gram, "block mixing matrix has no right inverse")
    rhs = proj.conj()[:, :, None] * ycheck[:, None, :]          # (T, Q+1, N)
    rhs = (block_sum @ rhs.reshape(n_slots, -1)).reshape(n_blocks, n_paths, -1)
    paths = np.linalg.solve(gram, rhs)                          # (B, Q+1, N)

    ris_dict = setup.ris_dict
    corr = (setup.ris_eff.conj().T @ paths.reshape(n_blocks, -1)).reshape(
        ris_dict.size, n_paths, -1)                             # (G_r, Q+1, N)
    power = setup.ris_eff_power[:, None]
    support = np.argmax(np.sum(np.abs(corr) ** 2, axis=2) / power, axis=0)
    delta_tilde = corr[support, np.arange(n_paths)] / power[support]
    k_el, k_az = divmod(support, cfg.g_ris_az)
    c = ris_dict.elevation.grid[k_el]
    s_grid = ris_dict.azimuth.grid[k_az]
    rim = np.sqrt(1.0 - c * c)
    s = np.clip(s_grid, -rim, rim)
    return AoaEstimate(c=c, s=s, delta_tilde=delta_tilde,
                       clamped=s != s_grid)


def estimate_toa(delta_tilde: np.ndarray, setup: Setup):
    """Delays and gains of all paths from their hybrid per-subcarrier
    gains D (Q+1, N), one row d per path.

    A path's delay maximizes f(tau) = |z(tau)|^2, z(tau) = ramp(-tau)^T d,
    ramp = ``channel.subcarrier_ramp``, within half a bin of its best DFT
    bin tau = m / B. Every step reads a ramp ``channel.Setup`` built: the
    bins from ``bin_ramp``; the start, the best of the oversampled
    transform at the bracket's 41 points, from ``grid_ramp``; then
    ``_TOA_NEWTON_STEPS`` Newton steps on f from ``ramp_weights``, each
    clipped to the bracket and taken only where f is concave, with
    f' / f'' = Re(conj(z) z') / (|z'|^2 + Re(conj(z) z'')). The bin
    centre is kept unless the result is strictly better. The gain is the
    least-squares fit ramp(tau)^H d / N on the same ramp.

    Returns (tau_hat, delta_hat), each (Q+1,); raises ``OutOfRange`` when
    a normalized delay tau B / N falls outside (0, 1).
    """
    d = np.asarray(delta_tilde, dtype=complex)
    n, bw = setup.cfg.n_subcarriers, setup.cfg.bandwidth
    m0 = np.argmax(np.abs(d @ setup.bin_ramp), axis=1)          # 0-based bins
    tau_bin = m0 / bw
    lo, hi = tau_bin - 0.5 / bw, tau_bin + 0.5 / bw
    grid = np.abs((d * setup.bin_ramp[:, m0].T) @ setup.grid_ramp)
    start = np.minimum(np.maximum(
        tau_bin + setup.grid_offsets[np.argmax(grid, axis=1)], lo), hi)
    weights = setup.ramp_weights

    def ramp_sums(tau):
        """Columns z, z' and z'' at the delays ``tau``, one row per path."""
        return (d * np.exp(np.multiply.outer(tau, weights[:, 1]))) @ weights

    z = ramp_sums(start)
    f_start = np.abs(z[:, 0]) ** 2
    tau = start
    for _ in range(_TOA_NEWTON_STEPS):
        grad = np.real(z[:, 0].conj() * z[:, 1])
        curv = np.abs(z[:, 1]) ** 2 + np.real(z[:, 0].conj() * z[:, 2])
        # no step where f is not concave: grad / -inf is zero
        tau = np.minimum(np.maximum(
            tau - grad / np.where(curv < 0.0, curv, -np.inf), lo), hi)
        z = ramp_sums(tau)
    # f is flat to rounding near its peak: the Newton point is taken
    # unless it lost more than _TOA_FLAT of the start's f
    f = np.abs(z[:, 0]) ** 2
    take = f >= f_start * (1.0 - _TOA_FLAT)
    tau, f = np.where(take, tau, start), np.where(take, f, f_start)
    tau = np.where(f > np.abs(ramp_sums(tau_bin)[:, 0]) ** 2, tau, tau_bin)

    upsilon = tau * bw / n
    outside = ~((upsilon > 0.0) & (upsilon < 1.0))
    if np.any(outside):
        raise OutOfRange(
            f"normalized delay {upsilon[outside][0]} outside (0, 1)")
    ramp = subcarrier_ramp(tau, bw, n)
    return tau, np.einsum("nq,qn->q", ramp.conj(), d) / n


@dataclass
class CoarseEstimate:
    """Full coarse-stage output in delay order (the VLoS path first)."""

    params: ChannelParams
    flags: dict


def run_coarse(obs: Observation, setup: Setup,
               refine_aod: bool = True) -> CoarseEstimate:
    """Run the four coarse sub-steps and order the paths by delay."""
    u_hat, _ = estimate_aod_coarse(obs, setup)
    flags = {}
    if refine_aod:
        u_hat, flags["aod_steps"] = refine_aod_mle(obs, setup, u_hat)
    aoa = estimate_ris_aoa(obs, setup, u_hat)
    tau, gains = estimate_toa(aoa.delta_tilde, setup)

    order = np.argsort(tau, kind="stable")
    params = ChannelParams(tau[order], gains[order], u_hat[order],
                           aoa.c[order], aoa.s[order])
    flags["aoa_clamped"] = aoa.clamped[order].tolist()
    return CoarseEstimate(params=params, flags=flags)
