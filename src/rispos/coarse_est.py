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
makes every path's 1-sparse pick over the block-level RIS dictionary.
Both grid picks score every column of their dictionary from a Hermitian
second moment, DCS-SOMP's residual covariance or a path's blocks x
blocks moment, through one real table per dictionary (``_score_table``,
``_grid_scores``): no grid-by-data product is formed, and the arrival's
hybrid gains are formed at the picked column alone. The products that
depend on the setup alone (the projected AOD dictionary, the block
indicator, the block-level RIS dictionary, the delay step's ramps) are
built once per sweep by ``channel.Setup``. The dictionaries are grids of these absolute
coordinates, so an estimate is read straight off its grid and no stage
converts to angles. Paths leave in delay order: the VLoS path, the
shortest, comes first.

Each stage takes a stack of K records, a stacked
``channel.Observation``, as a sweep's batch runs it, and the
``channel.Setup``: the pilots, schedule, dictionaries, known RIS-BS leg
and path count come from there. The grid stages (the departure picks,
the RIS arrival and the delay step) run each product once for the
stack, and a record that fails keeps its typed error in its row of the
result's ``errors`` while the others go on. The records of a stack may
be at different transmit powers: a stacked setup (a batch's
``take`` of the sweep's setup) holds the pilots with a leading row
axis, and each record's products then read its own row; a lone setup
is shared by every record, and the projected AOD dictionary by every
power.
``run_coarse`` runs all four sub-steps on a stack, the likelihood
refinement in lockstep over its records (``_damping.ascend``), each
with its own setup's pilots.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._damping import ascend, fit_rows
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


def _well_conditioned(gram: np.ndarray) -> np.ndarray:
    """Whether each Hermitian Gram of a stack (..., n, n) is finite with a
    condition number <= 1e12."""
    flat = gram.reshape((-1,) + gram.shape[-2:])
    good = np.isfinite(flat).all(axis=(1, 2))
    if good.any():
        eig = np.linalg.eigvalsh(flat[good])
        low, high = eig[:, 0], eig[:, -1]
        good[good] = (low > 0.0) & (high <= _COND_LIMIT * low)
    return good.reshape(gram.shape[:-2])


def _solve_rows(gram: np.ndarray, rhs: np.ndarray, what: str):
    """Solutions x of gram x = rhs on each row of the stacks gram
    (K, ..., n, n) and rhs (K, ..., n, m), and per row its error or None.

    A row is solved when every Gram it holds is ``_well_conditioned``.
    Any other row gets ``RankDeficient(what)`` and NaN, and stays out of
    the batched solve, which would otherwise raise for the whole stack.
    """
    good = _well_conditioned(gram).reshape(len(gram), -1).all(axis=1)
    errors = [None if ok else RankDeficient(what) for ok in good]
    x = np.full(rhs.shape, np.nan, dtype=complex)
    if good.any():
        try:
            x[good] = np.linalg.solve(gram[good], rhs[good])
        except np.linalg.LinAlgError:
            for k in np.flatnonzero(good):      # find the rows that raise
                try:
                    x[k] = np.linalg.solve(gram[k], rhs[k])
                except np.linalg.LinAlgError as exc:
                    errors[k] = RankDeficient(str(exc))
    return x, errors


@dataclass
class SompResult:
    """Support and residual norms of DCS-SOMP's P picks on a stack of K
    records, one row of each per record, and per record its error or
    None."""

    support: list                 # (K, P) 0-based dictionary column indices
    residual_norms: np.ndarray    # (K, P+1) Frobenius norms, initial first
    errors: list


@functools.lru_cache(maxsize=None)
def _moment_entries(m: int):
    """The index pairs (m1, m2), m1 < m2, of an M x M matrix's strict
    upper triangle in ``np.triu_indices`` order, and the places, in the
    float view of a C-contiguous complex M x M matrix, of the real parts
    of its diagonal, then of the real and then of the imaginary parts of
    that triangle: the M^2 real entries that determine a Hermitian
    matrix. Read-only; computed once per M."""
    first, second = np.triu_indices(m, 1)
    re_upper = 2 * (first * m + second)
    places = np.concatenate([2 * (m + 1) * np.arange(m), re_upper,
                             re_upper + 1])
    for index in (first, second, places):
        index.flags.writeable = False
    return first, second, places


def _score_table(dictionary: np.ndarray) -> np.ndarray:
    """The real (M^2, G) table W of a dictionary Theta (M, G) that scores
    every column from a Hermitian M x M second moment R:
    Re(theta_g^H R theta_g) = x(R) . W[:, g], x(R) R's M^2 real entries
    in the order of ``_moment_entries`` (``_grid_scores``). Its rows are
    |theta_mg|^2, then the real parts of 2 conj(theta_mg) theta_m'g, then
    minus their imaginary parts, over the pairs m < m'."""
    theta = np.asarray(dictionary, dtype=complex)
    first, second, _ = _moment_entries(theta.shape[-2])
    cross = 2.0 * theta[first].conj() * theta[second]
    return np.concatenate([np.abs(theta) ** 2, cross.real, -cross.imag])


def _grid_scores(moment: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Re(theta_g^H R theta_g) at every column g of the dictionary whose
    ``_score_table`` is ``table`` (M^2, G), for each Hermitian R of the
    stack ``moment`` (..., M, M); (..., G). Each R is scored by its own
    (1, M^2) @ (M^2, G) product, the BLAS call of a lone R."""
    m = moment.shape[-1]
    flat = np.ascontiguousarray(moment).reshape(moment.shape[:-2] + (m * m,))
    parts = flat.view(float)[..., _moment_entries(m)[2]]
    return (parts[..., None, :] @ table)[..., 0, :]


def pick_columns(cov: np.ndarray, dictionary: np.ndarray,
                 sparsity: int) -> SompResult:
    """DCS-SOMP's greedy picks from the covariances C = Y Y^H of a stack
    of K records Y, (K, M, M): after picks S a residual (I - P_S) Y has
    covariance R = (I - P_S) C (I - P_S), and the next pick maximizes
    Re(theta_g^H R theta_g) / ||theta_g||^2. Returns each record's
    support and residual norms sqrt(tr R), initial first.

    The scores are read off R's second moment: the dictionary (M, G),
    shared by every record, gives one real table (``_score_table``),
    and each record's scores are the product of R's M^2 real entries with
    it, one product per record (``_grid_scores``), so a record's picks
    do not depend on the records beside it. The projectors run once for
    the stack; a record whose picked columns are linearly dependent gets
    that error in its row of ``errors``.
    """
    theta = np.asarray(dictionary, dtype=complex)
    n_meas = theta.shape[-2]
    if cov.shape[1:] != (n_meas, n_meas) or not 1 <= sparsity <= n_meas:
        raise SparsityInfeasible(f"sparsity {sparsity} with a {cov.shape} "
                                 f"covariance and {n_meas} dictionary rows")
    rows = np.arange(len(cov))[:, None]
    table = _score_table(theta)
    # unequal column norms (random phase profiles) must not bias the pick
    col_power = np.maximum(np.sum(table[:n_meas], axis=-2), 1e-300)
    columns = np.broadcast_to(theta, cov.shape[:1] + theta.shape[-2:])
    support = np.zeros((len(cov), 0), dtype=int)
    errors = [None] * len(cov)
    resid = cov
    norms = [np.trace(cov, axis1=1, axis2=2).real]
    for _ in range(sparsity):
        corr = _grid_scores(resid, table) / col_power
        corr[rows, support] = -np.inf    # residual is orthogonal to these
        support = np.hstack([support, np.argmax(corr, axis=1)[:, None]])
        sel = columns.swapaxes(1, 2)[rows, support].transpose(0, 2, 1)
        sel_h = sel.conj().transpose(0, 2, 1)
        proj, failed = _solve_rows(
            sel_h @ sel, sel_h,
            "selected dictionary columns are linearly dependent")
        errors = [old or new for old, new in zip(errors, failed)]
        comp = np.eye(n_meas) - sel @ proj
        resid = comp @ cov @ comp
        norms.append(np.trace(resid, axis1=1, axis2=2).real)
    norms = np.sqrt(np.maximum(np.stack(norms, axis=1), 0.0))
    return SompResult(support.tolist(), norms, errors)


def estimate_aod_coarse(obs: Observation, setup: Setup):
    """Grid departure sines from the first T1 slots: DCS-SOMP's picks from
    the observation's ``cov1`` over the projected dictionary X1^H A_M,
    held at unit pilot amplitude (``Setup.aod_proj``).

    Returns (u_hat, picks) for a stack of K observations: u_hat (K, Q+1),
    row k the grid values of record k's selected columns, NaN in the rows
    that ``picks.errors`` names, and ``picks`` the supports and residual
    norms. The picks run once, on the whole stack: every power's setup
    shares one dictionary, at unit pilot amplitude.
    """
    res = pick_columns(obs.cov1, setup.aod_proj, setup.n_paths)
    u_hat = setup.a_m_dict.grid[res.support]
    u_hat[[e is not None for e in res.errors]] = np.nan
    return u_hat, res


def _aod_objective(s_mat: np.ndarray, c_mat: np.ndarray,
                   geom: ScenarioGeometry):
    """Concentrated AOD log-likelihood over stacks of departure sines.

    ``s_mat`` is sum_n B^H[n] E B[n] and ``c_mat`` the pilot Gram X1 X1^H,
    one per record (K, N_m, N_m). With D = A G^-1 A^H and G = A^H C A,
    2 tr(DS) - tr(S D C D^H) equals tr(G^-1 A^H S A) (constant dropped).
    Returns a map from the records ``rows`` and their stacks of sine
    vectors (k, n, P) to the values (k, n) and, per record, whether every
    G of its stack is finite with a condition number <= 1e12
    (``_well_conditioned``); a record that fails it collides and gets NaN
    values. Each record's products and solve make the calls of a lone
    record.
    """
    cs_mat = np.stack([c_mat, s_mat], axis=1)[:, :, None]

    def objective(rows, stack: np.ndarray):
        a = np.moveaxis(ms_sine_steering(geom, stack), 0, -2)  # (k, n, N_m, P)
        # A^H C A and A^H S A, each product on its own matrices
        gram, rhs = np.moveaxis(
            a.conj().swapaxes(-1, -2)[:, None] @ (cs_mat[rows] @ a[:, None]),
            1, 0)
        ok = _well_conditioned(gram).all(axis=1)
        vals = np.full(stack.shape[:2], np.nan)
        if ok.any():
            vals[ok] = np.trace(np.linalg.solve(gram[ok], rhs[ok]),
                                axis1=2, axis2=3).real
        return vals, ok
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
    more than 1e-12 relative, and rejected when its stencil collides
    (``_aod_objective``). A sine at +-1 whose gradient points out of
    [-1, 1] leaves the step space.

    A stack of K observations, with their setup stacked or shared and
    starts (K, P), runs the K refinements in lockstep, each ending where
    it ends alone. Returns the (K, P) sines and a list of K step counts,
    each counting the accepted steps; when any start's stencil collides
    it raises ``SingularConcentration``.
    """
    geom, cfg = setup.geom, setup.cfg
    t1 = cfg.t1
    x = np.array(u_init, dtype=float)
    x1 = setup.pilots[..., :t1]
    b_mat = x1 @ obs.pa[..., :t1, :].conj()             # column n: B[n]^H a_B
    s_mat = b_mat @ np.swapaxes(b_mat.conj(), -1, -2) / geom.n_bs
    c_mat = np.broadcast_to(x1 @ np.swapaxes(x1.conj(), -1, -2), s_mat.shape)
    objective = _aod_objective(s_mat, c_mat, geom)

    p = x.shape[1]
    eye = np.eye(p)
    pairs = np.triu_indices(p, 1)
    corners = [a * eye[i] + b * eye[j] for i, j in zip(*pairs)
               for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    h = _AOD_NEWTON_H
    stencil = h * np.vstack([np.zeros(p), eye, -eye, *corners])
    diag = np.arange(p)

    def model(state, rows):
        """-H, g and the free sines' columns from the stencil values."""
        x, f = state[0][rows], state[1][rows]
        f_plus, f_minus = f[:, 1:p + 1], f[:, p + 1:2 * p + 1]
        grad = (f_plus - f_minus) / (2.0 * h)
        hess = np.zeros((len(rows), p, p))
        hess[:, diag, diag] = (f_plus - 2.0 * f[:, :1] + f_minus) / h ** 2
        hess[:, pairs[0], pairs[1]] = hess[:, pairs[1], pairs[0]] = (
            f[:, 2 * p + 1:].reshape(len(rows), -1, 4) @ [1.0, -1.0, -1.0, 1.0]
            / (4.0 * h ** 2))
        free = ~((np.abs(x) >= 1.0) & (x * grad > 0.0))
        bases = None
        if not free.all():
            bases = [None if keep.all() else eye[:, keep] for keep in free]
        return -hess, grad, bases

    def evaluate(state, rows, steps):
        """Keep each clipped candidate whose F falls by no more than the
        flat share and whose stencil does not collide."""
        f = state[1][rows, 0]
        cand = np.clip(state[0][rows] + steps, -1.0, 1.0)
        f_new, ok = objective(rows, cand[:, None, :] + stencil)
        floor = f - _AOD_NEWTON_FLAT * abs(f)
        keep = ok & (f_new[:, 0] >= floor)
        state[0][rows[keep]], state[1][rows[keep]] = cand[keep], f_new[keep]
        return keep

    rows = np.arange(len(x))
    f, ok = objective(rows, x[:, None, :] + stencil)
    if not ok.all():
        raise SingularConcentration("departure angles collide")
    (x, _), steps, _ = ascend((x, f), model, evaluate,
                              nats=1.0 / cfg.noise_power)
    return x, steps.tolist()


@dataclass
class AoaEstimate:
    """Per-path RIS arrival recovery output of a stack of K records, one
    row of each per record, and per record its error or None."""

    c: np.ndarray               # (K, Q+1) elevation cosines
    s: np.ndarray               # (K, Q+1) azimuth products
    delta_tilde: np.ndarray     # (K, Q+1, N) per-subcarrier hybrid gains
    clamped: np.ndarray         # (K, Q+1) grid point projected onto the disk
    errors: list


def _block_signals(obs: Observation, setup: Setup, proj: np.ndarray):
    """The per-block path signals S (K, B, Q+1, N) of a stack of K
    records whose slots have the pilot projections ``proj`` (K, T, Q+1),
    and per record its error or None: every phase block de-mixed by one
    batched solve. Its temporaries are freed when it returns, before
    ``estimate_ris_aoa`` scores the grid."""
    block_sum = setup.block_sum                                 # (B, T)
    n_blocks, n_slots = block_sum.shape
    n_rows, _, n_paths = proj.shape
    if np.any(block_sum.sum(axis=1) < n_paths):
        raise RankDeficient("phase block shorter than the path count")
    ycheck = obs.pa / setup.geom.n_bs                           # (K, T, N)
    outer = proj.conj()[..., None] * proj[..., None, :]    # (K, T, Q+1, Q+1)
    gram = (block_sum @ outer.reshape(n_rows, n_slots, -1)).reshape(
        n_rows, n_blocks, n_paths, n_paths)
    # the right-hand sides are formed one path at a time, which keeps a
    # stack's temporaries small
    rhs = np.stack([block_sum @ (proj[..., q, None].conj() * ycheck)
                    for q in range(n_paths)], axis=2)     # (K, B, Q+1, N)
    return _solve_rows(gram, rhs, "block mixing matrix has no right inverse")


def estimate_ris_aoa(obs: Observation, setup: Setup,
                     u_hat: np.ndarray) -> AoaEstimate:
    """Recover per-path RIS arrival coordinates (c, s) and hybrid gains.

    Scales the beamformed record pa by 1/N_B and de-mixes every phase
    block at once (``_block_signals``): with p_t the slots' pilot
    projections (Q+1,), block b has the Gram G_b = sum_{t in b} conj(p_t)
    p_t^T and the right-hand side sum_{t in b} conj(p_t) pa_t^T, and one
    batched solve gives the per-block path signals S (blocks, Q+1, N).
    Each path then makes a 1-sparse pick over the block-level dictionary
    D = ``setup.ris_eff``: path q, with signals S_q (blocks, N), takes
    the column g maximizing ||d_g^H S_q||^2 / ||d_g||^2, scored as
    d_g^H (S_q S_q^H) d_g / ||d_g||^2 from its blocks x blocks second
    moment through D's real table (``_score_table``, ``_grid_scores``),
    and its hybrid gains are Z = d_g^H S_q / ||d_g||^2, formed at the
    picked column alone. The grids hold c and s in [-1, 1), so the picked
    point needs only its s projected onto the disk, |s| <= sqrt(1 - c^2);
    ``clamped`` marks a path whose s moved.

    A stack of K observations with a (K, Q+1) stack of sines runs each
    step once for the stack, each record's and path's products on its
    own operands, as on a stack of one; a record whose block Grams fail
    the condition check gets its error in its row of ``errors`` and NaN
    gains. A stacked setup gives each record's pilot projections its own
    row's pilots.
    """
    cfg = setup.cfg
    paths, errors = _block_signals(
        obs, setup, pilot_projection(setup.geom, setup.pilots, u_hat))
    signals = paths.swapaxes(1, 2)                        # (K, Q+1, B, N)
    moment = signals @ signals.conj().swapaxes(-1, -2)    # (K, Q+1, B, B)
    power = setup.ris_eff_power
    support = np.argmax(
        _grid_scores(moment, _score_table(setup.ris_eff)) / power, axis=-1)
    picked = setup.ris_eff.T.conj()[support]              # (K, Q+1, B)
    delta_tilde = ((picked[..., None, :] @ signals)[..., 0, :]
                   / power[support, None])
    k_el, k_az = divmod(support, cfg.g_ris_az)
    c = setup.ris_dict.elevation.grid[k_el]
    s_grid = setup.ris_dict.azimuth.grid[k_az]
    rim = np.sqrt(1.0 - c * c)
    s = np.clip(s_grid, -rim, rim)
    return AoaEstimate(c, s, delta_tilde, s != s_grid, errors)


@dataclass
class DelayEstimate:
    """Per-path delays and gains of a stack of K records, one row of each
    per record, and per record its error or None."""

    tau: np.ndarray             # (K, Q+1) seconds
    gains: np.ndarray           # (K, Q+1) complex
    errors: list


def estimate_toa(delta_tilde: np.ndarray, setup: Setup) -> DelayEstimate:
    """Delays and gains of all paths of a stack of K records from their
    hybrid per-subcarrier gains D (K, Q+1, N), one row d per path.

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

    Each step runs once for the stack. Returns the (K, Q+1) delays and
    gains; a record with a normalized delay tau B / N outside (0, 1) gets
    ``OutOfRange`` in its row of ``errors``.
    """
    d = np.asarray(delta_tilde, dtype=complex)                  # (K, Q+1, N)
    n, bw = setup.cfg.n_subcarriers, setup.cfg.bandwidth
    m0 = np.argmax(np.abs(d @ setup.bin_ramp), axis=2)          # 0-based bins
    tau_bin = m0 / bw
    lo, hi = tau_bin - 0.5 / bw, tau_bin + 0.5 / bw
    grid = np.abs((d * setup.bin_ramp.T[m0]) @ setup.grid_ramp)
    start = np.minimum(np.maximum(
        tau_bin + setup.grid_offsets[np.argmax(grid, axis=2)], lo), hi)
    weights = setup.ramp_weights

    def ramp_sums(tau):
        """z, z' and z'' at the delays ``tau``, the last axis."""
        return (d * np.exp(np.multiply.outer(tau, weights[:, 1]))) @ weights

    z = ramp_sums(start)
    f_start = np.abs(z[..., 0]) ** 2
    tau = start
    for _ in range(_TOA_NEWTON_STEPS):
        grad = np.real(z[..., 0].conj() * z[..., 1])
        curv = np.abs(z[..., 1]) ** 2 + np.real(z[..., 0].conj() * z[..., 2])
        # no step where f is not concave: grad / -inf is zero
        tau = np.minimum(np.maximum(
            tau - grad / np.where(curv < 0.0, curv, -np.inf), lo), hi)
        z = ramp_sums(tau)
    # f is flat to rounding near its peak: the Newton point is taken
    # unless it lost more than _TOA_FLAT of the start's f
    f = np.abs(z[..., 0]) ** 2
    take = f >= f_start * (1.0 - _TOA_FLAT)
    tau, f = np.where(take, tau, start), np.where(take, f, f_start)
    tau = np.where(f > np.abs(ramp_sums(tau_bin)[..., 0]) ** 2, tau, tau_bin)

    upsilon = tau * bw / n
    outside = ~((upsilon > 0.0) & (upsilon < 1.0))
    errors = [OutOfRange(f"normalized delay {row[out][0]} outside (0, 1)")
              if out.any() else None for row, out in zip(upsilon, outside)]
    ramp = subcarrier_ramp(tau, bw, n)                          # (N, K, Q+1)
    gains = np.einsum("nkq,kqn->kq", ramp.conj(), d) / n
    return DelayEstimate(tau, gains, errors)


@dataclass
class CoarseEstimate:
    """Full coarse-stage output of a stack of K records in delay order
    (the VLoS path first): the parameters are (K, Q+1) stacks, each flag
    holds one entry per record, and ``errors`` per record the first
    error it met or None."""

    params: ChannelParams
    flags: dict
    errors: list


def run_coarse(obs: Observation, setup: Setup,
               refine_aod: bool = True) -> CoarseEstimate:
    """Run the four coarse sub-steps on a stack of observations and order
    the paths by delay: the picks, the RIS arrival and the delay step once
    for the stack, and in between, when ``refine_aod``, the AOD refinement
    in lockstep on the stack of the records whose picks succeeded, each
    with its own setup's pilots (``Setup.take``). Where that stack raises,
    each record is refined alone (``_damping.fit_rows``). A record's first
    error, in stage order, stays in its row of ``errors``.
    """
    u_hat, picks = estimate_aod_coarse(obs, setup)
    errors, flags = list(picks.errors), {}
    if refine_aod:
        flags["aod_steps"] = [None] * len(errors)
        picked = np.flatnonzero([e is None for e in errors])

        def refine(rows):
            rows = picked[rows]
            sines, steps = refine_aod_mle(obs.take(rows), setup.take(rows),
                                          u_hat[rows])
            return list(zip(sines, steps))
        if picked.size:
            outs, failed = fit_rows(refine, picked.size)
            for k, out, exc in zip(picked, outs, failed):
                if exc is None:
                    u_hat[k], flags["aod_steps"][k] = out
                errors[k] = exc
    aoa = estimate_ris_aoa(obs, setup, u_hat)
    toa = estimate_toa(aoa.delta_tilde, setup)

    order = np.argsort(toa.tau, axis=-1, kind="stable")

    def by_delay(values):
        return np.take_along_axis(values, order, axis=-1)
    params = ChannelParams(*map(by_delay, (toa.tau, toa.gains, u_hat,
                                           aoa.c, aoa.s)))
    flags["aoa_clamped"] = by_delay(aoa.clamped).tolist()
    return CoarseEstimate(params, flags, [
        next(filter(None, row), None)
        for row in zip(errors, aoa.errors, toa.errors)])
