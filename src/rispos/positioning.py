"""Position, rotation, and scatterer recovery from channel parameters.

Closed forms invert the geometric relations exactly in the noiseless
case; a weighted Gauss-Newton/Levenberg-Marquardt refinement then fits
all channel parameters jointly with the estimated Fisher information as
the weight. Both read the channel parameters as they are held: an
arrival (c, s) is the ray direction [sqrt(1 - c^2 - s^2), -s, -c] from
the RIS, a departure sine u enters the scatterer projection as it is,
and only the rotation angle goes through angles, with psi_in from
``params.arrival_azimuth``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._damping import ascend
from .bounds import transformation_matrix
from .errors import ArccosDomain, DegenerateGeometry, SingularDenominator
from .geometry import SPEED_OF_LIGHT, forward_map_G, ms_ris_range
from .params import ChannelParams, PositionParams, arrival_azimuth

ARCCOS_CLAMP_TOL = 1e-9


def closed_form_ms(params: ChannelParams, ris: np.ndarray,
                   bs: np.ndarray) -> tuple[np.ndarray, float, dict]:
    """MS position and rotation from the VLoS path parameters.

    The MS sits on the ray leaving the RIS along the arrival direction
    at the range implied by the VLoS delay; the rotation angle follows
    from the departure sine and the arrival angles,
    alpha = (2 pi - psi_in) - arccos(sin theta_t / sin phi_in).
    """
    flags = {"zero_range": False, "alpha_wrapped": False}
    rng = ms_ris_range(float(params.tau[0]), ris, bs)
    if rng <= 0.0:
        flags["zero_range"] = True
    c, s = float(params.c[0]), float(params.s[0])
    ms = np.asarray(ris, float) + rng * _ray(c, s)

    sin_phi = np.sqrt(max(1.0 - c * c, 0.0))
    if sin_phi < 1e-12:
        raise DegenerateGeometry("vertical arrival leaves rotation unobservable")
    ratio = float(params.u[0]) / sin_phi
    if abs(ratio) > 1.0 + ARCCOS_CLAMP_TOL:
        raise ArccosDomain(f"rotation arccos argument {ratio} out of range")
    alpha_raw = ((2.0 * np.pi - float(arrival_azimuth(c, s)))
                 - np.arccos(np.clip(ratio, -1.0, 1.0)))
    alpha = float(np.mod(alpha_raw, np.pi))
    if abs(alpha - alpha_raw) > 1e-12:
        flags["alpha_wrapped"] = True
    return ms, alpha, flags


def _ray(c: float, s: float) -> np.ndarray:
    """Unit direction from the RIS toward the source of an arrival (c, s)."""
    return np.array([np.sqrt(max(1.0 - c * c - s * s, 0.0)), -s, -c])


def closed_form_scatterer(tau_q: float, u_q: float, c_q: float, s_q: float,
                          ms: np.ndarray, alpha: float,
                          ris: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Scatterer coordinates from one NLoS path and the recovered MS pose.

    Solves the three-equation system (RIS ray direction, delay split,
    departure-sine projection), parametrized by the scatterer-RIS range
    so only the shared projection denominator is ever divided by.
    """
    ris = np.asarray(ris, float)
    direction = _ray(c_q, s_q)
    a_coef, b_coef = direction[0], direction[1]
    d_total = tau_q * SPEED_OF_LIGHT - np.linalg.norm(ris - np.asarray(bs, float))
    denom = u_q + a_coef * np.cos(alpha) - b_coef * np.sin(alpha)
    if abs(denom) < 1e-12:
        raise SingularDenominator("scatterer projection denominator vanished")
    d_sr = (d_total * u_q
            - (ris[0] - ms[0]) * np.cos(alpha)
            + (ris[1] - ms[1]) * np.sin(alpha)) / denom
    return ris + d_sr * direction


def position_closed_form(params: ChannelParams, ris: np.ndarray,
                         bs: np.ndarray) -> tuple[PositionParams, dict]:
    """Closed-form initialization of all position-level parameters."""
    ms, alpha, flags = closed_form_ms(params, ris, bs)
    scatterers = np.empty((params.n_paths - 1, 3))
    for q in range(1, params.n_paths):
        scatterers[q - 1] = closed_form_scatterer(
            float(params.tau[q]), float(params.u[q]), float(params.c[q]),
            float(params.s[q]), ms, alpha, ris, bs)
    pos = PositionParams(gains=params.gains.copy(), ms=ms, alpha=alpha,
                         scatterers=scatterers)
    return pos, flags


@dataclass
class LmDiagnostics:
    """Outcome of one weighted nonlinear least-squares refinement:
    r^T W r at the start and after each accepted step, the accepted
    steps, and whether the fit converged."""

    objective_history: list = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False


def _weight_matrix(j_eta: np.ndarray) -> np.ndarray:
    """Symmetrize and floor the FIM weight so the objective is PSD; of
    each FIM of a stack (K, n, n)."""
    sym = 0.5 * (j_eta + j_eta.swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(sym)
    floor = 1e-12 * np.maximum(np.max(np.abs(vals), axis=-1),
                               np.finfo(float).tiny)
    return ((vecs * np.maximum(vals, floor[..., None])[..., None, :])
            @ vecs.swapaxes(-1, -2))


def refine_position_lm(eta_hat: np.ndarray, j_eta: np.ndarray,
                       pos_init: PositionParams,
                       ris: np.ndarray, bs: np.ndarray):
    """Minimize the FIM-weighted channel-parameter misfit over the pose.

    The residual r is the estimated channel vector minus the geometric
    map of the position parameters, and the fit maximizes -r^T W r / 2,
    in nats for W the channel FIM, by ``_damping.ascend``: with T the
    transformation matrix d eta / d eta~, its gradient is T W r and its
    Gauss-Newton curvature T W T^T, so the first step is Gauss-Newton and
    the fit takes one last step and ends once that decrement is below
    1e-6 nats. A candidate is
    kept when it stays in the rotation domain, its legs are not
    degenerate and r^T W r does not rise; it costs one ``forward_map_G``,
    and T is built only at accepted points.

    A stack of K fits, ``eta_hat`` (K, 6(Q+1)), ``j_eta`` (K, 6(Q+1),
    6(Q+1)) and a list of K start poses, runs in lockstep, each fit
    ending where it ends alone, with one ``forward_map_G`` of the
    stacked candidates per pass. Returns lists of K poses and
    ``LmDiagnostics``; when any start's legs are degenerate it raises
    ``DegenerateGeometry``.
    """
    eta_hat = np.asarray(eta_hat, dtype=float)
    weight = _weight_matrix(j_eta)
    alpha_at = 2 * pos_init[0].gains.size + 3   # alpha's entry of a vector

    def objectives(r, rows):
        """r^T W r of each row's residual."""
        return (r[:, None, :] @ weight[rows] @ r[:, :, None])[:, 0, 0]

    def residuals(vec, rows):
        return eta_hat[rows] - forward_map_G(
            PositionParams.from_vector(vec), ris, bs).to_vector()

    def model(state, rows):
        """T W T^T and T W r at the rows' accepted points."""
        t_mat = transformation_matrix(PositionParams.from_vector(
            state[0][rows]), ris, bs)
        t_w = t_mat @ weight[rows]
        return (t_w @ t_mat.swapaxes(1, 2),
                (t_w @ state[1][rows, :, None])[..., 0], None)

    def evaluate(state, rows, steps):
        """Keep each candidate that stays in the rotation domain, is not
        degenerate, and whose r^T W r does not rise and is not NaN."""
        vec = state[0][rows] + steps
        inside = (0.0 <= vec[:, alpha_at]) & (vec[:, alpha_at] < np.pi)
        r = np.full(state[1][rows].shape, np.nan)
        try:
            if inside.any():
                r[inside] = residuals(vec[inside], rows[inside])
        except DegenerateGeometry:          # find the rows that degenerate
            for i in np.flatnonzero(inside):
                try:
                    r[i] = residuals(vec[i:i + 1], rows[i:i + 1])[0]
                except DegenerateGeometry:
                    pass
        obj = objectives(r, rows)
        keep = obj <= state[2][rows]
        kept = rows[keep]
        for x, new in zip(state, (vec, r, obj)):
            x[kept] = new[keep]
        for k, value in zip(kept, obj[keep].tolist()):
            diags[k].objective_history.append(value)
        return keep

    rows = np.arange(len(eta_hat))
    vec = np.stack([p.to_vector() for p in pos_init])
    r = residuals(vec, rows)
    obj = objectives(r, rows)
    diags = [LmDiagnostics(objective_history=[value])
             for value in obj.tolist()]
    (vec, _, _), steps, converged = ascend((vec, r, obj), model, evaluate)
    poses = []
    for k, diag in enumerate(diags):
        diag.n_iter, diag.converged = int(steps[k]), bool(converged[k])
        poses.append(PositionParams.from_vector(vec[k]))
    return poses, diags


def wrapped_rotation_error(alpha_est: float, alpha_true: float) -> float:
    """Rotation error on the half-circle (alpha is defined modulo pi)."""
    d = np.mod(alpha_est - alpha_true, np.pi)
    return float(min(d, np.pi - d))
